"""Property tests of the step-potential phase kernel on random potentials."""

import math
from itertools import accumulate

from hypothesis import assume, given, settings, strategies as st

from zeromodes.potential import build_w, l1_norm
from zeromodes.prufer import delta_derivative, delta_v, tail_angle_bound
from zeromodes.spectra import real_spectrum
from conftest import lift_angle, mirror, negate, ode_angle, translate

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def step_potentials(draw, nonnegative: bool = False):
    """1-5 pieces of length 0.1-3, amplitudes in [-3, 3] ([0, 3] if
    nonnegative), zero pieces included."""
    n = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    amplitude = st.floats(0.0 if nonnegative else -3.0, 3.0)
    values = draw(st.lists(st.one_of(st.just(0.0), amplitude), min_size=n, max_size=n))
    start = draw(st.floats(-3.0, 3.0))
    return build_w(list(accumulate(lengths, initial=start)), values)


couplings = st.floats(-600.0, 600.0)


@PROPERTY
@given(step_potentials(), st.floats(-50.0, 50.0), st.floats(-math.pi, math.pi),
       st.booleans(), st.floats(0.5, 2.0))
def test_exact_propagation_matches_ode(V, gamma, theta, leftward, k):
    a, b = V.breakpoints[0], V.breakpoints[-1]
    x0, x1 = (b, a) if leftward else (a, b)
    exact = lift_angle(V, theta, x0, x1, gamma, k)
    ode = ode_angle(V, theta, x0, x1, gamma, k)
    assert abs(exact - ode) < 1e-8


@PROPERTY
@given(step_potentials(), couplings)
def test_delta_within_tail_bound(V, gamma):
    assert abs(delta_v(V, gamma, 1.0)) <= tail_angle_bound(abs(gamma) * l1_norm(V)) + 1e-9


@PROPERTY
@given(step_potentials(), couplings, st.floats(-10.0, 10.0))
def test_delta_invariant_under_translation(V, gamma, shift):
    assert abs(delta_v(translate(V, shift), gamma, 1.0) - delta_v(V, gamma, 1.0)) < 1e-9


@PROPERTY
@given(step_potentials(nonnegative=True), couplings, st.floats(0.5, 2.0))
def test_single_sign_slope_is_positive(V, gamma, k):
    # for V >= 0, d(Delta)/d(gamma) is a positively weighted integral of V
    assume(any(v > 0.0 for v in V.values))
    assert delta_derivative(V, gamma, k) > 0.0


@PROPERTY
@given(step_potentials(nonnegative=True), st.floats(1.0, 60.0))
def test_single_sign_root_count_equals_levels(V, R):
    # Delta is monotone from Delta(0) = 0, so each level (n + 1/2) pi in
    # (0, Delta(R)) is crossed exactly once
    levels = max(0, math.floor(delta_v(V, R, 1.0) / math.pi + 0.5))
    assert len(real_spectrum(V, 1.0, R, tol=1e-9).roots) == levels


@PROPERTY
@given(step_potentials(), st.floats(1.0, 60.0))
def test_pipelines_agree_on_random_potentials(V, R):
    delta = real_spectrum(V, 1.0, R, tol=1e-10).real_values()
    det = real_spectrum(V, 1.0, R, tol=1e-10, method="determinant").real_values()
    assert len(delta) == len(det)
    assert all(abs(a - b) < 1e-8 for a, b in zip(delta, det))


@PROPERTY
@given(step_potentials(), st.floats(1.0, 60.0), st.floats(-10.0, 10.0))
def test_real_spectrum_invariant_under_symmetries(V, R, shift):
    # mirroring, negating or translating V preserves the couplings
    base = real_spectrum(V, 1.0, R, tol=1e-10).real_values()
    for W in (mirror(V), negate(V), translate(V, shift)):
        other = real_spectrum(W, 1.0, R, tol=1e-10).real_values()
        assert len(other) == len(base)
        assert all(abs(a - b) < 1e-9 for a, b in zip(base, other))
