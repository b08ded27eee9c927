import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from zeromodes import _dop853, prufer
from zeromodes.closedform import gap_angle_relation_check
from zeromodes.errors import NonPositiveK, StepUnderflow
from zeromodes.potential import AnalyticPotential, build_w, hrp_potential, l1_norm
from zeromodes.prufer import (
    choose_truncation,
    delta_derivative,
    delta_grid,
    delta_v,
    is_eigenvalue,
    tail_angle_bound,
    truncation_bound,
)
from zeromodes.spectra import real_spectrum
from conftest import (
    antisymmetric_pair,
    gap_pair,
    lift_angle,
    mirror,
    ode_angle,
    square_bump,
    translate,
    twin_gap,
)


def test_delta_at_zero_coupling():
    for V in (square_bump(), gap_pair(1.0, 2.0), antisymmetric_pair(1.0)):
        assert abs(delta_v(V, 0.0, 1.0)) < 1e-12


def test_delta_at_zero_coupling_analytic(sech_well):
    assert abs(delta_v(sech_well, 0.0, 1.0)) < 1e-10


def test_k_must_be_positive():
    with pytest.raises(NonPositiveK):
        delta_v(square_bump(), 1.0, 0.0)
    with pytest.raises(NonPositiveK):
        delta_v(square_bump(), 1.0, -2.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [hrp_potential, square_bump], ids=["analytic", "step"])
def test_non_finite_coupling_is_named(make, gamma):
    V = make()
    for call in (lambda: delta_grid(V, [1.0, gamma], 1.0), lambda: delta_v(V, gamma, 1.0),
                 lambda: delta_derivative(V, gamma, 1.0)):
        with pytest.raises(ValueError, match=f"got {gamma}"):
            call()


def test_gap_fixed_point():
    # theta = pi/4 is a stationary solution across a zero piece
    V = build_w([0.0, 5.0], [0.0])
    theta = lift_angle(V, math.pi / 4, 5.0, 0.0, 3.0, 1.0)
    assert abs(theta - math.pi / 4) < 1e-12


def test_gap_relation_for_propagated_angles():
    V = build_w([0.0, 2.0], [0.0])
    rng = np.random.RandomState(21)
    for _ in range(10):
        th0 = rng.uniform(-math.pi, math.pi)
        k = rng.uniform(0.5, 2.0)
        theta = lift_angle(V, th0, 0.0, 2.0, 1.7, k)
        assert abs(gap_angle_relation_check(th0, theta, k, 2.0)) < 1e-8


def test_exact_vs_ode_propagation():
    V = gap_pair(1.0, 2.0)
    for gamma in (0.5, 2.0, 7.3):
        exact = lift_angle(V, -math.pi / 4, 2.0, -2.0, gamma, 1.0)
        ode = ode_angle(V, -math.pi / 4, 2.0, -2.0, gamma, 1.0)
        assert abs(exact - ode) < 1e-8


def test_propagate_round_trip():
    V = gap_pair(0.5, 1.5)
    fwd = lift_angle(V, 0.3, -3.0, 2.0, 4.0, 1.0)
    back = lift_angle(V, fwd, 2.0, -3.0, 4.0, 1.0)
    assert abs(back - 0.3) < 1e-9


def test_delta_monotone_for_single_sign():
    V = square_bump()
    gs = np.linspace(0.0, 12.0, 120)
    ds = delta_grid(V, gs, 1.0)
    assert np.all(np.diff(ds) > 0)


def test_delta_slope_approaches_integral():
    V = square_bump()
    d = delta_v(V, 200.0, 1.0)
    assert abs(d / 200.0 - 2.0) < 0.05


def test_membership_examples(sech_well):
    assert is_eigenvalue(sech_well, 1.5, 1.0, tol=1e-6).is_root
    assert is_eigenvalue(sech_well, 2.5, 1.0, tol=1e-6).is_root
    assert not is_eigenvalue(sech_well, 0.5, 1.0, tol=1e-6).is_root
    for V in (square_bump(), antisymmetric_pair(1.0)):
        assert not is_eigenvalue(V, 0.0, 1.0, tol=1e-6).is_root


def test_membership_symmetric_under_negation():
    from test_closedform import bump_oracle_roots

    V = square_bump()
    for r in bump_oracle_roots(10.0):
        assert is_eigenvalue(V, r, 1.0, tol=1e-7).is_root
        assert is_eigenvalue(V, -r, 1.0, tol=1e-7).is_root


def test_first_root_agrees_with_determinant():
    from test_closedform import bump_oracle_roots

    first = bump_oracle_roots(3.0)[0]
    chk = is_eigenvalue(square_bump(), first, 1.0, tol=1e-8)
    assert chk.is_root


def test_tail_angle_bound_properties():
    assert tail_angle_bound(0.0) == 0.0
    for a in np.linspace(0.0, math.pi / 2 - 1e-9, 20):
        assert tail_angle_bound(a) == a
    rng = np.random.RandomState(4)
    for _ in range(50):
        a, b = rng.uniform(0, 20, 2)
        ha, hb = tail_angle_bound(a), tail_angle_bound(b)
        assert a <= ha <= 2 * a + 1e-15
        assert ha + hb <= tail_angle_bound(a + b) + 1e-12
    assert tail_angle_bound(1.0) <= tail_angle_bound(1.5)


def test_truncation_bound(sech_well):
    assert truncation_bound(sech_well, 3.0, 40.0) < 1e-8
    assert truncation_bound(sech_well, 0.0, 2.0) == 0.0
    X = choose_truncation(sech_well, 5.0)
    assert truncation_bound(sech_well, 5.0, X) < 1e-8


def test_truncation_grows_past_the_decay_hint():
    # a hint far inside the tail: the search grows X until the bound holds
    gauss = AnalyticPotential(lambda x: math.exp(-x * x), decay_hint=0.5)
    X = choose_truncation(gauss, 3.0)
    assert X > 4.0
    assert truncation_bound(gauss, 3.0, X) < 1e-8


def test_slowly_decaying_tail_cannot_be_truncated():
    # the tail integral of 1/(1 + x^2) beyond X is ~2/X, above tol up to X = 1e6
    lorentz = AnalyticPotential(lambda x: 1.0 / (1.0 + x * x), decay_hint=1.0)
    with pytest.raises(StepUnderflow, match="decays too slowly"):
        choose_truncation(lorentz, 1.0)


def test_uniform_delta_bound():
    for V in (square_bump(), gap_pair(1.0, 2.0), antisymmetric_pair(1.0)):
        norm = l1_norm(V)
        gs = np.linspace(0.0, 30.0, 200)
        ds = delta_grid(V, gs, 1.0)
        for g, d in zip(gs, ds):
            assert abs(d) <= tail_angle_bound(abs(g) * norm) + 1e-9


def test_uniform_delta_bound_analytic(sech_well):
    norm = l1_norm(sech_well)
    for g in (0.5, 2.0, 5.0):
        d = delta_v(sech_well, g, 1.0)
        assert abs(d) <= tail_angle_bound(g * norm) + 1e-8


def test_delta_derivative_positive_and_matches_fd():
    for V in (square_bump(), build_w([0.0, 1.0, 2.0], [2.0, 1.0])):
        d = delta_derivative(V, 3.0, 1.0)
        assert d > 0
        h = 1e-5
        fd = (delta_v(V, 3.0 + h, 1.0) - delta_v(V, 3.0 - h, 1.0)) / (2 * h)
        assert abs(d - fd) < 1e-5


def test_delta_derivative_analytic_matches_fd(sech_well):
    d = delta_derivative(sech_well, 1.0, 1.0)
    assert d < 0  # nonpositive potential: defect decreasing
    h = 1e-5
    fd = (delta_v(sech_well, 1.0 + h, 1.0) - delta_v(sech_well, 1.0 - h, 1.0)) / (2 * h)
    assert abs(d - fd) < 1e-5


@pytest.mark.parametrize("gamma", [0.5, 2.0, 5.5, 20.0])
def test_variational_slope_matches_central_difference(sech_well, gamma):
    # d(Delta)/d(gamma) from the variational components of the Delta solve
    delta, slope = delta_grid(sech_well, [gamma], 1.0, slope=True)
    h = 1e-5
    minus, plus = delta_grid(sech_well, [gamma - h, gamma + h], 1.0)
    fd = (plus - minus) / (2 * h)
    assert abs(slope[0] - fd) < 1e-6 * abs(fd)
    assert abs(delta[0] - delta_v(sech_well, gamma, 1.0)) < 1e-7
    assert delta_derivative(sech_well, gamma, 1.0) == slope[0]


def _richardson_slope(V, gamma, k, h=1e-3):
    """d(Delta)/d(gamma) from central differences at h and h/2, extrapolated."""
    minus, plus, minus2, plus2 = delta_grid(V, [gamma - h, gamma + h, gamma - h / 2, gamma + h / 2], k)
    wide, narrow = (plus - minus) / (2 * h), (plus2 - minus2) / h
    return (4 * narrow - wide) / 3


# a piece of length 2 and value 1 at k = 1 has z = (gamma^2 - 1) * 4 = w^2 L^2;
# the slope switches to a series at |z| = 1e-2
_SLOPE_CASES = [
    (square_bump(), 1.0, 1.0),  # gamma*v = k exactly
    (square_bump(), -1.0, 1.0),  # gamma*v = -k exactly
    (square_bump(), math.sqrt(1 + 0.5e-2 / 4), 1.0),  # z = 5e-3, inside the switch
    (square_bump(), math.sqrt(1 + 2e-2 / 4), 1.0),  # z = 2e-2, outside
    (square_bump(), math.sqrt(1 - 0.5e-2 / 4), 1.0),  # z = -5e-3
    (square_bump(), math.sqrt(1 - 2e-2 / 4), 1.0),  # z = -2e-2
    (build_w([0.0, 1.0, 2.0], [2.0, 1.0]), 3.0, 1.0),
    (gap_pair(1.0, 2.0), 3.0, 1.0),  # gap pieces
    (gap_pair(1.0, 2.0), -0.4, 1.7),
    (twin_gap(1.0), 7.3, 0.8),
    (square_bump(), 1000.3, 1.0),
    (gap_pair(1.0, 2.0), 999.7, 1.0),
]


@pytest.mark.parametrize("V, gamma, k", _SLOPE_CASES)
def test_step_slope_matches_richardson_difference(V, gamma, k):
    # the forward-mode slope of the closed-form sweep against its own values
    delta, slope = delta_grid(V, [gamma], k, slope=True)
    assert delta[0] == delta_v(V, gamma, k)
    assert abs(slope[0] - _richardson_slope(V, gamma, k)) < 1e-8 * abs(slope[0])
    assert delta_derivative(V, gamma, k) == slope[0]


def test_step_slope_on_the_series_switch():
    # z = w^2 L^2 = -1.0e-4: the reference is mpmath's derivative of the
    # one-piece closed form at 40 digits
    V = build_w([-1.6013819240241327, 0.7081039543194274], [2.0])
    d = delta_derivative(V, 0.721916444547119, 1.4438393817365156)
    assert abs(d - 1.8142530768679532) < 5e-15 * d


def test_delta_derivative_zero_potential():
    assert delta_derivative(build_w([0.0, 1.0], [0.0]), 2.0, 1.0) == 0.0


def test_single_sign_crossing_count():
    # each half-integer level is crossed exactly once (strict monotonicity)
    V = square_bump()
    R = 30.0
    gs = np.linspace(0.0, R, 600)
    ds = delta_grid(V, gs, 1.0)
    crossings = 0
    for a, b in zip(ds, ds[1:]):
        crossings += len(range(math.ceil(a / math.pi - 0.5 + 1e-12),
                               math.floor(b / math.pi - 0.5 - 1e-12) + 1))
    expected = math.floor(delta_v(V, R, 1.0) / math.pi + 0.5)
    assert crossings == expected


def test_antisymmetric_is_never_eigen():
    V = antisymmetric_pair(1.0)
    rng = np.random.RandomState(17)
    for g in rng.uniform(0.1, 50.0, 25):
        assert not is_eigenvalue(V, float(g), 1.0, tol=1e-6).is_root


def test_delta_grid_matches_scalar(sech_well):
    # gamma = 1 puts |gamma v| = k on the unit pieces of the step potentials
    cases = [(sech_well, [0.0, 0.7, 1.9])]
    cases += [(V, [-37.5, 0.0, 1.0, 150.0, 600.0])
              for V in (square_bump(), gap_pair(1.0, 2.0), twin_gap(1.0))]
    for V, gs in cases:
        grid = delta_grid(V, gs, 1.0)
        for g, d in zip(gs, grid):
            assert abs(d - delta_v(V, g, 1.0)) < 1e-9


def test_vector_solve_does_not_depend_on_its_batch(sech_well):
    # the analytic branch integrates a whole grid in one ODE solve, with its
    # tolerances scaled to the batch size; a coupling's Delta must not move
    for k in (1.0, 1.5):
        for g in (0.7, 3.3, 5.9):
            grid = np.sort(np.append(np.linspace(0.0, 6.0, 199), g))
            batch = delta_grid(sech_well, grid, k)[np.searchsorted(grid, g)]
            assert abs(batch - delta_v(sech_well, g, k)) < 1e-9


def test_fused_solve_keeps_the_branches_apart(sech_well):
    # on an uneven well each branch must read V on its own side: compare the
    # one-solve Delta with each branch integrated on its own
    def walk(V, g, theta, x0):
        sol = solve_ivp(lambda x, th: g * V(x) + np.cos(2.0 * th), (x0, 0.0), [theta],
                        method="DOP853", rtol=1e-11, atol=1e-12)
        return sol.y[0, -1]

    gs = [0.7, 3.3, 5.9]
    shifted = translate(sech_well, 0.9)
    for V in (shifted, mirror(shifted)):
        X = choose_truncation(V, max(gs))
        for g, d in zip(gs, delta_grid(V, gs, 1.0)):
            ref = -math.pi / 2 - walk(V, g, -math.pi / 4, X) + walk(V, g, math.pi / 4, -X)
            assert abs(d - ref) < 1e-9
    got = real_spectrum(shifted, 1.0, 6.0).real_values()
    assert np.max(np.abs(np.array(got) - np.arange(1.5, 6.0, 1.0))) < 1e-9


def _plain_walk_rhs(V, X, gammas, k, slope):
    """_walk_ode's right-hand side with a fresh array per call, in its state
    layout: -theta_plus and theta_minus over the couplings, then their
    slopes."""
    n = 2 * gammas.size

    def rhs(s, state):
        v = np.array([V(X - s), V(s - X)])[:, None]
        u = state[:n].reshape(2, -1)
        angles = (v * gammas + k * np.cos(2.0 * u)).ravel()
        if not slope:
            return angles
        p = state[n:].reshape(2, -1)
        return np.concatenate([angles, (v - 2.0 * k * np.sin(2.0 * u) * p).ravel()])
    return rhs


@pytest.mark.parametrize("gammas, slope", [
    (np.linspace(0.0, 6.0, 177), False),  # real_spectrum's scan grid at k = 1, R = 6
    (np.arange(1.5, 6.0, 1.0) + 1e-3, True),  # Newton's couplings next to the roots
], ids=["scan", "refine"])
def test_walk_ode_keeps_the_bits_of_a_plain_right_hand_side(sech_well, gammas, slope):
    k, m, n = 1.0, gammas.size, 2 * gammas.size
    X = choose_truncation(sech_well, gammas.max())
    y0 = np.concatenate([np.full(n, math.pi / 4), np.zeros(n if slope else 0)])
    shrink = 1.0 / math.sqrt(y0.size)
    atol = np.where(np.arange(y0.size) < n, prufer._ODE_ATOL * shrink, np.inf)
    rtol = prufer._ODE_RTOL * (0.5 if slope else 1.0) * shrink
    y_old, y = _dop853.solve_ivp(_plain_walk_rhs(sech_well, X, gammas, k, slope), (0.0, X),
                                 y0, rtol, atol)
    y = y_old + (y - y_old)
    want = [-math.pi / 2 + y[:m] + y[m:n]] + ([y[n + m:] + y[n:n + m]] if slope else [])
    got = prufer._walk_ode(sech_well.evaluator, X, gammas, k, slope)
    got = list(got) if slope else [got]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("slope", [False, True])
def test_empty_grid_gives_empty_arrays(sech_well, slope, monkeypatch):
    monkeypatch.setattr(prufer, "solve_ivp", None)  # no solve may run
    for V in (sech_well, square_bump()):
        got = delta_grid(V, [], 1.0, slope=slope)
        for a in (got if slope else (got,)):
            assert isinstance(a, np.ndarray) and a.shape == (0,) and a.dtype == float
