import math

import numpy as np
import pytest
from scipy.integrate import quad

from zeromodes.errors import (
    InfeasibleTriple,
    LengthMismatch,
    NonMonotoneBreakpoints,
    NonPositiveK,
    NotOneGap,
    TrivialPotential,
    ZeroIntegral,
)
from zeromodes.potential import (
    AnalyticPotential,
    GapKind,
    build_w,
    classify_gaps,
    from_record,
    hrp_potential,
    integral,
    l1_norm,
    one_gap_params,
    synthesize_one_gap,
    tail_l1,
    to_record,
)
from conftest import (
    antisymmetric_pair,
    gap_pair,
    mirror,
    negate,
    square_bump,
    translate,
    twin_gap,
)


def test_build_w_evaluation():
    V = square_bump()
    assert V(0.0) == 1.0
    assert V(2.0) == 0.0
    assert V(-1.0) == 1.0  # breakpoints take the right limit
    assert V(1.0) == 0.0
    assert V(-1.0000001) == 0.0


def test_build_w_zero_potential():
    V = build_w([0.0, 1.0], [0.0])
    assert l1_norm(V) == 0.0
    assert V(0.5) == 0.0


def test_build_w_contract_violations():
    with pytest.raises(NonMonotoneBreakpoints):
        build_w([-2.0, -1.0, -1.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(NonMonotoneBreakpoints):
        build_w([0.0, -1.0], [1.0])
    with pytest.raises(LengthMismatch):
        build_w([0.0, 1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        build_w([0.0], [])


def test_l1_norm_examples():
    assert l1_norm(square_bump()) == 2.0
    for g in (0.0, 0.5, 1.0, 2.0):
        assert l1_norm(twin_gap(g)) == 4.0
    # sech well: quadrature against the analytic antiderivative 2*atan(tanh(x/2))
    exact = 2.0 * (2.0 * math.atan(math.tanh(50.0 / 2.0)))
    assert abs(exact - math.pi) < 1e-12
    assert abs(l1_norm(hrp_potential()) - math.pi) < 1e-9


def test_integral_examples():
    for g, b in [(0.0, 2.0), (1.0, 2.0), (1.0, 0.5), (2.0, 3.0)]:
        assert abs(integral(gap_pair(g, b)) - (b - 1.0)) < 1e-12
    for g in (0.0, 1.0):
        assert integral(twin_gap(g)) == 0.0
    assert integral(build_w([0.0, 1.0], [0.0])) == 0.0
    assert abs(integral(hrp_potential()) + math.pi) < 1e-9


def test_tail_l1():
    V = square_bump()
    assert tail_l1(V, 0.0) == 2.0
    assert tail_l1(V, 0.5) == 1.0
    assert tail_l1(V, 1.0) == 0.0
    assert tail_l1(V, 5.0) == 0.0
    got = tail_l1(hrp_potential(), 3.0)
    want, _ = quad(lambda x: 1.0 / math.cosh(x), 3.0, 60.0)
    assert abs(got - 2.0 * want) < 1e-10


def _quad_reference(f, X):
    """scipy's adaptive quadrature over |x| < X, split at 0, and over |x| > X."""
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    parts = [quad(f, -X, 0.0, **opts), quad(f, 0.0, X, **opts),
             quad(f, -math.inf, -X, **opts), quad(f, X, math.inf, **opts)]
    return [p[0] for p in parts]


@pytest.mark.parametrize("V", [
    translate(hrp_potential(), 0.7),
    negate(hrp_potential()),
    mirror(translate(hrp_potential(), -1.3)),
    AnalyticPotential(lambda x: math.exp(-x * x), decay_hint=7.0),
    AnalyticPotential(lambda x: x * math.exp(-x * x), decay_hint=7.0),  # |V| has a kink at 0
    AnalyticPotential(lambda x: 1.0 / (1.0 + x * x), decay_hint=10.0),  # algebraic tail
], ids=["translate", "negate", "mirror", "gauss", "odd-gauss", "lorentz"])
def test_quadratures_match_scipy_quad(V):
    # Gauss-Legendre panels with panel doubling, against scipy's adaptive rule
    assert abs(l1_norm(V) - sum(_quad_reference(lambda x: abs(V(x)), V.decay_hint))) < 1e-13
    assert abs(integral(V) - sum(_quad_reference(V, V.decay_hint))) < 1e-13
    for X in (0.0, 0.5, 2.0, 6.0, 15.0):
        want = sum(_quad_reference(lambda x: abs(V(x)), X)[2:])
        assert abs(tail_l1(V, X) - want) < 1e-13


def test_classify_gaps():
    gs = classify_gaps(gap_pair(0.0, 2.0))
    assert gs.kind is GapKind.NO_GAP and len(gs.components) == 1

    gs = classify_gaps(gap_pair(1.0, 2.0))
    assert gs.kind is GapKind.ONE_GAP
    c1, c2 = gs.components
    assert (c1.hi, c2.lo) == (-1.0, 0.0)  # the gap interval
    assert (c1.integral, c2.integral) == (-1.0, 2.0)

    gs = classify_gaps(twin_gap(1.0))
    assert gs.kind is GapKind.MULTI_GAP and gs.gap_count == 2

    with pytest.raises(TrivialPotential):
        classify_gaps(build_w([0.0, 1.0], [0.0]))


def test_classify_gaps_merges_signed_zeros_and_equal_neighbours():
    V = build_w([-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0],
                [0.0, 1.0, 1.0, -0.0, 0.0, 2.0, 2.0, -0.0])
    gs = classify_gaps(V)
    assert gs.kind is GapKind.ONE_GAP and gs.gap_count == 1
    assert [(c.lo, c.hi, c.integral) for c in gs.components] == [(-2.0, 0.0, 2.0), (1.0, 3.0, 4.0)]


def test_evaluation_takes_right_limits_and_is_zero_outside():
    V = build_w([-1.0, 0.0, 2.0], [1.0, -2.0])
    assert (V(-1.0), V(-1e-12), V(0.0), V(1.9999999)) == (1.0, 1.0, -2.0, -2.0)
    assert V(-1.0 - 1e-12) == 0.0 and V(2.0) == 0.0 and V(3.0) == 0.0
    assert V(math.nan) == 0.0  # no comparison holds for NaN: it lies in no piece


def test_classify_ignores_zero_padding():
    V = build_w([-5.0, -1.0, 1.0, 7.0], [0.0, 1.0, 0.0])
    gs = classify_gaps(V)
    assert gs.kind is GapKind.NO_GAP
    assert gs.components[0].lo == -1.0 and gs.components[0].hi == 1.0


def test_one_gap_params():
    p = one_gap_params(gap_pair(1.0, 2.0), k=1.0)
    assert abs(p.alpha - math.tanh(1.0)) < 1e-15
    assert abs(p.beta - 3.0) < 1e-15

    p = one_gap_params(gap_pair(0.5, 3.0), k=1.0)
    assert abs(p.alpha - math.tanh(0.5)) < 1e-15
    assert abs(p.beta - 2.0) < 1e-15

    with pytest.raises(ZeroIntegral):
        one_gap_params(gap_pair(1.0, 1.0), k=1.0)
    with pytest.raises(NotOneGap):
        one_gap_params(square_bump(), k=1.0)
    with pytest.raises(NotOneGap):
        one_gap_params(twin_gap(1.0), k=1.0)


def test_synthesize_one_gap():
    from zeromodes.asymptotics import detect_rational, nu

    for v, A, u in [(1.0, 2.0, 4.0), (0.5, 0.9, 1.2), (2.0, 3.5, 4.0)]:
        V = synthesize_one_gap(v, A, u, k=1.0)
        assert abs(abs(integral(V)) - v) < 1e-12
        assert abs(l1_norm(V) - u) < 1e-12
        p = one_gap_params(V, k=1.0)
        assert p.alpha * p.beta > 1.0
        assert detect_rational(p.beta) is None
        assert abs(nu(p.alpha, p.beta) - A / v) < 1e-9


def test_synthesize_infeasible():
    with pytest.raises(InfeasibleTriple):
        synthesize_one_gap(1.0, 0.5, 4.0)
    with pytest.raises(InfeasibleTriple):
        synthesize_one_gap(1.0, 2.0, 2.0)
    with pytest.raises(InfeasibleTriple):
        synthesize_one_gap(-1.0, 2.0, 4.0)


@pytest.mark.parametrize("k, error", [(math.inf, ValueError), (math.nan, ValueError),
                                      (0.0, NonPositiveK), (-1.0, NonPositiveK)])
def test_one_gap_k_must_be_positive_and_finite(k, error):
    # tanh(inf * gap) = 1 would put alpha outside (0, 1)
    with pytest.raises(error):
        one_gap_params(gap_pair(1.0, 2.0), k)
    with pytest.raises(error):
        synthesize_one_gap(1.0, 1.5, 3.0, k=k)


def test_hrp_potential():
    V = hrp_potential()
    assert V(0.0) == -1.0
    for x in (0.3, 1.7, 8.0):
        assert V(x) == V(-x)
    assert V(1000.0) == 0.0  # overflow guard region


def test_transforms_pointwise():
    V = gap_pair(1.0, 2.0)
    T = translate(V, 5.0)
    for x in np.linspace(-3, 3, 41):
        assert T(x + 5.0) == V(x)
    N = negate(V)
    M = mirror(V)
    for x in np.linspace(-3, 3, 41):
        assert N(x) == -V(x)
    # mirror flips the open/closed side at breakpoints; compare off-breakpoint
    for x in np.linspace(-3.123, 3.077, 39):
        assert M(x) == V(-x)


def test_transform_invariances():
    rng = np.random.RandomState(7)
    for _ in range(20):
        m = rng.randint(1, 5)
        bp = np.sort(rng.uniform(-4, 4, m + 1))
        bp += np.arange(m + 1) * 1e-3  # enforce strict increase
        vals = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], m)
        V = build_w(bp, vals)
        for W in (translate(V, 3.7), negate(V), mirror(V)):
            assert abs(l1_norm(W) - l1_norm(V)) < 1e-12
            assert abs(abs(integral(W)) - abs(integral(V))) < 1e-12
        assert classify_gaps(translate(V, 11.0)).kind is classify_gaps(V).kind


def test_mirror_negate_of_antisymmetric_is_identity():
    V = antisymmetric_pair(1.0)
    W = negate(mirror(V))
    assert W.breakpoints == V.breakpoints
    assert W.values == V.values


def test_l1_dominates_integral():
    rng = np.random.RandomState(3)
    for _ in range(30):
        m = rng.randint(1, 6)
        bp = np.cumsum(rng.uniform(0.1, 2.0, m + 1)) - 3.0
        vals = rng.uniform(-2, 2, m)
        V = build_w(bp, vals)
        assert l1_norm(V) >= abs(integral(V)) - 1e-14
        if len({v > 0 for v in vals if v != 0}) <= 1:
            assert abs(l1_norm(V) - abs(integral(V))) < 1e-14


def test_record_round_trip_bit_exact():
    V = build_w([-1.0, 1 / 3, math.pi, 4.000000000000001], [0.1, -2.7182818284590455, 1e-17])
    W = from_record(to_record(V))
    assert W.breakpoints == V.breakpoints
    assert W.values == V.values

    H = from_record(to_record(hrp_potential()))
    assert H(0.7) == hrp_potential()(0.7)
    with pytest.raises(ValueError):
        from_record("unheard_of")
