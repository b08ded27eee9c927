import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zeromodes.asymptotics import (
    ABranch,
    CountComparison,
    DensityPrediction,
    TheoremTag,
    a_density,
    compare,
    detect_rational,
    nu,
    parity_normalize,
    predict,
)
from zeromodes.errors import (
    CriticalProduct,
    InsufficientRoots,
    NonPositiveK,
    NotCoprime,
    OutOfDomain,
    TrivialPotential,
)
from zeromodes.potential import build_w, l1_norm, synthesize_one_gap
from zeromodes.spectra import real_spectrum
from conftest import antisymmetric_pair, gap_pair, square_bump, twin_gap


def test_nu_endpoint_limits():
    beta = 2.0
    assert abs(nu(0.5 + 1e-6, beta) - 1.0) < 5e-3
    assert abs(nu(1.0 - 1e-6, beta) - beta) < 5e-3


def test_nu_monotone_in_alpha():
    for beta in (1.5, 2.0, 3.0, 6.0):
        alphas = np.linspace(1.0 / beta + 1e-6, 1.0 - 1e-6, 60)
        vals = [nu(a, beta) for a in alphas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_nu_domain():
    with pytest.raises(OutOfDomain):
        nu(0.4, 2.0)
    with pytest.raises(OutOfDomain):
        nu(1.2, 2.0)


@pytest.mark.parametrize("fn", [nu, a_density], ids=["nu", "a_density"])
@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_beta_is_out_of_domain(fn, beta):
    with pytest.raises(OutOfDomain, match="beta must be finite"):
        fn(0.5, beta)


def test_parity_normalize():
    def pq(p, q):
        n = parity_normalize(p, q)
        return n.p_beta, n.q_beta

    assert pq(3, 1) == (3, 1)
    assert pq(2, 1) == (4, 2)
    assert pq(1, 1) == (1, 1)
    assert pq(5, 3) == (5, 3)
    assert pq(3, 4) == (6, 8)
    with pytest.raises(NotCoprime):
        parity_normalize(4, 2)
    with pytest.raises(NotCoprime):
        parity_normalize(0, 1)


def test_detect_rational():
    assert detect_rational(3.0) == (3, 1)
    assert detect_rational(2.0 / 7.0) == (2, 7)
    assert detect_rational(math.sqrt(2)) is None
    assert detect_rational(1.2 * math.sqrt(2)) is None
    assert detect_rational(0.0) == (0, 1)
    # the float's exact value is 8887103264677787/16; a nearby p/3 only
    # rounds to it
    assert detect_rational(555443954042361.7) == (8887103264677787, 16)


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(st.integers(1, 100).flatmap(lambda q: st.tuples(st.integers(0, 100 * q - 1), st.just(q))))
def test_detect_rational_recovers_small_fractions(pq):
    p, q = pq
    assume(math.gcd(p, q) == 1)
    assert detect_rational(p / q) == (p, q)


def test_a_density_branches():
    sub = a_density(0.3, 2.0)
    assert sub.value == 1.0 and sub.branch is ABranch.SUBCRITICAL

    irr = a_density(0.9, math.sqrt(2))
    assert irr.branch is ABranch.IRRATIONAL_SUPER
    assert irr.value == pytest.approx(nu(0.9, math.sqrt(2)), abs=1e-14)

    rat = a_density(0.9, 3.0)
    assert rat.branch is ABranch.RATIONAL_SUPER
    assert rat.value == pytest.approx(3.0, abs=1e-12)
    assert not rat.degenerate

    with pytest.raises(CriticalProduct):
        a_density(0.5, 2.0)


def test_a_density_rational_sandwich():
    rng = np.random.RandomState(23)
    for _ in range(40):
        q = int(rng.randint(1, 40))
        p = int(rng.randint(q + 1, 8 * q))
        if math.gcd(p, q) != 1:
            continue
        beta = p / q
        lo_a = 1.0 / beta
        alpha = rng.uniform(lo_a + 0.01, 0.999)
        if alpha >= 1.0 or abs(alpha * beta - 1.0) < 1e-6:
            continue
        res = a_density(alpha, beta, rational_hint=(p, q))
        n = nu(alpha, beta)
        q_beta = parity_normalize(p, q).q_beta
        assert n - 2.0 / q_beta - 1e-12 <= res.value <= n + 2.0 / q_beta + 1e-12


def test_a_continuity_at_irrational():
    # convergents of sqrt(2): 1/1, 3/2, 7/5, 17/12, 41/29, 99/70
    alpha = 0.95
    target = a_density(alpha, math.sqrt(2)).value
    for p, q in [(3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]:
        beta = p / q
        if alpha * beta <= 1.0:
            continue
        res = a_density(alpha, beta, rational_hint=(p, q))
        q_beta = parity_normalize(p, q).q_beta
        assert abs(res.value - target) <= 2.0 / q_beta + 2e-2


def test_predict_routing():
    p = predict(gap_pair(0.0, 2.0), 1.0)
    assert p.theorem is TheoremTag.NO_GAP
    assert p.slope == pytest.approx(1.0 / math.pi, abs=1e-14)

    p = predict(gap_pair(1.0, 2.0), 1.0)
    assert p.theorem is TheoremTag.ONE_GAP
    assert p.case_info is ABranch.RATIONAL_SUPER
    assert p.slope == pytest.approx(3.0 / math.pi, rel=1e-12)

    p = predict(square_bump(), 1.0)
    assert p.theorem is TheoremTag.SINGLE_SIGN
    assert p.slope == pytest.approx(2.0 / math.pi, abs=1e-14)

    p = predict(antisymmetric_pair(1.0), 1.0)
    assert p.theorem is TheoremTag.ANTISYMMETRIC_EMPTY and p.slope == 0.0

    # gap_pair(1.0, 1.0) is antisymmetric, so the sharper empty law wins
    p = predict(gap_pair(1.0, 1.0), 1.0)
    assert p.theorem is TheoremTag.ANTISYMMETRIC_EMPTY and p.slope == 0.0

    # zero integral, one gap, but not antisymmetric: the finite-count law
    p = predict(build_w([-2.0, -1.0, 0.0, 2.0], [-1.0, 0.0, 0.5]), 1.0)
    assert p.theorem is TheoremTag.ZERO_INTEGRAL_FINITE and p.slope == 0.0

    p = predict(twin_gap(1.0), 1.0)
    assert p.theorem is TheoremTag.UPPER_BOUND_ONLY and p.slope is None

    p = predict(build_w([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0], [1.0, 0.0, 2.0, 0.0, -0.5]), 1.0)
    assert p.theorem is TheoremTag.LOWER_BOUND_ONLY and p.slope is None

    with pytest.raises(TrivialPotential):
        predict(build_w([0.0, 1.0], [0.0]), 1.0)


@pytest.mark.parametrize("V", [build_w([-1.0, 0.0, 2.0], [-1.0, 1.0]), square_bump()])
def test_predict_k_must_be_positive_and_finite(V):
    # the no-gap and single-sign routes never read k, yet k is checked first
    for k, err in ((math.inf, ValueError), (math.nan, ValueError),
                   (0.0, NonPositiveK), (-1.0, NonPositiveK)):
        with pytest.raises(err):
            predict(V, k)


def test_prediction_between_universal_bounds():
    rng = np.random.RandomState(31)
    checked = 0
    while checked < 25:
        m = rng.randint(1, 5)
        bp = np.cumsum(rng.uniform(0.2, 1.5, m + 1)) - 2.0
        vals = rng.choice([-2.0, -1.0, 0.0, 1.0, 1.5], m)
        if not np.any(vals):
            continue
        V = build_w(bp, vals)
        p = predict(V, 1.0)
        if p.theorem not in (TheoremTag.SINGLE_SIGN, TheoremTag.NO_GAP, TheoremTag.ONE_GAP):
            continue
        if p.degenerate:
            continue
        assert p.slope_lower - 1e-12 <= p.slope <= l1_norm(V) / math.pi + 1e-12
        checked += 1


def test_synthesized_potential_prediction():
    V = synthesize_one_gap(1.0, 2.0, 4.0, k=1.0)
    p = predict(V, 1.0)
    assert p.theorem is TheoremTag.ONE_GAP
    assert p.case_info is ABranch.IRRATIONAL_SUPER
    assert p.slope == pytest.approx(2.0 / math.pi, rel=1e-9)


def test_compare_single_sign():
    V = square_bump()
    sp = real_spectrum(V, 1.0, 200.0, tol=1e-9)
    rep = compare(sp, predict(V, 1.0), 200.0)
    assert rep.fit == "least-squares"
    assert rep.relative_gap < 0.03


def test_compare_sech_well(sech_well):
    from zeromodes.potential import l1_norm as norm

    sp = real_spectrum(sech_well, 1.0, 12.0, tol=1e-8)
    pred = DensityPrediction(norm(sech_well) / math.pi, TheoremTag.SINGLE_SIGN,
                             slope_lower=1.0, slope_upper=norm(sech_well) * 4 * math.e / math.pi)
    rep = compare(sp, pred, 12.0)
    # couplings are spaced exactly 1 apart: slope 1 against prediction pi/pi
    assert rep.empirical_slope == pytest.approx(1.0, abs=1e-6)
    assert rep.relative_gap < 1e-6


def test_compare_antisymmetric_zero_slope():
    V = antisymmetric_pair(0.0)
    sp = real_spectrum(V, 1.0, 50.0, tol=1e-6)
    rep = compare(sp, predict(V, 1.0), 50.0)
    assert rep.empirical_slope == 0.0
    assert rep.fit == "count-ratio"


def test_compare_insufficient_roots():
    V = square_bump()
    sp = real_spectrum(V, 1.0, 5.0, tol=1e-9)  # a handful of roots
    with pytest.raises(InsufficientRoots):
        compare(sp, predict(V, 1.0), 5.0)


def test_report_json():
    V = square_bump()
    sp = real_spectrum(V, 1.0, 30.0, tol=1e-9)
    rep = compare(sp, predict(V, 1.0), 30.0)
    import json

    payload = json.loads(rep.to_json())
    assert payload["fit"] == "least-squares"
    assert payload["n_roots"] == len(sp.roots)


def test_json_reports_keep_their_keys_and_values():
    multi = build_w([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.0, -1.0, 0.0, 2.0])
    assert predict(multi, 1.0).to_json() == (
        '{"slope": null, "theorem": "lower-bound-only", "case_info": null, "degenerate": false, '
        '"slope_lower": 0.6366197723675814, "slope_upper": 13.844095670916241}')
    assert predict(gap_pair(1.0, 2.0), 1.0).to_json() == (
        '{"slope": 0.954929658551372, "theorem": "one-gap", "case_info": "rational-super", '
        '"degenerate": false, "slope_lower": 0.3183098861837907, "slope_upper": 10.383071753187181}')
    pinned = [
        (antisymmetric_pair(1.0), '{"slope": 0.0, "theorem": "antisymmetric-empty", '
         '"case_info": null, "degenerate": false, "slope_lower": 0.0, '
         '"slope_upper": 6.9220478354581205}'),
        (square_bump(), '{"slope": 0.6366197723675814, "theorem": "single-sign", '
         '"case_info": null, "degenerate": false, "slope_lower": 0.6366197723675814, '
         '"slope_upper": 6.9220478354581205}'),
        (build_w([0.0, 1.0, 2.0], [2.0, -1.0]), '{"slope": 0.3183098861837907, '
         '"theorem": "no-gap", "case_info": null, "degenerate": false, '
         '"slope_lower": 0.3183098861837907, "slope_upper": 10.383071753187181}'),
        (build_w([0.0, 1.0, 2.0, 4.0], [2.0, 0.0, -1.0]), '{"slope": 0.0, '
         '"theorem": "zero-integral-finite", "case_info": null, "degenerate": false, '
         '"slope_lower": 0.0, "slope_upper": 13.844095670916241}'),
        (twin_gap(1.0), '{"slope": null, "theorem": "upper-bound-only", "case_info": null, '
         '"degenerate": false, "slope_lower": 0.0, "slope_upper": 13.844095670916241}'),
    ]
    for V, text in pinned:
        assert predict(V, 1.0).to_json() == text
    rep = CountComparison(0.9551, 0.9549296585513721, 2.3e-4, 573, 600.0, "least-squares")
    assert rep.to_json() == (
        '{"empirical_slope": 0.9551, "predicted_slope": 0.9549296585513721, '
        '"relative_gap": 0.00023, "n_roots": 573, "R": 600.0, "fit": "least-squares"}')


def test_a_density_degenerate_flagged():
    # nu(0.8, 5) == 3 makes p_beta + q_beta * nu == 8, a multiple of 4
    res = a_density(0.8, 5.0, rational_hint=(5, 1))
    assert res.degenerate
    res = a_density(0.81, 5.0, rational_hint=(5, 1))
    assert not res.degenerate
