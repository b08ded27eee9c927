import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import sampled_scan
from zeromodes.asymptotics import a_density
from zeromodes.errors import DegenerateEndpoint, NotCoprime, OutOfDomain, UnresolvedCell
from zeromodes.trigzeros import TrigParams, angle_constants, brute_count, rational_density


def test_pure_cosine_count():
    assert brute_count(TrigParams(0.0, 0.0), 100 * math.pi, math.pi / 8) == 100


def test_triple_zero_family_counted_once():
    # alpha = 1/3, beta = 3: f = (4/3) cos(x)^3, a triple zero at each (k + 1/2) pi
    p = TrigParams(1.0 / 3.0, 3.0)
    assert brute_count(p, 100 * math.pi, math.pi / 24) == 100
    roots = sampled_scan(p, 0.0, 100 * math.pi, math.pi / 24)
    expected = (np.arange(100) + 0.5) * math.pi
    assert roots.size == 100
    # triple zeros condition like cube roots of machine noise
    assert np.max(np.abs(roots - expected)) < 1e-4


def test_rational_case_density():
    p = TrigParams(0.9, 3.0)
    exact = rational_density(3, 1, 0.9)
    n = brute_count(p, 4000.0, math.pi / 24)
    assert abs(n / 4000.0 - exact) / exact < 0.01


def test_param_validation():
    with pytest.raises(OutOfDomain):
        TrigParams(1.0, 2.0)
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(OutOfDomain, match="finite and >= 0"):
            TrigParams(0.5, beta)
    with pytest.raises(ValueError):
        brute_count(TrigParams(0.5, 3.0), 10.0, 1.0)  # grid too coarse


def test_angle_constants_consistency():
    from zeromodes.asymptotics import nu

    for a, b in [(0.9, 3.0), (0.8, 1.5), (0.99, math.sqrt(3)), (0.6, 2.0)]:
        c = angle_constants(a, b)
        assert abs(c.xi + c.xi_prime - math.pi / 2) < 1e-14
        assert abs(c.eta + c.eta_prime - math.pi / 2) < 1e-14
        assert abs((c.j_hi - c.j_lo) - 2 * c.mu) < 1e-12
        assert abs(1.0 + (2.0 / math.pi) * c.mu - nu(a, b)) < 1e-12
    with pytest.raises(OutOfDomain):
        angle_constants(0.3, 2.0)


def test_rational_density_identities():
    got = rational_density(3, 1, 0.9)
    want = a_density(0.9, 3.0, rational_hint=(3, 1)).value / math.pi
    assert abs(got - want) < 1e-12

    # empty-window case: alpha barely supercritical, q = 1
    got = rational_density(5, 1, 0.21)
    assert abs(got - 1.0 / math.pi) < 1e-12

    with pytest.raises(OutOfDomain):
        rational_density(3, 1, 0.2)
    with pytest.raises(NotCoprime):
        rational_density(6, 2, 0.9)


def test_subcritical_exact_one_per_interval():
    p = TrigParams(0.5, 1.5)
    n_lo = brute_count(p, 20 * math.pi, math.pi / 12)
    n_hi = brute_count(p, 120 * math.pi, math.pi / 12)
    assert n_hi - n_lo == 100


def test_product_identity_near_alpha_one():
    # cos x + cos(beta x) factorises; near alpha = 1 the zero sets coincide
    beta = math.sqrt(2)
    p = TrigParams(0.999999, beta)
    n = brute_count(p, 500.0, math.pi / (8 * beta))
    xs = np.linspace(0.0, 500.0, 200001)
    prod = 2 * np.cos((beta + 1) / 2 * xs) * np.cos((beta - 1) / 2 * xs)
    sgn = np.sign(prod)
    n_prod = int(np.sum(sgn[:-1] * sgn[1:] < 0))
    assert n == n_prod


def test_irrational_brute_matches_closed_form_midscale():
    beta = 1.2 * math.sqrt(2)
    pred = a_density(0.9, beta).value / math.pi
    n = brute_count(TrigParams(0.9, beta), 2000.0, min(math.pi, math.pi / beta) / 8)
    assert abs(n / 2000.0 - pred) / pred < 0.02


def test_degenerate_endpoint_case():
    # nu(0.8, 5) == 3, so the window endpoints land on the lattice
    with pytest.raises(DegenerateEndpoint):
        rational_density(5, 1, 0.8)


P = TrigParams(0.9, 3.0)
STEP = math.pi / 24


@pytest.mark.parametrize("call, value", [
    (lambda: brute_count(P, 0.0, STEP), "0.0"),
    (lambda: brute_count(P, -5.0, STEP), "-5.0"),
    (lambda: brute_count(P, math.inf, STEP), "inf"),
    (lambda: brute_count(P, math.nan, STEP), "nan"),
    (lambda: brute_count(P, 10.0, 0.0), "0.0"),
    (lambda: brute_count(P, 10.0, -1.0), "-1.0"),
    (lambda: brute_count(P, 10.0, math.nan), "nan"),
], ids=["zero-R", "negative-R", "infinite-R", "nan-R", "zero-step", "negative-step",
        "nan-step"])
def test_bad_scan_input_is_named(call, value):
    with pytest.raises(ValueError, match="got " + re.escape(value)):
        call()


def test_certified_count_at_bench_input():
    assert brute_count(TrigParams(math.tanh(1.0), 3.0), 3e4, math.pi / 24) == 28648


def test_certified_count_of_triple_zeros():
    assert brute_count(TrigParams(1.0 / 3.0, 3.0), 100 * math.pi, math.pi / 24) == 100


def test_certified_count_refuses_even_tangency():
    # nu(0.8, 5) == 3: f touches zero without crossing
    with pytest.raises(UnresolvedCell):
        brute_count(TrigParams(0.8, 5.0), 200.0, math.pi / 40)


def test_certified_scan_matches_sampled_roots():
    p = TrigParams(0.9, 3.0)
    sampled = sampled_scan(p, 0.0, 300.0, STEP)
    assert np.all(np.diff(sampled) > 0)
    assert brute_count(p, 300.0, STEP) == sampled.size


def test_zero_at_an_interval_end_is_refused():
    # cos(fl(pi/2)) = 6e-17 lies within rounding of zero
    with pytest.raises(UnresolvedCell):
        brute_count(TrigParams(0.0, 0.0), math.pi / 2, math.pi / 8)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 4.0), st.floats(1.0, 200.0))
def test_certified_count_matches_sampled_scan(alpha, beta, R):
    step = min(math.pi, math.pi / beta) / 8.0 if beta > 0 else math.pi / 8.0
    try:
        want = sampled_scan(TrigParams(alpha, beta), 0.0, R, step).size
    except UnresolvedCell:
        reject()
    assert brute_count(TrigParams(alpha, beta), R, step) == want
