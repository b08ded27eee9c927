import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from zeromodes.closedform import (
    cos_sinc,
    determinant,
    gap_angle_relation_check,
    piece_transfer,
)
from zeromodes.errors import TrivialPotential
from zeromodes.potential import build_w, canonicalize
from conftest import antisymmetric_pair, square_bump


def bump_oracle(g: float) -> float:
    """Singularity-free form of the printed matching function for the unit
    square bump at k=1: cos(2w) + sin(2w)/w with w^2 = g^2 - 1."""
    w2 = g * g - 1.0
    if w2 >= 0:
        w = math.sqrt(w2)
        return math.cos(2 * w) + (math.sin(2 * w) / w if w > 1e-8 else 2.0)
    w = math.sqrt(-w2)
    return math.cosh(2 * w) + math.sinh(2 * w) / w


def bump_oracle_roots(R: float) -> list[float]:
    gs = np.linspace(1e-3, R, int(40 * R))
    vals = [bump_oracle(g) for g in gs]
    out = []
    for i in range(len(gs) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = gs[i], gs[i + 1]
            for _ in range(100):  # plain bisection
                mid = 0.5 * (lo + hi)
                if bump_oracle(lo) * bump_oracle(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            out.append(0.5 * (lo + hi))
    return out


def test_gap_piece_transfer_hyperbolic():
    for g, L, k in [(2.0, 1.0, 1.0), (0.3 + 0.2j, 2.5, 1.5)]:
        t = piece_transfer(0.0, L, g, k)
        up = t.m @ np.array([1.0, 1.0])
        dn = t.m @ np.array([1.0, -1.0])
        assert np.allclose(up, math.exp(k * L) * np.array([1.0, 1.0]), rtol=1e-12)
        assert np.allclose(dn, math.exp(-k * L) * np.array([1.0, -1.0]), rtol=1e-12)


def test_zero_length_is_identity():
    t = piece_transfer(1.3, 0.0, 2.0 + 1.0j, 1.0)
    assert np.allclose(t.m, np.eye(2), atol=1e-15)


def test_semigroup_property():
    rng = np.random.RandomState(11)
    for _ in range(25):
        v = rng.uniform(-2, 2)
        L = rng.uniform(0.1, 3.0)
        g = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        k = rng.uniform(0.5, 2.0)
        whole = piece_transfer(v, L, g, k)
        halves = piece_transfer(v, L / 2, g, k).m @ piece_transfer(v, L / 2, g, k).m
        assert np.allclose(whole.m, halves, rtol=1e-12, atol=1e-12)


def test_transfer_unimodular():
    rng = np.random.RandomState(5)
    for _ in range(60):
        v = rng.uniform(-3, 3)
        L = rng.uniform(0.0, 10.0)
        g = complex(rng.uniform(-1e3, 1e3), rng.uniform(-5, 5))
        t = piece_transfer(v, L, g, 1.0)
        scale = max(1.0, np.max(np.abs(t.m)) ** 2)
        assert abs(t.det() - 1.0) / scale < 1e-10


def test_transfer_apply():
    t = piece_transfer(0.0, 1.0, 2.0, 1.0)
    psi1, psi2 = t.m @ np.array([1.0, 1.0])
    assert abs(psi1 - math.e) < 1e-12 and abs(psi2 - math.e) < 1e-12


def test_series_seam_is_continuous():
    # the series/direct switchover at |w L| ~ 1e-4 must not introduce jumps
    for L in (0.5, 1.0, 2.0):
        seam = (1e-4 / L) ** 2
        for w2 in (seam, -seam):
            below = cos_sinc(w2 * (1 - 1e-6), L)
            above = cos_sinc(w2 * (1 + 1e-6), L)
            assert abs(below[0] - above[0]) < 1e-13
            assert abs(below[1] - above[1]) < 1e-13 * L
    # and the exact gv = +-k point is finite and unimodular
    t = piece_transfer(1.0, 2.0, 1.0, 1.0)
    assert abs(t.det() - 1.0) < 1e-12
    assert np.allclose(t.m, [[1.0, 0.0], [4.0, 1.0]], atol=1e-14)


def transfer_product(V, gamma, k):
    """D(gamma) as psi1 + psi2 of (1, 1) pushed through the product of
    piece_transfer matrices, one point at a time and without rescaling."""
    p = np.array([1.0 + 0j, 1.0 + 0j])
    a = V.breakpoints
    for j, v in enumerate(V.values):
        p = piece_transfer(v, a[j + 1] - a[j], gamma, k).m @ p
    return p[0] + p[1], np.max(np.abs(p))


KERNEL_CASES = [
    antisymmetric_pair(0.0),
    antisymmetric_pair(1.0),
    square_bump(),
    build_w([-2.0, -0.5, 0.0, 1.2, 3.0], [2.0, -1.5, 0.0, 0.7]),
]


def test_array_kernel_matches_transfer_product():
    rng = np.random.RandomState(17)
    for V in KERNEL_CASES:
        for k in (1.0, 1.7):
            # |gamma v| = k on every piece, plus random couplings
            edge = [s * k / abs(v) for v in V.values if v != 0.0 for s in (1.0, -1.0)]
            zs = np.concatenate([edge, rng.uniform(-60, 60, 40) + 1j * rng.uniform(-4, 4, 40),
                                 rng.uniform(-3, 3, 20)])
            got = determinant(V, zs, k)
            assert got.shape == zs.shape
            for z, d in zip(zs, got):
                ref, size = transfer_product(V, complex(z), k)
                assert abs(d - ref) <= 1e-12 * max(abs(ref), size)


def test_scalar_call_is_the_array_kernel():
    rng = np.random.RandomState(23)
    for V in KERNEL_CASES:
        zs = rng.uniform(-30, 30, 25) + 1j * rng.uniform(-3, 3, 25)
        got = determinant(V, zs, 1.0)
        for z, d in zip(zs, got):
            one = determinant(V, complex(z), 1.0)
            assert type(one) is complex and one == d


def test_rescale_keeps_the_phase_and_leaves_other_couplings_alone():
    # cos(2w) ~ exp(2 Im gamma) passes 1e200 on the unit bump at Im gamma = 240
    V = square_bump()
    zs = np.array([1.0 + 0.5j, 3.0 + 240.0j, 2.0 + 1.0j, -4.0 - 245.0j])
    got = determinant(V, zs, 1.0)
    for z, d in zip(zs, got):
        ref, size = transfer_product(V, complex(z), 1.0)
        if size > 1e200:
            assert abs(d) < 1e-150 * abs(ref)  # rescaled by a positive factor
            ratio = d / ref
            assert ratio.real > 0 and abs(ratio.imag) < 1e-12 * ratio.real
        else:
            assert abs(d - ref) <= 1e-12 * size
    assert sum(transfer_product(V, complex(z), 1.0)[1] > 1e200 for z in zs) == 2


def generic_sweep(V, gammas, k):
    """D by the propagator of every piece at every coupling, gaps included:
    the sweep that determinant runs on its nonzero pieces."""
    W = canonicalize(V)
    g = np.asarray(gammas, dtype=complex)
    p1 = p2 = np.ones(g.shape, dtype=complex)
    a = W.breakpoints
    with np.errstate(over="raise", invalid="raise"):
        for j, v in enumerate(W.values):
            gv = g * v
            c, s = cos_sinc(gv * gv - k * k, a[j + 1] - a[j])
            p1, p2 = c * p1 + s * (k - gv) * p2, s * (k + gv) * p1 + c * p2
            scale = np.maximum(abs(p1), abs(p2))
            if (scale > 1e200).any():
                scale = np.where(scale > 1e200, scale, 1.0)
                p1, p2 = p1 / scale, p2 / scale
    return p1 + p2


@pytest.mark.parametrize("V", [
    antisymmetric_pair(1.0),  # one gap
    build_w([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0, 0.0, -1.0]),  # two gaps
    build_w([-2.0, -1.0, -1.0 + 1e-9, 0.0, 0.5, 40.0, 41.0],  # a gap in the series range
            [0.5, 0.0, -2.0, 0.0, 1.5, 0.0]),  # and a long one
    build_w([-1.0, 0.0, 1.0, 2.5], [0.0, 1.0, -1.0]),  # a zero piece at an end
    build_w([-2.0, -0.5, 0.0, 1.2, 3.0], [2.0, -1.5, 0.0, 0.7]),
])
def test_gap_pieces_match_the_generic_sweep(V):
    # a gap piece propagates every coupling by one scalar matrix; the values
    # are the generic sweep's bit for bit, signed zeros included
    rng = np.random.RandomState(5)
    re = np.concatenate([rng.uniform(-60.0, 60.0, 400), [0.0, -0.0, 1.0, -1.0, 7.5]])
    for k in (1.0, 0.4, 2.3):
        for zs in (re + 1j * rng.uniform(-4.0, 4.0, re.size), re + 0j, (re + 0j).conj()):
            got, want = determinant(V, zs, k), generic_sweep(V, zs, k)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_determinant_matches_printed_zero_set():
    V = square_bump()
    oracle = bump_oracle_roots(20.0)
    D = lambda g: determinant(V, g, 1.0).real
    gs = np.linspace(1e-3, 20.0, 800)
    vals = [D(g) for g in gs]
    mine = [brentq(D, gs[i], gs[i + 1], xtol=1e-14) for i in range(len(gs) - 1)
            if vals[i] * vals[i + 1] < 0]
    assert len(mine) == len(oracle)
    assert max(abs(a - b) for a, b in zip(mine, oracle)) < 1e-9


def test_determinant_nonzero_at_origin():
    for V in (square_bump(), antisymmetric_pair(1.0)):
        assert abs(determinant(V, 0.0, 1.0)) > 1e-6


def test_determinant_trivial_potential():
    with pytest.raises(TrivialPotential):
        determinant(build_w([0.0, 1.0], [0.0]), 1.0, 1.0)


def test_determinant_reality_and_conjugation():
    V = antisymmetric_pair(0.5)
    rng = np.random.RandomState(2)
    for _ in range(20):
        z = complex(rng.uniform(-8, 8), rng.uniform(-3, 3))
        assert cmath.isclose(determinant(V, z.conjugate(), 1.0),
                             determinant(V, z, 1.0).conjugate(), rel_tol=1e-12)
    for g in (0.7, 3.1, 6.9):
        assert abs(determinant(V, g, 1.0).imag) < 1e-12 * abs(determinant(V, g, 1.0))


def test_zero_set_symmetric_under_negation():
    V = square_bump()
    for r in bump_oracle_roots(12.0):
        d = abs(determinant(V, -r, 1.0))
        slope = abs(determinant(V, -r + 1e-6, 1.0) - determinant(V, -r - 1e-6, 1.0)) / 2e-6
        assert d / slope < 1e-8  # -r is a root too


def test_determinant_is_analytic():
    # Cauchy-Riemann residuals by central differences
    V = antisymmetric_pair(1.0)
    h = 1e-5
    rng = np.random.RandomState(9)
    for _ in range(20):
        z = complex(rng.uniform(0.5, 10), rng.uniform(-2, 2))
        dx = (determinant(V, z + h, 1.0) - determinant(V, z - h, 1.0)) / (2 * h)
        dy = (determinant(V, z + 1j * h, 1.0) - determinant(V, z - 1j * h, 1.0)) / (2 * h)
        scale = max(1.0, abs(dx))
        assert abs(dx - dy / 1j) / scale < 1e-6


def test_gap_angle_relation_constant_branches():
    assert gap_angle_relation_check(math.pi / 4, math.pi / 4, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert gap_angle_relation_check(-math.pi / 4, -math.pi / 4, 1.5, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_gap_angle_relation_against_rk_oracle():
    rng = np.random.RandomState(13)
    for _ in range(12):
        k = rng.uniform(0.5, 2.0)
        L = rng.uniform(0.2, 3.0)
        th0 = rng.uniform(-math.pi, math.pi)
        sol = solve_ivp(lambda x, th: k * math.cos(2 * th[0]), (0.0, L), [th0],
                        method="DOP853", rtol=1e-12, atol=1e-13)
        th1 = sol.y[0, -1]
        assert abs(gap_angle_relation_check(th0, th1, k, L)) < 1e-8


def test_zero_set_invariant_under_k_flip():
    # mirroring k swaps the decaying directions at both ends; the matching
    # function built with swapped boundary vectors has the same zero set
    V = build_w([-2.0, -1.0, 0.0, 2.0], [-1.0, 0.0, 1.0])

    def det_mirrored(gamma, k):
        p = np.array([1.0 + 0j, -1.0 + 0j])
        a = V.breakpoints
        for j, v in enumerate(V.values):
            p = piece_transfer(v, a[j + 1] - a[j], gamma, -k).m @ p
        return (p[0] - p[1]).real

    D = lambda g: determinant(V, g, 1.0).real
    gs = np.linspace(0.01, 20.0, 1500)
    v1 = [D(g) for g in gs]
    r1 = [brentq(D, gs[i], gs[i + 1], xtol=1e-13) for i in range(len(gs) - 1)
          if v1[i] * v1[i + 1] < 0]
    M = lambda g: det_mirrored(g, 1.0)
    v2 = [M(g) for g in gs]
    r2 = [brentq(M, gs[i], gs[i + 1], xtol=1e-13) for i in range(len(gs) - 1)
          if v2[i] * v2[i + 1] < 0]
    assert len(r1) == len(r2)
    assert max(abs(a - b) for a, b in zip(r1, r2)) < 1e-10
