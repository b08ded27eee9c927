"""Shared potential families and their translate/negate/mirror copies,
phase walks, the Frechet-derivative reference for the matching determinant
and the sampled trig-zero scan used across the test suite."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm_frechet
from scipy.optimize import brentq, minimize_scalar

from zeromodes.errors import UnresolvedCell
from zeromodes.potential import (
    AnalyticPotential,
    PiecewiseConstantPotential,
    build_w,
    canonicalize,
    hrp_potential,
)
from zeromodes.prufer import _lift, _piece_segments
from zeromodes.spectra import _refine
from zeromodes.trigzeros import TrigParams, f_value

_REF_RTOL = 1e-13  # the ODE reference for the closed-form kernel on step pieces
_DIP_NOISE = 1e-13  # dips shallower than this drown in evaluation noise


def square_bump():
    # single positive square bump on [-1, 1]
    return build_w([-1.0, 1.0], [1.0])


def antisymmetric_pair(g: float):
    # -1 block, gap of length g, +1 block; antisymmetric about 0
    if g == 0.0:
        return build_w([-1.0, 0.0, 1.0], [-1.0, 1.0])
    return build_w([-1.0 - g / 2, -g / 2, g / 2, g / 2 + 1.0], [-1.0, 0.0, 1.0])


def gap_pair(g: float, b: float):
    # -1 block of width 1, gap g, +1 block of width b
    if g == 0.0:
        return build_w([-1.0, 0.0, b], [-1.0, 1.0])
    return build_w([-g - 1.0, -g, 0.0, b], [-1.0, 0.0, 1.0])


def twin_gap(g: float):
    # symmetric zero-integral potential with two gaps of length g
    if g == 0.0:
        return build_w([-2.0, -1.0, 1.0, 2.0], [-1.0, 1.0, -1.0])
    return build_w([-g - 2.0, -g - 1.0, -1.0, 1.0, g + 1.0, g + 2.0],
                   [-1.0, 0.0, 1.0, 0.0, -1.0])


def translate(V, c: float):
    """Shift the potential by c: x -> V(x - c)."""
    if isinstance(V, PiecewiseConstantPotential):
        return PiecewiseConstantPotential(tuple(b + c for b in V.breakpoints), V.values)
    f = V.evaluator
    return AnalyticPotential(lambda x: f(x - c), V.decay_hint + abs(c))


def negate(V):
    """Pointwise sign flip."""
    if isinstance(V, PiecewiseConstantPotential):
        return PiecewiseConstantPotential(V.breakpoints, tuple(-v for v in V.values))
    f = V.evaluator
    return AnalyticPotential(lambda x: -f(x), V.decay_hint)


def mirror(V):
    """Spatial reflection: x -> V(-x)."""
    if isinstance(V, PiecewiseConstantPotential):
        bp = tuple(-b for b in reversed(V.breakpoints))
        return PiecewiseConstantPotential(bp, tuple(reversed(V.values)))
    f = V.evaluator
    return AnalyticPotential(lambda x: f(-x), V.decay_hint)


def frechet_chain(V, gamma, k):
    """D(gamma), dD/dgamma and the size of the spinor's slope, from the
    Frechet derivatives of the piece propagators exp(L*M) across the
    support, with no rescale."""
    V = canonicalize(V)
    p, dp = np.ones(2, dtype=complex), np.zeros(2, dtype=complex)
    a = V.breakpoints
    for j, v in enumerate(V.values):
        L = a[j + 1] - a[j]
        E, dE = expm_frechet(L * np.array([[0.0, k - gamma * v], [k + gamma * v, 0.0]]),
                             L * np.array([[0.0, -v], [v, 0.0]], dtype=complex))
        p, dp = E @ p, dE @ p + E @ dp
    return p.sum(), dp.sum(), np.abs(dp).sum()


def lift_angle(V, theta, x0, x1, gamma, k):
    """Lifted angle at x1 from theta at x0 through the closed-form kernel."""
    return float(_lift(canonicalize(V), np.array([float(gamma)]), theta, x0, x1, k)[0])


def ode_angle(V, theta, x0, x1, gamma, k):
    """The same angle by one scipy DOP853 solve per constant piece, so the
    reference does not run on the package's own stepper.  Each piece
    starts from the angle reduced mod pi: theta' is pi-periodic in theta, so
    the relative tolerance then does not grow with |theta|."""
    for a, b, v in _piece_segments(canonicalize(V), x0, x1):
        turns = math.pi * round(theta / math.pi)
        sol = solve_ivp(lambda _x, t: gamma * v + k * np.cos(2.0 * t), (a, b),
                        [theta - turns], method="DOP853", rtol=_REF_RTOL, atol=1e-12)
        theta = turns + float(sol.y[0, -1])
    return theta


@pytest.fixture(scope="session")
def sech_well():
    return hrp_potential()


def sampled_scan(params: TrigParams, lo: float, hi: float, grid_step: float) -> np.ndarray:
    """The reference for the certified trig-zero count: the sorted zeros of f
    on [lo, hi] from a sign scan oversampled 8x, dips by minimization."""
    h = grid_step / 8.0
    n = int(math.ceil((hi - lo) / h))
    xs = np.linspace(lo, hi, n + 1)
    vals = np.asarray(f_value(params, xs), dtype=float)

    roots: list[float] = []

    # exact grid hits (measure zero, but cheap to honour)
    zero_nodes = np.nonzero(vals == 0.0)[0]
    for i in zero_nodes:
        roots.append(float(xs[i]))

    sgn = np.sign(vals)
    crossing = (sgn[:-1] * sgn[1:]) < 0
    cells = np.nonzero(crossing)[0]
    found, _ = _refine(lambda idx, x: f_value(params, x), xs[cells], xs[cells + 1],
                       vals[cells], vals[cells + 1], 1e-12)
    roots.extend(found.tolist())

    # near-tangential dips: interior |f| minima below the curvature scale,
    # away from any sign change
    curv = 1.0 + params.alpha * params.beta ** 2
    tau = 4.0 * h * h * curv
    av = np.abs(vals)
    mid = av[1:-1]
    cand = 1 + np.nonzero((mid <= av[:-2]) & (mid <= av[2:]) & (mid < tau)
                          & (vals[1:-1] != 0.0))[0]
    noise = _DIP_NOISE * (1.0 + params.alpha)
    for i in cand:
        if crossing[i - 1] or crossing[i]:
            continue
        s = 1.0 if vals[i] > 0 else -1.0
        signed_f = lambda x: s * float(f_value(params, x))
        res = minimize_scalar(signed_f, bounds=(xs[i - 1], xs[i + 1]), method="bounded",
                              options={"xatol": 1e-12})
        xm, fm = float(res.x), float(res.fun)  # fm is the signed dip depth
        if fm > noise:  # stays clear of zero
            continue
        if fm < -noise:  # dips across and back: exactly two transversal zeros
            roots.append(brentq(signed_f, xs[i - 1], xm, xtol=1e-12, rtol=8.9e-16))
            roots.append(brentq(signed_f, xm, xs[i + 1], xtol=1e-12, rtol=8.9e-16))
            continue
        # grazing within evaluation noise: 0, 1 (tangential) or 2 zeros are
        # indistinguishable in double precision
        raise UnresolvedCell(f"ambiguous grazing of f near x = {xm:.9g} (dip depth {fm:.3e})")

    roots.sort()
    out = []
    for r in roots:
        if out and r - out[-1] < 1e-9:
            continue
        out.append(r)
    return np.array(out)
