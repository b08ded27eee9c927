"""Phase (Prüfer-angle) propagation and the spectral matching defect.

The lifted angle theta of a real solution satisfies

    theta' = gamma * V(x) + k * cos(2 * theta),

with the square-integrable branches pinned to theta -> -pi/4 at +inf and
theta -> +pi/4 at -inf.  The defect Delta(gamma) between the two branches
at a matching point characterises the real spectrum: gamma is a zero-mode
coupling iff Delta(gamma) lies in pi/2 + pi*Z.

Step potentials are crossed with one closed-form kernel that takes the
whole coupling grid as an array: on each constant piece it adds the exact
number of half-turns and one exact remainder step, so its cost per piece
does not grow with |gamma|.  Asked for the slope d(Delta)/d(gamma), the
same sweep carries d(theta)/d(gamma) in forward mode.  Analytic potentials
are integrated by one adaptive high-order ODE solve per Delta evaluation:
its state holds the angles of both branches over all couplings (2n
components), theta_plus from -pi/4 at the cutoff X and theta_minus from
+pi/4 at -X, both walking to the origin in one shared variable, so the
branches and the couplings share the steps.  The tolerances are divided by
sqrt(2n).  Asked for the slope, the same solve also carries the
variational equation of each angle (2n more components).  Those components
get an infinite absolute tolerance, so the error norm sees only the
angles, and the tolerances are divided by sqrt(4n) to keep each angle's
budget; such a solve also halves the relative tolerance, since a refined
root is read from one of them.  The solver is the DOP853 pair in _dop853,
whose step control is scipy's.

Matching conventions (zero sets are convention independent):

* compactly supported step potentials match at the left support edge, where
  the left branch is exactly +pi/4, so only one propagation is needed:
  Delta = -pi/4 - theta_plus(left edge);
* analytic potentials match at the origin, propagating each branch from its
  own truncation edge toward 0.  Propagating a branch across a long stretch
  of negligible potential *away* from its defining end is exponentially
  unstable, which is why the matching point sits inside the bulk.

Every operation here is pure and takes the couplings as an array; the
scalar entry points are calls on arrays of size 1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._dop853 import solve_ivp
from .closedform import cos_sinc
from .errors import StepUnderflow
from .potential import (
    AnalyticPotential,
    PiecewiseConstantPotential,
    Potential,
    _check_k,
    canonicalize,
    tail_l1,
)

__all__ = [
    "EigenvalueCheck",
    "tail_angle_bound",
    "truncation_bound",
    "choose_truncation",
    "delta_v",
    "delta_grid",
    "is_eigenvalue",
    "delta_derivative",
]

_ODE_RTOL = 1e-11
_ODE_ATOL = 1e-12


class EigenvalueCheck(NamedTuple):
    is_root: bool
    residual: float
    delta: float


def tail_angle_bound(a: float) -> float:
    """Monotone envelope a + (pi/2)*floor(2a/pi) bounding the residual angle
    defect produced by a tail with integrated strength a.

    Equals a below pi/2 and stays between a and 2a.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return a + 0.5 * math.pi * math.floor(2.0 * a / math.pi)


@lru_cache(maxsize=512)
def _tail_cached(V: AnalyticPotential, X: float) -> float:
    return tail_l1(V, X)


def truncation_bound(V: AnalyticPotential, gamma: float, X: float) -> float:
    """Upper bound on |theta(+-X) +- pi/4| when the domain is cut at |x| = X."""
    return tail_angle_bound(abs(gamma) * _tail_cached(V, float(X)))


def choose_truncation(V: AnalyticPotential, gamma: float, tol: float = 1e-8) -> float:
    """Cutoff X whose tail defect stays below tol for every coupling in
    |gamma|'s power-of-two bucket: the first max(decay_hint, 1) * 1.25**j,
    j = 0, 1, ..., that meets tol at the bucket's top.  It is never below
    decay_hint (X = 40 on the sech well), so it can exceed the smallest
    cutoff that meets tol."""
    # round |gamma| up to a power of two so nearby couplings share a cutoff
    return _choose_truncation_bucketed(V, 2.0 ** math.ceil(math.log2(1.0 + abs(gamma))), tol)


@lru_cache(maxsize=512)
def _choose_truncation_bucketed(V: AnalyticPotential, gbound: float, tol: float) -> float:
    X = max(V.decay_hint, 1.0)
    while truncation_bound(V, gbound, X) >= tol:
        X *= 1.25
        if X > 1e6:
            raise StepUnderflow("potential tail decays too slowly for truncation")
    return X


# --- propagation -------------------------------------------------------------


def _lift(W: PiecewiseConstantPotential, gammas: np.ndarray, theta: float,
          x0: float, x1: float, k: float, slope: bool = False):
    """Lifted angle after crossing the pieces of W from x0 to x1 (either
    direction), starting from theta, for every coupling in gammas at once;
    with slope, the pair (angle, its derivative in gamma).

    On a piece of value v and signed length L the spinor propagator is
    c*I + s*M (closedform) with w^2 = (gamma*v)^2 - k^2.  If w^2 >= 0 the
    angle is monotone with sign sigma = sign(gamma*v*L) and the propagator
    over length pi/w is exactly -I: whole half-turns are counted, and one
    exact step over the remainder adds an increment in sigma*[0, pi).  If
    w^2 < 0 the angle cannot pass a fixed point, so the increment lies in
    (-pi, pi); the propagator divided by cosh(wL) cannot overflow.  The
    increment is atan2(y, x) of the cross and dot products of the unit
    spinor with its image, written out so the image itself is never formed.

    The slope is carried through each piece in forward mode: whole
    half-turns add nothing and the increment adds (x*dy - y*dx)/(x^2 + y^2),
    with dc/d(w^2) = -L*s/2 and ds/d(w^2) = (L*c - s)/(2w^2) for the c and s
    the angle uses (the scale 1/cosh(wL) or (-1)^turns cancels from that
    ratio).  Near w^2 = 0, cos_sinc's series replaces the cancelling
    (L*c - s)/w^2.
    """
    theta = np.full(gammas.shape, theta, dtype=float)
    p = np.zeros(gammas.shape)
    for lo, hi, v in _piece_segments(W, x0, x1):
        L = hi - lo
        gv = gammas * v
        w2 = gv * gv - k * k
        # w below 1e-150 gives the same c and s as w = 1e-150, and no 0/0
        w = np.sqrt(np.maximum(np.abs(w2), 1e-300))
        osc = w2 >= 0.0
        turns = np.floor(abs(L) * w / math.pi) * osc
        wr = w * L - math.copysign(math.pi, L) * turns  # w times the remaining length
        c = np.where(osc, np.cos(wr), 1.0)
        s = np.where(osc, np.sin(wr), np.tanh(w * L)) / w
        cos2, sin2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
        y, x = s * (gv + k * cos2), c + s * k * sin2
        d = np.arctan2(y, x)
        sigma = np.sign(gv) * math.copysign(1.0, L)
        # rounding can put a remainder increment near +-pi on the wrong side
        d = np.where(osc & (sigma * d < -math.pi / 2), d + math.tau * sigma, d)
        if slope:
            near = abs(w2 * L * L) < 1e-2
            q = (L * c - s) / np.where(near, 1.0, w2)  # 2 ds/d(w^2)
            if near.any():
                # cos_sinc's series, scaled like c and s: by 1/cosh(wL) where w^2 < 0 (|wL| < 0.1)
                q[near] = cos_sinc(w2[near], L, True)[2].real / np.where(osc[near], 1.0, np.cosh(w[near] * L))
            dc, ds = -L * s * gv * v, q * gv * v
            dy = ds * (gv + k * cos2) + s * (v - 2.0 * k * sin2 * p)
            dx = dc + k * (ds * sin2 + 2.0 * s * cos2 * p)
            p = p + (x * dy - y * dx) / (x * x + y * y)
        theta = theta + math.pi * sigma * turns + d
    return (theta, p) if slope else theta


def _walk_ode(V, X: float, gammas: np.ndarray, k: float, slope: bool = False):
    """Delta = -pi/2 - theta_plus + theta_minus at the origin for every
    coupling, from one adaptive solve whose state holds both branches; with
    slope, the pair (Delta, d(Delta)/d(gamma)) from the same solve, at half
    the relative tolerance.  V is a scalar function of x.

    theta_plus starts from -pi/4 at X and sits at x = X - s, theta_minus
    from +pi/4 at -X and sits at x = -X + s, for the shared s in [0, X].
    The state holds -theta_plus and theta_minus: both start at pi/4 and obey
    d/ds = gamma*V(x) + k*cos(2*state) (cos is even), so the branches differ
    only in where V is read.  The integrator bounds the RMS of the scaled
    error estimates over the components, so both tolerances are divided by
    the square root of their number: each component's estimate then stays
    within the budget of a solve of its own.

    With slope, the state also holds p = d(state)/d(gamma), which obeys
    dp/ds = V(x) - 2k*sin(2*state)*p from p = 0 (the edges do not move with
    gamma).  The p components get an infinite atol, so their scaled errors
    are 0 and the norm, taken over twice as many components, sees the
    angles' errors alone: with the tolerances divided by the square root of
    the whole state's size, each angle keeps the budget it has without p.
    """
    m = gammas.size
    n = 2 * m
    y = np.concatenate([np.full(n, math.pi / 4), np.zeros(n if slope else 0)])
    # the right-hand side writes into these, through views built once; the
    # stepper copies what it returns
    v = np.empty((2, 1))  # V where each branch sits
    vs = v.reshape(2)
    out = np.empty(y.size)
    rates = out.reshape(-1, 2, m)  # angles, then slopes
    potential_rate, angle_rate, slope_rate = rates[0], out[:n], rates[-1]
    twice = np.empty(y.size)  # twice the whole state, so no slice per call: angles first
    doubled, term = twice[:n], np.empty(n)
    term_rows = term.reshape(2, m)
    # k as arrays, since a ufunc converts a Python scalar operand on every
    # call; ufuncs bound once and called with positional outs, since on small
    # states the lookups and the keyword parsing cost as much as the arithmetic
    ks, k2s = np.full(n, k), np.full(n, 2.0 * k)
    multiply, add, cos, sin, subtract = np.multiply, np.add, np.cos, np.sin, np.subtract

    def rhs(s, state):
        vs[0] = V(X - s)
        vs[1] = V(s - X)
        multiply(v, gammas, potential_rate)
        add(state, state, twice)  # the bits of 2.0 * state
        multiply(cos(doubled, term), ks, term)
        add(angle_rate, term, angle_rate)
        if slope:
            multiply(sin(doubled, term), k2s, term)
            multiply(term, state[n:], term)
            subtract(v, term_rows, slope_rate)
        return out

    shrink = 1.0 / math.sqrt(y.size)
    atol = np.where(np.arange(y.size) < n, _ODE_ATOL * shrink, np.inf)
    rtol = _ODE_RTOL * (0.5 if slope else 1.0) * shrink
    y_old, y = solve_ivp(rhs, (0.0, X), y, rtol, atol)
    y = y_old + (y - y_old)  # the end value of the last step's DOP853 interpolant
    delta = -math.pi / 2 + y[:m] + y[m:n]
    return (delta, y[n + m:] + y[n:n + m]) if slope else delta


def _piece_segments(W: PiecewiseConstantPotential, x0: float, x1: float):
    """Split [x0, x1] (either orientation) at breakpoints; yield (lo, hi, v)
    in traversal order, where v is the piece value on the open segment."""
    cuts = sorted({x0, x1} | {b for b in W.breakpoints if min(x0, x1) < b < max(x0, x1)})
    if x1 < x0:
        cuts = cuts[::-1]
    for a, b in zip(cuts, cuts[1:]):
        yield a, b, W((a + b) / 2.0)


def delta_v(V: Potential, gamma: float, k: float) -> float:
    """Matching defect Delta(gamma); real couplings in the spectrum satisfy
    Delta in pi/2 + pi*Z.  Delta(0) == 0 for every potential."""
    return float(delta_grid(V, [gamma], k)[0])


# --- vectorized grid evaluation ----------------------------------------------


def delta_grid(V: Potential, gammas: Sequence[float], k: float, slope: bool = False):
    """Delta on a coupling grid: one closed-form sweep over the pieces (step
    potentials) or one vector ODE solve holding both branches (analytic
    potentials).  With slope, the pair (Delta, d(Delta)/d(gamma)) from that
    same sweep or solve: the sweep carries the slope in forward mode, and
    the solve carries the variational equation at half the relative
    tolerance (Newton reads a refined root from one such evaluation, where
    false position interpolated between two)."""
    _check_k(k)
    g = np.asarray(gammas, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError(f"couplings must be finite, got {float(g[~np.isfinite(g)][0])}")
    if isinstance(V, AnalyticPotential):
        if not g.size:  # nothing to solve: the empties of the step kernel
            return (np.empty(0), np.empty(0)) if slope else np.empty(0)
        # share one cutoff across the grid so the scan is consistent
        X = choose_truncation(V, float(np.max(np.abs(g))))
        return _walk_ode(V.evaluator, X, g, k, slope)

    a, b = V.support_hull() or (0.0, 0.0)  # no support: no piece to cross, Delta = 0
    lift = _lift(canonicalize(V), g, -math.pi / 4, b, a, k, slope)
    return (-math.pi / 4 - lift[0], -lift[1]) if slope else -math.pi / 4 - lift


def _halfint_distance(delta: float) -> float:
    r = (delta - math.pi / 2) % math.pi
    return min(r, math.pi - r)


def is_eigenvalue(V: Potential, gamma: float, k: float, tol: float = 1e-9) -> EigenvalueCheck:
    """Test whether Delta(gamma) sits within tol of the half-integer-pi grid."""
    d = delta_v(V, gamma, k)
    res = _halfint_distance(d)
    return EigenvalueCheck(res < tol, res, d)


# --- derivative in the coupling ----------------------------------------------


def delta_derivative(V: Potential, gamma: float, k: float) -> float:
    """d(Delta)/d(gamma) (strictly positive for nonnegative nontrivial V),
    from the same sweep or solve as Delta (see delta_grid)."""
    return float(delta_grid(V, [gamma], k, slope=True)[1][0])
