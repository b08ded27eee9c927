"""Zero counting for f(x) = cos(x) + alpha*cos(beta*x) + phi(x).

This is the elementary model problem behind the one-gap counting law: the
asymptotic zero density of f equals A(alpha, beta) / pi, with an exact
finite-sum expression when beta is rational.  brute_count enumerates zeros
directly and serves as the independent oracle for the closed-form
densities.  Without a perturbation it counts certified cells: on nodes
grid_step apart, Taylor bounds from f, f' and f'' at the nodes and
|f'''| <= 1 + alpha*beta^3 prove each cell empty or holding exactly one
zero, cells that are neither are halved, and no zero is refined (the root
exclusion and inclusion tests of interval analysis; Moore, Kearfott &
Cloud, Introduction to Interval Analysis, SIAM 2009).  A perturbation
carries no such bound, so phi != None takes a sampled sign scan whose
crossings are refined by the batched false-position refiner of spectra,
with near-tangential dips refined by local minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import DegenerateEndpoint, NotCoprime, OutOfDomain, UnresolvedCell
from .spectra import _refine

__all__ = [
    "Perturbation",
    "TrigParams",
    "AngleConstants",
    "angle_constants",
    "f_value",
    "f_deriv",
    "energy",
    "tangency_test",
    "ZeroScan",
    "scan_zeros",
    "brute_count",
    "multiplicity_m",
    "rational_density",
    "density_trace",
]

_TANGENT_ENERGY = 1e-18  # below this, f and f' count as jointly zero
_DIP_NOISE = 1e-13       # dips shallower than this drown in evaluation noise
_MIN_CELL = 1e-10        # a cell this narrow is not split further


@dataclass(frozen=True)
class Perturbation:
    """Decaying perturbation with analytic first derivative.

    Callables must accept floats and numpy arrays.
    """

    value: Callable
    deriv: Callable


@dataclass(frozen=True)
class TrigParams:
    alpha: float
    beta: float
    phi: Optional[Perturbation] = None

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise OutOfDomain(f"alpha must be in [0, 1), got {self.alpha}")
        if self.beta < 0.0:
            raise OutOfDomain(f"beta must be >= 0, got {self.beta}")


def f_value(params: TrigParams, x):
    out = np.cos(x) + params.alpha * np.cos(params.beta * x)
    if params.phi is not None:
        out = out + params.phi.value(x)
    return out


def f_deriv(params: TrigParams, x):
    out = -np.sin(x) - params.alpha * params.beta * np.sin(params.beta * x)
    if params.phi is not None:
        out = out + params.phi.deriv(x)
    return out


def energy(params: TrigParams, x):
    """f^2 + f'^2; vanishes exactly at tangential zeros."""
    return f_value(params, x) ** 2 + f_deriv(params, x) ** 2


def tangency_test(params: TrigParams, x: float) -> bool:
    """True iff x is (numerically) a joint zero of f and f'."""
    return float(energy(params, x)) < _TANGENT_ENERGY


# --- angle constants of the supercritical regime -------------------------------


@dataclass(frozen=True)
class AngleConstants:
    """Branch angles controlling the per-period zero multiplicity.

    xi + xi_prime == eta + eta_prime == pi/2, mu = beta*xi - eta_prime, and
    the window J (length 2*mu) collects the phase offsets contributing
    extra zeros; the density factor is nu == 1 + (2/pi)*mu.
    """

    xi: float
    eta: float
    xi_prime: float
    eta_prime: float
    mu: float
    j_lo: float
    j_hi: float

    @property
    def nu(self) -> float:
        return 1.0 + (2.0 / math.pi) * self.mu


def angle_constants(alpha: float, beta: float) -> AngleConstants:
    if not (0.0 < alpha < 1.0) or alpha * beta <= 1.0:
        raise OutOfDomain(f"need alpha in (0,1) and alpha*beta > 1, got {alpha}, {beta}")
    b2m1 = beta * beta - 1.0
    xi = math.asin(min(1.0, math.sqrt(alpha * alpha * beta * beta - 1.0) / math.sqrt(b2m1)))
    eta = math.asin(min(1.0, math.sqrt(1.0 - alpha * alpha) / (alpha * math.sqrt(b2m1))))
    xi_p = 0.5 * math.pi - xi
    eta_p = 0.5 * math.pi - eta
    mu = beta * xi - eta_p
    center = 1.5 * math.pi - 0.5 * math.pi * beta
    return AngleConstants(xi, eta, xi_p, eta_p, mu, center - mu, center + mu)


def _window_weight(c: AngleConstants, x: float, tol: float) -> float:
    # half-at-endpoints indicator of (j_lo, j_hi)
    if abs(x - c.j_lo) < tol or abs(x - c.j_hi) < tol:
        return 0.5
    return 1.0 if c.j_lo < x < c.j_hi else 0.0


def multiplicity_m(t: float, constants: AngleConstants) -> float:
    """Zeros of cos(x) + alpha*cos(beta*x + t) in one half period [0, pi):
    1 + 2 * sum over the lattice of window weights at t - 2*pi*n."""
    c = constants
    n_lo = math.floor((t - c.j_hi) / math.tau) - 1
    n_hi = math.ceil((t - c.j_lo) / math.tau) + 1
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        total += _window_weight(c, t - math.tau * n, 1e-12)
    return 1.0 + 2.0 * total


def rational_density(p: int, q: int, alpha: float) -> float:
    """Exact asymptotic zero density for beta = p/q (coprime), alpha*beta > 1:

        (1/pi) * (1 + (2/q) * sum_n weight(2 pi n / q)).

    Raises DegenerateEndpoint when a lattice point lands on the window
    boundary (the excluded arithmetic case).
    """
    if p <= 0 or q <= 0:
        raise NotCoprime("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    beta = p / q
    if alpha * beta <= 1.0:
        raise OutOfDomain(f"alpha*beta = {alpha * beta} <= 1: density is 1/pi upstream")
    c = angle_constants(alpha, beta)
    n_lo = math.floor(q * c.j_lo / math.tau) - 1
    n_hi = math.ceil(q * c.j_hi / math.tau) + 1
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        x = math.tau * n / q
        if abs(x - c.j_lo) < 1e-9 or abs(x - c.j_hi) < 1e-9:
            raise DegenerateEndpoint(f"lattice point 2*pi*{n}/{q} hits the window boundary")
        total += _window_weight(c, x, 0.0)
    return (1.0 + 2.0 * total / q) / math.pi


# --- direct enumeration ---------------------------------------------------------


@dataclass(frozen=True)
class ZeroScan:
    """Refined zeros on an interval; tangential ones are also listed separately."""

    roots: np.ndarray
    tangential: tuple[float, ...]

    def count(self) -> int:
        return int(self.roots.size)


def _max_grid_step(beta: float) -> float:
    return (min(math.pi, math.pi / beta) if beta > 0 else math.pi) / 8.0


def _check_scan(params: TrigParams, lo: float, ends: Sequence[float], grid_step: float) -> None:
    """The input check of scan_zeros, brute_count and density_trace: a finite
    lo, at least one finite end above it, and 0 < grid_step <= pi/(8 max(1, beta))."""
    if not math.isfinite(lo):
        raise ValueError(f"the interval must start at a finite x, got {lo}")
    if len(ends) == 0:
        raise ValueError(f"need at least one interval end, got {list(ends)}")
    for end in ends:
        if not (math.isfinite(end) and end > lo):
            raise ValueError(f"interval end must be finite and > {lo}, got {end}")
    top = _max_grid_step(params.beta)
    if not (0.0 < grid_step <= top * (1.0 + 1e-12)):
        raise ValueError(f"grid_step must be in (0, {top:.6g}], got {grid_step}")


def _brackets(params: TrigParams, ends: Sequence[float], grid_step: float) -> tuple:
    """Certified brackets of the zeros of f on [ends[0], ends[-1]], phi = None.

    The nodes lie at most grid_step apart, and every end is a node.  f, f'
    and f'' are evaluated at the nodes (f through f_value) and
    |f'''| <= 1 + alpha beta^3 bounds the Taylor remainders.  A node is
    resolved where |f| exceeds eps, a bound on the rounding of f and of
    the derivative terms below.  A cell [a, b] of half width t is

    * empty if f has one sign at both resolved ends and the concave lower
      bound s f(a) + s f'(a) u - |f''(a)| u^2/2 - M3 u^3/6 (and its mirror
      from b) stays above eps at u = t;
    * single if f has opposite signs at its resolved ends and the same kind
      of bound keeps |f'| above zero on each half;
    * stopped if neither and both |f(a)|, |f(b)| <= eps, or if b - a is below
      1e-10 (or four float spacings of b, where those are wider);
    * otherwise halved, all cells of a level through one array call.

    Returns (lo, hi, flo, fhi, cluster), one entry per sign change of f
    between consecutive resolved nodes, in x order.  cluster marks the
    brackets with stopped cells in them: each holds an odd number of zeros
    (a zero of odd multiplicity, such as a triple zero) that double
    precision cannot separate, counted as one.  Raises UnresolvedCell for
    an end within rounding of a zero, and for a stopped cell with no sign
    change within grid_step (an even-order tangency, say).  A stopped cell
    next to a sign change is accepted: it lies in the rounding band of
    that zero, where a further pair of zeros would be as unresolvable as
    it is to the sampled scan.
    """
    al, be = params.alpha, params.beta
    m3 = 1.0 + al * be ** 3
    eps = 8.0 * np.finfo(float).eps * (1.0 + al * (1.0 + be * max(abs(ends[0]), abs(ends[-1]))))
    eps_d = eps * (1.0 + be)  # the same rounding, differentiated once

    def jet(x):
        f = f_value(params, x)
        return f, f_deriv(params, x), (be * be - 1.0) * np.cos(x) - be * be * f

    parts = [np.linspace(a, b, int(math.ceil((b - a) / grid_step)) + 1)[:-1]
             for a, b in zip(ends, ends[1:])]
    xs = np.concatenate(parts + [ends[-1:]])
    f, d, c = jet(xs)
    at_end = np.cumsum([0] + [p.size for p in parts])
    unresolved_end = xs[at_end][abs(f[at_end]) <= eps]
    if unresolved_end.size:
        raise UnresolvedCell(f"f is within rounding of zero at the interval end "
                             f"x = {unresolved_end[0]!r}")

    cells = (xs[:-1], f[:-1], d[:-1], c[:-1], xs[1:], f[1:], d[1:], c[1:])
    new_x, new_f, stopped = [], [], []
    while cells[0].size:
        a, fa, da, ca, b, fb, db, cb = cells
        t = 0.5 * float(np.max(b - a))  # no cell of this level is wider than 2t
        tail, tail_d = eps + m3 * t ** 3 / 6.0, eps_d + m3 * t * t / 2.0
        ua, ub = abs(fa), abs(fb)
        known = (ua > eps) & (ub > eps)
        same = fa * fb > 0.0
        s = np.sign(fa)
        empty = (known & same
                 & (ua + t * s * da - t * t / 2.0 * abs(ca) > tail)
                 & (ub - t * s * db - t * t / 2.0 * abs(cb) > tail))
        single = (known & ~same & (da * db > 0.0)
                  & (abs(da) - t * abs(ca) > tail_d) & (abs(db) - t * abs(cb) > tail_d))
        rest = np.nonzero(~(empty | single))[0]
        a, fa, b, fb = a[rest], fa[rest], b[rest], fb[rest]
        stop = (((abs(fa) <= eps) & (abs(fb) <= eps))
                | (b - a < np.maximum(_MIN_CELL, 4.0 * np.spacing(abs(b)))))
        stopped.append(a[stop])
        split = rest[~stop]
        xm = 0.5 * (a + b)[~stop]
        mid = (xm,) + jet(xm)
        new_x.append(xm)
        new_f.append(mid[1])
        # [a, b] becomes [a, m] and [m, b]
        cells = (tuple(np.concatenate((v[split], m)) for v, m in zip(cells[:4], mid))
                 + tuple(np.concatenate((m, v[split])) for v, m in zip(cells[4:], mid)))

    mx, mf = np.concatenate(new_x), np.concatenate(new_f)
    if mx.size:
        order = np.argsort(mx)
        at = np.searchsorted(xs, mx[order])
        xs, f = np.insert(xs, at, mx[order]), np.insert(f, at, mf[order])
    keep = abs(f) > eps
    xr, fr = xs[keep], f[keep]
    change = np.nonzero((fr[:-1] > 0.0) != (fr[1:] > 0.0))[0]
    cluster = np.zeros(xr.size - 1, dtype=bool)
    a = np.concatenate(stopped)
    cluster[np.searchsorted(xr, a, side="right") - 1] = True
    # every stopped cell needs a sign change within grid_step
    centre = np.concatenate(([-np.inf], 0.5 * (xr[change] + xr[change + 1]), [np.inf]))
    k = np.searchsorted(centre, a)
    near = np.minimum(a - centre[k - 1], centre[k] - a) <= grid_step
    if not np.all(near):
        raise UnresolvedCell(f"f touches zero near x = {a[~near][0]:.9g} "
                             "without a resolvable sign change")
    return xr[change], xr[change + 1], fr[change], fr[change + 1], cluster[change]


def _sampled_scan(params: TrigParams, lo: float, hi: float, grid_step: float) -> ZeroScan:
    """scan_zeros for phi != None: a sign scan oversampled 8x, dips by minimization."""
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
    tangential = tuple(found[energy(params, found) < _TANGENT_ENERGY].tolist())

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
    return ZeroScan(np.array(out), tangential)


def scan_zeros(params: TrigParams, lo: float, hi: float, grid_step: float) -> ZeroScan:
    """The zeros of f on [lo, hi], refined to 1e-12.

    Without a perturbation the zeros come from the certified brackets of
    _brackets, on nodes grid_step apart: the single-zero brackets are
    refined all at once by the batched false-position refiner of spectra,
    and each stopped cluster (a zero of odd multiplicity) is one zero at
    its bracket midpoint, listed as tangential.  UnresolvedCell is raised
    where a zero cannot be told from rounding (see _brackets).

    A perturbation phi comes with no bound on its third derivative, so
    phi != None is the one input the sampled scan still serves.  It
    oversamples the grid 8x and refines its sign changes the same way;
    cells whose ends agree in sign but dip near zero are minimized and
    classified as 0 or 2 zeros, and a dip grazing zero within evaluation
    noise raises UnresolvedCell.  Its tangential zeros are the refined
    ones where f and f' vanish together.
    """
    _check_scan(params, lo, [hi], grid_step)
    if params.phi is not None:
        return _sampled_scan(params, lo, hi, grid_step)
    a, b, fa, fb, cluster = _brackets(params, [lo, hi], grid_step)
    roots = 0.5 * (a + b)
    single = ~cluster
    roots[single] = _refine(lambda idx, x: f_value(params, x), a[single], b[single],
                            fa[single], fb[single], 1e-12)[0]
    return ZeroScan(roots, tuple(roots[cluster].tolist()))


def brute_count(params: TrigParams, R: float, grid_step: float) -> int:
    """Number of zeros of f on [0, R].

    Without a perturbation this is the number of certified brackets of
    _brackets (no zero is refined); with one, the count of the sampled
    scan of scan_zeros.
    """
    _check_scan(params, 0.0, [R], grid_step)
    if params.phi is not None:
        return _sampled_scan(params, 0.0, R, grid_step).count()
    return int(_brackets(params, [0.0, R], grid_step)[0].size)


def density_trace(params: TrigParams, R_values: Sequence[float], grid_step: float):
    """Rows (R, count, count/R), sorted by R, from one count up to max(R_values).

    Without a perturbation every R is a node of the certified brackets, so
    each row equals brute_count at its R; with one, the rows count the
    zeros of one sampled scan of scan_zeros up to max(R_values).
    """
    Rs = sorted(float(R) for R in R_values)
    _check_scan(params, 0.0, Rs, grid_step)
    if params.phi is None:
        upper = _brackets(params, np.unique([0.0] + Rs), grid_step)[1]
    else:
        upper = _sampled_scan(params, 0.0, Rs[-1], grid_step).roots
    counts = np.searchsorted(upper, Rs, side="right")
    return [(R, int(c), int(c) / R) for R, c in zip(Rs, counts)]


def density_trace_csv(params: TrigParams, R_values: Sequence[float], grid_step: float,
                      path) -> None:
    """Write the counting trace as CSV with columns R, count, density."""
    with open(path, "w") as fh:
        fh.write("R,count,density\n")
        for R, c, d in density_trace(params, R_values, grid_step):
            fh.write(f"{R!r},{c},{d!r}\n")
