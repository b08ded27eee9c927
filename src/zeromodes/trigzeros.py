"""Zero counting for f(x) = cos(x) + alpha*cos(beta*x).

This is the elementary model problem behind the one-gap counting law: the
asymptotic zero density of f equals A(alpha, beta) / pi, with an exact
finite-sum expression when beta is rational.  brute_count enumerates zeros
directly and serves as the independent oracle for the closed-form
densities.  It counts certified cells: on nodes grid_step apart, Taylor
bounds from f, f' and f'' at the nodes and |f'''| <= 1 + alpha*beta^3
prove each cell empty or holding exactly one zero, cells that are neither
are halved, and no zero is refined (the root exclusion and inclusion tests
of interval analysis; Moore, Kearfott & Cloud, Introduction to Interval
Analysis, SIAM 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEndpoint, NotCoprime, OutOfDomain, UnresolvedCell
from .spectra import brentq  # noqa: F401  (brentq: wrapped by bench/tracing.py)

__all__ = [
    "TrigParams",
    "AngleConstants",
    "angle_constants",
    "f_value",
    "f_deriv",
    "brute_count",
    "rational_density",
]

_MIN_CELL = 1e-10        # a cell this narrow is not split further


@dataclass(frozen=True)
class TrigParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise OutOfDomain(f"alpha must be in [0, 1), got {self.alpha}")
        if not (0.0 <= self.beta < math.inf):
            raise OutOfDomain(f"beta must be finite and >= 0, got {self.beta}")


def f_value(params: TrigParams, x):
    return np.cos(x) + params.alpha * np.cos(params.beta * x)


def f_deriv(params: TrigParams, x):
    return -np.sin(x) - params.alpha * params.beta * np.sin(params.beta * x)


# --- angle constants of the supercritical regime -------------------------------


@dataclass(frozen=True)
class AngleConstants:
    """Branch angles of the supercritical zero density.

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


def rational_density(p: int, q: int, alpha: float) -> float:
    """Exact asymptotic zero density for beta = p/q (coprime), alpha*beta > 1:

        (1/pi) * (1 + (2/q) * #{n : j_lo < 2 pi n / q < j_hi}).

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
        total += c.j_lo < x < c.j_hi
    return (1.0 + 2.0 * total / q) / math.pi


# --- direct enumeration ---------------------------------------------------------


def _brackets(params: TrigParams, R: float, grid_step: float) -> np.ndarray:
    """Certified brackets of the zeros of f on [0, R].

    The nodes run from 0 to R, at most grid_step apart.  f, f' and f''
    are evaluated at the nodes (f through f_value, f'' as
    (beta^2 - 1) cos x - beta^2 f) and |f'''| <= M3 = 1 + alpha beta^3
    bounds the Taylor remainders.  A node is resolved where |f| exceeds
    eps, a bound on the rounding of f and of the derivative terms below:
    eps counts a few ulps of each cosine term.  A cell
    [a, b] of half width t is

    * empty if f has one sign at both resolved ends and the concave lower
      bound s f(a) + s f'(a) u - |f''(a)| u^2/2 - M3 u^3/6 (and its mirror
      from b) stays above eps at u = t;
    * single if f has opposite signs at its resolved ends and the same kind
      of bound keeps |f'| above zero on each half;
    * stopped if neither and both |f(a)|, |f(b)| <= eps, or if b - a is below
      1e-10 (or four float spacings of b, where those are wider);
    * otherwise halved, all cells of a level through one array call.

    Returns the lower ends of the brackets, one per sign change of f
    between consecutive resolved nodes, in x order.  A bracket with stopped
    cells in it holds an odd number of zeros (a zero of odd multiplicity,
    such as a triple zero) that double precision cannot separate, counted
    as one.  Raises UnresolvedCell for 0 or R within rounding of a zero,
    and for a stopped cell with no sign change within grid_step (an
    even-order tangency, say).  A stopped cell next to a sign change is
    accepted: it lies in the rounding band of that zero, where a further
    pair of zeros cannot be resolved in double precision either.
    """
    al, be = params.alpha, params.beta
    m3 = 1.0 + al * be ** 3
    eps = 8.0 * np.finfo(float).eps * (1.0 + al * (1.0 + be * R))
    eps_d = eps * (1.0 + be)  # the same rounding, differentiated once

    def jet(x):
        f = f_value(params, x)
        c = (be * be - 1.0) * np.cos(x) - be * be * f
        return f, f_deriv(params, x), c

    xs = np.linspace(0.0, R, int(math.ceil(R / grid_step)) + 1)
    f, d, c = jet(xs)
    unresolved_end = xs[[0, -1]][abs(f[[0, -1]]) <= eps]
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
    a = np.concatenate(stopped)
    # every stopped cell needs a sign change within grid_step
    centre = np.concatenate(([-np.inf], 0.5 * (xr[change] + xr[change + 1]), [np.inf]))
    k = np.searchsorted(centre, a)
    near = np.minimum(a - centre[k - 1], centre[k] - a) <= grid_step
    if not np.all(near):
        raise UnresolvedCell(f"f touches zero near x = {a[~near][0]:.9g} "
                             "without a resolvable sign change")
    return xr[change]


def brute_count(params: TrigParams, R: float, grid_step: float) -> int:
    """Number of zeros of f on [0, R]: the number of certified brackets of
    _brackets (no zero is refined).  Needs a finite R > 0 and
    0 < grid_step <= pi/(8 max(1, beta))."""
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be finite and > 0, got {R}")
    top = (min(math.pi, math.pi / params.beta) if params.beta > 0 else math.pi) / 8.0
    if not (0.0 < grid_step <= top * (1.0 + 1e-12)):
        raise ValueError(f"grid_step must be in (0, {top:.6g}], got {grid_step}")
    return int(_brackets(params, R, grid_step).size)
