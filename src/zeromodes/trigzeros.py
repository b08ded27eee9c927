"""Zero counting for f(x) = cos(x) + alpha*cos(beta*x) + phi(x).

This is the elementary model problem behind the one-gap counting law: the
asymptotic zero density of f equals A(alpha, beta) / pi, with an exact
finite-sum expression when beta is rational.  brute_count enumerates zeros
directly (a sign scan whose crossings are refined all at once by the
batched false-position refiner of spectra, with near-tangential dips
refined by local minimization) and serves as the independent oracle for
the closed-form densities.
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


@dataclass(frozen=True)
class Perturbation:
    """Decaying perturbation with analytic first derivative.

    Callables must accept floats and numpy arrays.  The second derivative
    is optional and only consulted by tangency diagnostics.
    """

    value: Callable
    deriv: Callable
    second_deriv: Optional[Callable] = None


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


def scan_zeros(params: TrigParams, lo: float, hi: float, grid_step: float) -> ZeroScan:
    """Sign-change scan with batched bracketed refinement on [lo, hi].

    The grid is oversampled at an eighth of the caller's step.  Cells whose
    endpoint values agree in sign but dip near zero are refined by bounded
    minimization and classified as 0 or 2 transversal zeros; a dip grazing
    zero within evaluation noise raises UnresolvedCell rather than guessing.
    Odd-order tangential zeros arrive through the sign-change path and are
    flagged when f' vanishes there too.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    if grid_step > _max_grid_step(params.beta) * (1.0 + 1e-12):
        raise ValueError(
            f"grid_step {grid_step} too coarse; need <= {_max_grid_step(params.beta):.6g}")
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


def brute_count(params: TrigParams, R: float, grid_step: float) -> int:
    """Number of zeros of f on [0, R]."""
    if R <= 0:
        raise ValueError("R must be positive")
    return scan_zeros(params, 0.0, R, grid_step).count()


def density_trace(params: TrigParams, R_values: Sequence[float], grid_step: float):
    """Rows (R, count, count/R) for a shared scan up to max(R_values)."""
    Rs = sorted(float(R) for R in R_values)
    scan = scan_zeros(params, 0.0, Rs[-1], grid_step)
    out = []
    for R in Rs:
        c = int(np.searchsorted(scan.roots, R, side="right"))
        out.append((R, c, c / R))
    return out


def density_trace_csv(params: TrigParams, R_values: Sequence[float], grid_step: float,
                      path) -> None:
    """Write the counting trace as CSV with columns R, count, density."""
    with open(path, "w") as fh:
        fh.write("R,count,density\n")
        for R, c, d in density_trace(params, R_values, grid_step):
            fh.write(f"{R!r},{c},{d!r}\n")
