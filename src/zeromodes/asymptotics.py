"""Closed-form counting densities and empirical-vs-predicted comparison.

For a one-gap potential with gap parameter alpha in (0, 1) and block
imbalance beta, the asymptotic density of real zero-mode couplings is
A(alpha, beta) * |v1 + v2| / pi, where A has three branches: 1 below the
critical product alpha*beta = 1, the closed form nu above it for irrational
beta, and a floor-corrected rational form otherwise.  The rational branch
depends on the parity-normalized numerator/denominator of beta.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    CriticalProduct,
    InsufficientRoots,
    NotCoprime,
    OutOfDomain,
    TrivialPotential,
)
from . import potential as pot
from .potential import GapKind, PiecewiseConstantPotential

__all__ = [
    "nu",
    "ParityNormalizedBeta",
    "parity_normalize",
    "ABranch",
    "ADensity",
    "a_density",
    "detect_rational",
    "TheoremTag",
    "DensityPrediction",
    "predict",
    "CountComparison",
    "compare",
]

_UPPER_BOUND_CONST = 4.0 * math.e / math.pi  # universal disk-count constant


def nu(alpha: float, beta: float) -> float:
    """Closed-form density factor for alpha*beta > 1:

        nu = (2/pi) * [beta * arcsin(sqrt(a^2 b^2 - 1) / sqrt(b^2 - 1))
                       + arcsin(sqrt(1 - a^2) / (a sqrt(b^2 - 1)))].

    Monotone in alpha, running from 1 (at alpha = 1/beta) to beta (at 1).
    """
    if not (0.0 < alpha < 1.0):
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")
    if not math.isfinite(beta):
        raise OutOfDomain(f"beta must be finite, got {beta}")
    if alpha * beta <= 1.0:
        raise OutOfDomain(f"alpha*beta = {alpha * beta} <= 1")
    b2m1 = beta * beta - 1.0
    first = math.asin(min(1.0, math.sqrt(alpha * alpha * beta * beta - 1.0) / math.sqrt(b2m1)))
    second = math.asin(min(1.0, math.sqrt(1.0 - alpha * alpha) / (alpha * math.sqrt(b2m1))))
    return (2.0 / math.pi) * (beta * first + second)


@dataclass(frozen=True)
class ParityNormalizedBeta:
    p_beta: int
    q_beta: int


def parity_normalize(p: int, q: int) -> ParityNormalizedBeta:
    """(p, q) unchanged if both odd; doubled if of opposite parity."""
    if p <= 0 or q <= 0:
        raise NotCoprime("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if p % 2 == 1 and q % 2 == 1:
        return ParityNormalizedBeta(p, q)
    return ParityNormalizedBeta(2 * p, 2 * q)


def detect_rational(beta: float, qmax: int = 10**6) -> Optional[tuple[int, int]]:
    """Best-effort rationality detection for a floating-point beta.

    Returns (p, q) when the best rational approximation with q <= qmax
    satisfies |beta - p/q| < 1e-9 / q^2, i.e. far tighter than a generic
    irrational allows at that denominator.  Fractions with q, q' <= qmax lie
    at least 1/(q q') apart, so only the closest one can pass this test.
    """
    if beta < 0:
        return None
    from fractions import Fraction  # costs ms: load on first use

    p, q = Fraction(beta).limit_denominator(qmax).as_integer_ratio()
    return (p, q) if abs(beta - p / q) < 1e-9 / (q * q) else None


class ABranch(Enum):
    SUBCRITICAL = "subcritical"
    IRRATIONAL_SUPER = "irrational-super"
    RATIONAL_SUPER = "rational-super"


@dataclass(frozen=True)
class ADensity:
    value: float
    branch: ABranch
    degenerate: bool
    p_q: Optional[tuple[int, int]] = None  # reduced (p, q) on the rational branch


def a_density(alpha: float, beta: float,
              rational_hint: Optional[tuple[int, int]] = None) -> ADensity:
    """Density factor A(alpha, beta) with branch and degeneracy provenance.

    The rational branch is selected by rational_hint when supplied (the
    caller knows the arithmetic), else by detect_rational.  The
    degenerate flag marks p_beta + q_beta*nu in 4Z (where tangential zeros
    void the counting argument); the value is still reported, never
    silently rebranched.  alpha*beta == 1 (within 1e-9) is excluded.
    """
    if not (0.0 < alpha < 1.0):
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")
    if not (0.0 <= beta < math.inf):
        raise OutOfDomain(f"beta must be finite and >= 0, got {beta}")
    prod = alpha * beta
    if abs(prod - 1.0) < 1e-9:
        raise CriticalProduct("alpha*beta == 1 is excluded from every branch")
    if prod < 1.0:
        return ADensity(1.0, ABranch.SUBCRITICAL, False)

    pq = rational_hint if rational_hint is not None else detect_rational(beta)
    if pq is None:
        return ADensity(nu(alpha, beta), ABranch.IRRATIONAL_SUPER, False)

    p, q = pq
    norm = parity_normalize(p, q)
    value_nu = nu(alpha, p / q)
    combo = norm.p_beta + norm.q_beta * value_nu
    degenerate = min(combo % 4.0, 4.0 - combo % 4.0) < 1e-6
    A = (4.0 / norm.q_beta) * math.floor(combo / 4.0) - norm.p_beta / norm.q_beta + 2.0 / norm.q_beta
    return ADensity(A, ABranch.RATIONAL_SUPER, degenerate, (p, q))


class TheoremTag(Enum):
    SINGLE_SIGN = "single-sign"
    NO_GAP = "no-gap"
    ONE_GAP = "one-gap"
    ZERO_INTEGRAL_FINITE = "zero-integral-finite"
    ANTISYMMETRIC_EMPTY = "antisymmetric-empty"
    LOWER_BOUND_ONLY = "lower-bound-only"
    UPPER_BOUND_ONLY = "upper-bound-only"


@dataclass(frozen=True)
class DensityPrediction:
    """Expected count of real couplings in [0, R] is roughly slope * R.

    slope is None when only the universal bounds apply (slope_lower /
    slope_upper remain valid in every case).
    """

    slope: Optional[float]
    theorem: TheoremTag
    case_info: Optional[ABranch] = None
    degenerate: bool = False
    slope_lower: float = 0.0
    slope_upper: float = 0.0

    def to_json(self) -> str:
        enums = {"theorem": self.theorem.value, "case_info": self.case_info and self.case_info.value}
        return json.dumps(asdict(self) | enums)


def _is_antisymmetric(V: PiecewiseConstantPotential) -> bool:
    """V(x) == -V(a0 + am - x) over the support hull [a0, am] of a nonzero V."""
    W = pot.canonicalize(V)
    if W.support_hull() is None:
        return False
    a, v = np.array(W.breakpoints), np.array(W.values)
    scale = max(abs(b) for b in W.breakpoints) + 1.0
    return (np.allclose(a, (a[0] + a[-1]) - a[::-1], rtol=0.0, atol=1e-12 * scale)
            and np.allclose(v, -v[::-1], rtol=1e-12, atol=1e-14))


def predict(V: PiecewiseConstantPotential, k: float) -> DensityPrediction:
    """Route a step potential to its sharpest applicable counting law."""
    pot._check_k(k)
    total = pot.integral(V)
    absnorm = pot.l1_norm(V)
    if absnorm == 0.0:
        raise TrivialPotential("prediction needs a nontrivial potential")
    lower = abs(total) / math.pi
    bounds = {"slope_lower": lower, "slope_upper": _UPPER_BOUND_CONST * absnorm}

    if _is_antisymmetric(V):
        return DensityPrediction(0.0, TheoremTag.ANTISYMMETRIC_EMPTY, **bounds)

    signs = {v > 0 for v in V.values if v != 0.0}
    if len(signs) == 1:
        return DensityPrediction(absnorm / math.pi, TheoremTag.SINGLE_SIGN, **bounds)

    gs = pot.classify_gaps(V)
    if gs.kind is GapKind.NO_GAP:
        return DensityPrediction(lower, TheoremTag.NO_GAP, **bounds)
    if gs.kind is GapKind.ONE_GAP:
        v1, v2 = (c.integral for c in gs.components)
        if v1 + v2 == 0.0:
            return DensityPrediction(0.0, TheoremTag.ZERO_INTEGRAL_FINITE, **bounds)
        params = pot.one_gap_params(V, k)
        dens = a_density(params.alpha, params.beta)
        return DensityPrediction(dens.value * abs(v1 + v2) / math.pi, TheoremTag.ONE_GAP,
                                 case_info=dens.branch, degenerate=dens.degenerate, **bounds)
    # several gaps: no sharp law; report which universal bound is informative
    if total != 0.0:
        return DensityPrediction(None, TheoremTag.LOWER_BOUND_ONLY, **bounds)
    return DensityPrediction(None, TheoremTag.UPPER_BOUND_ONLY, **bounds)


@dataclass(frozen=True)
class CountComparison:
    empirical_slope: float
    predicted_slope: Optional[float]
    relative_gap: Optional[float]
    n_roots: int
    R: float
    fit: str  # "least-squares" or "count-ratio"

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def compare(spectrum, prediction: DensityPrediction, R: float) -> CountComparison:
    """Least-squares slope of index against located coupling, vs prediction.

    Fewer than 10 roots is only meaningful when the prediction itself is a
    bounded count (slope 0 or bounds-only); then the plain count ratio is
    reported instead of a fit.
    """
    gammas = sorted(r.value.real for r in spectrum.roots
                    if r.value.imag == 0.0 and 0.0 <= r.value.real <= R)
    n = len(gammas)
    if n < 10:
        if prediction.slope not in (None, 0.0):
            raise InsufficientRoots(f"{n} roots cannot support a slope fit")
        emp = n / R
        fit = "count-ratio"
    else:
        emp = float(np.polyfit(gammas, np.arange(1, n + 1), 1)[0])
        fit = "least-squares"
    pred = prediction.slope
    if pred is None:
        gap = None
    elif pred == 0.0:
        gap = emp  # absolute, a rate of unexpected roots
    else:
        gap = abs(emp - pred) / pred
    return CountComparison(emp, pred, gap, n, R, fit)
