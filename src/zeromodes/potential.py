"""Potential data model: piecewise-constant and analytic decaying potentials.

A piecewise-constant potential is a step function with compact support,
described by ordered breakpoints a0 < a1 < ... < am and one amplitude per
interior interval; it evaluates to 0 outside [a0, am].  An analytic
potential wraps an evaluator together with a decay hint X0 beyond which
the absolute tail integral is negligible; its integrals are taken by
Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby
from typing import Callable, Union

import numpy as np

from .errors import (
    InfeasibleTriple,
    LengthMismatch,
    NonMonotoneBreakpoints,
    NonPositiveK,
    NotOneGap,
    TrivialPotential,
    ZeroIntegral,
)

__all__ = [
    "PiecewiseConstantPotential",
    "AnalyticPotential",
    "Potential",
    "GapKind",
    "SupportComponent",
    "GapStructure",
    "OneGapParams",
    "build_w",
    "l1_norm",
    "integral",
    "tail_l1",
    "classify_gaps",
    "one_gap_params",
    "synthesize_one_gap",
    "hrp_potential",
    "to_record",
    "from_record",
]

_GAUSS_POINTS = 20  # per panel
_MAX_PANELS = 1024
_QUAD_RTOL = 5e-15  # of the integral of |f|, between two panel counts


@dataclass(frozen=True)
class PiecewiseConstantPotential:
    """Step function with breakpoints (a0..am) and one value per interval."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, x: float) -> float:
        """Evaluate; breakpoints take the right-limit value, outside is 0."""
        a = self.breakpoints
        if not a[0] <= x < a[-1]:
            return 0.0
        return self.values[bisect_right(a, x) - 1]

    @property
    def piece_lengths(self) -> tuple[float, ...]:
        a = self.breakpoints
        return tuple(a[j + 1] - a[j] for j in range(len(a) - 1))

    def support_hull(self) -> tuple[float, float] | None:
        """Convex hull [min supp, max supp] of the support, or None if V == 0."""
        nz = [j for j, v in enumerate(self.values) if v != 0.0]
        if not nz:
            return None
        return self.breakpoints[nz[0]], self.breakpoints[nz[-1] + 1]


@dataclass(frozen=True)
class AnalyticPotential:
    """Decaying potential given by an evaluator plus a tail cutoff hint.

    decay_hint is a position X0 such that the tail integral of |V| beyond
    X >= X0 is negligible for every use in this package; it is supplied by
    the caller because it is known analytically, not detected.
    """

    evaluator: Callable[[float], float]
    decay_hint: float
    name: str = ""

    def __call__(self, x: float) -> float:
        return self.evaluator(x)


Potential = Union[PiecewiseConstantPotential, AnalyticPotential]


class GapKind(Enum):
    NO_GAP = "no-gap"
    ONE_GAP = "one-gap"
    MULTI_GAP = "multi-gap"


@dataclass(frozen=True)
class SupportComponent:
    """Maximal run of nonzero pieces: its interval and its integral."""

    lo: float
    hi: float
    integral: float


@dataclass(frozen=True)
class GapStructure:
    kind: GapKind
    gap_count: int
    components: tuple[SupportComponent, ...]


@dataclass(frozen=True)
class OneGapParams:
    """Gap shape ratio alpha = tanh(k * gap length) and block-imbalance beta."""

    alpha: float
    beta: float
    k: float


def build_w(breakpoints, values) -> PiecewiseConstantPotential:
    """Construct a compactly supported step potential.

    Raises ValueError unless every number is finite, NonMonotoneBreakpoints
    unless the breakpoints strictly increase, and LengthMismatch unless
    len(values) == len(breakpoints) - 1.
    """
    bp = tuple(float(b) for b in breakpoints)
    vals = tuple(float(v) for v in values)
    if not all(map(math.isfinite, bp + vals)):
        raise ValueError("breakpoints and values must be finite")
    if len(bp) < 2:
        raise LengthMismatch("need at least two breakpoints")
    if len(vals) != len(bp) - 1:
        raise LengthMismatch(
            f"{len(bp)} breakpoints require {len(bp) - 1} values, got {len(vals)}"
        )
    for a, b in zip(bp, bp[1:]):
        if not (b > a):
            raise NonMonotoneBreakpoints(f"breakpoints not strictly increasing at {a!r}, {b!r}")
    return PiecewiseConstantPotential(bp, vals)


def canonicalize(V: PiecewiseConstantPotential) -> PiecewiseConstantPotential:
    """Merge adjacent equal-valued pieces and strip zero-valued end pieces.

    Evaluates to the same function; used for structural comparisons and gap
    classification.  A fully zero V keeps one zero piece over its whole span.
    """
    # merge runs of equal values; a run ends at its last piece's right edge
    mvals, mbp = [], [V.breakpoints[0]]
    for v, run in groupby(zip(V.values, V.breakpoints[1:]), key=lambda piece: piece[0]):
        mvals.append(v)
        mbp.append(list(run)[-1][1])
    # strip zero edges (keep at least one piece)
    while len(mvals) > 1 and mvals[0] == 0.0:
        mvals.pop(0)
        mbp.pop(0)
    while len(mvals) > 1 and mvals[-1] == 0.0:
        mvals.pop()
        mbp.pop()
    return PiecewiseConstantPotential(tuple(mbp), tuple(mvals))


@lru_cache(maxsize=1)
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss  # costs ms: load on first use

    nodes, weights = leggauss(_GAUSS_POINTS)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # on [0, 1]


def _quad(f, a: float, b: float = math.inf) -> float:
    """Integral of the scalar function f over [a, b]: Gauss-Legendre on
    equal panels, their number doubled until two sums agree to _QUAD_RTOL
    of the integral of |f| (or reach _MAX_PANELS).  With b = inf, the map
    x = a + u/(1-u) takes u in [0, 1) onto [a, inf), so f must decay."""
    nodes, weights = _gauss_legendre()
    last, panels = None, 1
    while True:
        u = (np.arange(panels)[:, None] + nodes).ravel() / panels
        w = np.tile(weights, panels) / panels
        if b == math.inf:
            x, w = a + u / (1.0 - u), w / (1.0 - u) ** 2
        else:
            x, w = a + (b - a) * u, (b - a) * w
        fw = np.array([f(xi) for xi in x.tolist()]) * w
        total = math.fsum(fw)
        if last is not None and (abs(total - last) <= _QUAD_RTOL * float(np.abs(fw).sum())
                                 or panels >= _MAX_PANELS):
            return total
        last, panels = total, 2 * panels


def _tails(f, X: float) -> float:
    """Integral of f over |x| > X."""
    return _quad(lambda x: f(-x), X) + _quad(f, X)


def _line_integral(f, X: float) -> float:
    """Integral of f over the line, with panel edges at -X, 0 and X."""
    return (_quad(f, -X, 0.0) + _quad(f, 0.0, X)) + _tails(f, X)


def l1_norm(V: Potential) -> float:
    """Integral of |V| over the line (exact for steps, quadrature otherwise)."""
    if isinstance(V, PiecewiseConstantPotential):
        return sum(abs(v) * ln for v, ln in zip(V.values, V.piece_lengths))
    return _line_integral(lambda x: abs(V(x)), V.decay_hint)


def integral(V: Potential) -> float:
    """Integral of V over the line."""
    if isinstance(V, PiecewiseConstantPotential):
        return sum(v * ln for v, ln in zip(V.values, V.piece_lengths))
    return _line_integral(V, V.decay_hint)


def tail_l1(V: Potential, X: float) -> float:
    """Integral of |V| over |x| > X (zero beyond the support of a step V)."""
    if X < 0:
        raise ValueError("X must be >= 0")
    if isinstance(V, PiecewiseConstantPotential):
        total = 0.0
        a = V.breakpoints
        for j, v in enumerate(V.values):
            if v == 0.0:
                continue
            lo, hi = a[j], a[j + 1]
            # overlap of (lo, hi) with (-inf, -X) and (X, inf)
            left = max(0.0, min(hi, -X) - lo)
            right = max(0.0, hi - max(lo, X))
            total += abs(v) * min(hi - lo, left + right)
        return total
    return _tails(lambda x: abs(V(x)), X)


def classify_gaps(V: PiecewiseConstantPotential) -> GapStructure:
    """Split the support into maximal nonzero components separated by gaps.

    Interior zero-valued pieces of positive length are gaps; zero pieces
    outside the support hull are padding and ignored.
    """
    W = canonicalize(V)
    if all(v == 0.0 for v in W.values):
        raise TrivialPotential("cannot classify the zero potential")
    comps = []
    pieces = zip(W.values, W.breakpoints, W.breakpoints[1:])
    for nonzero, run in groupby(pieces, key=lambda piece: piece[0] != 0.0):
        if nonzero:
            run = list(run)
            comps.append(SupportComponent(run[0][1], run[-1][2], sum(v * (b - a) for v, a, b in run)))
    gaps = len(comps) - 1
    kind = GapKind.NO_GAP if gaps == 0 else GapKind.ONE_GAP if gaps == 1 else GapKind.MULTI_GAP
    return GapStructure(kind, gaps, tuple(comps))


def _check_k(k: float) -> None:
    """The transverse frequency must be positive and finite."""
    if not -math.inf < k < math.inf:
        raise ValueError(f"k must be finite, got {k!r}")
    if k <= 0:
        raise NonPositiveK("k must be positive")


def one_gap_params(V: PiecewiseConstantPotential, k: float) -> OneGapParams:
    """Shape parameters (alpha, beta) of a one-gap potential.

    alpha = tanh(k * gap length) in (0, 1); beta = |v1 - v2| / |v1 + v2|
    where v1, v2 are the two component integrals.  Raises ZeroIntegral when
    v1 + v2 == 0 (beta undefined; the real spectrum is then finite and the
    caller should use the finite-count prediction instead).
    """
    _check_k(k)
    gs = classify_gaps(V)
    if gs.kind is not GapKind.ONE_GAP:
        raise NotOneGap(f"potential has {gs.gap_count} gaps, need exactly 1")
    c1, c2 = gs.components
    v1, v2 = c1.integral, c2.integral
    if v1 + v2 == 0.0:
        raise ZeroIntegral("v1 + v2 == 0: beta undefined")
    alpha = math.tanh(k * (c2.lo - c1.hi))
    beta = abs((v1 - v2) / (v1 + v2))
    return OneGapParams(alpha, beta, k)


def synthesize_one_gap(v: float, A: float, u: float, k: float = 1.0) -> PiecewiseConstantPotential:
    """Build a one-gap step potential with |integral| = v, L1-norm = u and
    asymptotic counting slope A / pi.

    Requires 0 < v < A < u.  The construction picks an intermediate weight w
    in (A, u) with w/v protected against small-denominator rational
    approximation (a sqrt(2)-scaled offset), so the density prediction lands
    on the irrational branch, then solves for the gap length that makes the
    closed-form density equal A / v.
    """
    _check_k(k)
    if not (0.0 < v < A < u):
        raise InfeasibleTriple(f"need 0 < v < A < u, got v={v}, A={A}, u={u}")

    base = 0.5 * (u + v)
    if base <= A:
        base = 0.5 * (A + u)
    span = min(u - base, base - A)
    bump = math.sqrt(2.0) * 1e-3 * v
    while bump >= 0.5 * span:
        bump *= 0.5
    w = base + bump

    beta = w / v
    target = A / v  # in (1, beta)

    # local imports: asymptotics and spectra depend on this module
    from .asymptotics import nu
    from .spectra import _refine

    lo = 1.0 / beta * (1.0 + 1e-12)
    hi = 1.0 - 1e-14
    miss = lambda a: np.array([nu(float(a[0]), beta) - target])
    alpha = float(_refine(lambda idx, a: miss(a), [lo], [hi], miss([lo]), miss([hi]), 1e-15)[0][0])
    g = math.atanh(alpha) / k

    v0 = 0.5 * (u - w)
    v1 = 0.5 * (v - w)
    v2 = 0.5 * (v + w)
    return build_w([-1.0, 0.0, g, g + 1.0, g + 2.0], [v1, 0.0, v2 + v0, -v0])


def _sech_well(x: float) -> float:
    # cosh overflows near |x| ~ 710; the tail is exactly 0 to double precision
    if abs(x) > 700.0:
        return 0.0
    return -1.0 / math.cosh(x)


def hrp_potential() -> AnalyticPotential:
    """The analytic reference well -1/cosh(x); tail beyond |x|=40 is < 1e-16."""
    return AnalyticPotential(_sech_well, decay_hint=40.0, name="hrp")


# --- text form ----------------------------------------------------------------
#
# The one-line spec the CLI reads: `w:[a0,a1,...]:v1,v2,...` for a step
# potential, `hrp` for the -1/cosh well.  Floats are written with repr()
# so the step round trip is bit exact.


def to_record(V: Potential) -> str:
    """The spec of V; raises ValueError if from_record cannot read it back."""
    if isinstance(V, AnalyticPotential):
        if V.name != "hrp":
            raise ValueError(f"analytic potential {V.name!r} has no spec")
        return "hrp"
    text = f"w:[{','.join(map(repr, V.breakpoints))}]:{','.join(map(repr, V.values))}"
    from_record(text)
    return text


def from_record(text: str) -> Potential:
    """Parse the potential mini-language.

    `w:[-1,1]:1` -> step potential with breakpoints -1, 1 and value 1;
    `hrp` -> the analytic -1/cosh well.  A malformed spec raises ValueError.
    """
    text = text.strip()
    if text == "hrp":
        return hrp_potential()
    if text.startswith("w:"):
        try:
            _, bp_part, val_part = text.split(":", 2)
            if not (bp_part.startswith("[") and bp_part.endswith("]")):
                raise ValueError("breakpoints must be bracketed")
            bps = [float(s) for s in bp_part[1:-1].split(",")]
            vals = [float(s) for s in val_part.split(",")]
            return build_w(bps, vals)
        except (ValueError, NonMonotoneBreakpoints, LengthMismatch) as exc:
            raise ValueError(f"malformed step potential spec {text!r}: {exc}") from None
    raise ValueError(f"unknown potential spec {text!r}")
