"""Eigenvalue enumeration: real scan/bisection, complex winding search,
counting functions, and phase-grid export.

Real couplings are located by scanning the matching defect Delta over a
grid fine enough that a crossing of the half-integer-pi levels cannot slip
between nodes (an a-priori slope heuristic, self-corrected by rescanning at
half step until the bracket count stabilises), then bisecting each bracket.
Complex couplings of step potentials are located by tracking the phase
winding of the matching determinant around rectangles, subdividing until
small, then polishing with Newton.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .closedform import determinant
from .errors import (
    BoundaryRoot,
    NonPositiveK,
    RegionTooSmall,
    ScanStepTooCoarse,
    TrivialPotential,
    WindingMismatch,
)
from .potential import (
    PiecewiseConstantPotential,
    Potential,
    l1_norm,
    tail_l1,
)
from .prufer import delta_grid, delta_v

__all__ = [
    "Root",
    "GammaSpectrum",
    "PhaseGrid",
    "real_spectrum",
    "counting_function",
    "complex_spectrum",
    "phase_grid",
]

_SEPARATION_FLOOR = 1e-7  # closer roots are merged as duplicates


@dataclass(frozen=True)
class Root:
    value: complex
    residual: float
    method: str  # "delta-bisect", "determinant-brent", "winding-newton"
    multiplicity: int = 1


@dataclass(frozen=True)
class GammaSpectrum:
    """Located couplings with residual certificates, sorted by real part."""

    roots: tuple[Root, ...]
    search_region: tuple[float, float] | tuple[float, float, float, float]
    k: float

    def values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def real_values(self) -> list[float]:
        return [r.value.real for r in self.roots if r.value.imag == 0.0]

    def to_json_lines(self) -> str:
        lines = []
        for r in self.roots:
            lines.append(json.dumps({
                "re": r.value.real,
                "im": r.value.imag,
                "residual": r.residual,
                "method": r.method,
                "multiplicity": r.multiplicity,
            }))
        return "\n".join(lines) + ("\n" if lines else "")


def _merge_sorted(roots: list[Root]) -> tuple[Root, ...]:
    roots = sorted(roots, key=lambda r: (r.value.real, r.value.imag))
    out: list[Root] = []
    for r in roots:
        if out and abs(r.value - out[-1].value) < _SEPARATION_FLOOR:
            if r.residual < out[-1].residual:
                out[-1] = r
            continue
        out.append(r)
    return tuple(out)


def _effective_diameter(V: Potential) -> float:
    if isinstance(V, PiecewiseConstantPotential):
        hull = V.support_hull()
        return 0.0 if hull is None else hull[1] - hull[0]
    # width containing 95% of the mass; enough for the scan-step heuristic
    total = l1_norm(V)
    W = 1.0
    while tail_l1(V, W) > 0.05 * total and W < V.decay_hint:
        W *= 2.0
    return 2.0 * min(W, V.decay_hint)


def _level_range(d0: float, d1: float) -> range:
    """Indices n with (n + 1/2)*pi strictly between d0 and d1."""
    lo, hi = (d0, d1) if d0 <= d1 else (d1, d0)
    n_min = math.ceil(lo / math.pi - 0.5 + 1e-15)
    n_max = math.floor(hi / math.pi - 0.5 - 1e-15)
    return range(n_min, n_max + 1)


def _delta_brackets(V, k, grid: np.ndarray, deltas: np.ndarray):
    """(lo, hi, level) triples, one per level crossing; None when a single
    cell crosses more than one level (scan too coarse)."""
    out = []
    for i in range(len(grid) - 1):
        levels = _level_range(deltas[i], deltas[i + 1])
        if len(levels) > 1:
            return None
        for n in levels:
            out.append((grid[i], grid[i + 1], (n + 0.5) * math.pi))
    return out


def real_spectrum(V: Potential, k: float, R: float, tol: float = 1e-9,
                  method: str = "delta") -> GammaSpectrum:
    """All real couplings in [0, R] admitting a confined zero mode.

    method "delta" scans/bisects the matching defect (works for every
    potential); "determinant" brackets sign changes of the real matching
    determinant (step potentials only) and serves as the independent
    cross-check pipeline.
    """
    if k <= 0:
        raise NonPositiveK("k must be positive")
    if R <= 0:
        raise ValueError("R must be positive")
    if isinstance(V, PiecewiseConstantPotential) and V.support_hull() is None:
        return GammaSpectrum((), (0.0, R), k)

    if method == "determinant":
        return _real_spectrum_determinant(V, k, R, tol)
    if method != "delta":
        raise ValueError(f"unknown method {method!r}")

    diam = _effective_diameter(V)
    step = math.pi / (4.0 * (1.1 * l1_norm(V) + k * diam + 1e-12))
    step = min(step, R / 8.0)

    roots: list[Root] = []
    for attempt in range(14):
        n_cells = int(math.ceil(R / step))
        grid = np.linspace(0.0, R, n_cells + 1)
        deltas = delta_grid(V, grid, k)
        brackets = _delta_brackets(V, k, grid, deltas)
        if brackets is not None:
            # verify against half step: a dip across a level and back inside
            # one cell is invisible to the endpoint test
            fine = np.linspace(0.0, R, 2 * n_cells + 1)
            fdeltas = np.empty(fine.size)
            fdeltas[::2] = deltas
            fdeltas[1::2] = delta_grid(V, fine[1::2], k)
            fbrackets = _delta_brackets(V, k, fine, fdeltas)
            if fbrackets is not None and len(fbrackets) == len(brackets):
                for lo, hi, level in fbrackets:
                    g = brentq(lambda x: delta_v(V, x, k) - level, lo, hi,
                               xtol=min(tol, 1e-12), rtol=8.9e-16)
                    slope = abs(delta_v(V, g + 1e-6, k) - delta_v(V, g - 1e-6, k)) / 2e-6
                    resid = abs(delta_v(V, g, k) - level) / max(slope, 1e-3)
                    roots.append(Root(complex(g), resid, "delta-bisect"))
                return GammaSpectrum(_merge_sorted(roots), (0.0, R), k)
        step *= 0.5
    raise ScanStepTooCoarse(f"scan failed to stabilise down to step {step:.3e}")


def _real_spectrum_determinant(V, k, R, tol) -> GammaSpectrum:
    if not isinstance(V, PiecewiseConstantPotential):
        raise TrivialPotential("determinant pipeline needs a step potential")
    D = lambda g: determinant(V, g, k).real
    diam = _effective_diameter(V)
    step = math.pi / (4.0 * (1.1 * l1_norm(V) + k * diam + 1e-12))
    step = min(step, R / 8.0)
    roots: list[Root] = []
    for attempt in range(14):
        n_cells = int(math.ceil(R / step))
        grid = np.linspace(0.0, R, n_cells + 1)
        vals = np.array([D(g) for g in grid])
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        fine = np.linspace(0.0, R, 2 * n_cells + 1)
        fvals = np.empty(fine.size)
        fvals[::2] = vals
        fvals[1::2] = np.array([D(g) for g in fine[1::2]])
        fidx = np.nonzero(np.sign(fvals[:-1]) * np.sign(fvals[1:]) < 0)[0]
        if len(fidx) == len(idx):
            for i in fidx:
                g = brentq(D, fine[i], fine[i + 1], xtol=min(tol, 1e-12), rtol=8.9e-16)
                slope = abs(D(g + 1e-6) - D(g - 1e-6)) / 2e-6
                resid = abs(D(g)) / max(slope, 1e-30)
                roots.append(Root(complex(g), resid, "determinant-brent"))
            return GammaSpectrum(_merge_sorted(roots), (0.0, R), k)
        step *= 0.5
    raise ScanStepTooCoarse(f"determinant scan failed to stabilise at step {step:.3e}")


def counting_function(spectrum: GammaSpectrum, R: float) -> int:
    """Number of located real couplings in [0, R]."""
    region = spectrum.search_region
    if len(region) != 2 or region[0] > 0.0 or region[1] < R:
        raise RegionTooSmall(f"spectrum covers {region}, asked about [0, {R}]")
    return sum(1 for r in spectrum.roots if r.value.imag == 0.0 and r.value.real <= R)


# --- complex search by phase winding ------------------------------------------


class _ArgTracker:
    """Continuous-argument accumulator for D along boundary polylines.

    A principal-value argument step is only trustworthy on segments short
    enough that the true phase cannot alias by a full turn, so segments are
    subdivided until the step is below pi/2 *and* the magnitude ratio stays
    moderate; callers additionally pre-split edges at the phase scale set by
    the potential.
    """

    def __init__(self, fun: Callable[[complex], complex]):
        self.fun = fun
        self.cache: dict[complex, complex] = {}
        self.min_abs = math.inf
        self.max_abs = 0.0

    def __call__(self, z: complex) -> complex:
        v = self.cache.get(z)
        if v is None:
            v = self.fun(z)
            self.cache[z] = v
            a = abs(v)
            self.min_abs = min(self.min_abs, a)
            self.max_abs = max(self.max_abs, a)
        return v

    def arg_change(self, z0: complex, z1: complex, depth: int = 0) -> float:
        v0, v1 = self(z0), self(z1)
        if v0 == 0 or v1 == 0:
            raise BoundaryRoot(f"determinant vanishes on the contour near {z0}")
        r = v1 / v0
        dphi = math.atan2(r.imag, r.real)
        if abs(dphi) < math.pi / 2 and 0.2 < abs(r) < 5.0:
            return dphi
        if depth > 48:
            raise BoundaryRoot(f"argument tracking failed near {z0} (suspected boundary root)")
        zm = 0.5 * (z0 + z1)
        return self.arg_change(z0, zm, depth + 1) + self.arg_change(zm, z1, depth + 1)

    def polyline_arg_change(self, z0: complex, z1: complex, h0: float) -> float:
        """Argument change along [z0, z1], pre-split at phase scale h0."""
        n = max(1, math.ceil(abs(z1 - z0) / h0))
        total = 0.0
        prev = z0
        for j in range(1, n + 1):
            nxt = z0 + (z1 - z0) * (j / n)
            total += self.arg_change(prev, nxt)
            prev = nxt
        return total


def _rect_winding(tracker: _ArgTracker, rect: tuple[float, float, float, float],
                  h0: float) -> int:
    x0, x1, y0, y1 = rect
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        total += tracker.polyline_arg_change(a, b, h0)
    w = total / math.tau
    if abs(w - round(w)) > 0.25:
        raise WindingMismatch(f"non-integer winding {w:.3f} on {rect}")
    return int(round(w))


def _newton_polish(fun, z: complex, tol: float) -> tuple[complex, float]:
    h = 1e-7
    for _ in range(80):
        f0 = fun(z)
        d = (fun(z + h) - fun(z - h)) / (2 * h)
        if d == 0:
            break
        step = f0 / d
        z = z - step
        if abs(step) < 0.25 * tol:
            # one extra step as the certificate
            f0 = fun(z)
            d = (fun(z + h) - fun(z - h)) / (2 * h)
            step = f0 / d if d != 0 else step
            z = z - step
            return z, abs(step)
    return z, math.inf


def _subdivide(fun, rect, tol, h0, found: list[tuple[complex, float, int]], depth: int = 0):
    tracker = _ArgTracker(fun)
    w = _rect_winding(tracker, rect, h0)
    if w == 0:
        return 0
    x0, x1, y0, y1 = rect
    diam = math.hypot(x1 - x0, y1 - y0)
    if diam < 1e-3 or depth > 60:
        z0 = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        z, resid = _newton_polish(fun, z0, tol)
        if resid > tol or abs(z - z0) > 10 * diam:
            if diam > 1e-9:  # keep squeezing the box around a stubborn root
                return _quadrisect(fun, rect, tol, h0, found, depth)
            z, resid = z0, diam
        found.append((z, resid, w))
        return w
    return _quadrisect(fun, rect, tol, h0, found, depth)


def _quadrisect(fun, rect, tol, h0, found, depth):
    x0, x1, y0, y1 = rect
    # offset fractions dodge roots sitting exactly on a midline
    for frac in (0.5, 0.5 + 0.013, 0.5 - 0.029):
        xm = x0 + frac * (x1 - x0)
        ym = y0 + frac * (y1 - y0)
        quads = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
        snapshot = len(found)
        try:
            total = 0
            for q in quads:
                total += _subdivide(fun, q, tol, h0, found, depth + 1)
            return total
        except (BoundaryRoot, WindingMismatch):
            # retry with shifted split lines; drop roots from the failed pass
            del found[snapshot:]
            continue
    raise WindingMismatch(f"subdivision could not reconcile windings inside {rect}")


def complex_spectrum(V: PiecewiseConstantPotential, k: float,
                     rectangle: tuple[float, float, float, float],
                     tol: float = 1e-9) -> GammaSpectrum:
    """Couplings inside a complex rectangle (re_min, re_max, im_min, im_max).

    The boundary winding number of the matching determinant is tracked with
    adaptive argument subdivision; rectangles that wind are quadrisected
    down to small diameter and polished with Newton.  The number of roots
    returned (with multiplicity) always equals the top-level winding; any
    mismatch raises instead of silently dropping a root.  A root too close
    to the boundary triggers an automatic 1e-6 outward nudge.
    """
    if k <= 0:
        raise NonPositiveK("k must be positive")
    x0, x1, y0, y1 = (float(t) for t in rectangle)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive area")
    fun = lambda z: determinant(V, z, k)
    diam = _effective_diameter(V)
    h0 = min(1.0, math.pi / (4.0 * (1.1 * l1_norm(V) + k * diam + 1e-12)))

    nudge = 0.0
    for attempt in range(4):
        rect = (x0 - nudge, x1 + nudge, y0 - nudge, y1 + nudge)
        tracker = _ArgTracker(fun)
        try:
            top = _rect_winding(tracker, rect, h0)
            if tracker.min_abs < 1e-12 * tracker.max_abs:
                raise BoundaryRoot("determinant nearly vanishes on the boundary")
            found: list[tuple[complex, float, int]] = []
            got = _subdivide(fun, rect, tol, h0, found)
            if got != top:
                raise WindingMismatch(f"found {got} roots but boundary winds {top}")
            roots = [Root(z, resid, "winding-newton", mult) for z, resid, mult in found]
            merged = _merge_sorted(roots)
            if sum(r.multiplicity for r in merged) != top:
                raise WindingMismatch("duplicate roots merged away; winding no longer reconciles")
            return GammaSpectrum(merged, (x0, x1, y0, y1), k)
        except BoundaryRoot:
            nudge = 1e-6 * (attempt + 1)
    raise BoundaryRoot("rectangle boundary keeps hitting a root despite nudging")


# --- phase grids ---------------------------------------------------------------


@dataclass(frozen=True)
class PhaseGrid:
    """arg D sampled at cell centers of a complex rectangle, in (-pi, pi]."""

    rectangle: tuple[float, float, float, float]
    nx: int
    ny: int
    arg_values: np.ndarray = field(repr=False)  # shape (ny, nx), row 0 at im_min

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        x0, x1, y0, y1 = self.rectangle
        xs = x0 + (np.arange(self.nx) + 0.5) * (x1 - x0) / self.nx
        ys = y0 + (np.arange(self.ny) + 0.5) * (y1 - y0) / self.ny
        return xs, ys

    def to_csv(self, path) -> None:
        xs, ys = self.cell_centers()
        with open(path, "w") as fh:
            fh.write("re,im,arg\n")
            for j, y in enumerate(ys):
                for i, x in enumerate(xs):
                    fh.write(f"{float(x)!r},{float(y)!r},{float(self.arg_values[j, i])!r}\n")

    def to_ppm(self, path) -> None:
        """Binary P6 pixmap with the periodic hue map hue = (arg + pi) / 2pi,
        full saturation and value; top pixel row is the largest imaginary part."""
        hue = (self.arg_values + math.pi) / math.tau
        rgb = _hsv_hue_to_rgb(hue[::-1, :])  # flip so row 0 is im_max
        with open(path, "wb") as fh:
            fh.write(f"P6\n{self.nx} {self.ny}\n255\n".encode())
            fh.write(rgb.tobytes())


def _hsv_hue_to_rgb(hue: np.ndarray) -> np.ndarray:
    """HSV -> RGB for s = v = 1, vectorized; returns uint8 (..., 3)."""
    h6 = np.mod(hue, 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    one = np.ones_like(f)
    q = 1.0 - f
    # channel patterns for the six sectors
    r = np.choose(i, [one, q, 0 * f, 0 * f, f, one])
    g = np.choose(i, [f, one, one, q, 0 * f, 0 * f])
    b = np.choose(i, [0 * f, 0 * f, f, one, one, q])
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(out * 255), 0, 255).astype(np.uint8)


def phase_grid(V: PiecewiseConstantPotential, k: float,
               rectangle: tuple[float, float, float, float],
               nx: int, ny: int) -> PhaseGrid:
    """Sample arg D at the cell centers of an nx-by-ny grid."""
    if k <= 0:
        raise NonPositiveK("k must be positive")
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be >= 2")
    x0, x1, y0, y1 = (float(t) for t in rectangle)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive area")
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    args = np.empty((ny, nx))
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            d = determinant(V, complex(x, y), k)
            args[j, i] = math.atan2(d.imag, d.real)
    return PhaseGrid((x0, x1, y0, y1), nx, ny, args)
