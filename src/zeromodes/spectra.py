"""Eigenvalue enumeration: real scan/bisection, complex winding search,
counting functions, and phase-grid export.

Real couplings are located by one scan -> bracket -> refine driver, shared
by the defect pipeline (crossings of the half-integer-pi levels by the
matching defect Delta) and the determinant pipeline (sign changes of the
real matching determinant).  It scans a grid fine enough that a crossing
cannot slip between nodes (an a-priori slope heuristic, self-corrected by
rescanning at half step until the bracket count stabilises), then refines
all brackets at once by vectorised Illinois false position, one grid
evaluation per iteration.  trigzeros reuses the same refiner.
Complex couplings of step potentials are located by the phase winding of
the matching determinant around rectangles (new contour points go to the
array kernel in batches, through one cache per search), then by Newton.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq  # noqa: F401  (wrapped by bench/tracing.py)

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
from .prufer import delta_grid, delta_v  # noqa: F401  (delta_v stays importable from here)

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
_MAX_SCAN_CELLS = 2**20  # a scan that needs a finer grid fails instead


@dataclass(frozen=True)
class Root:
    value: complex
    residual: float
    method: str  # "delta-bisect", "determinant-bisect", "winding-newton"
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


def _scan_step(V: Potential, k: float) -> float:
    """Coupling step over which the phase of a zero mode turns by at most
    about pi/4: an a-priori slope heuristic from the potential's L1 norm
    and effective diameter."""
    l1 = l1_norm(V)
    if isinstance(V, PiecewiseConstantPotential):
        hull = V.support_hull()
        diam = 0.0 if hull is None else hull[1] - hull[0]
    else:
        # width containing 95% of the mass
        W = 1.0
        while tail_l1(V, W) > 0.05 * l1 and W < V.decay_hint:
            W *= 2.0
        diam = 2.0 * min(W, V.decay_hint)
    return math.pi / (4.0 * (1.1 * l1 + k * diam + 1e-12))


def _levels_below(d: np.ndarray, strict: bool) -> np.ndarray:
    """Largest n with (n + 1/2)*pi <= d (< d if strict), compared against the
    level values themselves so that a node sitting on a level is exact."""
    n = np.floor(d / math.pi - 0.5)
    n += (n + 1.5) * math.pi <= d
    n -= (n + 0.5) * math.pi > d
    if strict:
        n -= (n + 0.5) * math.pi == d
    return n


def _delta_brackets(deltas: np.ndarray):
    """(cells, levels) arrays, one entry per level crossing, where cell i
    lies between nodes i and i + 1; None when a single cell crosses more
    than one level (scan too coarse).

    A cell owns the levels between its Delta values, excluding the one at
    its left node and including the one at its right node, so a level hit
    exactly at a node belongs to exactly one cell."""
    d0, d1 = deltas[:-1], deltas[1:]
    rising = d0 <= d1
    n_le, n_lt = _levels_below(deltas, False), _levels_below(deltas, True)
    first = np.where(rising, n_le[:-1], n_lt[1:]) + 1
    count = np.where(rising, n_le[1:] - n_le[:-1], n_lt[:-1] - n_lt[1:])
    if np.any(count > 1):
        return None
    cells = np.nonzero(count == 1)[0]
    return cells, (first[cells] + 0.5) * math.pi


def _sign_brackets(values: np.ndarray):
    """(cells, zeros) arrays in the layout of _delta_brackets, one entry per
    sign change of values; a zero exactly at a node belongs to the cell on
    its left."""
    s = np.sign(values)
    cells = np.nonzero((s[:-1] * s[1:] < 0) | ((s[1:] == 0) & (s[:-1] != 0)))[0]
    return cells, np.zeros(cells.size)


def _refine(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray, xtol: float) -> np.ndarray:
    """Roots of f in all brackets [lo, hi] at once.

    f(idx, x) returns the residuals of the brackets idx at the points x;
    flo and fhi are the residuals already known at the ends, of opposite
    signs unless one is exactly 0, in which case that end is the root.
    Each iteration makes one call to f on the brackets still open: an
    Illinois false-position point, kept inside the bracket by xtol/4 or two
    float spacings of its ends, whichever is larger (so that it never
    rounds onto an end), or the midpoint when the bracket has not halved in
    three iterations.  A
    bracket closes when f vanishes at the new point, which is then its
    root, or when it is narrower than xtol (plus four ulps of its ends);
    its root is then the false-position point of its end residuals.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    sa, sb = np.ones(a.size), np.ones(a.size)  # Illinois weights of fa and fb
    kept = np.zeros(a.size, dtype=int)  # end kept by the last step: -1 a, +1 b
    width = np.full((3, a.size), np.inf)  # widths 3, 2 and 1 iterations ago
    while True:
        w = b - a
        done = np.isnan(root) & (w <= xtol + 8.9e-16 * np.maximum(abs(a), abs(b)))
        root[done] = (b - fb * w / (fb - fa))[done]
        idx = np.nonzero(np.isnan(root))[0]
        if idx.size == 0:
            return root
        ai, bi, wi = a[idx], b[idx], w[idx]
        fai, fbi = sa[idx] * fa[idx], sb[idx] * fb[idx]
        margin = np.maximum(0.25 * xtol, 2.0 * np.spacing(np.maximum(abs(ai), abs(bi))))
        x = np.clip(bi - fbi * wi / (fbi - fai), ai + margin, bi - margin)
        stalled = wi > 0.5 * width[0, idx]
        x[stalled] = 0.5 * (ai + bi)[stalled]
        width[:-1, idx] = width[1:, idx]
        width[-1, idx] = wi
        fx = f(idx, x)
        root[idx[fx == 0.0]] = x[fx == 0.0]
        left = np.sign(fx) == np.sign(fai)  # the root lies in (x, b)
        ia, ib = idx[left], idx[~left]
        a[ia], fa[ia], sa[ia] = x[left], fx[left], 1.0
        b[ib], fb[ib], sb[ib] = x[~left], fx[~left], 1.0
        # Illinois: an end kept twice in a row has its weight halved
        sb[ia[kept[ia] == 1]] *= 0.5
        sa[ib[kept[ib] == -1]] *= 0.5
        kept[ia], kept[ib] = 1, -1


def real_spectrum(V: Potential, k: float, R: float, tol: float = 1e-9,
                  method: str = "delta") -> GammaSpectrum:
    """All real couplings in [0, R] admitting a confined zero mode.

    method "delta" scans the matching defect for crossings of the levels
    (n + 1/2)*pi (works for every potential); "determinant" scans the real
    matching determinant for sign changes (step potentials only) and serves
    as the independent cross-check pipeline.  Both share the scan, the
    batched refinement and the residual certificate.
    """
    if k <= 0:
        raise NonPositiveK("k must be positive")
    if R <= 0:
        raise ValueError("R must be positive")
    if isinstance(V, PiecewiseConstantPotential) and V.support_hull() is None:
        return GammaSpectrum((), (0.0, R), k)

    if method == "delta":
        values = lambda g: delta_grid(V, g, k)
        brackets, slope_floor = _delta_brackets, 1e-3
    elif method == "determinant":
        if not isinstance(V, PiecewiseConstantPotential):
            raise TrivialPotential("determinant pipeline needs a step potential")
        # the closed-form matching determinant: shares no kernel with Delta
        values = lambda g: determinant(V, g, k).real
        brackets, slope_floor = _sign_brackets, 1e-30
    else:
        raise ValueError(f"unknown method {method!r}")

    step = min(_scan_step(V, k), R / 8.0)
    for attempt in range(14):
        n_cells = int(math.ceil(R / step))
        if 2 * n_cells > _MAX_SCAN_CELLS:
            break
        # one evaluation per attempt, at half step: the even nodes are the
        # scan grid, and the odd ones verify it (a dip across a level and
        # back inside one cell is invisible to the endpoint test)
        fine = np.linspace(0.0, R, 2 * n_cells + 1)
        fvals = values(fine)
        coarse = brackets(fvals[::2])
        if coarse is not None:
            found = brackets(fvals)
            if found is not None and len(found[0]) == len(coarse[0]):
                cells, levels = found
                g = _refine(lambda idx, x: values(x) - levels[idx],
                            fine[cells], fine[cells + 1], fvals[cells] - levels,
                            fvals[cells + 1] - levels, min(tol, 1e-12))
                # certificate: distance to the level over a central-difference slope
                h = 1e-6
                minus, at, plus = np.split(values(np.concatenate([g - h, g, g + h])), 3)
                resid = abs(at - levels) / np.maximum(abs(plus - minus) / (2 * h), slope_floor)
                roots = [Root(complex(x), float(r), f"{method}-bisect") for x, r in zip(g, resid)]
                return GammaSpectrum(_merge_sorted(roots), (0.0, R), k)
        step *= 0.5
    raise ScanStepTooCoarse(f"scan failed to stabilise down to step {step:.3e}")


def counting_function(spectrum: GammaSpectrum, R: float) -> int:
    """Number of located real couplings in [0, R]."""
    region = spectrum.search_region
    if len(region) != 2 or region[0] > 0.0 or region[1] < R:
        raise RegionTooSmall(f"spectrum covers {region}, asked about [0, {R}]")
    return sum(1 for r in spectrum.roots if r.value.imag == 0.0 and r.value.real <= R)


# --- complex search by phase winding ------------------------------------------


class _ArgTracker:
    """Continuous-argument accumulator for D along closed polylines, with
    one evaluation cache for a whole search.

    A principal-value argument step is only trustworthy on segments short
    enough that the true phase cannot alias by a full turn, so segments are
    halved until the step is below pi/2 *and* the magnitude ratio stays
    moderate; callers additionally pre-split edges at the phase scale set by
    the potential.  fun maps an array of couplings to an array of D values;
    the points not yet in the cache go to it in one call.
    """

    def __init__(self, fun: Callable[[np.ndarray], np.ndarray]):
        self.fun = fun
        self.cache: dict[complex, complex] = {}

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        keys = zs.tolist()
        new = [z for z in dict.fromkeys(keys) if z not in self.cache]
        if new:
            vals = self.fun(np.array(new))
            zero = np.flatnonzero(vals == 0)
            if zero.size:
                raise BoundaryRoot(f"determinant vanishes on the contour near {new[zero[0]]}")
            self.cache.update(zip(new, vals.tolist()))
        return np.array([self.cache[z] for z in keys])

    def arg_change(self, zs: np.ndarray) -> float:
        """Argument change along the polyline through zs.  The segments that
        fail the step tests are halved together; one that still fails after
        49 halvings raises."""
        vals = self(zs)
        a, b, va, vb = zs[:-1], zs[1:], vals[:-1], vals[1:]
        total = 0.0
        for _ in range(50):
            r = vb / va
            dphi = np.arctan2(r.imag, r.real)
            ok = (abs(dphi) < math.pi / 2) & (abs(r) > 0.2) & (abs(r) < 5.0)
            total += float(dphi[ok].sum())
            if ok.all():
                return total
            a, b, va, vb = a[~ok], b[~ok], va[~ok], vb[~ok]
            m = 0.5 * (a + b)
            vm = self(m)
            a, b = np.concatenate([a, m]), np.concatenate([m, b])
            va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        raise BoundaryRoot(f"argument tracking failed near {a[0]} (suspected boundary root)")


def _rect_winding(tracker: _ArgTracker, rect: tuple[float, float, float, float],
                  h0: float) -> int:
    """Winding of D around rect.  Each edge is pre-split at phase scale h0
    from its lower-left end, so boxes sharing an edge share its nodes."""
    x0, x1, y0, y1 = rect
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    nodes = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        lo, hi = sorted((p, q), key=lambda z: (z.real, z.imag))
        n = max(1, math.ceil(abs(q - p) / h0))
        edge = lo + (hi - lo) * (np.arange(n + 1) / n)
        edge[0], edge[-1] = lo, hi
        nodes.append(edge[:-1] if lo == p else edge[:0:-1])  # from p, without q
    nodes.append(corners[:1])
    w = tracker.arg_change(np.concatenate(nodes)) / math.tau
    if abs(w - round(w)) > 0.25:
        raise WindingMismatch(f"non-integer winding {w:.3f} on {rect}")
    return int(round(w))


def _newton_polish(fun, z: complex, tol: float,
                   region: tuple[float, float, float, float]) -> tuple[complex, float]:
    """Newton from z with a central-difference derivative, D at z - h, z and
    z + h in one call.  The residual is the size of one extra step after
    convergence, or inf when an iterate leaves region (outside the traced
    contour D may overflow)."""
    x0, x1, y0, y1 = region
    h, step, converged = 1e-7, math.inf, False
    for _ in range(81):
        fm, f0, fp = fun(np.array([z - h, z, z + h])).tolist()
        d = (fp - fm) / (2 * h)
        if d == 0 and not converged:
            break
        step = f0 / d if d != 0 else step
        z = z - step
        if converged:  # the extra step is the certificate
            return z, abs(step)
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
            break
        converged = abs(step) < 0.25 * tol
    return z, math.inf


def _subdivide(tracker: _ArgTracker, rect, region, tol, h0,
               found: list[tuple[complex, float, int]], depth: int = 0):
    w = _rect_winding(tracker, rect, h0)
    if w == 0:
        return 0
    x0, x1, y0, y1 = rect
    diam = math.hypot(x1 - x0, y1 - y0)
    if w == 1 or diam < 1e-3 or depth > 60:
        zc = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        z, resid = _newton_polish(tracker.fun, zc, tol, region)
        # a box that winds once holds exactly one root: Newton must land inside it
        near = (x0 < z.real < x1 and y0 < z.imag < y1) if w == 1 else abs(z - zc) <= 10 * diam
        if resid > tol or not near:
            if diam > 1e-9:  # keep squeezing the box around a stubborn root
                return _quadrisect(tracker, rect, region, tol, h0, found, depth)
            z, resid = zc, diam
        found.append((z, resid, w))
        return w
    return _quadrisect(tracker, rect, region, tol, h0, found, depth)


def _quadrisect(tracker, rect, region, tol, h0, found, depth):
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
                total += _subdivide(tracker, q, region, tol, h0, found, depth + 1)
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
    adaptive argument subdivision through one evaluation cache.  A box that
    winds once is polished with Newton from its centre, and quadrisected if
    Newton leaves it; other winding boxes are quadrisected down to small
    diameter first.  The number of roots returned (with multiplicity) always
    equals the top-level winding; any mismatch raises instead of silently
    dropping a root.  A root too close to the boundary triggers an automatic
    1e-6 outward nudge.
    """
    if k <= 0:
        raise NonPositiveK("k must be positive")
    x0, x1, y0, y1 = (float(t) for t in rectangle)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive area")
    fun = lambda z: determinant(V, z, k)
    h0 = min(1.0, _scan_step(V, k))

    nudge = 0.0
    for attempt in range(4):
        rect = (x0 - nudge, x1 + nudge, y0 - nudge, y1 + nudge)
        tracker = _ArgTracker(fun)
        try:
            top = _rect_winding(tracker, rect, h0)
            # the cache holds the top contour's values only, until _subdivide
            mags = abs(np.array(list(tracker.cache.values())))
            if mags.min() < 1e-12 * mags.max():
                raise BoundaryRoot("determinant nearly vanishes on the boundary")
            found: list[tuple[complex, float, int]] = []
            got = _subdivide(tracker, rect, rect, tol, h0, found)
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
        res = [repr(x) for x in xs.tolist()]
        with open(path, "w") as fh:
            fh.write("re,im,arg\n")
            for y, row in zip(ys.tolist(), self.arg_values):
                im = repr(y)
                fh.write("".join(f"{re},{im},{a!r}\n" for re, a in zip(res, row.tolist())))

    def to_ppm(self, path) -> None:
        """Binary P6 pixmap with the periodic hue map hue = (arg + pi) / 2pi,
        full saturation and value; top pixel row is the largest imaginary part."""
        hue = (self.arg_values + math.pi) / math.tau
        rgb = _hsv_hue_to_rgb(hue[::-1, :])  # flip so row 0 is im_max
        with open(path, "wb") as fh:
            fh.write(f"P6\n{self.nx} {self.ny}\n255\n".encode())
            fh.write(rgb.tobytes())


def _hsv_hue_to_rgb(hue: np.ndarray) -> np.ndarray:
    """HSV -> RGB for s = v = 1, vectorized; returns uint8 (..., 3).  Each
    channel is written straight into the output from four byte levels."""
    f = np.mod(hue, 1.0)
    f *= 6.0
    sector = np.floor(f)
    f -= sector
    sector = sector.astype(np.int8) % 6
    levels = np.zeros((4,) + hue.shape, dtype=np.uint8)  # 0, 1, f and 1 - f
    levels[1] = 255
    levels[2] = np.round(f * 255)
    levels[3] = np.round((1.0 - f) * 255)
    # the level each channel takes in each of the six sectors
    pick = np.array([[1, 3, 0, 0, 2, 1], [2, 1, 1, 3, 0, 0], [0, 0, 2, 1, 1, 3]], dtype=np.int8)
    out = np.empty(hue.shape + (3,), dtype=np.uint8)
    for c in range(3):
        out[..., c] = np.choose(pick[c][sector], levels)
    return out


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
    for j, y in enumerate(ys):  # one call per row keeps the peak memory flat
        d = determinant(V, xs + 1j * y, k)
        args[j] = np.arctan2(d.imag, d.real)
    return PhaseGrid((x0, x1, y0, y1), nx, ny, args)
