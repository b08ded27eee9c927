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
the matching determinant around rectangles, a whole level of boxes per
kernel call through one cache per search, then by Newton batched likewise.
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
    """Continuous-argument accumulator for D around rectangles, with one
    evaluation cache for a whole search.

    A principal-value argument step is only trustworthy on segments short
    enough that the true phase cannot alias by a full turn, so segments are
    halved until the step is below pi/2 *and* the magnitude ratio stays
    moderate; edges are additionally pre-split at the phase scale set by
    the potential.  fun maps an array of couplings to an array of D values;
    the points not yet in the cache go to it in one call.
    """

    def __init__(self, fun: Callable[[np.ndarray], np.ndarray]):
        self.fun = fun
        self.cache: dict[complex, complex] = {}

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        keys = zs.tolist()
        new = list(dict.fromkeys(z for z in keys if z not in self.cache))
        if new:
            self.cache.update(zip(new, self.fun(np.array(new)).tolist()))
        return np.array([self.cache[z] for z in keys])

    def windings(self, rects: list, h0: float) -> tuple[list[int], list[Exception | None]]:
        """Winding of D around each rect, and the error of each rect whose
        contour fails (None where it succeeds).  Each edge is pre-split at
        phase scale h0 from its lower-left end, so boxes sharing an edge
        share its nodes.  All nodes go to the cache in one call; the failing
        segments of every rect are then halved together, one call per round,
        and the argument steps are summed by owner index."""
        paths = []
        for x0, x1, y0, y1 in rects:
            corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
            nodes = []
            for p, q in zip(corners, corners[1:] + corners[:1]):
                lo, hi = sorted((p, q), key=lambda z: (z.real, z.imag))
                n = max(1, math.ceil(abs(q - p) / h0))
                edge = lo + (hi - lo) * (np.arange(n + 1) / n)
                edge[0], edge[-1] = lo, hi
                nodes.append(edge[:-1] if lo == p else edge[:0:-1])  # from p, without q
            nodes.append(corners[:1])
            paths.append(np.concatenate(nodes))
        owner = np.repeat(np.arange(len(rects)), [p.size for p in paths])
        zs = np.concatenate(paths)
        vals = self(zs)
        bad, total = np.zeros(len(rects), dtype=bool), np.zeros(len(rects))
        bad[owner[vals == 0]] = True
        seg = owner[1:] == owner[:-1]  # no segment joins two contours
        a, b, va, vb, own = (t[seg] for t in (zs[:-1], zs[1:], vals[:-1], vals[1:], owner[1:]))
        for _ in range(50):
            a, b, va, vb, own = (t[~bad[own]] for t in (a, b, va, vb, own))
            r = vb / va
            dphi = np.arctan2(r.imag, r.real)
            ok = (abs(dphi) < math.pi / 2) & (abs(r) > 0.2) & (abs(r) < 5.0)
            total += np.bincount(own[ok], dphi[ok], len(rects))
            if ok.all():
                break
            a, b, va, vb, own = (t[~ok] for t in (a, b, va, vb, own))
            m = 0.5 * (a + b)
            vm = self(m)
            bad[own[vm == 0]] = True
            a, b, own = np.concatenate([a, m]), np.concatenate([m, b]), np.concatenate([own, own])
            va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        else:
            bad[own] = True
        w = total / math.tau
        errors = [BoundaryRoot(f"D vanishes or its argument is lost on {rect}") if bad[i] else
                  WindingMismatch(f"non-integer winding {w[i]:.3f} on {rect}")
                  if abs(w[i] - round(w[i])) > 0.25 else None for i, rect in enumerate(rects)]
        return np.rint(w).astype(int).tolist(), errors


def _newton_polish(fun, z, tol: float,
                   region: tuple[float, float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Newton from every start point of z at once, with a central-difference
    derivative: each iteration makes one call to fun, on z - h, z and z + h
    of every start still iterating.  Returns the arrays (roots, residuals).
    A residual is the size of one extra step after convergence, or inf when
    an iterate leaves region (outside the traced contour D may overflow).
    The updates run in Python complex arithmetic, start by start."""
    x0, x1, y0, y1 = region
    h, zs = 1e-7, np.atleast_1d(z).tolist()
    step, resid, converged = [math.inf] * len(zs), [math.inf] * len(zs), [False] * len(zs)
    live = list(range(len(zs)))
    for _ in range(81):
        if not live:
            break
        f = fun(np.array([p for i in live for p in (zs[i] - h, zs[i], zs[i] + h)])).tolist()
        still = []
        for i, fm, f0, fp in zip(live, f[::3], f[1::3], f[2::3]):
            d = (fp - fm) / (2 * h)
            if d == 0 and not converged[i]:
                continue
            step[i] = f0 / d if d != 0 else step[i]
            zs[i] = zs[i] - step[i]
            if converged[i]:  # the extra step is the certificate
                resid[i] = abs(step[i])
            elif x0 <= zs[i].real <= x1 and y0 <= zs[i].imag <= y1:
                converged[i] = abs(step[i]) < 0.25 * tol
                still.append(i)
        live = still
    return np.array(zs), np.array(resid)


def _subdivide(tracker: _ArgTracker, rect, tol: float, h0: float):
    """(roots inside rect as (z, residual, multiplicity), winding of rect),
    searched one level of boxes at a time.

    A box is (rect, depth, quadrisection that made it); a quadrisection is
    [box it splits, split fraction index, alive].  A box whose contour fails
    kills its quadrisection with every box and root below it, and the four
    children are queued again at the next fraction; after the third, the
    failure moves up to the parent quadrisection, and at the top it is
    raised."""
    def alive(box):
        q = box[2]
        while q is not None and q[2]:
            q = q[0][2]
        return q is None

    def split(box, i):
        (x0, x1, y0, y1), q = box[0], [box, i, True]
        frac = (0.5, 0.5 + 0.013, 0.5 - 0.029)[i]  # offsets dodge roots sitting on a midline
        xm, ym = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        nxt.extend(((a, b, c, d), box[1] + 1, q) for c, d in ((y0, ym), (ym, y1))
                   for a, b in ((x0, xm), (xm, x1)))

    def fail(box, err):
        while alive(box):
            q = box[2]
            if q is None:
                raise err
            q[2] = False
            if q[1] < 2:
                return split(q[0], q[1] + 1)
            box, err = q[0], WindingMismatch(
                f"subdivision could not reconcile windings inside {q[0][0]}")

    frontier, found, top = [(rect, 0, None)], [], None
    while frontier:
        nxt = []
        winds, errors = tracker.windings([box[0] for box in frontier], h0)
        for box, err in zip(frontier, errors):
            if err is not None:
                fail(box, err)
        if top is None:
            top = winds[0]
            # the cache holds the top contour's values only
            mags = abs(np.array(list(tracker.cache.values())))
            if mags.min() < 1e-12 * mags.max():
                raise BoundaryRoot("determinant nearly vanishes on the boundary")
        polish = []
        for box, w, err in zip(frontier, winds, errors):
            if err is not None or w == 0 or not alive(box):
                continue
            (x0, x1, y0, y1), depth, _ = box
            diam = math.hypot(x1 - x0, y1 - y0)
            if w == 1 or diam < 1e-3 or depth > 60:
                polish.append((box, w, diam, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))))
            else:
                split(box, 0)
        zs, resids = _newton_polish(tracker.fun, np.array([p[3] for p in polish]), tol, rect)
        for (box, w, diam, zc), z, resid in zip(polish, zs.tolist(), resids.tolist()):
            x0, x1, y0, y1 = box[0]
            # a box that winds once holds exactly one root: Newton must land
            # in it, to within tol (a root on a split line is on both sides)
            near = ((x0 - tol <= z.real <= x1 + tol and y0 - tol <= z.imag <= y1 + tol)
                    if w == 1 else abs(z - zc) <= 10 * diam)
            if resid > tol or not near:
                if diam > 1e-9:  # keep squeezing the box around a stubborn root
                    split(box, 0)
                    continue
                z, resid = zc, diam
            found.append((z, resid, w, box))
        frontier = [box for box in nxt if alive(box)]
    return [(z, resid, w) for z, resid, w, box in found if alive(box)], top


def complex_spectrum(V: PiecewiseConstantPotential, k: float,
                     rectangle: tuple[float, float, float, float],
                     tol: float = 1e-9) -> GammaSpectrum:
    """Couplings inside a complex rectangle (re_min, re_max, im_min, im_max).

    The boundary winding number of the matching determinant is tracked with
    adaptive argument subdivision through one evaluation cache, one level of
    boxes at a time.  Boxes that wind once are polished together with
    Newton from their centres, and quadrisected if Newton leaves them;
    other winding boxes are quadrisected down to small diameter first.  The
    number of roots returned (with multiplicity) always equals the top-level
    winding; any mismatch raises instead of silently dropping a root.  A
    root too close to the boundary triggers an automatic 1e-6 outward nudge.
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
        try:
            found, top = _subdivide(_ArgTracker(fun), rect, tol, h0)
        except BoundaryRoot:
            nudge = 1e-6 * (attempt + 1)
            continue
        got = sum(mult for _, _, mult in found)
        if got != top:
            raise WindingMismatch(f"found {got} roots but boundary winds {top}")
        merged = _merge_sorted([Root(z, r, "winding-newton", m) for z, r, m in found])
        if sum(r.multiplicity for r in merged) != top:
            raise WindingMismatch("duplicate roots merged away; winding no longer reconciles")
        return GammaSpectrum(merged, (x0, x1, y0, y1), k)
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
