"""Eigenvalue enumeration: real scan/bisection, complex winding search,
counting functions, and phase-grid export.

Real couplings are located by one scan -> bracket -> refine driver, shared
by the defect pipeline (crossings of the half-integer-pi levels by the
matching defect Delta) and the determinant pipeline (sign changes of the
real matching determinant).  It scans a grid fine enough that a crossing
cannot slip between nodes (an a-priori slope heuristic, self-corrected by
rescanning at half step until the bracket count stabilises), then refines
all brackets at once by vectorised Illinois false position, one grid
evaluation per iteration.  On analytic potentials, where one ODE solve
gives Delta and its slope, the refiner starts from an inverse cubic
through the scan nodes and takes Newton steps, with false position as the
fallback.  trigzeros.scan_zeros reuses the same refiner for its certified
single-zero cells.
Complex couplings of step potentials are located by the phase winding of
the matching determinant around rectangles, a whole level of boxes per
kernel call with no cache between calls, then by Newton batched likewise.
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
    RegionTooSmall,
    ScanStepTooCoarse,
    TrivialPotential,
    WindingMismatch,
)
from .potential import (
    AnalyticPotential,
    PiecewiseConstantPotential,
    Potential,
    l1_norm,
    tail_l1,
)
from .prufer import _check_k, delta_grid, delta_v  # noqa: F401  (delta_v stays importable)

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


def _inverse_cubic(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Zeros of y, one per column: where the cubic through the four points
    (ys[i], xs[i]), which gives x as a function of y, reaches y = 0.  Where
    y is not monotone over the points the result can be anywhere, or NaN."""
    with np.errstate(all="ignore"):
        return sum(xs[i] * np.prod([ys[m] / (ys[m] - ys[i]) for m in range(4) if m != i], axis=0)
                   for i in range(4))


def _refine(f: Callable, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray,
            xtol: float, floor: float = 0.0,
            guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f in all brackets [lo, hi] at once, and their residuals.

    f(idx, x) returns the residuals of the brackets idx at the points x, or
    the pair (residuals, slopes); flo and fhi are the residuals already
    known at the ends, of opposite signs unless one is exactly 0, in which
    case that end is the root.  Each iteration makes one call to f on the
    brackets still open, at one point per bracket:

    * the guess on the first iteration, and afterwards the Newton point
      from the last iterate while the Newton steps keep halving, if it lies
      inside the bracket;
    * otherwise an Illinois false-position point, or the midpoint when the
      bracket has not halved in three iterations.

    Every point is kept inside the bracket by xtol/4 or two float spacings
    of its ends, whichever is larger, so that it never rounds onto an end.
    A bracket closes when f vanishes at the new point, which is its root
    with residual 0; when its Newton step is at most xtol, or at most floor
    (the evaluation's noise) after the steps stop halving, with the Newton
    point as its root and the step's size as its residual; or when it is
    narrower than xtol (plus four ulps of its ends), with the
    false-position point of its end residuals as its root and a NaN
    (unknown) residual.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    resid = np.where(np.isnan(root), np.nan, 0.0)
    sa, sb = np.ones(a.size), np.ones(a.size)  # Illinois weights of fa and fb
    kept = np.zeros(a.size, dtype=int)  # end kept by the last step: -1 a, +1 b
    width = np.full((3, a.size), np.inf)  # widths 3, 2 and 1 iterations ago
    # the next point where it is trusted: the guess, then Newton's
    newton = np.full(a.size, np.nan) if guess is None else np.array(guess, dtype=float)
    last = np.full(a.size, np.inf)  # size of the last Newton step
    while True:
        w = b - a
        done = np.isnan(root) & (w <= xtol + 8.9e-16 * np.maximum(abs(a), abs(b)))
        root[done] = (b - fb * w / (fb - fa))[done]
        idx = np.nonzero(np.isnan(root))[0]
        if idx.size == 0:
            return root, resid
        ai, bi, wi = a[idx], b[idx], w[idx]
        fai, fbi = sa[idx] * fa[idx], sb[idx] * fb[idx]
        margin = np.maximum(0.25 * xtol, 2.0 * np.spacing(np.maximum(abs(ai), abs(bi))))
        x = np.clip(bi - fbi * wi / (fbi - fai), ai + margin, bi - margin)
        stalled = wi > 0.5 * width[0, idx]
        x[stalled] = 0.5 * (ai + bi)[stalled]
        xn = newton[idx]
        inside = (xn > ai) & (xn < bi)  # False where there is no Newton point
        x[inside] = np.clip(xn, ai + margin, bi - margin)[inside]
        width[:-1, idx] = width[1:, idx]
        width[-1, idx] = wi
        fx = f(idx, x)
        fx, dfx = fx if isinstance(fx, tuple) else (fx, None)
        zero = fx == 0.0
        root[idx[zero]], resid[idx[zero]] = x[zero], 0.0
        left = np.sign(fx) == np.sign(fai)  # the root lies in (x, b)
        ia, ib = idx[left], idx[~left]
        a[ia], fa[ia], sa[ia] = x[left], fx[left], 1.0
        b[ib], fb[ib], sb[ib] = x[~left], fx[~left], 1.0
        # Illinois: an end kept twice in a row has its weight halved
        sb[ia[kept[ia] == 1]] *= 0.5
        sa[ib[kept[ib] == -1]] *= 0.5
        kept[ia], kept[ib] = 1, -1
        newton[idx] = np.nan
        if dfx is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                step = fx / dfx
            size = abs(step)
            halving = size <= 0.5 * last[idx]
            close = (size <= xtol) | (~halving & (size <= floor))
            root[idx[close]], resid[idx[close]] = (x - step)[close], size[close]
            newton[idx] = np.where(halving, x - step, np.nan)
            last[idx] = size


def _check_rectangle(rectangle) -> tuple[float, float, float, float]:
    rect = x0, x1, y0, y1 = tuple(float(t) for t in rectangle)
    if not (all(map(math.isfinite, rect)) and x1 > x0 and y1 > y0):
        raise ValueError("rectangle must be finite with positive area")
    return rect


def real_spectrum(V: Potential, k: float, R: float, tol: float = 1e-9,
                  method: str = "delta") -> GammaSpectrum:
    """All real couplings in [0, R] admitting a confined zero mode.

    method "delta" scans the matching defect for crossings of the levels
    (n + 1/2)*pi (works for every potential); "determinant" scans the real
    matching determinant for sign changes (step potentials only) and serves
    as the independent cross-check pipeline.  Both share the scan and the
    batched refinement.  A root's residual is its distance to the level
    over the slope: from the last Newton step on analytic potentials,
    otherwise from a central difference at the root.
    """
    _check_k(k)
    if not 0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if isinstance(V, PiecewiseConstantPotential) and V.support_hull() is None:
        return GammaSpectrum((), (0.0, R), k)

    if method == "delta":
        values = lambda g: delta_grid(V, g, k)
        brackets, slope_floor = _delta_brackets, 1e-3
        newton = isinstance(V, AnalyticPotential)  # its ODE solve also gives the slope
    elif method == "determinant":
        if not isinstance(V, PiecewiseConstantPotential):
            raise TrivialPotential("determinant pipeline needs a step potential")
        # the closed-form matching determinant: shares no kernel with Delta
        values = lambda g: determinant(V, g, k).real
        brackets, slope_floor, newton = _sign_brackets, 1e-30, False
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
                if newton:
                    def f(idx, x):
                        d, slope = delta_grid(V, x, k, slope=True)
                        return d - levels[idx], slope

                    # start from the inverse cubic through the four scan
                    # nodes around each cell
                    j = np.clip(cells - 1, 0, fine.size - 4) + np.arange(4)[:, None]
                    guess = _inverse_cubic(fine[j], fvals[j] - levels)
                else:
                    f, guess = (lambda idx, x: values(x) - levels[idx]), None
                g, resid = _refine(f, fine[cells], fine[cells + 1], fvals[cells] - levels,
                                   fvals[cells + 1] - levels, min(tol, 1e-12), tol, guess)
                # certificate where no Newton step gave one: distance to the
                # level over a central-difference slope
                need = np.isnan(resid)
                if need.any():
                    h, gn = 1e-6, g[need]
                    minus, at, plus = np.split(values(np.concatenate([gn - h, gn, gn + h])), 3)
                    resid[need] = abs(at - levels[need]) / np.maximum(abs(plus - minus) / (2 * h),
                                                                      slope_floor)
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


def _contours(rects: np.ndarray, h0: float) -> tuple[np.ndarray, np.ndarray]:
    """Contour nodes of every rect (rows x0, x1, y0, y1), concatenated, and
    the row each belongs to.  Each contour runs counter-clockwise from
    (x0, y0) and closes there; each edge is split into n = max(1,
    ceil(length/h0)) pieces from its lower-left end, ends pinned, so boxes
    sharing an edge share its nodes.  Coordinates are lo + (hi - lo)*(i/n),
    bit for bit what complex arithmetic gives on an axis-aligned edge.  A
    rect is five runs: its four edges from their first corner, without the
    last, and the closing corner."""
    x0, x1, y0, y1 = rects.T
    nx = np.maximum(1, np.ceil((x1 - x0) / h0)).astype(int)
    ny = np.maximum(1, np.ceil((y1 - y0) / h0)).astype(int)
    n = np.stack([nx, ny, nx, ny, np.ones_like(nx)], 1).ravel()
    run = np.repeat(np.arange(n.size), n)
    j = np.arange(run.size) - np.repeat(np.cumsum(n) - n, n)  # index within the run
    t = np.where(np.isin(run % 5, (2, 3)), n[run] - j, j) / n[run]  # top and left run back
    z, zero = np.empty(run.size, dtype=complex), np.zeros_like(x0)
    # each run's lower-left end, extent and first corner, per coordinate
    for part, lo, span, first in (
            (z.real, (x0, x1, x0, x0, x0), (x1 - x0, zero, x1 - x0, zero, zero), (x0, x1, x1, x0, x0)),
            (z.imag, (y0, y0, y1, y0, y0), (zero, y1 - y0, zero, y1 - y0, zero), (y0, y0, y1, y1, y0))):
        part[:] = np.stack(lo, 1).ravel()[run] + np.stack(span, 1).ravel()[run] * t
        part[j == 0] = np.stack(first, 1).ravel()
    return z, run // 5


def _windings(fun: Callable[[np.ndarray], np.ndarray], rects: list,
              h0: float) -> tuple[list[int], list[Exception | None], tuple[float, float]]:
    """Winding of D around each rect, the error of each rect whose contour
    fails (None where it succeeds), and the least and largest |D| met.

    fun maps an array of couplings to an array of D values.  A
    principal-value argument step is only trustworthy on segments short
    enough that the true phase cannot alias by a full turn, so segments are
    halved until the step is below pi/2 *and* the magnitude ratio stays
    moderate; edges are pre-split at the phase scale h0 set by the
    potential.  All nodes go to fun in one call; the failing segments of
    every rect are then halved together, one call per round, and the
    argument steps are summed by owner index.  A call evaluates each of its
    distinct points once, and nothing is kept between calls: evaluating a
    point again costs less than looking it up."""
    met = []  # |D| at the points evaluated

    def evaluate(zs):
        u, inv = np.unique(zs, return_inverse=True)
        d = fun(u)
        met.append(abs(d))
        return d[inv]

    zs, owner = _contours(np.array(rects, dtype=float), h0)
    vals = evaluate(zs)
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
        vm = evaluate(m)
        bad[own[vm == 0]] = True
        a, b, own = np.concatenate([a, m]), np.concatenate([m, b]), np.concatenate([own, own])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
    else:
        bad[own] = True
    w = total / math.tau
    errors = [BoundaryRoot(f"D vanishes or its argument is lost on {rect}") if bad[i] else
              WindingMismatch(f"non-integer winding {w[i]:.3f} on {rect}")
              if abs(w[i] - round(w[i])) > 0.25 else None for i, rect in enumerate(rects)]
    met = np.concatenate(met)
    return np.rint(w).astype(int).tolist(), errors, (met.min(), met.max())


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


def _subdivide(fun: Callable[[np.ndarray], np.ndarray], rect, tol: float, h0: float):
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
        winds, errors, (lo, hi) = _windings(fun, [box[0] for box in frontier], h0)
        for box, err in zip(frontier, errors):
            if err is not None:
                fail(box, err)
        if top is None:
            top = winds[0]
            if lo < 1e-12 * hi:  # on the top contour
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
        zs, resids = _newton_polish(fun, np.array([p[3] for p in polish]), tol, rect)
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
    adaptive argument subdivision, one level of boxes per kernel call.
    Boxes that wind once are polished together with Newton from their
    centres, and quadrisected if Newton leaves them; other winding boxes
    are quadrisected down to small diameter first.  The
    number of roots returned (with multiplicity) always equals the top-level
    winding; any mismatch raises instead of silently dropping a root.  A
    root too close to the boundary triggers an automatic 1e-6 outward nudge.
    """
    _check_k(k)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    x0, x1, y0, y1 = _check_rectangle(rectangle)
    fun = lambda z: determinant(V, z, k)
    h0 = min(1.0, _scan_step(V, k))

    nudge = 0.0
    for attempt in range(4):
        rect = (x0 - nudge, x1 + nudge, y0 - nudge, y1 + nudge)
        try:
            found, top = _subdivide(fun, rect, tol, h0)
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
    _check_k(k)
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be >= 2")
    grid = PhaseGrid(_check_rectangle(rectangle), nx, ny, np.empty((ny, nx)))
    xs, ys = grid.cell_centers()
    # blocks of whole rows keep the peak memory flat; from 16384 points NumPy
    # elides temporaries and moves last bits, so a block has at most 8192
    rows = max(1, 8192 // nx)
    for j in range(0, ny, rows):
        d = determinant(V, (xs + 1j * ys[j:j + rows, None]).ravel(), k)
        grid.arg_values[j:j + rows] = np.arctan2(d.imag, d.real).reshape(-1, nx)
    return grid
