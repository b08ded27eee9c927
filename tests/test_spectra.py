import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from zeromodes import prufer, spectra
from zeromodes.errors import NonPositiveK, RegionTooSmall, WindingMismatch
from zeromodes.potential import build_w, hrp_potential, negate, translate
from zeromodes.spectra import (
    complex_spectrum,
    counting_function,
    phase_grid,
    real_spectrum,
)
from conftest import antisymmetric_pair, gap_pair, square_bump, twin_gap
from test_closedform import bump_oracle_roots


def test_real_spectrum_matches_oracle():
    V = square_bump()
    oracle = bump_oracle_roots(20.0)
    sp = real_spectrum(V, 1.0, 20.0, tol=1e-10)
    assert len(sp.roots) == len(oracle)
    assert max(abs(a - b) for a, b in zip(sp.real_values(), oracle)) < 1e-9
    assert all(r.residual < 1e-10 for r in sp.roots)
    assert sp.real_values() == sorted(sp.real_values())


def test_delta_and_determinant_pipelines_agree():
    for V in (square_bump(), gap_pair(1.0, 2.0), twin_gap(1.0)):
        a = real_spectrum(V, 1.0, 25.0, tol=1e-10)
        b = real_spectrum(V, 1.0, 25.0, tol=1e-10, method="determinant")
        assert len(a.roots) == len(b.roots)
        if a.roots:
            assert max(abs(x - y) for x, y in zip(a.real_values(), b.real_values())) < 1e-9


def test_level_on_a_scan_node_is_bracketed_once():
    # the node value pi/2 is the level itself: exactly one of the two cells
    # around the node owns it, whichever way Delta runs
    half = math.pi / 2
    for deltas in ([0.0, half, math.pi], [math.pi, half, 0.0], [0.0, half, 0.0]):
        cells, levels = spectra._delta_brackets(np.array(deltas))
        assert cells.tolist() == [0] and levels.tolist() == [half]
    assert spectra._delta_brackets(np.array([0.0, 5.0])) is None  # crosses pi/2 and 3pi/2
    # the refiner returns an end whose residual is exactly 0, without calling f
    root, resid = spectra._refine(None, np.array([0.0]), np.array([1.0]),
                                  np.array([-half]), np.array([0.0]), 1e-12)
    assert root.tolist() == [1.0] and resid.tolist() == [0.0]


def test_newton_point_outside_the_bracket_falls_back():
    # Newton on arctan overshoots from the first false-position point: the
    # refiner must stay inside the bracket and still converge
    r, seen = 0.3, []

    def f(idx, x):
        seen.extend(x.tolist())
        return np.arctan(10.0 * (x - r)), 10.0 / (1.0 + (10.0 * (x - r)) ** 2)

    lo, hi = np.array([r - 2.0]), np.array([r + 3.0])
    root, resid = spectra._refine(f, lo, hi, np.arctan(10.0 * (lo - r)),
                                  np.arctan(10.0 * (hi - r)), 1e-12, 1e-8)
    x1, f1 = seen[0], math.atan(10.0 * (seen[0] - r))
    assert x1 - f1 * (1.0 + (10.0 * (x1 - r)) ** 2) / 10.0 < lo[0]  # Newton leaves
    # the next point is false position on [lo, x1] instead
    flo = math.atan(10.0 * (lo[0] - r))
    assert abs(seen[1] - (x1 - f1 * (x1 - lo[0]) / (f1 - flo))) < 1e-12
    assert all(lo[0] < x < hi[0] for x in seen)
    assert abs(root[0] - r) < 1e-12 and resid[0] <= 1e-12


def test_refinement_stops_on_the_noise_floor():
    # a residual with noise of 1e-10 keeps every Newton step above xtol; the
    # bracket closes once the steps stop halving, at the size of the last step
    steps = []

    def f(idx, x):
        fx = x - 0.3 + 1e-10 * (-1) ** len(steps)
        steps.append(fx[0])
        return fx, np.ones(x.size)

    root, resid = spectra._refine(f, np.array([0.0]), np.array([1.0]), np.array([-0.3]),
                                  np.array([0.7]), 1e-12, 1e-8)
    assert len(steps) == 2
    assert resid[0] == abs(steps[-1]) and 1e-12 < resid[0] <= 1e-8
    assert abs(root[0] - 0.3) < 3e-10


def test_exact_zero_at_an_end_skips_the_slope_evaluation():
    root, resid = spectra._refine(None, np.array([0.0, 2.0]), np.array([1.0, 3.0]),
                                  np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 1e-12, 1e-8,
                                  guess=np.array([0.5, 2.5]))
    assert root.tolist() == [1.0, 2.0] and resid.tolist() == [0.0, 0.0]


def test_root_on_a_scan_node_is_found(monkeypatch):
    # Delta = pi*gamma puts the level pi/2, and D = gamma - 1/2 its zero, on
    # the node 0.5 of both the coarse (step 1/8) and the fine scan of [0, 1]
    monkeypatch.setattr(spectra, "delta_grid", lambda V, g, k: math.pi * np.asarray(g))
    monkeypatch.setattr(spectra, "determinant", lambda V, g, k: np.asarray(g) - 0.5 + 0j)
    for method in ("delta", "determinant"):
        sp = real_spectrum(square_bump(), 1.0, 1.0, method=method)
        assert sp.real_values() == [0.5]
        assert sp.roots[0].residual == 0.0


def test_refinement_is_batched(monkeypatch):
    # one Delta grid evaluation per refinement iteration over all brackets:
    # four times the roots cost no more grid calls, and no scalar calls
    counts = {"grid": 0, "scalar": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "delta_grid", counted("grid", spectra.delta_grid))
    monkeypatch.setattr(spectra, "delta_v", counted("scalar", spectra.delta_v))
    calls, roots = [], []
    # R = 6000 puts roots past |gamma| = 2048, where xtol/4 is below one
    # float spacing and the false-position point must still leave the ends
    for R in (150.0, 600.0, 6000.0):
        counts.update(grid=0, scalar=0)
        roots.append(len(real_spectrum(gap_pair(1.0, 2.0), 1.0, R, tol=1e-9).roots))
        calls.append(counts["grid"])
        assert counts["scalar"] == 0
    for i in range(len(roots) - 1):
        assert roots[i + 1] > 3.5 * roots[i]
        assert abs(calls[i + 1] - calls[0]) <= 2


def test_antisymmetric_spectra_empty():
    for g in (0.0, 1.0):
        sp = real_spectrum(antisymmetric_pair(g), 1.0, 50.0, tol=1e-6)
        assert len(sp.roots) == 0


def test_zero_potential_empty():
    sp = real_spectrum(build_w([0.0, 1.0], [0.0]), 1.0, 10.0)
    assert len(sp.roots) == 0


def test_counting_function(sech_well):
    sp = real_spectrum(sech_well, 1.0, 11.0, tol=1e-8)
    # eigenvalues 1.5, 2.5, ..., 10.5
    assert counting_function(sp, 11.0) == 10
    assert counting_function(sp, 10.4) == 9
    assert counting_function(sp, 1.0) == 0
    with pytest.raises(RegionTooSmall):
        counting_function(sp, 20.0)


def test_counting_function_single_sign_slope():
    V = square_bump()
    sp = real_spectrum(V, 1.0, 100.0, tol=1e-9)
    n = counting_function(sp, 100.0)
    assert abs(n - (2.0 / math.pi) * 100.0) <= 2.0


def test_complex_spectrum_gap_asymptote():
    V = antisymmetric_pair(1.0)
    sp = complex_spectrum(V, 1.0, (10.0, 40.0, 0.2, 2.0), tol=1e-10)
    limit = 0.5 * math.asinh(1.0 / math.sinh(1.0))
    assert len(sp.roots) >= 8
    ims = [r.value.imag for r in sp.roots]
    assert all(abs(im - limit) < 0.02 for im in ims)
    # monotone approach from below
    assert all(b > a for a, b in zip(ims, ims[1:]))
    assert all(r.residual < 1e-10 for r in sp.roots)


def test_complex_spectrum_no_gap_asymptote():
    V = antisymmetric_pair(0.0)
    sp = complex_spectrum(V, 1.0, (10.0, 40.0, 0.5, 3.0), tol=1e-10)
    assert len(sp.roots) >= 8
    for r in sp.roots:
        re, im = r.value.real, r.value.imag
        assert abs(im - 0.5 * math.log(2.0 * re)) < 0.05


def _shooting_defect(V, gamma: complex, k: float) -> float:
    """|psi1 + psi2| / max(|psi1|, |psi2|) at the right support edge, from
    (1, 1) at the left edge, by complex Runge-Kutta integration of
    psi1' = (k - gamma V) psi2, psi2' = (k + gamma V) psi1 piece by piece.
    Zero exactly when the solution decays on both sides."""
    p = np.array([1.0 + 0j, 1.0 + 0j])
    a = V.breakpoints
    for j, v in enumerate(V.values):
        rhs = lambda x, y, gv=gamma * v: [(k - gv) * y[1], (k + gv) * y[0]]
        p = solve_ivp(rhs, (a[j], a[j + 1]), p, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    return abs(p[0] + p[1]) / max(abs(p[0]), abs(p[1]))


def _reduced_pair_residual(gamma: complex, k: float, g: float) -> float:
    """Relative residual of the matching condition of antisymmetric_pair(g),
    e^{kg}(c + k s)^2 + e^{-kg} gamma^2 s^2 = 0 with c = cos w, s = sin(w)/w,
    w^2 = gamma^2 - k^2 (unit blocks of -1 and +1 around a gap of length g)."""
    w = cmath.sqrt(gamma * gamma - k * k)
    c, s = cmath.cos(w), cmath.sin(w) / w
    left, right = math.exp(k * g) * (c + k * s) ** 2, math.exp(-k * g) * (gamma * s) ** 2
    return abs(left + right) / (abs(left) + abs(right))


def test_complex_roots_confirmed_by_shooting():
    # the rectangles of acceptance criterion 7: the located roots must be zero
    # modes of the ODE itself, and of the hand-reduced matching condition
    k = 1.0
    for g, rect in ((1.0, (10.0, 40.0, 0.05, 2.0)), (0.0, (10.0, 40.0, 0.5, 3.0))):
        V = antisymmetric_pair(g)
        sp = complex_spectrum(V, k, rect, tol=1e-9)
        assert len(sp.roots) >= 8
        for z in sp.values():
            assert _shooting_defect(V, z, k) < 1e-8
            assert _shooting_defect(V, z + 0.1, k) > 1e-3
            assert _reduced_pair_residual(z, k, g) < 1e-12


def test_complex_spectrum_single_sign_empty():
    sp = complex_spectrum(square_bump(), 1.0, (1.0, 20.0, 0.1, 3.0), tol=1e-9)
    assert len(sp.roots) == 0


def test_complex_roots_closed_under_symmetries():
    V = antisymmetric_pair(1.0)
    up = complex_spectrum(V, 1.0, (10.0, 20.0, 0.2, 2.0), tol=1e-10)
    down = complex_spectrum(V, 1.0, (10.0, 20.0, -2.0, -0.2), tol=1e-10)
    left = complex_spectrum(V, 1.0, (-20.0, -10.0, -2.0, -0.2), tol=1e-10)
    key = lambda z: (z.real, z.imag)
    conj = sorted((z.conjugate() for z in up.values()), key=key)
    neg = sorted((-z for z in up.values()), key=key)
    assert len(down.roots) == len(up.roots) == len(left.roots)
    assert max(abs(a - b) for a, b in zip(sorted(down.values(), key=key), conj)) < 1e-7
    assert max(abs(a - b) for a, b in zip(sorted(left.values(), key=key), neg)) < 1e-7


def test_spectrum_k_validation():
    with pytest.raises(NonPositiveK):
        real_spectrum(square_bump(), 0.0, 5.0)
    with pytest.raises(NonPositiveK):
        complex_spectrum(square_bump(), -1.0, (0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_nonfinite_k_rejected(k):
    V, rect = square_bump(), (0.0, 1.0, 0.0, 1.0)
    for call in (lambda: real_spectrum(V, k, 5.0), lambda: real_spectrum(hrp_potential(), k, 5.0),
                 lambda: complex_spectrum(V, k, rect), lambda: phase_grid(V, k, rect, 8, 8),
                 lambda: prufer.delta_grid(V, [1.0], k),
                 lambda: prufer.delta_derivative(hrp_potential(), 1.0, k)):
        with pytest.raises(ValueError, match="k must be finite"):
            call()


def test_json_lines_round_trip():
    sp = real_spectrum(square_bump(), 1.0, 10.0, tol=1e-10)
    lines = sp.to_json_lines().strip().splitlines()
    assert len(lines) == len(sp.roots)
    rec = json.loads(lines[0])
    assert set(rec) == {"re", "im", "residual", "method", "multiplicity"}
    assert rec["method"] == "delta-bisect"


def test_phase_grid_shape_and_range():
    V = antisymmetric_pair(1.0)
    grid = phase_grid(V, 1.0, (-5.0, 5.0, -2.0, 2.0), 16, 8)
    assert grid.arg_values.shape == (8, 16)
    assert np.all(grid.arg_values <= math.pi) and np.all(grid.arg_values >= -math.pi)


def test_phase_grid_conjugate_symmetry():
    V = antisymmetric_pair(0.5)
    up = phase_grid(V, 1.0, (2.0, 6.0, 0.5, 1.5), 12, 6)
    dn = phase_grid(V, 1.0, (2.0, 6.0, -1.5, -0.5), 12, 6)
    # D(conj z) = conj D(z): mirrored rows with negated phase, up to 2*pi wrap
    diff = up.arg_values + dn.arg_values[::-1, :]
    wrapped = np.abs(np.remainder(diff + math.pi, 2 * math.pi) - math.pi)
    assert np.max(wrapped) < 1e-10


def _hsv_hue_to_rgb_float(hue):
    """The float64 colour map the byte writer replaced, kept as the reference."""
    h6 = np.mod(hue, 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    one = np.ones_like(f)
    q = 1.0 - f
    r = np.choose(i, [one, q, 0 * f, 0 * f, f, one])
    g = np.choose(i, [f, one, one, q, 0 * f, 0 * f])
    b = np.choose(i, [0 * f, 0 * f, f, one, one, q])
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(out * 255), 0, 255).astype(np.uint8)


def test_ppm_colour_map_matches_float_reference(tmp_path):
    rng = np.random.RandomState(3)
    # sector edges, exact halves of a byte step and their neighbours
    edges = np.concatenate([np.arange(7) / 6.0, (np.arange(256) + 0.5) / 255 / 6])
    hues = np.concatenate([rng.uniform(0.0, 1.0, 5000), edges, np.nextafter(edges, 2.0),
                           np.nextafter(edges, -1.0), [1.0, 0.0, -0.25, 1.5]])
    hue = hues.reshape(3, -1)
    assert np.array_equal(spectra._hsv_hue_to_rgb(hue), _hsv_hue_to_rgb_float(hue))
    grid = phase_grid(antisymmetric_pair(1.0), 1.0, (10.0, 40.0, 0.05, 2.0), 48, 16)
    grid.to_ppm(tmp_path / "g.ppm")
    hue = (grid.arg_values + math.pi) / math.tau
    assert (tmp_path / "g.ppm").read_bytes() == (
        b"P6\n48 16\n255\n" + _hsv_hue_to_rgb_float(hue[::-1, :]).tobytes())


def test_phase_grid_exports(tmp_path):
    V = square_bump()
    grid = phase_grid(V, 1.0, (-3.0, 3.0, -1.0, 1.0), 8, 4)
    ppm = tmp_path / "g.ppm"
    csv = tmp_path / "g.csv"
    grid.to_ppm(ppm)
    grid.to_csv(csv)
    raw = ppm.read_bytes()
    assert raw.startswith(b"P6\n8 4\n255\n")
    assert len(raw) == len(b"P6\n8 4\n255\n") + 8 * 4 * 3
    lines = csv.read_text().splitlines()
    assert lines[0] == "re,im,arg"
    assert len(lines) == 1 + 8 * 4
    for line in lines[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(","))


def per_cell_csv(grid) -> str:
    """The phase-grid CSV written one cell at a time, as the reference for
    the row-wise writer."""
    xs, ys = grid.cell_centers()
    out = ["re,im,arg\n"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            out.append(f"{float(x)!r},{float(y)!r},{float(grid.arg_values[j, i])!r}\n")
    return "".join(out)


def test_phase_grid_rows_match_per_cell_evaluation(tmp_path):
    V = antisymmetric_pair(1.0)
    grid = phase_grid(V, 1.0, (-7.0, 13.0, -3.0, 2.5), 9, 6)
    xs, ys = grid.cell_centers()
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            d = spectra.determinant(V, complex(x, y), 1.0)
            assert abs(grid.arg_values[j, i] - math.atan2(d.imag, d.real)) < 1e-12
    grid.to_csv(tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_text() == per_cell_csv(grid)


def test_phase_grid_blocks_match_one_call_per_row(monkeypatch):
    # 9 600 cells go to the kernel in blocks of whole rows, at most 8 192
    # points a call; every value is the one-call-per-row value bit for bit
    sizes = []
    kernel = spectra.determinant

    def counted(V, g, k):
        sizes.append(np.size(g))
        return kernel(V, g, k)

    monkeypatch.setattr(spectra, "determinant", counted)
    for V in (antisymmetric_pair(1.0), twin_gap(1.0)):
        sizes.clear()
        grid = phase_grid(V, 1.0, (-20.0, 200.0, -4.0, 4.0), 480, 20)
        assert sizes == [8160, 1440]
        xs, ys = grid.cell_centers()
        rows = [kernel(V, xs + 1j * y, 1.0) for y in ys]
        want = np.array([np.arctan2(d.imag, d.real) for d in rows])
        assert np.array_equal(grid.arg_values.view(np.uint64), want.view(np.uint64))


def test_sech_well_solve_budget(sech_well, monkeypatch):
    # each Delta evaluation on an analytic potential is one ODE solve holding
    # both branches, and each scan attempt is one evaluation; one solve per
    # branch and a separate coarse scan spent 16 and 24 solves here, and
    # Illinois refinement with a central-difference certificate 7 and 7
    solves, grids = [], []
    solve, grid = prufer.solve_ivp, spectra.delta_grid

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_grid(V, g, k, slope=False):
        grids.append(1)
        return grid(V, g, k, slope=slope)

    monkeypatch.setattr(prufer, "solve_ivp", counted_solve)
    monkeypatch.setattr(spectra, "delta_grid", counted_grid)
    for k in (1.0, 1.5):
        solves.clear()
        grids.clear()
        sp = real_spectrum(sech_well, k, 6.0, tol=1e-8)
        assert len(solves) == len(grids) and len(solves) <= 4
        want = np.arange(k + 0.5, 6.0, 1.0)
        assert np.max(np.abs(np.array(sp.real_values()) - want)) < 1e-9


def test_complex_search_evaluation_budget(monkeypatch):
    # one cache for the whole search and Newton as soon as a box winds once:
    # the parent design spent 81 554 evaluations here
    couplings = []
    kernel = spectra.determinant

    def counted(V, g, k):
        couplings.append(np.size(g))
        return kernel(V, g, k)

    monkeypatch.setattr(spectra, "determinant", counted)
    sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, (10.0, 200.0, 0.05, 2.0))
    assert len(sp.roots) == 61
    assert sum(couplings) <= 30000


def test_newton_polish_batches_its_points_and_stays_in_region():
    calls = []

    def fun(zs):
        calls.append(zs.size)
        return zs * zs - 4.0

    # D' ~ 2e-6 at the start: the first step lands near 2e6 and is not taken on
    z, resid = spectra._newton_polish(fun, 1e-6 + 0j, 1e-12, (-1.0, 1.0, -1.0, 1.0))
    assert resid == math.inf and calls == [3]
    z, resid = spectra._newton_polish(fun, 1.5 + 0.1j, 1e-12, (0.0, 3.0, -1.0, 1.0))
    assert abs(z - 2.0) < 1e-12 and resid < 1e-12 and set(calls) == {3}


def test_newton_polish_starts_end_as_they_do_alone():
    # one call per iteration carries the starts still iterating; a start that
    # converges, leaves the region or meets D' = 0 ends bit for bit where it
    # ends on its own
    calls = []

    def fun(zs):
        calls.append(zs.size)
        return zs * zs - 4.0

    starts = [1e-6 + 0j, 1.5 + 0.1j, -1.7 + 0.2j, 0j, 2.4 - 0.3j]
    region = (-3.0, 3.0, -1.0, 1.0)
    z, resid = spectra._newton_polish(fun, np.array(starts), 1e-12, region)
    batched = list(calls)
    calls.clear()
    assert batched[0] == 15 and batched == sorted(batched, reverse=True)
    assert all(n % 3 == 0 for n in batched)
    alone = []
    for i, start in enumerate(starts):
        zi, ri = spectra._newton_polish(fun, start, 1e-12, region)
        assert z[i] == zi[0] and resid[i] == ri[0]
        alone.append(len(calls))
        calls.clear()
    assert len(batched) == max(alone)  # one call per iteration, not per start
    assert resid[0] == resid[3] == math.inf
    assert abs(z[1] - 2.0) < 1e-12 and abs(z[2] + 2.0) < 1e-12 and abs(z[4] - 2.0) < 1e-12


@pytest.fixture(scope="module")
def first_pair_roots():
    """The first two roots z1, z2 of antisymmetric_pair(1) in (10, 20, 0.05, 2)
    at tol 1e-10, from a search whose split lines miss them."""
    sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, (10.0, 20.0, 0.05, 2.0), tol=1e-10)
    return sp.roots[0].value, sp.roots[1].value


def test_root_on_a_split_line_meets_tol(first_pair_roots):
    # the first split of this rectangle runs exactly through Re z1: Newton
    # converges onto the line, which the box winding once must accept
    z1, z2 = first_pair_roots
    a = 1.2 * (z2.real - z1.real)
    sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, (z1.real - a, z1.real + a, 0.05, 2.0),
                          tol=1e-10)
    root = min(sp.roots, key=lambda r: abs(r.value - z1))
    assert abs(root.value - z1) < 1e-10 and root.residual < 1e-10


def test_split_retry_finds_the_generic_roots(first_pair_roots):
    # the 0.5 split of this rectangle runs through z1, so a child hits the
    # root on its contour and the quadrisection is redone at 0.513
    z1, z2 = first_pair_roots
    a = 1.2 * (z2.real - z1.real)
    rect = (z1.real - 0.3 * a, z2.real + 0.3 * a, z1.imag - 0.5, z1.imag + 0.5)
    sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, rect, tol=1e-10)
    assert len(sp.roots) == 2
    assert sp.roots[0].value == z1  # Newton from another centre may differ in the last bit
    assert abs(sp.roots[1].value - z2) < 1e-15
    assert all(r.residual < 1e-10 for r in sp.roots)


def test_root_on_the_boundary_is_nudged_off(first_pair_roots):
    z1, _ = first_pair_roots
    for rect in ((10.0, 16.0, z1.imag, 1.0), (z1.real, 16.0, 0.05, 1.0)):
        sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, rect, tol=1e-10)
        assert len(sp.roots) == 2
        assert abs(sp.roots[0].value - z1) < 1e-12


def test_complex_search_makes_one_kernel_call_per_level(monkeypatch):
    # each call carries a whole level of boxes, or one Newton iteration of
    # all of them: the box-by-box search made 1 310 calls here
    calls = []
    kernel = spectra.determinant

    def counted(V, g, k):
        calls.append(np.size(g))
        return kernel(V, g, k)

    monkeypatch.setattr(spectra, "determinant", counted)
    sp = complex_spectrum(antisymmetric_pair(1.0), 1.0, (10.0, 200.0, 0.05, 2.0))
    assert len(sp.roots) == 61
    assert len(calls) <= 150


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        phase_grid(square_bump(), 1.0, (0.0, 0.0, 0.0, 1.0), 8, 8)
    with pytest.raises(ValueError):
        phase_grid(square_bump(), 1.0, (0.0, 1.0, 0.0, 1.0), 1, 8)


def test_residual_shrinks_at_higher_precision():
    # re-evaluating the located roots at twice the working precision must
    # confirm them: the high-precision Newton correction of the equivalent
    # closed form stays below the double-precision residual certificate
    import mpmath

    sp = real_spectrum(square_bump(), 1.0, 15.0, tol=1e-10, method="determinant")

    def oracle(g):
        w = mpmath.sqrt(mpmath.mpf(g) ** 2 - 1)
        return mpmath.cos(2 * w) + mpmath.sin(2 * w) / w

    with mpmath.workdps(34):
        for r in sp.roots:
            g = mpmath.mpf(repr(r.value.real))
            corr = abs(oracle(g) / mpmath.diff(oracle, g))
            assert corr < 1e-9


def test_spectrum_invariant_under_translation_and_negation():
    V = square_bump()
    base = real_spectrum(V, 1.0, 15.0, tol=1e-10).real_values()
    moved = real_spectrum(translate(V, 5.0), 1.0, 15.0, tol=1e-10).real_values()
    flipped = real_spectrum(negate(V), 1.0, 15.0, tol=1e-10).real_values()
    assert len(base) == len(moved) == len(flipped) > 0
    assert max(abs(a - b) for a, b in zip(base, moved)) < 1e-9
    assert max(abs(a - b) for a, b in zip(base, flipped)) < 1e-9


def _poisoned_determinant(roots, lines):
    """A stand-in for D with simple zeros at roots that also vanishes on the
    vertical lines x in lines inside 0 < Im < 1: every contour that runs
    along one of them fails, as if it met a root there."""
    def D(V, g, k):
        g = np.asarray(g, dtype=complex)
        d = np.prod([g - c for c in roots], axis=0)
        return np.where(np.isin(g.real, lines) & (g.imag > 0) & (g.imag < 1), 0, d)
    return D


def test_failed_retries_move_up_to_the_parent_quadrisection(monkeypatch):
    windings = spectra._windings
    seen = []

    def spy(fun, rects, h0):
        seen.extend(rects)
        return windings(fun, rects, h0)

    monkeypatch.setattr(spectra, "_windings", spy)
    # all three split lines of the unit square fail: the search gives up
    monkeypatch.setattr(spectra, "determinant",
                        _poisoned_determinant([0.3 + 0.3j, 0.7 + 0.6j], [0.5, 0.513, 0.471]))
    with pytest.raises(WindingMismatch, match="could not reconcile"):
        complex_spectrum(square_bump(), 1.0, (0.0, 1.0, 0.0, 1.0))
    # all three split lines of the lower-left child fail: the unit square is
    # split again at 0.513, and that child's second split line is clean
    roots = [0.1 + 0.1j, 0.2 + 0.3j]
    monkeypatch.setattr(spectra, "determinant",
                        _poisoned_determinant(roots, [0.25, 0.5 * 0.513, 0.5 * 0.471]))
    seen.clear()
    sp = complex_spectrum(square_bump(), 1.0, (0.0, 1.0, 0.0, 1.0))
    assert (0.0, 0.513, 0.0, 0.513) in seen
    assert len(sp.roots) == 2
    assert max(abs(a - b) for a, b in zip(sp.values(), roots)) < 1e-12


def per_box_contours(rects, h0):
    """Contour nodes and owners built box by box and edge by edge, as the
    reference for the level-wide builder."""
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
    return np.concatenate(paths), np.repeat(np.arange(len(rects)), [p.size for p in paths])


@st.composite
def box_levels(draw):
    """A box, its quadrisection at one of the search's split fractions and
    a neighbour on its right, in drawn order: boxes that share edges, some
    very thin."""
    size = st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-3, 40.0))
    start = st.sampled_from([-0.0, -1.0])
    x0, y0 = draw(start | st.floats(-200.0, 200.0)), draw(start | st.floats(-5.0, 5.0))
    x1, y1 = x0 + draw(size), y0 + draw(size)
    assume(x1 > x0 and y1 > y0)
    frac = draw(st.sampled_from([0.5, 0.513, 0.471]))
    xm, ym = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
    assume(x0 < xm < x1 and y0 < ym < y1)
    boxes = [(x0, x1, y0, y1), (x1, x1 + (x1 - x0), y0, y1)]
    boxes += [(a, b, c, d) for c, d in ((y0, ym), (ym, y1)) for a, b in ((x0, xm), (xm, x1))]
    return draw(st.permutations(boxes))[:draw(st.integers(1, len(boxes)))]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(box_levels(), st.one_of(st.floats(1e-2, 1.0), st.floats(1.0, 100.0)))
@example([(-1.0, 3e-17, -0.0, 0.1)], 0.3)  # x0 + (x1 - x0) is not x1: ends are pinned
def test_level_contours_match_per_box_nodes(rects, h0):
    # h0 lies both above and below the edge lengths
    got, owner = spectra._contours(np.array(rects), h0)
    want, want_owner = per_box_contours(rects, h0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(owner, want_owner)


def test_top_contour_near_a_root_is_nudged(monkeypatch):
    # |D| dips to 1e-14 of its size at the corner (0, 0) of the top contour
    # without vanishing there or losing its phase: the contour winds, yet
    # the search gives up on it and nudges the rectangle outward by 1e-6
    roots = [0.3 + 0.4j, 0.6 + 0.7j]

    def D(V, g, k):
        g = np.asarray(g, dtype=complex)
        return np.prod([g - c for c in roots], axis=0) * (np.minimum(abs(g / 1e-3) ** 2, 1.0) + 1e-14)

    h0 = min(1.0, spectra._scan_step(square_bump(), 1.0))
    winds, errors, (lo, hi) = spectra._windings(lambda z: D(None, z, 1.0), [(0.0, 1.0, 0.0, 1.0)], h0)
    assert winds == [2] and errors == [None] and lo < 1e-12 * hi

    tops = []
    subdivide = spectra._subdivide

    def spy(fun, rect, tol, h0):
        tops.append(rect)
        return subdivide(fun, rect, tol, h0)

    monkeypatch.setattr(spectra, "determinant", D)
    monkeypatch.setattr(spectra, "_subdivide", spy)
    sp = complex_spectrum(square_bump(), 1.0, (0.0, 1.0, 0.0, 1.0))
    assert tops == [(0.0, 1.0, 0.0, 1.0), (-1e-6, 1.0 + 1e-6, -1e-6, 1.0 + 1e-6)]
    assert max(abs(a - b) for a, b in zip(sp.values(), roots)) < 1e-9


@pytest.mark.parametrize("tol", [-1e-9, math.nan, 0.0])
def test_nonpositive_tol_rejected(monkeypatch, tol):
    # a refiner that cannot meet its width test would run forever; a bounded
    # kernel turns that into a failure instead of a hang
    calls = []
    kernel = spectra.delta_grid

    def bounded(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("delta_grid called more than 1000 times")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(spectra, "delta_grid", bounded)
    for V in (square_bump(), hrp_potential()):
        with pytest.raises(ValueError, match="tol"):
            real_spectrum(V, 1.0, 5.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        complex_spectrum(antisymmetric_pair(1.0), 1.0, (5.0, 10.0, 0.2, 2.0), tol=tol)
