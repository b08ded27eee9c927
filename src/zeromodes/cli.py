"""Command-line front end.

Subcommands: spectrum (real or complex eigenvalue search), count-compare
(empirical density vs closed-form prediction), phaseplot (P6 pixmap + CSV
of arg D over a complex rectangle), reproduce (canned demonstration
scenarios 2.1-2.5: square bump, antisymmetric pair, gap dichotomy, twin
gaps, sech well).

Potentials are given in a mini-language: `w:[a0,a1,...]:v1,v2,...` for a
step potential, or a named analytic potential such as `hrp`.  Every
command is deterministic: fixed grids, no randomness, order-deterministic
assembly, so identical invocations produce byte-identical outputs.  A
--config file supplies key=value defaults; explicit flags override it.

Exit codes: 0 ok, 2 usage/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, closedform, potential, prufer, spectra
from .errors import UnknownExample, ZeromodesError

__all__ = ["main", "parse_potential", "reproduce_example"]


def parse_potential(text: str) -> potential.Potential:
    """Parse the potential mini-language.

    `w:[-1,1]:1` -> step potential with breakpoints -1, 1 and value 1;
    `hrp` -> the analytic -1/cosh well.
    """
    text = text.strip()
    if text == "hrp":
        return potential.hrp_potential()
    if text.startswith("w:"):
        try:
            _, bp_part, val_part = text.split(":", 2)
            if not (bp_part.startswith("[") and bp_part.endswith("]")):
                raise ValueError
            bps = [float(s) for s in bp_part[1:-1].split(",")]
            vals = [float(s) for s in val_part.split(",")]
        except ValueError:
            raise ValueError(f"malformed step potential spec {text!r}") from None
        return potential.build_w(bps, vals)
    raise ValueError(f"unknown potential spec {text!r}")


def _read_config(path: str) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {line!r}")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _merge_config(args: argparse.Namespace, casts: dict[str, type]) -> None:
    """Fill unset (None) argument slots from the config file, if any."""
    if not getattr(args, "config", None):
        return
    conf = _read_config(args.config)
    for key, val in conf.items():
        if key in casts and getattr(args, key, None) is None:
            setattr(args, key, casts[key](val))


def _out_stream(path):
    return open(path, "w") if path else sys.stdout


def _validate_common(args) -> None:
    if args.k is None:
        raise ValueError("--k is required")
    if args.k <= 0:
        raise ValueError("--k must be positive")
    if args.potential is None:
        raise ValueError("--potential is required")


def _cmd_spectrum(args) -> int:
    _merge_config(args, {"potential": str, "k": float, "R": float, "tol": float,
                         "re_min": float, "re_max": float, "im_min": float,
                         "im_max": float, "out": str})
    _validate_common(args)
    V = parse_potential(args.potential)
    tol = args.tol if args.tol is not None else 1e-9
    rect_given = [args.re_min, args.re_max, args.im_min, args.im_max]
    if args.R is None and any(r is None for r in rect_given):
        raise ValueError("need --R (real scan) or a full --re-min/--re-max/--im-min/--im-max rectangle")
    if args.R is not None:
        sp = spectra.real_spectrum(V, args.k, args.R, tol=tol)
    else:
        if not isinstance(V, potential.PiecewiseConstantPotential):
            raise ValueError("complex search requires a step potential")
        sp = spectra.complex_spectrum(V, args.k, tuple(rect_given), tol=tol)
    stream = _out_stream(args.out)
    stream.write(sp.to_json_lines())
    if stream is not sys.stdout:
        stream.close()
    return 0


def _cmd_count_compare(args) -> int:
    _merge_config(args, {"potential": str, "k": float, "R": float, "tol": float,
                         "out": str})
    _validate_common(args)
    if args.R is None:
        raise ValueError("--R is required")
    V = parse_potential(args.potential)
    if not isinstance(V, potential.PiecewiseConstantPotential):
        raise ValueError("count-compare predictions require a step potential")
    tol = args.tol if args.tol is not None else 1e-9
    sp = spectra.real_spectrum(V, args.k, args.R, tol=tol)
    pred = asymptotics.predict(V, args.k)
    report = asymptotics.compare(sp, pred, args.R)
    payload = {
        "prediction": json.loads(pred.to_json()),
        "comparison": json.loads(report.to_json()),
    }
    stream = _out_stream(args.out)
    stream.write(json.dumps(payload, indent=2) + "\n")
    if stream is not sys.stdout:
        stream.close()
    return 0


def _cmd_phaseplot(args) -> int:
    _merge_config(args, {"potential": str, "k": float, "re_min": float, "re_max": float,
                         "im_min": float, "im_max": float, "nx": int, "ny": int,
                         "out_prefix": str})
    _validate_common(args)
    rect = (args.re_min, args.re_max, args.im_min, args.im_max)
    if any(r is None for r in rect):
        raise ValueError("phaseplot needs the full rectangle")
    if not (rect[1] > rect[0] and rect[3] > rect[2]):
        raise ValueError("rectangle must have positive area")
    V = parse_potential(args.potential)
    if not isinstance(V, potential.PiecewiseConstantPotential):
        raise ValueError("phase plots require a step potential")
    nx = args.nx if args.nx is not None else 240
    ny = args.ny if args.ny is not None else 160
    grid = spectra.phase_grid(V, args.k, rect, nx, ny)
    prefix = args.out_prefix if args.out_prefix is not None else "phase"
    grid.to_ppm(f"{prefix}.ppm")
    grid.to_csv(f"{prefix}.csv")
    return 0


# --- canned demonstration scenarios -------------------------------------------


def _write_roots(sp, path) -> None:
    Path(path).write_text(sp.to_json_lines())


def _write_curve_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def _count_trace_rows(sp, R_values):
    reals = np.array(sorted(sp.real_values()))
    rows = []
    for R in R_values:
        c = int(np.searchsorted(reals, R, side="right"))
        rows.append((R, c, c / R))
    return rows


def _square_bump_bundle(outdir: Path, k: float = 1.0) -> list[str]:
    V = potential.build_w([-1.0, 1.0], [1.0])
    sp = spectra.real_spectrum(V, k, 20.0, tol=1e-10)
    _write_roots(sp, outdir / "2.1_roots.jsonl")
    gs = np.linspace(0.0, 20.0, 801)
    rows = zip(gs, closedform.determinant(V, gs, k).real)
    _write_curve_csv(outdir / "2.1_determinant.csv", "gamma,det", rows)
    grid = spectra.phase_grid(V, k, (-20.0, 20.0, -4.0, 4.0), 240, 96)
    grid.to_ppm(outdir / "2.1_phase.ppm")
    grid.to_csv(outdir / "2.1_phase.csv")
    return ["2.1_roots.jsonl", "2.1_determinant.csv", "2.1_phase.ppm", "2.1_phase.csv"]


def _antisymmetric_bundle(outdir: Path, k: float = 1.0) -> list[str]:
    written = []
    for g in (0.0, 1.0):
        if g == 0.0:
            V = potential.build_w([-1.0, 0.0, 1.0], [-1.0, 1.0])
        else:
            V = potential.build_w([-1.0 - g / 2, -g / 2, g / 2, g / 2 + 1.0], [-1.0, 0.0, 1.0])
        tag = f"2.2_g{g:g}"
        gs = np.linspace(0.0, 30.0, 1201)
        rows = zip(gs, closedform.determinant(V, gs, k).real)
        _write_curve_csv(outdir / f"{tag}_determinant.csv", "gamma,det", rows)
        rect = (5.0, 30.0, 0.2, 3.0)
        cs = spectra.complex_spectrum(V, k, rect, tol=1e-10)
        _write_roots(cs, outdir / f"{tag}_complex_roots.jsonl")
        # accompanying asymptote curve for the imaginary parts
        res = np.linspace(6.0, 30.0, 121)
        if g == 0.0:
            ims = 0.5 * np.log(2.0 * res)
        else:
            ims = np.full_like(res, 0.5 * math.asinh(1.0 / math.sinh(g)))
        _write_curve_csv(outdir / f"{tag}_asymptote.csv", "re,im", zip(res, ims))
        written += [f"{tag}_determinant.csv", f"{tag}_complex_roots.jsonl", f"{tag}_asymptote.csv"]
    return written


# (tag, breakpoints, values) of the counted potentials: 2.3 is the gap
# dichotomy (no gap vs one gap), 2.4 the twin gaps of lengths 0.5 and 1
_COUNT_CASES = {
    "2.3": (("2.3_g0", [-1.0, 0.0, 2.0], [-1.0, 1.0]),
            ("2.3_g1", [-2.0, -1.0, 0.0, 2.0], [-1.0, 0.0, 1.0])),
    "2.4": (("2.4_g0.5", [-2.5, -1.5, -1.0, 1.0, 1.5, 2.5], [-1.0, 0.0, 1.0, 0.0, -1.0]),
            ("2.4_g1", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0, 0.0, -1.0])),
}


def _count_bundle(outdir: Path, example_id: str, k: float = 1.0) -> list[str]:
    """Counting trace and density report on [0, 150] for each case."""
    written = []
    for tag, bps, vals in _COUNT_CASES[example_id]:
        V = potential.build_w(bps, vals)
        sp = spectra.real_spectrum(V, k, 150.0, tol=1e-9)
        _write_curve_csv(outdir / f"{tag}_count.csv", "R,count,density",
                         _count_trace_rows(sp, np.arange(5.0, 151.0, 5.0)))
        pred = asymptotics.predict(V, k)
        rep = asymptotics.compare(sp, pred, 150.0)
        (outdir / f"{tag}_report.json").write_text(json.dumps({
            "prediction": json.loads(pred.to_json()),
            "comparison": json.loads(rep.to_json()),
        }, indent=2) + "\n")
        written += [f"{tag}_count.csv", f"{tag}_report.json"]
    return written


def _sech_well_bundle(outdir: Path) -> list[str]:
    V = potential.hrp_potential()
    written = []
    for k in (1.0, 1.5):
        tag = f"2.5_k{k:g}"
        gs = np.linspace(0.0, 6.0, 241)
        curve = prufer.delta_curve(V, gs, k)
        rows = [(g, math.cos(d)) for g, d in zip(curve.gammas, curve.delta_values)]
        _write_curve_csv(outdir / f"{tag}_cosdelta.csv", "gamma,cos_delta", rows)
        sp = spectra.real_spectrum(V, k, 6.0, tol=1e-8)
        _write_roots(sp, outdir / f"{tag}_roots.jsonl")
        written += [f"{tag}_cosdelta.csv", f"{tag}_roots.jsonl"]
    return written


_SCENARIOS = {
    "2.1": _square_bump_bundle,
    "2.2": _antisymmetric_bundle,
    "2.3": lambda outdir: _count_bundle(outdir, "2.3"),
    "2.4": lambda outdir: _count_bundle(outdir, "2.4"),
    "2.5": lambda outdir: _sech_well_bundle(outdir),
}


def reproduce_example(example_id: str, outdir) -> list[str]:
    """Write the canned output bundle for one scenario; returns file names."""
    if example_id not in _SCENARIOS:
        raise UnknownExample(f"unknown scenario {example_id!r}; choose from {sorted(_SCENARIOS)}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    return _SCENARIOS[example_id](out)


def _cmd_reproduce(args) -> int:
    _merge_config(args, {"example": str, "outdir": str})
    if args.example is None:
        raise ValueError("--example is required")
    files = reproduce_example(args.example, args.outdir if args.outdir else ".")
    for name in files:
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeromodes",
        description="Zero-mode coupling spectra for 1D Dirac systems with decaying potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value defaults file; flags override")
        p.add_argument("--potential", "-p", help="w:[a0,a1,...]:v1,... or hrp")
        p.add_argument("--k", type=float, help="transverse frequency, > 0")

    p_spec = sub.add_parser("spectrum", help="locate eigenvalue couplings")
    add_common(p_spec)
    p_spec.add_argument("--R", type=float, help="real scan upper bound")
    p_spec.add_argument("--tol", type=float, help="root residual tolerance (default 1e-9)")
    p_spec.add_argument("--re-min", type=float, dest="re_min")
    p_spec.add_argument("--re-max", type=float, dest="re_max")
    p_spec.add_argument("--im-min", type=float, dest="im_min")
    p_spec.add_argument("--im-max", type=float, dest="im_max")
    p_spec.add_argument("--out", help="JSON-lines output path (default stdout)")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_cc = sub.add_parser("count-compare", help="empirical density vs prediction")
    add_common(p_cc)
    p_cc.add_argument("--R", type=float, help="count interval upper bound")
    p_cc.add_argument("--tol", type=float)
    p_cc.add_argument("--out", help="JSON report path (default stdout)")
    p_cc.set_defaults(func=_cmd_count_compare)

    p_pp = sub.add_parser("phaseplot", help="arg D over a complex rectangle")
    add_common(p_pp)
    p_pp.add_argument("--re-min", type=float, dest="re_min")
    p_pp.add_argument("--re-max", type=float, dest="re_max")
    p_pp.add_argument("--im-min", type=float, dest="im_min")
    p_pp.add_argument("--im-max", type=float, dest="im_max")
    p_pp.add_argument("--nx", type=int)
    p_pp.add_argument("--ny", type=int)
    p_pp.add_argument("--out-prefix", dest="out_prefix", help="writes PREFIX.ppm and PREFIX.csv")
    p_pp.set_defaults(func=_cmd_phaseplot)

    p_rep = sub.add_parser("reproduce", help="run a canned demonstration scenario")
    p_rep.add_argument("--config")
    p_rep.add_argument("--example", choices=sorted(_SCENARIOS), help="scenario id")
    p_rep.add_argument("--outdir", help="output directory (default .)")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, UnknownExample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeromodesError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
