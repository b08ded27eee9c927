"""Command-line front end.

Subcommands: spectrum (real or complex eigenvalue search), count-compare
(empirical density vs closed-form prediction), phaseplot (P6 pixmap + CSV
of arg D over a complex rectangle), reproduce (canned demonstration
scenarios 2.1-2.5: square bump, antisymmetric pair, gap dichotomy, twin
gaps, sech well).

Potentials are given in the mini-language that potential.from_record
reads: `w:[a0,a1,...]:v1,v2,...` for a step potential, `hrp` for the
-1/cosh well.  Every
command is deterministic: fixed grids, no randomness, order-deterministic
assembly, so identical invocations produce byte-identical outputs.  A
--config file of key=value lines sets option defaults (a key that names
no option of the subcommand is ignored); explicit flags override it.

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

__all__ = ["main", "reproduce_example"]


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


def _emit(path, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _report_json(pred, rep) -> str:
    payload = {"prediction": json.loads(pred.to_json()), "comparison": json.loads(rep.to_json())}
    return json.dumps(payload, indent=2) + "\n"


def _validate_common(args) -> None:
    if args.k is None:
        raise ValueError("--k is required")
    if not 0 < args.k < math.inf:
        raise ValueError("--k must be positive and finite")
    if args.potential is None:
        raise ValueError("--potential is required")


def _cmd_spectrum(args) -> int:
    _validate_common(args)
    V = potential.from_record(args.potential)
    rect = (args.re_min, args.re_max, args.im_min, args.im_max)
    if args.R is not None:
        sp = spectra.real_spectrum(V, args.k, args.R, tol=args.tol)
    elif None in rect:
        raise ValueError("need --R (real scan) or a full --re-min/--re-max/--im-min/--im-max rectangle")
    elif not isinstance(V, potential.PiecewiseConstantPotential):
        raise ValueError("complex search requires a step potential")
    else:
        sp = spectra.complex_spectrum(V, args.k, rect, tol=args.tol)
    _emit(args.out, sp.to_json_lines())
    return 0


def _cmd_count_compare(args) -> int:
    _validate_common(args)
    if args.R is None:
        raise ValueError("--R is required")
    V = potential.from_record(args.potential)
    if not isinstance(V, potential.PiecewiseConstantPotential):
        raise ValueError("count-compare predictions require a step potential")
    sp = spectra.real_spectrum(V, args.k, args.R, tol=args.tol)
    pred = asymptotics.predict(V, args.k)
    _emit(args.out, _report_json(pred, asymptotics.compare(sp, pred, args.R)))
    return 0


def _cmd_phaseplot(args) -> int:
    _validate_common(args)
    rect = (args.re_min, args.re_max, args.im_min, args.im_max)
    if None in rect:
        raise ValueError("phaseplot needs the full rectangle")
    V = potential.from_record(args.potential)
    if not isinstance(V, potential.PiecewiseConstantPotential):
        raise ValueError("phase plots require a step potential")
    grid = spectra.phase_grid(V, args.k, rect, args.nx, args.ny)
    grid.to_ppm(f"{args.out_prefix}.ppm")
    grid.to_csv(f"{args.out_prefix}.csv")
    return 0


# --- canned demonstration scenarios -------------------------------------------


def _write_curve_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def _count_trace_rows(sp, R_values):
    counts = np.searchsorted(sorted(sp.real_values()), R_values, side="right")
    return zip(R_values, counts, counts / R_values)


def _square_bump_bundle(outdir: Path, k: float = 1.0) -> list[str]:
    V = potential.build_w([-1.0, 1.0], [1.0])
    sp = spectra.real_spectrum(V, k, 20.0, tol=1e-10)
    _emit(outdir / "2.1_roots.jsonl", sp.to_json_lines())
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
        _emit(outdir / f"{tag}_complex_roots.jsonl", cs.to_json_lines())
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
        _emit(outdir / f"{tag}_report.json", _report_json(pred, rep))
        written += [f"{tag}_count.csv", f"{tag}_report.json"]
    return written


def _sech_well_bundle(outdir: Path) -> list[str]:
    V = potential.hrp_potential()
    written = []
    for k in (1.0, 1.5):
        tag = f"2.5_k{k:g}"
        gs = np.linspace(0.0, 6.0, 241)
        rows = [(g, math.cos(d)) for g, d in zip(gs, prufer.delta_grid(V, gs, k).tolist())]
        _write_curve_csv(outdir / f"{tag}_cosdelta.csv", "gamma,cos_delta", rows)
        sp = spectra.real_spectrum(V, k, 6.0, tol=1e-8)
        _emit(outdir / f"{tag}_roots.jsonl", sp.to_json_lines())
        written += [f"{tag}_cosdelta.csv", f"{tag}_roots.jsonl"]
    return written


_SCENARIOS = {
    "2.1": _square_bump_bundle,
    "2.2": _antisymmetric_bundle,
    "2.3": lambda outdir: _count_bundle(outdir, "2.3"),
    "2.4": lambda outdir: _count_bundle(outdir, "2.4"),
    "2.5": _sech_well_bundle,
}


def reproduce_example(example_id: str, outdir) -> list[str]:
    """Write the canned output bundle for one scenario; returns file names."""
    if example_id not in _SCENARIOS:
        raise UnknownExample(f"unknown scenario {example_id!r}; choose from {sorted(_SCENARIOS)}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    return _SCENARIOS[example_id](out)


def _cmd_reproduce(args) -> int:
    if args.example is None:
        raise ValueError("--example is required")
    for name in reproduce_example(args.example, args.outdir):
        print(name)
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Every option with its type and default; returns the parser and the
    subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="zeromodes",
        description="Zero-mode coupling spectra for 1D Dirac systems with decaying potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="file of key=value option defaults; flags override it")
        p.set_defaults(func=func)
        return p

    def add_common(p):
        p.add_argument("--potential", "-p", help="w:[a0,a1,...]:v1,... or hrp")
        p.add_argument("--k", type=float, help="transverse frequency, > 0")

    def add_search(p, r_help, out_help):
        p.add_argument("--R", type=float, help=r_help)
        p.add_argument("--tol", type=float, default=1e-9,
                       help="root tolerance, > 0 (default %(default)s)")
        p.add_argument("--out", help=f"{out_help} path (default stdout)")

    def add_rect(p):
        for edge in ("re-min", "re-max", "im-min", "im-max"):
            p.add_argument(f"--{edge}", type=float, help="edge of the complex rectangle")

    p = add_command("spectrum", _cmd_spectrum, "locate eigenvalue couplings")
    add_common(p)
    add_search(p, "real scan upper bound", "JSON-lines output")
    add_rect(p)

    p = add_command("count-compare", _cmd_count_compare, "empirical density vs prediction")
    add_common(p)
    add_search(p, "count interval upper bound", "JSON report")

    p = add_command("phaseplot", _cmd_phaseplot, "arg D over a complex rectangle")
    add_common(p)
    add_rect(p)
    p.add_argument("--nx", type=int, default=240, help="grid columns (default %(default)s)")
    p.add_argument("--ny", type=int, default=160, help="grid rows (default %(default)s)")
    p.add_argument("--out-prefix", default="phase",
                   help="writes PREFIX.ppm and PREFIX.csv (default %(default)s)")

    p = add_command("reproduce", _cmd_reproduce, "run a canned demonstration scenario")
    p.add_argument("--example", choices=sorted(_SCENARIOS), help="scenario id")
    p.add_argument("--outdir", default=".", help="output directory (default %(default)s)")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv.  A --config key that names an option of the chosen
    subcommand becomes that option's default, so argparse converts it with
    the option's own type and an explicit flag still overrides it; other
    keys are ignored."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        options = vars(args).keys() - {"command", "func", "config"}
        conf = _read_config(args.config)
        commands[args.command].set_defaults(**{k: v for k, v in conf.items() if k in options})
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code) if exc.code else 0
    except (ValueError, OSError, UnknownExample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeromodesError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
