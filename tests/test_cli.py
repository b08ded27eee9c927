import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import zeromodes
from zeromodes import spectra
from zeromodes.cli import main, reproduce_example
from zeromodes.errors import UnknownExample
from zeromodes.potential import AnalyticPotential, PiecewiseConstantPotential, from_record
from test_spectra import _boundary_roots


def test_every_exported_name_exists():
    # a star import fails on a name that __all__ lists but the module lacks
    missing = []
    for info in pkgutil.iter_modules(zeromodes.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"zeromodes.{info.name}")
            missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", [])
                        if not hasattr(module, n)]
    assert missing == []


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_potential():
    V = from_record("w:[-1,1]:1")
    assert isinstance(V, PiecewiseConstantPotential)
    assert V.breakpoints == (-1.0, 1.0) and V.values == (1.0,)
    V = from_record("w:[-2,-1,0,2]:-1,0,1")
    assert V.values == (-1.0, 0.0, 1.0)
    assert isinstance(from_record("hrp"), AnalyticPotential)
    for bad in ("w:[-1,1]", "w:(0,1):1", "gauss", "w:[1,0]:1"):
        with pytest.raises(Exception):
            from_record(bad)
    # a spec without breakpoints
    with pytest.raises(ValueError, match="breakpoints"):
        from_record("w::1")


def test_spectrum_real(capsys, tmp_path):
    out_file = tmp_path / "roots.jsonl"
    code, out, err = run(["spectrum", "--potential", "w:[-1,1]:1", "--k", "1",
                          "--R", "20", "--out", str(out_file)], capsys)
    assert code == 0
    recs = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(recs) >= 1
    assert all(r["residual"] < 1e-9 for r in recs)
    assert abs(recs[0]["re"] - 1.519802561) < 1e-8


def test_spectrum_sech_well(capsys):
    code, out, err = run(["spectrum", "--potential", "hrp", "--k", "1.5", "--R", "4.5"], capsys)
    assert code == 0
    res = [json.loads(line)["re"] for line in out.strip().splitlines()]
    assert len(res) == 3
    for got, want in zip(res, (2.0, 3.0, 4.0)):
        assert abs(got - want) < 1e-6


def test_spectrum_missing_k(capsys):
    code, out, err = run(["spectrum", "--potential", "w:[-1,1]:1", "--R", "20"], capsys)
    assert code == 2
    assert "--k" in err


def test_spectrum_complex(capsys):
    code, out, err = run(["spectrum", "--potential", "w:[-1.5,-0.5,0.5,1.5]:-1,0,1",
                          "--k", "1", "--re-min", "10", "--re-max", "20",
                          "--im-min", "0.2", "--im-max", "2"], capsys)
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 3
    assert all(r["method"] == "winding-newton" for r in recs)


def test_count_compare_gap_dichotomy(capsys):
    code, out, _ = run(["count-compare", "--potential", "w:[-1,0,2]:-1,1",
                        "--k", "1", "--R", "150"], capsys)
    assert code == 0
    nogap = json.loads(out)
    code, out, _ = run(["count-compare", "--potential", "w:[-2,-1,0,2]:-1,0,1",
                        "--k", "1", "--R", "150"], capsys)
    assert code == 0
    onegap = json.loads(out)
    ratio = onegap["comparison"]["empirical_slope"] / nogap["comparison"]["empirical_slope"]
    assert abs(ratio - 3.0) < 0.1
    assert onegap["prediction"]["theorem"] == "one-gap"


def test_count_compare_twin_gaps(capsys):
    code, out, _ = run(["count-compare", "--potential",
                        "w:[-2.5,-1.5,-1,1,1.5,2.5]:-1,0,1,0,-1",
                        "--k", "1", "--R", "100"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["comparison"]["n_roots"] == 2
    assert rep["prediction"]["slope"] is None

    code, out, _ = run(["count-compare", "--potential",
                        "w:[-3,-2,-1,1,2,3]:-1,0,1,0,-1",
                        "--k", "1", "--R", "150"], capsys)
    assert code == 0
    rep = json.loads(out)
    emp = rep["comparison"]["empirical_slope"]
    assert abs(emp - 4.0 / math.pi) / (4.0 / math.pi) < 0.05


def test_phaseplot(tmp_path, capsys):
    prefix = tmp_path / "bump"
    code, _, _ = run(["phaseplot", "--potential", "w:[-1,1]:1", "--k", "1",
                      "--re-min", "-5", "--re-max", "5", "--im-min", "-2", "--im-max", "2",
                      "--nx", "16", "--ny", "8", "--out-prefix", str(prefix)], capsys)
    assert code == 0
    assert (tmp_path / "bump.ppm").read_bytes().startswith(b"P6\n16 8\n255\n")
    assert (tmp_path / "bump.csv").read_text().splitlines()[0] == "re,im,arg"


def test_phaseplot_degenerate_rectangle(capsys):
    code, _, err = run(["phaseplot", "--potential", "w:[-1,1]:1", "--k", "1",
                        "--re-min", "0", "--re-max", "0", "--im-min", "0", "--im-max", "2"],
                       capsys)
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("potential=w:[-1,1]:1\nk=1\nR=5\n")
    code, out, _ = run(["spectrum", "--config", str(conf)], capsys)
    assert code == 0
    base = out.strip().splitlines()
    code, out, _ = run(["spectrum", "--config", str(conf), "--R", "10"], capsys)
    wider = out.strip().splitlines()
    assert len(wider) > len(base)


def test_unknown_example(capsys):
    code, _, err = run(["reproduce", "--example", "9.9"], capsys)
    assert code == 2
    with pytest.raises(UnknownExample):
        reproduce_example("9.9", ".")


def test_reproduce_square_bump(tmp_path, capsys):
    code, out, _ = run(["reproduce", "--example", "2.1", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    for name in ("2.1_roots.jsonl", "2.1_determinant.csv", "2.1_phase.ppm", "2.1_phase.csv"):
        assert (tmp_path / name).exists()
    recs = [json.loads(l) for l in (tmp_path / "2.1_roots.jsonl").read_text().splitlines()]
    assert abs(recs[0]["re"] - 1.519802561) < 1e-8


def test_reproduce_antisymmetric(tmp_path, capsys):
    code, _, _ = run(["reproduce", "--example", "2.2", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    for g in ("0", "1"):
        det = (tmp_path / f"2.2_g{g}_determinant.csv").read_text().splitlines()[1:]
        vals = [float(line.split(",")[1]) for line in det]
        assert all(v > 0 for v in vals) or all(v < 0 for v in vals)  # no real roots
        roots = (tmp_path / f"2.2_g{g}_complex_roots.jsonl").read_text().splitlines()
        assert len(roots) >= 5
        asym = (tmp_path / f"2.2_g{g}_asymptote.csv").read_text().splitlines()
        assert asym[0] == "re,im"


def test_reproduce_twin_gap_dichotomy(tmp_path, capsys):
    code, _, _ = run(["reproduce", "--example", "2.3", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    for name in ("2.3_g0_count.csv", "2.3_g0_report.json", "2.3_g1_count.csv", "2.3_g1_report.json"):
        assert (tmp_path / name).exists()
    code, _, _ = run(["reproduce", "--example", "2.4", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    rows05 = (tmp_path / "2.4_g0.5_count.csv").read_text().splitlines()[1:]
    counts05 = [int(float(r.split(",")[1])) for r in rows05]
    assert counts05[-1] == counts05[5]  # bounded count
    rows10 = (tmp_path / "2.4_g1_count.csv").read_text().splitlines()[1:]
    last = rows10[-1].split(",")
    assert abs(float(last[2]) - 4.0 / math.pi) / (4.0 / math.pi) < 0.05


def test_reproduce_sech_well(tmp_path, capsys):
    code, _, _ = run(["reproduce", "--example", "2.5", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    for k, first in (("1", 1.5), ("1.5", 2.0)):
        rows = (tmp_path / f"2.5_k{k}_cosdelta.csv").read_text().splitlines()[1:]
        gs = [float(r.split(",")[0]) for r in rows]
        cd = [float(r.split(",")[1]) for r in rows]
        # cos(Delta) changes sign exactly at the eigenvalue couplings
        crossings = [0.5 * (gs[i] + gs[i + 1]) for i in range(len(gs) - 1)
                     if cd[i] * cd[i + 1] < 0]
        assert crossings, "no crossings found"
        assert min(abs(c - first) for c in crossings) < 0.05
        recs = [json.loads(l) for l in (tmp_path / f"2.5_k{k}_roots.jsonl").read_text().splitlines()]
        assert abs(recs[0]["re"] - first) < 1e-6


def test_reproduce_bundles_match_the_manifest(tmp_path):
    # every file of the five bundles, bit for bit; the digests hold for the
    # numpy version named in the manifest's header
    lines = (Path(__file__).parent / "reproduce.sha256").read_text().splitlines()
    header = [line[2:].split() for line in lines if line.startswith("# ")]
    pinned = next(version for name, version, *_ in header if name == "numpy")
    if np.__version__ != pinned:
        pytest.skip(f"manifest pins numpy {pinned}, found {np.__version__}")
    want = {name: digest for digest, name in
            (line.split("  ") for line in lines if not line.startswith("#"))}
    for example in ("2.1", "2.2", "2.3", "2.4", "2.5"):
        reproduce_example(example, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == want


def test_determinism(tmp_path, capsys):
    args = ["spectrum", "--potential", "w:[-2,-1,0,2]:-1,0,1", "--k", "1", "--R", "30"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_numerical_failure_exit_code(capsys):
    code, _, err = run(["count-compare", "--potential", "w:[0,1]:0", "--k", "1", "--R", "10"],
                       capsys)
    assert code == 3
    assert "failure" in err


def test_arithmetic_failure_exit_code(tmp_path, capsys):
    # a gap of length 800 overflows the complex determinant's cos(w L)
    rect = ["--potential", "w:[-1,0,800,801]:1,0,1", "--k", "1",
            "--re-min", "0", "--re-max", "5", "--im-min", "-1", "--im-max", "1"]
    for argv in (["phaseplot", *rect, "--nx", "4", "--ny", "4",
                  "--out-prefix", str(tmp_path / "p")], ["spectrum", *rect]):
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("numerical failure:")


def test_unconverged_scan_fails_fast(capsys):
    # the gap of 800 keeps three scan cells crossing two levels however far
    # the step is halved; the scan stops at its cell cap instead of growing
    start = time.perf_counter()
    code, _, err = run(["spectrum", "--potential", "w:[-1,0,800,801]:1,0,1", "--k", "1",
                        "--R", "10"], capsys)
    assert code == 3
    assert err.startswith("numerical failure:")
    assert time.perf_counter() - start < 15.0


def test_scan_and_nudge_failures_exit_3(monkeypatch, capsys):
    # the stubs of test_spectra: a scan that never stabilises, and a
    # rectangle whose corner meets a root after every nudge
    monkeypatch.setattr(spectra, "delta_grid", lambda V, g, k, slope=False: 1e9 * np.asarray(g))
    monkeypatch.setattr(spectra, "determinant", _boundary_roots)
    bump = ["spectrum", "--potential", "w:[-1,1]:1", "--k", "1"]
    for argv, message in ((["--R", "1"], "scan failed to stabilise"),
                          (["--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1"],
                           "despite nudging")):
        code, _, err = run(bump + argv, capsys)
        assert code == 3
        assert err.startswith("numerical failure:") and message in err


def test_module_entry_point_exit_codes():
    # `python -m zeromodes` in its own process: the exit status is main()'s code
    src = str(Path(zeromodes.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "zeromodes", "spectrum", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    proc = run_module("--potential", "hrp", "--k", "1.5", "--R", "4.5")
    assert proc.returncode == 0, proc.stderr
    assert len([json.loads(line) for line in proc.stdout.splitlines()]) == 3
    proc = run_module("--potential", "w:[1,0]:1", "--k", "1", "--R", "5")
    assert proc.returncode == 2 and proc.stderr.startswith("error: malformed step potential")
    proc = run_module("--potential", "w:[-1,1]:1", "--k", "1", "--R", "1e7")
    assert proc.returncode == 3 and "2^20" in proc.stderr


_BUMP = ["-p", "w:[-1,1]:1", "--k", "1"]
_RECT = ["--re-min", "0", "--re-max", "inf", "--im-min", "0.1", "--im-max", "1"]


@pytest.mark.parametrize("argv, name", [
    pytest.param(["spectrum", "-p", "w:[1,0]:1", "--k", "1", "--R", "5"], "w:[1,0]:1",
                 id="non-monotone-spec"),
    pytest.param(["spectrum", "-p", "w:[-1,1]:1,2", "--k", "1", "--R", "5"], "w:[-1,1]:1,2",
                 id="value-count-spec"),
    pytest.param(["spectrum", "-p", "w:[-1,1]:1", "--k", "inf", "--R", "5"], "--k", id="k-inf"),
    pytest.param(["spectrum", "-p", "w:[-1,1]:1", "--k", "nan", "--R", "5"], "--k", id="k-nan"),
    pytest.param(["spectrum", *_BUMP, "--R", "inf"], "R must", id="R-inf"),
    pytest.param(["spectrum", *_BUMP, "--R", "nan"], "R must", id="R-nan"),
    pytest.param(["spectrum", "-p", "w:[-1,1]:inf", "--k", "1", "--R", "5"], "finite",
                 id="value-inf"),
    pytest.param(["spectrum", "-p", "w:[-1,inf]:1", "--k", "1", "--R", "5"], "finite",
                 id="breakpoint-inf"),
    pytest.param(["spectrum", *_BUMP, *_RECT], "rectangle", id="spectrum-re-max-inf"),
    pytest.param(["phaseplot", *_BUMP, *_RECT], "rectangle", id="phaseplot-re-max-inf"),
])
def test_malformed_or_nonfinite_input_is_usage_error(capsys, argv, name):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and name in err


def test_config_file_sets_phaseplot_options(tmp_path, capsys):
    conf = tmp_path / "plot.conf"
    conf.write_text("potential=w:[-1,1]:1\nk=1\nre-min=-5\nre_max=5\nim-min=-2\nim-max=2\n"
                    f"nx=6\nny=4\nout-prefix={tmp_path / 'fromconf'}\nno-such-option=7\n")
    code, _, _ = run(["phaseplot", "--config", str(conf)], capsys)
    assert code == 0
    assert (tmp_path / "fromconf.ppm").read_bytes().startswith(b"P6\n6 4\n255\n")
    rows = (tmp_path / "fromconf.csv").read_text().splitlines()
    assert len(rows) == 1 + 6 * 4 and rows[1].startswith("-4.1")
    code, _, _ = run(["phaseplot", "--config", str(conf), "--ny", "3"], capsys)
    assert code == 0
    assert (tmp_path / "fromconf.ppm").read_bytes().startswith(b"P6\n6 3\n255\n")
    conf.write_text(conf.read_text() + "nx=abc\n")
    code, _, _ = run(["phaseplot", "--config", str(conf)], capsys)
    assert code == 2
