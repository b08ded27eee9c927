"""No public path loads scipy: step and analytic potentials, trig counts
and synthesize_one_gap run on numpy alone.  The checks run in a
fresh interpreter, because the test modules themselves import scipy."""

import os
import subprocess
import sys
from pathlib import Path

import zeromodes

SCRIPT = r"""
import math
import sys

import zeromodes, zeromodes.cli
assert "fractions" not in sys.modules  # detect_rational loads it on first use
from zeromodes import cli
from zeromodes.asymptotics import compare, predict
from zeromodes.potential import build_w, hrp_potential, synthesize_one_gap
from zeromodes.prufer import choose_truncation, delta_derivative, delta_v
from zeromodes.spectra import complex_spectrum, phase_grid, real_spectrum
from zeromodes.trigzeros import TrigParams, brute_count


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out = sys.argv[1]
bump = build_w([-1.0, 1.0], [1.0])
pair = build_w([-1.5, -0.5, 0.5, 1.5], [-1.0, 0.0, 1.0])
gap_pair = build_w([-2.0, -1.0, 0.0, 2.0], [-1.0, 0.0, 1.0])
for method in ("delta", "determinant"):
    assert real_spectrum(bump, 1.0, 10.0, method=method).roots
complex_spectrum(pair, 1.0, (10.0, 40.0, 0.05, 2.0))
phase_grid(pair, 1.0, (0.0, 20.0, -2.0, 2.0), 16, 8)
spectrum = real_spectrum(gap_pair, 1.0, 60.0)
compare(spectrum, predict(gap_pair, 1.0), 60.0)
assert brute_count(TrigParams(0.9, 3.0), 300.0, math.pi / 24) > 0
assert cli.main(["spectrum", "--potential", "w:[-1,1]:1", "--k", "1", "--R", "10",
                 "--out", out + "/roots.jsonl"]) == 0
assert cli.main(["phaseplot", "--potential", "w:[-1.5,-0.5,0.5,1.5]:-1,0,1", "--k", "1",
                 "--re-min", "0", "--re-max", "20", "--im-min", "-2", "--im-max", "2",
                 "--nx", "16", "--ny", "8", "--out-prefix", out + "/plot"]) == 0
assert delta_derivative(bump, 1.0, 1.0) > 0

well = hrp_potential()
assert choose_truncation(well, 1.0) >= well.decay_hint
assert math.isfinite(delta_v(well, 1.0, 1.0))
assert delta_derivative(well, 1.0, 1.0) < 0  # the well is negative
assert len(real_spectrum(well, 1.0, 6.0).roots) == 5
assert cli.main(["spectrum", "--potential", "hrp", "--k", "1", "--R", "6",
                 "--out", out + "/hrp.jsonl"]) == 0
assert len(synthesize_one_gap(1.0, 2.0, 4.0, k=1.0).breakpoints) == 5
assert not loaded(), f"{len(loaded())} scipy modules loaded, first {loaded()[0]}"
"""


def test_step_paths_do_not_load_scipy(tmp_path):
    src = str(Path(zeromodes.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
