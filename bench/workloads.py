"""Benchmark workloads: inputs drawn from a seed, and one timed pass each.

Seed 0 reproduces the paper's parameters; every other seed draws nearby
inputs.  Draws are shaped so that each seed asks for about the same amount
of work, because the benchmark compares medians over runs with different
seeds:

* sech-well solves the pair k, 2.5 - k (k in [1, 1.25]), so the mean k
  stays fixed;
* step-count widens the -1 block together with the +1 block (widths b/2
  and b), which keeps beta = 3 on the paper's rational branch, and counts
  on [0, 1200/b], so the number of located couplings stays ~573;
* complex-plane only moves the gap of the gapped antisymmetric pair.

Nothing in here checks results; see ``oracles.py``.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from zeromodes import asymptotics, cli, potential, prufer, spectra, trigzeros


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs for one run; the same seed gives the same inputs."""
    rng = random.Random(seed)

    def draw(lo, hi, paper):
        return paper if seed == 0 else rng.uniform(lo, hi)

    if workload == "sech-well":
        k = draw(1.0, 1.25, 1.0)
        return {"ks": [k, 2.5 - k], "R": 6.0, "tol": 1e-8}
    if workload == "step-count":
        g = draw(0.9, 1.1, 1.0)
        b = draw(1.9, 2.1, 2.0)
        g_twin = draw(0.9, 1.1, 1.0)
        return {
            "k": 1.0,
            "tol": 1e-9,
            "gap_pair": {"breakpoints": [-g - b / 2, -g, 0.0, b], "values": [-1.0, 0.0, 1.0],
                         "R": 1200.0 / b},
            "twin_gap": {"breakpoints": [-g_twin - 2.0, -g_twin - 1.0, -1.0, 1.0,
                                         g_twin + 1.0, g_twin + 2.0],
                         "values": [-1.0, 0.0, 1.0, 0.0, -1.0], "R": 150.0},
            # the gap pair's shape parameters: alpha = tanh(k g), beta = 3
            "trig": {"alpha": math.tanh(g), "beta": 3.0, "R": 3e4},
        }
    if workload == "complex-plane":
        g = draw(0.8, 1.2, 1.0)
        return {
            "k": 1.0,
            "tol": 1e-9,
            "R": 600.0,
            "pairs": [
                {"breakpoints": [-1.0 - g / 2, -g / 2, g / 2, g / 2 + 1.0],
                 "values": [-1.0, 0.0, 1.0], "rect": [10.0, 200.0, 0.05, 2.0]},
                {"breakpoints": [-1.0, 0.0, 1.0], "values": [-1.0, 1.0],
                 "rect": [10.0, 200.0, 0.5, 3.5]},
            ],
            "phaseplot": {"rect": [0.0, 200.0, -4.0, 4.0], "nx": 480, "ny": 160},
        }
    raise ValueError(f"unknown workload {workload!r}")


def potential_spec(bps, vals) -> str:
    """The CLI mini-language form of a step potential."""
    return f"w:[{','.join(map(repr, bps))}]:{','.join(map(repr, vals))}"


def build(workload: str, inputs: dict) -> dict:
    """Set-up: construct the potentials a pass needs."""
    if workload == "sech-well":
        V = potential.hrp_potential()
        # prufer caches each truncation cutoff (lru_cache); filling it for
        # the couplings the solves visit makes that cost part of set-up
        for g in np.linspace(0.0, inputs["R"], 257):
            prufer.choose_truncation(V, g)
        return {"V": V}
    if workload == "step-count":
        return {name: potential.build_w(inputs[name]["breakpoints"], inputs[name]["values"])
                for name in ("gap_pair", "twin_gap")}
    pairs = [potential.build_w(p["breakpoints"], p["values"]) for p in inputs["pairs"]]
    spec = potential_spec(inputs["pairs"][0]["breakpoints"], inputs["pairs"][0]["values"])
    return {"pairs": pairs, "spec": spec}


def operations(workload: str, inputs: dict, problems: dict, outdir: Path) -> list:
    """The pass as a list of (label, thunk); each thunk is one operation.

    Entry points are looked up on their modules at call time, so the
    traced run sees them.
    """
    if workload == "sech-well":
        V, R, tol = problems["V"], inputs["R"], inputs["tol"]
        return [(f"real_spectrum k={k!r}", lambda k=k: spectra.real_spectrum(V, k, R, tol=tol))
                for k in inputs["ks"]]

    k, tol = inputs["k"], inputs["tol"]
    if workload == "step-count":
        def count_compare(name):
            V, R = problems[name], inputs[name]["R"]
            sp = spectra.real_spectrum(V, k, R, tol=tol)
            pred = asymptotics.predict(V, k)
            return sp, pred, asymptotics.compare(sp, pred, R)

        t = inputs["trig"]
        step = min(math.pi, math.pi / t["beta"]) / 8.0
        return [
            ("count-compare gap_pair", lambda: count_compare("gap_pair")),
            ("count-compare twin_gap", lambda: count_compare("twin_gap")),
            ("brute_count", lambda: trigzeros.brute_count(
                trigzeros.TrigParams(t["alpha"], t["beta"]), t["R"], step)),
        ]

    ops = []
    for j, (V, p) in enumerate(zip(problems["pairs"], inputs["pairs"])):
        ops.append((f"complex_spectrum pair{j}",
                    lambda V=V, p=p: spectra.complex_spectrum(V, k, tuple(p["rect"]), tol=tol)))
        ops.append((f"real_spectrum pair{j}",
                    lambda V=V: spectra.real_spectrum(V, k, inputs["R"], tol=tol)))
    pp = inputs["phaseplot"]
    x0, x1, y0, y1 = pp["rect"]
    prefix = str(outdir / "phase")
    argv = ["phaseplot", "--potential", problems["spec"], "--k", repr(k),
            "--re-min", repr(x0), "--re-max", repr(x1), "--im-min", repr(y0),
            "--im-max", repr(y1), "--nx", str(pp["nx"]), "--ny", str(pp["ny"]),
            "--out-prefix", prefix]
    ops.append(("phaseplot", lambda: (cli.main(argv), prefix)))
    return ops
