"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads sech-well step-count --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), one after another, and prints
each metric's median and its quartile spread: (Q3 - Q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``.  ``--json PATH``
also writes the medians, the raw values and the environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "cpus", "blas_pin", "src_lines")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--json", help="write medians and raw values here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report, env = {}, {}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   check=True).stdout.splitlines()
            run_s = time.perf_counter() - t0
            result = json.loads(lines[-1])
            info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
            env = {key: info[key] for key in ENV_KEYS}
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
                return 1
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            values.setdefault("raw wall_s", []).append(statistics.median(info["raw_pass_s"]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
                + f"  (run took {run_s:.1f} s)", flush=True)
        report[name] = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[name][m] = {"median": med, "spread": spread, "values": vals}
            if m in bounds:
                flag = "" if spread < bounds[m] / 3 else "  (above a third of the bound)"
                flag = f"  bound {bounds[m]:.0%}{flag}"
            else:
                flag = "  (not scaled, not gated)"
            print(f"{name:13s} {m:16s} median {med:12.6g}  spread {spread:7.2%}{flag}")
    if args.json:
        payload = {"seeds": args.seeds, "seconds": args.seconds, "environment": env,
                   "workloads": report}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
