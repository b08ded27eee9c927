"""zeromodes benchmark: time to solution at a checked accuracy.

    python3 bench/run.py --workload sech-well --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src``.  One invocation measures one workload in its own process (``all``
runs each in a child).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.  See README.md.
"""

import os

# one BLAS thread, fixed before numpy loads; probes inherit the environment
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# A shared host's speed swings with the load of its other tenants: the
# same pass has taken 1.7x longer when it was busy.  So every timed
# interval is converted to reference seconds, scaled by REF_CLOCK_S /
# (mean of clock_s() just before and just after it).  clock_s() takes
# about REF_CLOCK_S on a quiet 2-vCPU Xeon (Sapphire Rapids, KVM) with
# Python 3.11.
CLOCK_LOOP = 300_000
REF_CLOCK_S = 0.020
WORKLOADS = ("sech-well", "step-count", "complex-plane")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure timed passes until this much pass time has accrued")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def clock_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CLOCK_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def to_ref(raw: float, before: float, after: float) -> float:
    """Raw seconds in reference seconds, given the clock around them."""
    return raw * REF_CLOCK_S / (0.5 * (before + after))


def measure_setup(workload: str, inputs: dict) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh interpreters that import and build,
    in raw and in reference seconds."""
    raw, ref = [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, json.dumps(inputs)]
    for _ in range(SETUP_PROBES):
        before = clock_s()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            raw.append(time.perf_counter() - t0)
            rc = proc.wait(timeout=60)
        ref.append(to_ref(raw[-1], before, clock_s()))
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
    return raw, ref


def run_pass(ops, tracer=None, first_op=0):
    """Run every operation once.  Returns (outputs, raw seconds per
    operation, reference seconds per operation); None is the output of an
    operation that raised."""
    outputs, raw, ref = [], [], []
    clock = clock_s()
    for j, (label, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op + j
        t0 = time.perf_counter()
        try:
            outputs.append(thunk())
        except Exception:  # a failed operation is counted, not fatal
            print(f"operation {label!r} raised:", file=sys.stderr)
            traceback.print_exc()
            outputs.append(None)
        raw.append(time.perf_counter() - t0)
        after = clock_s()
        ref.append(to_ref(raw[-1], clock, after))
        clock = after
    return outputs, raw, ref


def root_counts(outputs) -> tuple[int, int]:
    """(real, complex) roots located by the spectra among the outputs."""
    from zeromodes.spectra import GammaSpectrum

    real = cplx = 0
    for out in outputs:
        sp = out[0] if isinstance(out, tuple) else out
        if isinstance(sp, GammaSpectrum):
            n_real = sum(1 for r in sp.roots if r.value.imag == 0.0)
            real += n_real
            cplx += len(sp.roots) - n_real
    return real, cplx


def bytes_out(outputs) -> int:
    """Bytes of the files the CLI operation wrote."""
    return sum(os.path.getsize(out[1] + suffix) for out in outputs
               if isinstance(out, tuple) and isinstance(out[1], str) for suffix in (".ppm", ".csv"))


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "zeromodes").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "src_lines": src_lines,
    }


def accuracy_digits(errors) -> float:
    """-log10 of the largest error; 16 below double precision, 0 if unknown."""
    worst = max(errors, default=math.inf)
    return -math.log10(max(worst, 1e-16)) if math.isfinite(worst) else 0.0


def run_workload(args) -> int:
    import oracles
    import tracing
    import workloads

    # One vCPU for the whole run, set-up probes included: the two vCPUs of
    # the host change speed independently, and clock_s must see the one
    # the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    name, seed = args.workload, args.seed
    inputs = workloads.make_inputs(name, seed)
    setup_raw, setup_ref = ([], []) if args.trace else measure_setup(name, inputs)
    problems = workloads.build(name, inputs)
    outdir = OUT / f"{name}-seed{seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.operations(name, inputs, problems, outdir)
    labels = [label for label, _ in ops]

    # Timed passes.  The first one's outputs are checked against the
    # oracles; every later pass must reproduce them exactly.
    checked = checked_fp = None
    later = []  # fingerprints of the passes after the first
    raw_pass, ref_pass, ref_ops, traced_pass, layers = [], [], [], [], []
    tracer = tracing.Tracer()
    measured = 0.0  # raw seconds of timed passes
    rounds = 2 if args.trace else 1  # overhead_frac needs more than one pair
    while len(ref_pass) < rounds or measured < args.seconds:
        outs, raw_s, ref_s = run_pass(ops)
        measured += sum(raw_s)
        raw_pass.append(sum(raw_s))
        ref_pass.append(sum(ref_s))
        ref_ops.append(ref_s)
        fps = [None if o is None else oracles.fingerprint(o) for o in outs]
        if checked is None:
            checked, checked_fp = outs, fps
        else:
            later.append(fps)
        if args.trace:
            first = len(traced_pass) * len(ops)
            with tracer.patched():
                outs, raw_s, ref_s = run_pass(ops, tracer, first)
            measured += sum(raw_s)
            traced_pass.append(sum(ref_s))
            later.append([None if o is None else oracles.fingerprint(o) for o in outs])
            real, cplx = root_counts(outs)
            scale = {first + j: r / t for j, (r, t) in enumerate(zip(ref_s, raw_s)) if t > 0}
            layers.append(tracing.layer_metrics(tracer, scale, real, cplx, bytes_out(outs)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = oracles.check_pass(name, inputs, problems, labels, checked, seed)
    ok = [c[0] for c in checks]
    failed = sum(not good for good in ok)
    for fps in later:
        failed += sum(fp is None or fp != want or not good
                      for fp, want, good in zip(fps, checked_fp, ok))
    attempted = len(ops) * (1 + len(later))

    if args.trace:
        metrics = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_pass)
                                          / statistics.median(ref_pass) - 1)
        tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
    else:
        metrics = {
            "wall_s": statistics.median(ref_pass),
            "accuracy_digits": accuracy_digits([c[1] for c in checks if c[1] is not None]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_ref),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    metrics = {m: metrics[m] for m in units}

    for label, (good, err, note) in zip(labels, checks):
        shown = "-" if err is None else f"{err:.3e}"
        verdict = "ok" if good else "FAILED"
        print(f"{name:13s} check {label:28s} {verdict:6s} error {shown:>10s}  {note}")
    for m, v in metrics.items():
        print(f"{name:13s} {m:36s} {v:>14.6g} {units[m]}")
    print(f"{name:13s} {'failed_frac':36s} {failed / attempted:>14.6g} frac"
          f"  ({failed} of {attempted} operations)")
    print(f"{name:13s} {'wall_s samples':36s} {len(ref_pass):>14d} passes")
    print(f"{name:13s} {'raw wall_s (not scaled)':36s} {statistics.median(raw_pass):>14.6g} s")
    if setup_raw:
        raw_setup = statistics.median(setup_raw)
        print(f"{name:13s} {'raw setup_s (not scaled)':36s} {raw_setup:>14.6g} s")
    info = {"workload": name, "seed": seed, "inputs": inputs,
            "raw_pass_s": raw_pass, "ref_pass_s": ref_pass, "traced_ref_pass_s": traced_pass,
            "operation_ref_s": [statistics.median(c) for c in zip(*ref_ops)],
            "setup_raw_s": setup_raw, "setup_ref_s": setup_ref, **environment()}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line maps name -> result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("info ")))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zeromodes" / "__init__.py").is_file():
        print(f"error: no zeromodes package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
