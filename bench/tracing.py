"""Spans around the calls into each zeromodes module, recorded from the
benchmark's own files.

``Tracer.patched()`` replaces module attributes under the names that
callers look them up by (``spectra`` calls ``delta_v`` through its own
module globals, so ``zeromodes.spectra.delta_v`` is the name to wrap) and
restores them on exit.  A span is (name, start, end, parent, operation id,
work); work is the number of points for the vectorised kernels.  Spans
stay in memory until ``save``.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from zeromodes import asymptotics, cli, closedform, prufer, spectra, trigzeros

# (module, attribute, span name, work counter or None)
TARGETS = [
    (spectra, "real_spectrum", "spectra.real_spectrum", None),
    (spectra, "complex_spectrum", "spectra.complex_spectrum", None),
    (spectra, "phase_grid", "spectra.phase_grid", lambda a: a[3] * a[4]),
    (spectra, "delta_v", "prufer.delta_v", None),
    (spectra, "delta_grid", "prufer.delta_grid", lambda a: len(a[1])),
    (spectra, "determinant", "closedform.determinant", None),
    (spectra, "brentq", "spectra.brentq", None),
    (prufer, "solve_ivp", "prufer.solve_ivp", None),
    (prufer, "canonicalize", "potential.canonicalize", None),
    (closedform, "canonicalize", "potential.canonicalize", None),
    (asymptotics, "predict", "asymptotics.predict", None),
    (asymptotics, "compare", "asymptotics.compare", None),
    (trigzeros, "brute_count", "trigzeros.brute_count", None),
    (trigzeros, "f_value", "trigzeros.f_value", lambda a: np.size(a[1])),
    (trigzeros, "brentq", "trigzeros.brentq", None),
    (cli, "main", "cli.main", None),
]

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.op_id = -1

    def _wrap(self, name: str, fn, work):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.work.append(work(args) if work else 0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, work), (_, _, orig) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, orig, work))
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def arrays(self) -> dict:
        # copies: a live buffer view would block further appends
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "op", "start", "end", "work")}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, scale: dict, real_roots: int, complex_roots: int,
                  bytes_out: int) -> dict:
    """Per-layer metrics of the spans whose operation id is a key of scale.

    Self time is a span's duration minus that of its direct children.
    Times are converted to reference seconds with their operation's
    factor, scale[op].  A ratio whose base is 0 (no roots of that kind)
    reads 0.
    """
    a = tracer.arrays()
    keep = np.isin(a["op"], list(scale))
    factor = np.array([scale.get(op, 0.0) for op in range(int(a["op"].max(initial=0)) + 1)])
    dur = (a["end"] - a["start"]) * factor[np.maximum(a["op"], 0)]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(name):
        return keep & (a["name"] == ids.get(name, -1))

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def total_s(name):
        return float(dur[sel(name)].sum())

    def points(name):
        return int(a["work"][sel(name)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    det = sel("closedform.determinant")
    parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
    in_complex = parent_name == ids.get("spectra.complex_spectrum", -2)
    det_in_complex = int(np.count_nonzero(det & in_complex))
    return {
        "prufer.delta_v.calls": calls("prufer.delta_v"),
        "prufer.delta_v.self_s": self_s("prufer.delta_v"),
        "prufer.delta_grid.points": points("prufer.delta_grid"),
        "prufer.delta_grid.self_s": self_s("prufer.delta_grid"),
        "prufer.solve_ivp.calls": calls("prufer.solve_ivp"),
        "prufer.solve_ivp.self_s": self_s("prufer.solve_ivp"),
        "prufer.evals_per_root": ratio(calls("prufer.delta_v") + points("prufer.delta_grid"),
                                       real_roots),
        "spectra.real_spectrum.self_s": self_s("spectra.real_spectrum"),
        "spectra.scan_passes": ratio(calls("prufer.delta_grid"), calls("spectra.real_spectrum")),
        "spectra.brentq.calls": calls("spectra.brentq"),
        "spectra.complex_spectrum.self_s": self_s("spectra.complex_spectrum"),
        "spectra.phase_grid.self_s": self_s("spectra.phase_grid"),
        "spectra.phase_grid.cells_per_s": ratio(points("spectra.phase_grid"),
                                                total_s("spectra.phase_grid")),
        "closedform.determinant.calls": calls("closedform.determinant"),
        "closedform.determinant.self_s": self_s("closedform.determinant"),
        "closedform.determinant.us_per_call": 1e6 * ratio(total_s("closedform.determinant"),
                                                          calls("closedform.determinant")),
        "closedform.evals_per_complex_root": ratio(det_in_complex, complex_roots),
        "potential.canonicalize.calls": calls("potential.canonicalize"),
        "potential.canonicalize.self_s": self_s("potential.canonicalize"),
        "asymptotics.predict.self_s": self_s("asymptotics.predict"),
        "asymptotics.compare.self_s": self_s("asymptotics.compare"),
        "trigzeros.brute_count.self_s": self_s("trigzeros.brute_count"),
        "trigzeros.f_value.points": points("trigzeros.f_value"),
        "trigzeros.brentq.calls": calls("trigzeros.brentq"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_out": bytes_out,
    }
