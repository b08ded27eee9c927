"""The traced benchmark run wraps module attributes by name; a rename or
removal in the package would only surface there."""

import importlib.util
import math
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    for mod, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} ({name})"
    # patching wraps every target and restores the originals on exit
    before = [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    with tracing.Tracer().patched():
        assert all(getattr(mod, attr) is not orig
                   for (mod, attr, _, _), orig in zip(tracing.TARGETS, before))
    assert [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS] == before


def test_brute_count_work_is_its_nodes():
    from zeromodes import trigzeros

    tracing = load_tracing()
    tracer = tracing.Tracer()
    R, step = 100.0, math.pi / 12  # no cell of this count is halved
    with tracer.patched():
        trigzeros.brute_count(trigzeros.TrigParams(0.5, 1.5), R, step)
    spans = tracer.arrays()
    work = int(spans["work"][spans["name"] == tracer.names.index("trigzeros.f_value")].sum())
    assert work == math.ceil(R / step) + 1 > 0
