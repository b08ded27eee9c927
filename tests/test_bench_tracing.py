"""The traced benchmark run wraps module attributes by name; a rename or
removal in the package would only surface there."""

import importlib.util
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
