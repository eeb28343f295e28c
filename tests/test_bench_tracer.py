"""The benchmark's tracer must still find every package name it patches.

``bench/spans.py`` wraps functions of the package by name; a change that
deletes or renames one of them would otherwise show only when the benchmark
runs with tracing on.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    spans = load_spans()
    modules = [import_module(f"bcsfield.{name}") for name in spans.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        patched_names = {(m.__name__, attr) for m, attr, _ in patched}
        for home, fn_name, _ in spans.WRAPPED:
            assert (f"bcsfield.{home}", fn_name) in patched_names
    finally:
        tracer.remove()
    for module, saved in zip(modules, before):
        for attr, value in saved.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr}"
