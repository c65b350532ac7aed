"""The names perfbench/tracing.py patches stay bound where it patches them.

The tracer replaces functions in the namespace of the module (or class)
that looks them up, so a module that stops importing one of them breaks
the benchmark's per-layer trace; this guard runs without the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load_tracing()
    targets = list(tracing._targets(tracing.Tracer()))
    assert targets
    for owner, attr, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
