"""The benchmark's layer tracer wraps library functions by the module
attribute their callers look up.  A name it cannot find is reported as an
absent layer, which the benchmark prints as null while still exiting 0,
so a rename or a dropped import fails here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load_tracing().LAYERS
    assert layers
    for layer, sites in layers.items():
        found = [(module, attribute) for module, attribute in sites
                 if callable(getattr(importlib.import_module(module),
                                     attribute, None))]
        assert found, f"{layer}: none of {sites} exists"
