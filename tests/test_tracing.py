"""The benchmark's traced run wraps package functions by name; each must exist."""

import importlib
import importlib.util
from operator import attrgetter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module_name, attr, span in tracing.LAYERS:
        module = importlib.import_module(f"wienerbound.{module_name}")
        assert callable(attrgetter(attr)(module)), span
