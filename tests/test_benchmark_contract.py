"""The benchmark's tracer patches program functions by name; every name it
looks up must still exist, or traced benchmark runs fail."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up by name
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in load_tracer().TRACED])
def test_traced_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"synvec.{module}"), attr))


def test_layer_metrics_names_exist():
    from synvec import augment

    assert augment.RATIO_SWEEP
    assert callable(augment.max_ratio)
