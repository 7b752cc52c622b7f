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


def test_knn_layer_counts_reach_the_traced_names(monkeypatch):
    # The tracer counts wcd, rwmd, wmd and solver calls by wrapping these
    # module attributes; KNN must keep calling through them, once per
    # candidate bound and once per exact solve.
    import numpy as np

    from synvec import eval_extrinsic
    from synvec.sgns import EmbeddingModel

    calls = {"wcd": 0}
    for name in ("wcd", "rwmd", "wmd", "solve_transport"):
        def counted(*args, _fn=getattr(eval_extrinsic, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(eval_extrinsic, name, counted)

    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(40, 6))
    model = EmbeddingModel(input=matrix, output=np.zeros_like(matrix))

    def doc(label):
        ids = np.sort(rng.choice(40, int(rng.integers(1, 8)), replace=False))
        weights = rng.random(len(ids)) + 0.1
        return eval_extrinsic.NBowDocument(ids=ids, weights=weights / weights.sum(), label=label)

    train = [doc(f"c{i % 3}") for i in range(24)]
    test = [doc(None) for _ in range(4)]
    eval_extrinsic.knn_classify(model, test, train, k=3, prune=True)
    candidates = len(test) * len(train)
    assert calls["wcd"] == 0
    assert calls["rwmd"] == candidates
    assert 0 < calls["wmd"] == calls["solve_transport"] < candidates
