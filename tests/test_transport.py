"""The native library and the transport solver's C loop: the library builds
where a compiler is installed and loads only from the package's own cache,
the C loop gives the bits of the Python reference, and the solver and the
ground cost fall back to their references when it cannot be built."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synvec import _native, corpus, embed_io, eval_extrinsic, sgns, transport
from synvec.transport import TransportSolverError, solve_transport

from test_eval_extrinsic import SOLVERS, lattice_problems, transport_instances
from test_native import rows, same_cost_bits

INPUTS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def same_bits(problem, **kwargs):
    flow, total = solve_transport(*problem, **kwargs)
    ref_flow, ref_total = transport._solve_reference(*problem, **kwargs)
    return flow.tobytes() == ref_flow.tobytes() and total.hex() == ref_total.hex()


@pytest.fixture
def reloaded(monkeypatch):
    """Forget the loaded library before and after the test, so that the
    test loads it under its own patches and later tests without them."""
    _native._library.cache_clear()
    yield monkeypatch
    _native._library.cache_clear()


def test_c_loop_loads_where_the_compiler_is():
    # A silent fallback would leave the C path untested.
    if shutil.which(_native._COMPILE[0]) is None:
        pytest.skip(f"{_native._COMPILE[0]} is not on PATH; the solver runs in Python")
    assert _native._library() is not None


def test_c_loop_loads_only_from_the_package_cache():
    cache = Path(_native.__file__).parent / "__pycache__"
    assert _native._CACHE == cache
    library = _native._library()
    if library is None:
        pytest.skip("the C loop did not build; the solver runs in Python")
    assert Path(library._name).parent == cache


@pytest.mark.parametrize("compile_command", [("synvec-no-such-compiler", "-O2"), ("false",)],
                         ids=["missing", "failing"])
def test_solver_falls_back_to_python_without_a_build(reloaded, tmp_path, compile_command):
    reloaded.setattr(_native, "_CACHE", tmp_path)
    reloaded.setattr(_native, "_COMPILE", compile_command)
    assert all(same_bits(problem) for problem in transport_instances(count=8))
    rng = np.random.default_rng(0)
    assert same_cost_bits(rows(rng, 7, 300), rows(rng, 60, 300))
    assert _native._library() is None
    assert list(tmp_path.iterdir()) == []  # no half-written library left


def test_solver_falls_back_to_python_when_the_cache_cannot_be_written(reloaded, tmp_path):
    (tmp_path / "file").write_text("")
    reloaded.setattr(_native, "_CACHE", tmp_path / "file" / "__pycache__")
    assert all(same_bits(problem) for problem in transport_instances(count=8))
    rng = np.random.default_rng(0)
    assert same_cost_bits(rows(rng, 7, 300), rows(rng, 60, 300))
    assert _native._library() is None


def test_a_new_build_removes_the_stale_libraries_only(reloaded, tmp_path):
    if shutil.which(_native._COMPILE[0]) is None:
        pytest.skip(f"{_native._COMPILE[0]} is not on PATH; the solver runs in Python")
    reloaded.setattr(_native, "_CACHE", tmp_path)
    others = ["notes.txt", "transport.cpython-311.pyc", "_native-building.tmp", "_simplex.c"]
    for name in others:
        (tmp_path / name).write_text("")
    (tmp_path / "_simplex-0123.so").write_text("")  # a library of an older version
    libraries = []
    for compile_command in (_native._COMPILE, (*_native._COMPILE, "-g")):
        reloaded.setattr(_native, "_COMPILE", compile_command)
        _native._library.cache_clear()
        libraries.append(Path(_native._library()._name).name)
    assert libraries[0] != libraries[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([libraries[1], *others])


def test_iteration_cap_is_taken_as_on_the_reference_path():
    # Two pivots from the start, so three passes (see test_solver_error_surfaces).
    problem = np.full(5, 0.2), np.full(5, 0.2), np.random.default_rng(40).random((5, 5))
    assert same_bits(problem, max_iterations=10**30)
    for solve in SOLVERS:
        with pytest.raises(TypeError):
            solve(*problem, max_iterations=2.0)
        with pytest.raises(TransportSolverError):
            solve(*problem, max_iterations=np.int64(2))


@st.composite
def random_cost_problems(draw, max_size=14):
    """m x n problems, 1 <= m, n <= max_size, with costs drawn from a few
    integers, from -1, -0.0, +0.0 and 1 (equal costs with other bits), or
    from [0, 10], and uniform or random masses. Square shapes
    with uniform masses empty a row and a column at once, so the start's
    positive cells fall apart and rows with no flow must be hung."""
    m = draw(st.integers(1, max_size))
    n = draw(st.one_of(st.just(m), st.integers(1, max_size)))
    entry = draw(st.sampled_from([st.integers(0, 2).map(float),
                                  st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(0.0, 10.0)]))
    cost = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):
        return np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost
    mass = st.floats(0.01, 1.0)
    supply = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    demand = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    return supply / supply.sum(), demand / demand.sum(), cost


@st.composite
def separable_cost_problems(draw, max_size=14):
    """m x n problems whose cost is row[i] + col[j], from values with
    negatives and both zeros: every plan costs the same, so the start is
    returned as it is, and its flows show the order the cells were
    visited in."""
    m, n = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    value = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.5])
    row = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    col = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    mass = st.floats(0.01, 1.0)
    supply = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    demand = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    return supply / supply.sum(), demand / demand.sum(), row[:, None] + col[None, :]


@settings(max_examples=300, deadline=None)
@given(problem=st.one_of(lattice_problems(max_size=14), random_cost_problems(),
                         separable_cost_problems()))
def test_c_loop_gives_the_reference_bits(problem):
    # Pins the C loop to the reference's float operations and tie rules:
    # the sort of the cells against numpy's stable argsort, pricing order,
    # first strict minimum, theta, the leaving cell, the start's min on a
    # tie and the column an orphan row hangs from.
    assert same_bits(problem)


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS_PATH)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_k_nearest_on_benchmark_inputs_matches_the_reference(seed, tmp_path, monkeypatch):
    # The wmd-knn workload's documents and model, 16 test documents: every
    # neighbour's distance and index must be the reference's, which the
    # workload's digest of predicted labels cannot show.
    paths = load_bench_inputs().write_wmd_inputs(tmp_path, seed, n_train=40, n_test=16)
    words, matrix = embed_io.read_text(paths["model"])
    vocab = corpus.Vocabulary(words=words, counts=np.ones(len(words), dtype=np.int64),
                              min_count=1)
    model = sgns.EmbeddingModel(input=matrix, output=np.zeros_like(matrix))
    split = eval_extrinsic.read_split_manifest(paths["split"])
    loaded = eval_extrinsic.load_classification_corpus(paths["docs"], vocab, split=split)

    def neighbours(prune=True):
        return [[(d.hex(), i) for d, i in eval_extrinsic._k_nearest(model, doc, loaded.train,
                                                                     10, prune)]
                for doc in loaded.test]

    native = neighbours()
    assert neighbours(prune=False) == native
    monkeypatch.setattr(eval_extrinsic, "solve_transport", transport._solve_reference)
    monkeypatch.setattr(eval_extrinsic, "_pairwise_cost", eval_extrinsic._pairwise_cost_reference)
    assert neighbours() == native
