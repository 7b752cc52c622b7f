"""The ground-cost kernel of the native library: it gives the bits of the
numpy reference for float64 rows of any length and layout, leaves float32
models on the numpy path, and every C source ships with the package."""

import fnmatch
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synvec import _native, corpus, embed_io, eval_extrinsic, sgns
from synvec.eval_extrinsic import _pairwise_cost, _pairwise_cost_reference
from synvec.transport import solve_transport

ROOT = Path(__file__).resolve().parent.parent


def require_kernel():
    if _native._library() is None:
        pytest.skip("the native library did not build; the ground cost runs in numpy")


def same_cost_bits(a, b):
    return _pairwise_cost(a, b).tobytes() == _pairwise_cost_reference(a, b).tobytes()


def rows(rng, count, d):
    """Normal rows, each scaled by its own magnitude from 1e-3 to 1e3."""
    return rng.normal(size=(count, d)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))


@st.composite
def row_blocks(draw):
    """a (m x d) and b (n x d) with 1 <= m, n <= 70 and 1 <= d <= 1100,
    which crosses numpy's pairwise split four levels deep; the first rows
    of b repeat rows of a, so their cells are exactly 0."""
    d = draw(st.one_of(st.integers(1, 140), st.integers(1, 1100)))
    m, n = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rows(rng, m, d), rows(rng, n, d)
    repeats = draw(st.integers(0, min(m, n)))
    b[:repeats] = a[rng.permutation(m)[:repeats]]
    return a, b


@settings(max_examples=150, deadline=None)
@given(blocks=row_blocks())
def test_kernel_gives_the_reference_bits(blocks):
    require_kernel()
    # Pins the kernel to numpy's pairwise-sum order; adding the terms in
    # any other order changes the last bits of some cells.
    a, b = blocks
    assert same_cost_bits(a, b)
    assert (_pairwise_cost(a, a).diagonal() == 0.0).all()


def test_kernel_gives_the_reference_bits_at_every_split():
    require_kernel()
    rng = np.random.default_rng(5)
    lengths = [*range(1, 300), 511, 512, 513, 1023, 1024, 1025, 1100]
    assert [d for d in lengths if not same_cost_bits(rows(rng, 3, d), rows(rng, 5, d))] == []


def test_kernel_reads_non_contiguous_inputs():
    require_kernel()
    rng = np.random.default_rng(6)
    big = rows(rng, 40, 620)
    views = [
        (big[::3, :300], big[1::2, 300:600]),  # strided rows, strided columns
        (np.asfortranarray(big[:9, :301]), np.asfortranarray(big[10:, :301])),
        (rows(rng, 129, 12).T, rows(rng, 129, 30).T),  # transposed views
        (big[:5, ::2], big[7:30, 1::2]),  # every other column
    ]
    for a, b in views:
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        expected = _pairwise_cost_reference(a, b)
        assert _pairwise_cost(a, b).tobytes() == expected.tobytes()
        assert _pairwise_cost(np.ascontiguousarray(a), b).tobytes() == expected.tobytes()


def test_float32_model_keeps_the_numpy_path(tmp_path):
    # A model read from word2vec binary is float32, and its ground cost is
    # computed in float32, as before the kernel: the same cost and wmd bits.
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    embed_io.write_binary(tmp_path / "model.bin", words, rng.normal(size=(30, 50)))
    read_words, matrix = embed_io.read_binary(tmp_path / "model.bin")
    assert matrix.dtype == np.float32
    vocab = corpus.Vocabulary(words=read_words, counts=np.ones(30, dtype=np.int64), min_count=1)
    model = sgns.EmbeddingModel(input=matrix, output=np.zeros_like(matrix))
    d1 = eval_extrinsic.nbow(words[:12] + words[:3], vocab)
    d2 = eval_extrinsic.nbow(words[8:25], vocab)

    expected = _pairwise_cost_reference(matrix[d1.ids], matrix[d2.ids])
    cost = eval_extrinsic._cost_matrix(model, d1, d2)
    assert cost.tobytes() == expected.tobytes()
    wide = _pairwise_cost_reference(*(matrix[d.ids].astype(np.float64) for d in (d1, d2)))
    assert cost.tobytes() != wide.tobytes()  # the float32 arithmetic, not a float64 copy's
    distance, flow = eval_extrinsic.wmd(model, d1, d2)
    expected_flow, expected_distance = solve_transport(d1.weights, d2.weights, expected)
    assert distance.hex() == expected_distance.hex()
    assert flow.tobytes() == expected_flow.tobytes()


def test_every_c_source_ships_with_the_package():
    # An installed package without a source would silently run numpy.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["synvec"]
    sources = sorted(p.name for p in (ROOT / "src" / "synvec").glob("*.c"))
    assert sources
    assert [s for s in sources if not any(fnmatch.fnmatch(s, p) for p in patterns)] == []
