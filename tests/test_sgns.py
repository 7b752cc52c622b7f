import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from synvec import sgns
from synvec.corpus import build_vocabulary
from synvec.embed_io import write_binary, write_text
from synvec.errors import ParseError
from synvec.eval_intrinsic import cosine_distance
from synvec.pairgen import PairDataset, generate_pairs
from synvec.seeds import derive_seed, derived_rng
from synvec.sgns import (
    EmbeddingModel,
    TrainConfig,
    TrainingError,
    draw_negatives,
    init_pretrained,
    init_random,
    noise_distribution,
    pair_gradients,
    pair_loss,
    train,
    train_step,
)

from test_lexicon import make_vocab


def random_model(vocab_size, dim, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(
        input=rng.uniform(-scale, scale, (vocab_size, dim)),
        output=rng.uniform(-scale, scale, (vocab_size, dim)),
    )


class TestInitRandom:
    def test_input_within_support(self):
        model = init_random(40, 8, seed=0)
        assert np.abs(model.input).max() <= 0.5 / 8

    def test_output_all_zero(self):
        model = init_random(40, 8, seed=0)
        assert not model.output.any()

    def test_same_seed_bitwise_equal(self):
        a = init_random(25, 16, seed=123)
        b = init_random(25, 16, seed=123)
        assert np.array_equal(a.input, b.input)
        assert np.array_equal(a.output, b.output)

    def test_different_seeds_differ(self):
        a = init_random(25, 16, seed=1)
        b = init_random(25, 16, seed=2)
        assert not np.array_equal(a.input, b.input)


class TestInitPretrained:
    CONFIG = TrainConfig(dim=4, seed=0)

    @pytest.fixture
    def setup(self, tmp_path):
        vocab = make_vocab({"king": 9, "queen": 7, "pawn": 3})
        rng = np.random.default_rng(5)
        file_words = ["queen", "king", "bishop"]
        file_matrix = rng.normal(size=(3, 4))
        path = tmp_path / "pre.txt"
        write_text(path, file_words, file_matrix)
        return vocab, file_words, file_matrix, path

    def test_found_rows_copied_exactly(self, setup):
        vocab, file_words, file_matrix, path = setup
        model, coverage = init_pretrained(vocab, path, self.CONFIG)
        assert np.array_equal(model.input[vocab.id("king")], file_matrix[1])
        assert np.array_equal(model.input[vocab.id("queen")], file_matrix[0])

    def test_missing_word_falls_back_to_uniform_support(self, setup):
        vocab, _, _, path = setup
        model, _ = init_pretrained(vocab, path, self.CONFIG)
        assert np.abs(model.input[vocab.id("pawn")]).max() <= 0.5 / 4

    def test_missing_rows_are_init_randoms(self, setup):
        """The start draws from the stream `train` gives `init_random`."""
        vocab, _, _, path = setup
        config = TrainConfig(dim=4, seed=derive_seed(13, "sgns"))
        model, _ = init_pretrained(vocab, path, config)
        random = init_random(len(vocab), 4, derive_seed(config.seed, "sgns.init"))
        pawn = vocab.id("pawn")
        assert np.array_equal(model.input[pawn], random.input[pawn])

    def test_output_randomized_not_zero(self, setup):
        vocab, _, _, path = setup
        model, _ = init_pretrained(vocab, path, self.CONFIG)
        assert model.output.any()
        assert np.abs(model.output).max() <= 0.5 / 4

    def test_coverage_fraction(self, setup):
        vocab, _, _, path = setup
        _, coverage = init_pretrained(vocab, path, self.CONFIG)
        assert coverage == pytest.approx(2 / 3)

    def test_dimension_mismatch_rejected(self, setup):
        vocab, _, _, path = setup
        with pytest.raises(ValueError, match="dim"):
            init_pretrained(vocab, path, TrainConfig(dim=7, seed=0))

    def test_repeated_binary_word_refused(self, setup, tmp_path):
        """The last copy of a word must not silently win its row."""
        path = tmp_path / "dup.bin"
        write_binary(path, ["king", "queen", "king"], np.ones((3, 4), dtype="<f4"))
        with pytest.raises(ParseError,
                           match=r"dup.bin:3: duplicate word 'king' \(first on line 1\)"):
            init_pretrained(setup[0], path, self.CONFIG)

    def test_unreadable_file(self, setup, tmp_path):
        vocab = setup[0]
        with pytest.raises(OSError):
            init_pretrained(vocab, tmp_path / "missing.txt", self.CONFIG)


class TestNoiseDistribution:
    def test_hand_computed_three_quarters_exponent(self):
        vocab = make_vocab({"a": 2, "b": 1})
        noise = noise_distribution(vocab, alpha=0.75)
        # independent normalization: 2^0.75 / (2^0.75 + 1)
        expected_a = 2 ** 0.75 / (2 ** 0.75 + 1 ** 0.75)
        assert noise.probabilities[vocab.id("a")] == pytest.approx(expected_a, abs=1e-12)
        assert noise.probabilities[vocab.id("a")] == pytest.approx(0.6271, abs=1e-4)
        assert noise.probabilities[vocab.id("b")] == pytest.approx(0.3729, abs=1e-4)

    def test_zero_exponent_is_uniform(self):
        vocab = make_vocab({"a": 50, "b": 1, "c": 7})
        noise = noise_distribution(vocab, alpha=0.0)
        assert np.allclose(noise.probabilities, 1 / 3)

    def test_unit_exponent_is_count_proportional(self):
        vocab = make_vocab({"a": 3, "b": 1})
        noise = noise_distribution(vocab, alpha=1.0)
        assert noise.probabilities[vocab.id("a")] == pytest.approx(0.75)

    @pytest.mark.parametrize("alpha", [1000.0, np.inf, np.nan])
    def test_exponent_without_a_distribution_is_refused(self, alpha):
        """Counts raised to the exponent overflow or turn NaN: refused by name,
        before numpy can warn."""
        vocab = make_vocab({"a": 3, "b": 1})
        with pytest.raises(ValueError, match=f"noise exponent {alpha} leaves no distribution"):
            noise_distribution(vocab, alpha=alpha)

    def test_large_negative_exponent_keeps_the_rarest_words(self):
        vocab = make_vocab({"a": 3, "b": 1, "c": 1})
        noise = noise_distribution(vocab, alpha=-1000.0)
        assert noise.probabilities[[vocab.id(w) for w in "abc"]].tolist() == [0.0, 0.5, 0.5]

    def test_sums_to_one(self):
        vocab = make_vocab({f"w{i}": i + 1 for i in range(60)})
        noise = noise_distribution(vocab)
        assert abs(noise.probabilities.sum() - 1.0) < 1e-12

    def test_sampling_marginal_chi_square(self):
        vocab = make_vocab({"a": 40, "b": 10, "c": 5, "d": 1})
        noise = noise_distribution(vocab, alpha=0.75)
        rng = np.random.default_rng(21)
        draws = noise.sample(rng, 100_000)
        observed = np.bincount(draws, minlength=4)
        assert stats.chisquare(observed, noise.probabilities * len(draws)).pvalue > 0.01


class TestPairLoss:
    def test_zero_model_loss_is_k_plus_one_log_two(self):
        model = EmbeddingModel(np.zeros((8, 5)), np.zeros((8, 5)))
        for k in (1, 2, 5):
            assert pair_loss(model, 0, 1, list(range(2, 2 + k))) == pytest.approx(
                (1 + k) * math.log(2), abs=1e-12
            )

    def test_saturated_model_loss_near_zero(self):
        model = EmbeddingModel(np.zeros((4, 3)), np.zeros((4, 3)))
        model.input[0] = [40.0, 0, 0]
        model.output[1] = [1.0, 0, 0]   # strongly positive with focus
        model.output[2] = [-1.0, 0, 0]  # strongly negative
        model.output[3] = [-1.0, 0, 0]
        assert pair_loss(model, 0, 1, [2, 3]) < 1e-12

    def test_matches_independent_formula(self):
        model = random_model(8, 4, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(30):
            f, c = rng.integers(0, 8, 2)
            negs = rng.integers(0, 8, 2)
            v = model.input[f]

            def sigma(x):
                return 1.0 / (1.0 + math.exp(-x))

            expected = -math.log(sigma(model.output[c] @ v))
            expected -= sum(math.log(sigma(-(model.output[n] @ v))) for n in negs)
            assert pair_loss(model, f, c, negs) == pytest.approx(expected, abs=1e-12)

    def test_loss_non_negative(self):
        model = random_model(10, 6, seed=9, scale=2.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            f, c = rng.integers(0, 10, 2)
            negs = rng.integers(0, 10, 5)
            assert pair_loss(model, f, c, negs) >= 0.0


class TestGradients:
    def test_analytic_matches_central_finite_differences(self):
        # 5-word, 4-dimensional model; perturb every touched parameter.
        model = random_model(5, 4, seed=17)
        focus, context = 0, 1
        negatives = [2, 3, 3]  # includes a repeated negative
        g_foc, g_ctx, g_neg = pair_gradients(model, focus, context, negatives)
        h = 1e-5

        def numeric(array, row, col):
            saved = array[row, col]
            array[row, col] = saved + h
            up = pair_loss(model, focus, context, negatives)
            array[row, col] = saved - h
            down = pair_loss(model, focus, context, negatives)
            array[row, col] = saved
            return (up - down) / (2 * h)

        worst = 0.0
        for col in range(4):
            analytic = g_foc[col]
            approx = numeric(model.input, focus, col)
            worst = max(worst, abs(analytic - approx) / max(abs(approx), 1e-8))
            analytic = g_ctx[col]
            approx = numeric(model.output, context, col)
            worst = max(worst, abs(analytic - approx) / max(abs(approx), 1e-8))
        # repeated negatives accumulate: compare summed analytic rows
        for neg in set(negatives):
            summed = g_neg[[i for i, n in enumerate(negatives) if n == neg]].sum(axis=0)
            for col in range(4):
                approx = numeric(model.output, neg, col)
                worst = max(worst, abs(summed[col] - approx) / max(abs(approx), 1e-8))
        assert worst < 1e-5

    def test_zero_output_context_gradient_is_minus_half_focus(self):
        model = init_random(6, 4, seed=2)
        g_foc, g_ctx, g_neg = pair_gradients(model, 0, 1, [2, 3])
        assert np.allclose(g_ctx, -0.5 * model.input[0], atol=1e-15)
        # negatives also sit at sigma(0) = 0.5
        assert np.allclose(g_neg, 0.5 * model.input[0], atol=1e-15)


class TestDrawNegatives:
    def test_never_equals_context(self):
        vocab = make_vocab({"a": 30, "b": 20, "c": 10, "d": 1})
        noise = noise_distribution(vocab)
        rng = np.random.default_rng(6)
        ctx = np.zeros(2000, dtype=np.int64)  # the most probable word
        negs = draw_negatives(ctx, 5, noise, rng)
        assert (negs != 0).all()

    def test_marginal_matches_conditional_noise(self):
        vocab = make_vocab({"a": 40, "b": 10, "c": 5, "d": 1})
        noise = noise_distribution(vocab, alpha=0.75)
        rng = np.random.default_rng(13)
        ctx = np.full(20_000, 1, dtype=np.int64)
        negs = draw_negatives(ctx, 5, noise, rng).ravel()
        observed = np.bincount(negs, minlength=4)
        conditional = noise.probabilities.copy()
        conditional[1] = 0.0
        conditional /= conditional.sum()
        expected = conditional * len(negs)
        keep = expected > 0
        assert stats.chisquare(observed[keep], expected[keep]).pvalue > 0.01


class TestTrainStep:
    def make_setup(self, seed=0):
        vocab = make_vocab({f"w{i}": 10 - i for i in range(8)})
        noise = noise_distribution(vocab)
        config = TrainConfig(dim=4, negatives=2, epochs=1, learning_rate=0.1,
                             batch_size=4, seed=seed)
        model = random_model(8, 4, seed=seed)
        return vocab, noise, config, model

    def test_untouched_rows_bitwise_unchanged(self):
        vocab, noise, config, model = self.make_setup()
        batch = PairDataset([0, 1], [2, 3], [1, 1], [False, False])
        negs = draw_negatives(batch.context, config.negatives, noise,
                              np.random.default_rng(99))
        before = model.copy()
        train_step(model, batch.focus, batch.context, noise, config,
                   np.random.default_rng(99))
        touched_in = set(batch.focus.tolist())
        touched_out = set(batch.context.tolist()) | set(negs.ravel().tolist())
        for row in range(8):
            if row not in touched_in:
                assert np.array_equal(model.input[row], before.input[row])
            if row not in touched_out:
                assert np.array_equal(model.output[row], before.output[row])

    def test_zero_init_context_update_direction(self):
        config = TrainConfig(dim=4, negatives=2, epochs=1, learning_rate=0.2,
                             batch_size=1, seed=0)
        vocab = make_vocab({f"w{i}": 5 for i in range(6)})
        noise = noise_distribution(vocab)
        model = init_random(6, 4, seed=8)
        v = model.input[0].copy()
        batch = PairDataset([0], [1], [1], [False])
        train_step(model, batch.focus, batch.context, noise, config,
                   np.random.default_rng(3))
        # gradient at zero output is (sigma(0) - 1) v = -0.5 v
        assert np.allclose(model.output[1], 0.2 * 0.5 * v, atol=1e-15)

    def test_returns_mean_loss(self):
        vocab, noise, config, model = self.make_setup()
        batch = PairDataset([0, 1, 2], [3, 4, 5], [1, 1, 1], [False] * 3)
        _, loss = train_step(model, batch.focus, batch.context, noise, config,
                             np.random.default_rng(1))
        assert np.isfinite(loss) and loss > 0

    def test_empty_batch_rejected(self):
        vocab, noise, config, model = self.make_setup()
        with pytest.raises(ValueError):
            batch = PairDataset.empty()
            train_step(model, batch.focus, batch.context, noise, config,
                       np.random.default_rng(0))


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


ROW_IDS = st.one_of(
    st.integers(1, 30).flatmap(lambda n: st.integers(0, 5).map(lambda r: [r] * n)),  # one row
    st.permutations(list(range(8))),                                                 # distinct
    st.lists(st.integers(0, 5), min_size=1, max_size=40),                            # mixed
)
FLOATS = st.floats(-1e16, 1e16, allow_nan=False, width=64)


def add_rounds_batch_by_batch(matrix, batches, updates):
    """Plan the rounds of every batch at once, then apply them batch by batch."""
    rows = np.concatenate(batches).astype(np.int64)
    starts = np.cumsum([0] + [len(b) for b in batches])
    rounds = sgns._plan_rounds(rows, starts)
    for i in range(len(batches)):
        sgns._add_rounds(matrix, rounds, i, updates[starts[i]:starts[i + 1]])


class TestScatterAdd:
    @given(st.lists(ROW_IDS, min_size=1, max_size=5).flatmap(lambda batches: st.tuples(
        st.just(batches),
        arrays(np.float64, (8, 3), elements=FLOATS),
        arrays(np.float64, (sum(map(len, batches)), 3), elements=FLOATS))))
    def test_equals_add_at_bit_for_bit(self, case):
        batches, matrix, updates = case
        expected = matrix.copy()
        starts = np.cumsum([0] + [len(b) for b in batches])
        for batch, lo, hi in zip(batches, starts, starts[1:]):
            np.add.at(expected, batch, updates[lo:hi])
        add_rounds_batch_by_batch(matrix, batches, updates)
        assert np.array_equal(bits(matrix), bits(expected))

    def test_additions_to_one_row_keep_their_order(self):
        # 1e16 + 1 rounds back to 1e16. In index order row 0 ends at 0.0 and
        # row 1 at 1.0; row 0 with its last two additions swapped, or row 1
        # in reverse, ends at the other value.
        rows = np.array([0, 1, 0, 1, 0, 1])
        updates = np.array([[1e16], [1e16], [1.0], [-1e16], [-1e16], [1.0]])
        matrix, expected = np.zeros((2, 1)), np.zeros((2, 1))
        add_rounds_batch_by_batch(matrix, [rows], updates)
        np.add.at(expected, rows, updates)
        assert np.array_equal(bits(matrix), bits(expected))
        assert matrix[:, 0].tolist() == [0.0, 1.0]


def test_epoch_matches_add_at_reference(monkeypatch):
    """A whole epoch over 6 words, so every batch repeats rows, against a
    step that applies the same gradients with np.add.at: input in batch
    order, output context first and then negatives pair-major."""
    vocab = make_vocab({f"w{i}": 12 - 2 * i for i in range(6)})
    rng = np.random.default_rng(5)
    n = 203
    dataset = PairDataset(rng.integers(0, 6, n), rng.integers(0, 6, n), np.ones(n), [False] * n)
    config = TrainConfig(dim=8, negatives=5, epochs=1, learning_rate=0.3, batch_size=10, seed=9)

    reference = init_random(len(vocab), config.dim, derive_seed(config.seed, "sgns.init"))
    noise = noise_distribution(vocab, config.noise_exponent)
    order = derived_rng(config.seed, "sgns.shuffle", 0).permutation(n)
    neg_rng = derived_rng(config.seed, "sgns.negatives", 0)
    focus, context = dataset.focus[order], dataset.context[order]
    expected_losses = []
    for start in range(0, n, config.batch_size):
        end = start + config.batch_size
        foc, ctx = focus[start:end], context[start:end]
        negs = draw_negatives(ctx, config.negatives, noise, neg_rng)
        expected_losses.append(reference_step(reference, foc, ctx, negs, config.learning_rate))
    assert max(np.bincount(focus[:10])) > 1  # rows do repeat within a batch

    step_losses = []

    def recording_kernel(*args):
        loss = kernel(*args)
        step_losses.append(loss)
        return loss

    kernel = sgns._kernel
    monkeypatch.setattr(sgns, "_kernel", recording_kernel)
    model, _ = train(dataset, vocab, config)
    assert np.array_equal(bits(model.input), bits(reference.input))
    assert np.array_equal(bits(model.output), bits(reference.output))
    assert np.array_equal(bits(np.array(step_losses)), bits(np.array(expected_losses)))


def reference_step(model, foc, ctx, negs, lr):
    """One SGD step written out plainly: every gradient at the current
    parameters, applied with np.add.at, input in batch order, output context
    first and then negatives pair-major. Returns the batch mean loss."""
    v, uc, un = model.input[foc], model.output[ctx], model.output[negs]
    pos, neg = np.einsum("bd,bd->b", uc, v), np.einsum("bkd,bd->bk", un, v)
    losses = np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).sum(axis=1)
    s_pos, s_neg = 0.5 * (np.tanh(0.5 * pos) + 1.0), 0.5 * (np.tanh(0.5 * neg) + 1.0)
    g_in = (s_pos - 1.0)[:, None] * uc + np.einsum("bk,bkd->bd", s_neg, un)
    g_ctx = (s_pos - 1.0)[:, None] * v
    g_neg = s_neg[:, :, None] * v[:, None, :]
    np.add.at(model.input, foc, -lr * g_in)
    np.add.at(model.output, ctx, -lr * g_ctx)
    np.add.at(model.output, negs.reshape(-1), -lr * g_neg.reshape(-1, v.shape[1]))
    return float(losses.mean())


def test_epoch_over_several_plan_chunks_matches_reference():
    """Three plan chunks, the last one a single ragged batch, against the
    plain np.add.at step."""
    vocab = make_vocab({f"w{i}": 12 - i for i in range(7)})
    config = TrainConfig(dim=5, negatives=3, epochs=1, learning_rate=0.2, batch_size=2, seed=3)
    n = 2 * sgns.PLAN_BATCHES * config.batch_size + 1
    rng = np.random.default_rng(11)
    dataset = PairDataset(rng.integers(0, 7, n), rng.integers(0, 7, n), np.ones(n), [False] * n)

    reference = init_random(len(vocab), config.dim, derive_seed(config.seed, "sgns.init"))
    noise = noise_distribution(vocab, config.noise_exponent)
    order = derived_rng(config.seed, "sgns.shuffle", 0).permutation(n)
    neg_rng = derived_rng(config.seed, "sgns.negatives", 0)
    focus, context = dataset.focus[order], dataset.context[order]
    total = 0.0
    for start in range(0, n, config.batch_size):
        foc, ctx = focus[start:start + config.batch_size], context[start:start + config.batch_size]
        negs = draw_negatives(ctx, config.negatives, noise, neg_rng)
        total += reference_step(reference, foc, ctx, negs, config.learning_rate) * len(foc)

    model, losses = train(dataset, vocab, config)
    assert np.array_equal(bits(model.input), bits(reference.input))
    assert np.array_equal(bits(model.output), bits(reference.output))
    assert bits(np.array(losses)).tolist() == bits(np.array([total / n])).tolist()


def test_train_step_is_the_first_step_of_train(monkeypatch):
    vocab = make_vocab({f"w{i}": 9 - i for i in range(6)})
    config = TrainConfig(dim=6, negatives=4, epochs=1, learning_rate=0.3, batch_size=5, seed=2)
    rng = np.random.default_rng(4)
    dataset = PairDataset(rng.integers(0, 6, 17), rng.integers(0, 6, 17), np.ones(17), [False] * 17)
    initial = init_random(len(vocab), config.dim, seed=8)

    first = []

    def recording_kernel(model, *args):
        loss = kernel(model, *args)
        if not first:
            first.append((model.copy(), loss))
        return loss

    kernel = sgns._kernel
    monkeypatch.setattr(sgns, "_kernel", recording_kernel)
    train(dataset, vocab, config, initial=initial.copy())

    order = derived_rng(config.seed, "sgns.shuffle", 0).permutation(len(dataset))
    batch = order[:config.batch_size]
    model, loss = train_step(initial, dataset.focus[batch], dataset.context[batch],
                             noise_distribution(vocab, config.noise_exponent), config,
                             derived_rng(config.seed, "sgns.negatives", 0))
    assert np.array_equal(bits(model.input), bits(first[0][0].input))
    assert np.array_equal(bits(model.output), bits(first[0][0].output))
    assert bits(np.array([loss])).tolist() == bits(np.array([first[0][1]])).tolist()


def _add_at_calls(path: Path) -> list[str]:
    """`<anything>.add.at(...)` calls in one module."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at" and getattr(node.func.value, "attr", None) == "add"]


def test_training_has_one_scatter_path():
    sources = sorted(Path(sgns.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 10
    found = [hit for path in sources for hit in _add_at_calls(path)]
    assert found == [], "apply row updates with sgns._add_rounds: " + "; ".join(found)


def test_scatter_guard_sees_add_at(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text("np.add.at(m, rows, g)\nnumpy.add.at(m, rows, g)\nnp.add(m, g)\n"
                     "m.at(3)\n")
    assert [hit.split(":")[1] for hit in _add_at_calls(rogue)] == ["1", "2"]


def small_corpus(n_sentences=40, vocab_size=12, length=6, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    sentences = [
        [words[rng.integers(vocab_size)] for _ in range(length)] for _ in range(n_sentences)
    ]
    vocab = build_vocabulary(sentences, min_count=1)
    encoded = [[vocab.id(t) for t in s] for s in sentences]
    return vocab, generate_pairs(encoded, 3, seed=seed)


class TestTrain:
    def test_zero_learning_rate_keeps_init_bitwise(self):
        vocab, dataset = small_corpus()
        config = TrainConfig(dim=6, negatives=3, epochs=2, learning_rate=0.0,
                             batch_size=10, seed=4)
        reference = init_random(len(vocab), config.dim, seed=99)
        model, losses = train(dataset, vocab, config, initial=reference.copy())
        assert np.array_equal(model.input, reference.input)
        assert np.array_equal(model.output, reference.output)
        assert len(losses) == 2

    def test_bitwise_deterministic(self):
        vocab, dataset = small_corpus()
        config = TrainConfig(dim=6, negatives=3, epochs=3, learning_rate=0.05,
                             batch_size=10, seed=11)
        m1, l1 = train(dataset, vocab, config)
        m2, l2 = train(dataset, vocab, config)
        assert np.array_equal(m1.input, m2.input)
        assert np.array_equal(m1.output, m2.output)
        assert l1 == l2

    def test_seed_changes_model(self):
        vocab, dataset = small_corpus()
        a, _ = train(dataset, vocab, TrainConfig(dim=6, epochs=1, seed=1, batch_size=10))
        b, _ = train(dataset, vocab, TrainConfig(dim=6, epochs=1, seed=2, batch_size=10))
        assert not np.array_equal(a.input, b.input)

    def test_loss_converges_on_natural_corpus(self):
        vocab, dataset = small_corpus(n_sentences=80, vocab_size=15, seed=3)
        config = TrainConfig(dim=16, negatives=5, epochs=10, learning_rate=0.01,
                             batch_size=10, seed=7)
        _, losses = train(dataset, vocab, config)
        assert len(losses) == 10
        for i in range(3, 9):  # non-increasing after epoch 3, 1% slack
            assert losses[i + 1] <= losses[i] * 1.01

    def test_empty_dataset_rejected(self):
        vocab, _ = small_corpus()
        with pytest.raises(ValueError):
            train(PairDataset.empty(), vocab, TrainConfig(dim=4, batch_size=5))

    @pytest.mark.parametrize("column", ["focus", "context"])
    def test_ids_outside_the_vocabulary_rejected(self, column):
        """A negative id would train another word's row, one past the end raise IndexError."""
        vocab, dataset = small_corpus()
        for bad in (-3, len(vocab)):
            getattr(dataset, column)[len(dataset) // 2] = bad
            with pytest.raises(ValueError, match=f"word id {bad} is outside the vocabulary "
                                                 f"of {len(vocab)} words"):
                train(dataset, vocab, TrainConfig(dim=4, epochs=1, batch_size=5))

    def test_divergence_reports_epoch_and_batch(self):
        vocab, dataset = small_corpus()
        config = TrainConfig(dim=6, negatives=3, epochs=5, learning_rate=1e90,
                             batch_size=10, seed=1)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
                train(dataset, vocab, config)

    def test_divergence_names_its_batch_in_a_later_plan_chunk(self):
        vocab = make_vocab({f"w{i}": 5 for i in range(4)})
        config = TrainConfig(dim=3, negatives=2, epochs=1, batch_size=1, seed=6)
        n = sgns.PLAN_BATCHES + 500
        order = derived_rng(config.seed, "sgns.shuffle", 0).permutation(n)
        focus = np.zeros(n, dtype=np.int64)
        focus[order[1300]] = 1  # the only pair whose focus row is NaN, in batch 1300
        initial = init_random(4, config.dim, seed=0)
        initial.input[1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match=r"epoch 0, batch 1300$"):
                train(PairDataset(focus, np.full(n, 2), np.ones(n), [False] * n), vocab, config,
                      initial=initial)

    def test_shared_contexts_pull_words_together(self):
        # Two words that only ever appear in identical contexts should end
        # up closer than typical random pairs.
        rng = np.random.default_rng(42)
        ctx_words = [f"c{i}" for i in range(10)]
        sentences = []
        for _ in range(120):
            target = "x" if rng.random() < 0.5 else "y"
            cs = rng.choice(ctx_words, size=4, replace=False)
            sentences.append([cs[0], cs[1], target, cs[2], cs[3]])
        vocab = build_vocabulary(sentences, min_count=1)
        encoded = [[vocab.id(t) for t in s] for s in sentences]
        dataset = generate_pairs(encoded, 3, seed=1)
        config = TrainConfig(dim=16, negatives=5, epochs=12, learning_rate=0.05,
                             batch_size=10, seed=5)
        model, _ = train(dataset, vocab, config)
        d_xy = cosine_distance(model.input[vocab.id("x")], model.input[vocab.id("y")])
        pair_rng = np.random.default_rng(0)
        rand = []
        for _ in range(300):
            a, b = pair_rng.choice(len(vocab), size=2, replace=False)
            rand.append(cosine_distance(model.input[a], model.input[b]))
        assert d_xy < np.mean(rand)
