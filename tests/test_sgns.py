import math

import numpy as np
import pytest
from scipy import stats

from synvec.corpus import build_vocabulary
from synvec.embed_io import write_text
from synvec.eval_intrinsic import cosine_distance
from synvec.pairgen import PairDataset, generate_pairs
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
        model, coverage = init_pretrained(vocab, path, dim=4, seed=0)
        assert np.array_equal(model.input[vocab.id("king")], file_matrix[1])
        assert np.array_equal(model.input[vocab.id("queen")], file_matrix[0])

    def test_missing_word_falls_back_to_uniform_support(self, setup):
        vocab, _, _, path = setup
        model, _ = init_pretrained(vocab, path, dim=4, seed=0)
        assert np.abs(model.input[vocab.id("pawn")]).max() <= 0.5 / 4

    def test_output_randomized_not_zero(self, setup):
        vocab, _, _, path = setup
        model, _ = init_pretrained(vocab, path, dim=4, seed=0)
        assert model.output.any()
        assert np.abs(model.output).max() <= 0.5 / 4

    def test_coverage_fraction(self, setup):
        vocab, _, _, path = setup
        _, coverage = init_pretrained(vocab, path, dim=4, seed=0)
        assert coverage == pytest.approx(2 / 3)

    def test_dimension_mismatch_rejected(self, setup):
        vocab, _, _, path = setup
        with pytest.raises(ValueError, match="dim"):
            init_pretrained(vocab, path, dim=7, seed=0)

    def test_unreadable_file(self, setup, tmp_path):
        vocab = setup[0]
        with pytest.raises(OSError):
            init_pretrained(vocab, tmp_path / "missing.txt", dim=4, seed=0)


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
        batch = PairDataset([0, 1], [2, 3], [1, 1], ["N", "N"])
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
        batch = PairDataset([0], [1], [1], ["N"])
        train_step(model, batch.focus, batch.context, noise, config,
                   np.random.default_rng(3))
        # gradient at zero output is (sigma(0) - 1) v = -0.5 v
        assert np.allclose(model.output[1], 0.2 * 0.5 * v, atol=1e-15)

    def test_returns_mean_loss(self):
        vocab, noise, config, model = self.make_setup()
        batch = PairDataset([0, 1, 2], [3, 4, 5], [1, 1, 1], ["N"] * 3)
        _, loss = train_step(model, batch.focus, batch.context, noise, config,
                             np.random.default_rng(1))
        assert np.isfinite(loss) and loss > 0

    def test_empty_batch_rejected(self):
        vocab, noise, config, model = self.make_setup()
        with pytest.raises(ValueError):
            batch = PairDataset.empty()
            train_step(model, batch.focus, batch.context, noise, config,
                       np.random.default_rng(0))


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

    def test_divergence_reports_epoch_and_batch(self):
        vocab, dataset = small_corpus()
        config = TrainConfig(dim=6, negatives=3, epochs=5, learning_rate=1e90,
                             batch_size=10, seed=1)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
                train(dataset, vocab, config)

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
