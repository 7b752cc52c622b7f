import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from synvec import eval_intrinsic
from synvec.errors import ParseError
from synvec.eval_intrinsic import (
    PairSet,
    SimilarityDataset,
    _average_ranks,
    _cosine_distances,
    _distinct_unordered,
    build_pairsets,
    cosine_distance,
    load_similarity,
    pairset_stats,
    similarity_correlation,
    spearman_rho,
)
from synvec.pairgen import PairDataset
from synvec.sgns import EmbeddingModel

from test_lexicon import make_vocab


def model_from_matrix(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingModel(input=matrix, output=np.zeros_like(matrix))


class TestCosineDistance:
    def test_identical_vectors(self):
        assert cosine_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([2.0, -1.0], [-2.0, 1.0]) == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert cosine_distance(a * u, b * v) == pytest.approx(cosine_distance(u, v), abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 300])
    def test_row_kernel_matches_scalar_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(500, dim)) * rng.uniform(0.01, 100.0, size=(500, 1))
        b = rng.normal(size=(500, dim))
        b[:50] = a[:50]
        b[50:100] = -3.0 * a[50:100]
        got = _cosine_distances(a, b)
        assert [float(x) for x in got] == [cosine_distance(u, v) for u, v in zip(a, b)]

    def test_row_kernel_zero_row_rejected(self):
        a = np.ones((3, 4))
        b = np.ones((3, 4))
        b[1] = 0.0
        with pytest.raises(ValueError, match="zero vector"):
            _cosine_distances(a, b)
        with pytest.raises(ValueError, match="zero vector"):
            _cosine_distances(b, a)


class TestSpearman:
    def test_monotone_is_one_exactly(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_is_minus_one_exactly(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_self_is_one_exactly(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        assert spearman_rho(x, x) == 1.0

    def test_tie_example_matches_hand_ranks(self):
        # ranks x: 1,2,3,4; ranks y with average ties: 1.5,1.5,3,4
        # Pearson of those ranks = 4.5 / sqrt(5 * 4.5)
        rho = spearman_rho([1, 2, 3, 4], [1, 1, 3, 4])
        assert rho == pytest.approx(4.5 / np.sqrt(5 * 4.5), abs=1e-12)
        assert rho == pytest.approx(0.9487, abs=1e-4)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = rng.integers(5, 40)
            x = rng.integers(0, 8, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 8, size=n).astype(float)
            if (x == x[0]).all() or (y == y[0]).all():
                continue
            expected = stats.spearmanr(x, y).statistic
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 30))
        assert spearman_rho(x, y) == spearman_rho(y, x)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.1, 10.0, size=40)
        y = rng.uniform(0.1, 10.0, size=40)
        assert spearman_rho(x ** 3, y) == pytest.approx(spearman_rho(x, y), abs=1e-12)
        assert spearman_rho(x, np.log(y)) == pytest.approx(spearman_rho(x, y), abs=1e-12)

    def test_average_ranks_match_scipy_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = rng.integers(1, 60)
            x = rng.integers(-4, 5, size=n) * rng.choice([0.5, 1.0, 1e-3])  # heavy ties
            if rng.random() < 0.5:
                x = np.where(rng.random(n) < 0.3, -0.0, x)  # -0.0 next to 0.0
            assert np.array_equal(_average_ranks(x), stats.rankdata(x, method="average"))
        x = rng.normal(size=100)
        assert np.array_equal(_average_ranks(x), stats.rankdata(x, method="average"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spearman_rho([1.0, bad, bad, 4.0], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="finite"):
            spearman_rho([1, 2, 3, 4], [1.0, 2.0, bad, 4.0])

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho([1], [2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 2], [1, 2, 3])


class TestSimilarityCorrelation:
    def test_perfect_anticorrelation(self):
        # Distances decrease monotonically as human scores increase.
        vocab = make_vocab({"a": 5, "b": 4, "c": 3, "d": 2})
        angles = {"a": 0.0, "b": 0.2, "c": 0.6, "d": 1.4}
        matrix = np.array([[np.cos(angles[w]), np.sin(angles[w])] for w in vocab.words])
        model = model_from_matrix(matrix)
        dataset = SimilarityDataset(
            pairs=[("a", "b", 9.0), ("a", "c", 5.0), ("a", "d", 1.0)]
        )
        rho, used = similarity_correlation(model, vocab, dataset)
        assert rho == -1.0
        assert used == 3

    def test_common_vocabulary_filtering(self):
        vocab = make_vocab({"a": 5, "b": 4, "c": 3, "d": 2})
        common = make_vocab({"a": 1, "b": 1, "c": 1})
        model = model_from_matrix(np.random.default_rng(0).normal(size=(4, 3)))
        dataset = SimilarityDataset(
            pairs=[("a", "b", 1.0), ("a", "c", 2.0), ("a", "d", 3.0), ("b", "c", 4.0),
                   ("a", "zzz", 5.0)]
        )
        _, used = similarity_correlation(model, vocab, dataset, common_vocab=common)
        assert used == 3  # (a,d) blocked by common vocab, (a,zzz) out of vocab

    def test_too_few_usable_pairs(self):
        vocab = make_vocab({"a": 2, "b": 1})
        model = model_from_matrix(np.ones((2, 2)) + np.arange(4).reshape(2, 2))
        dataset = SimilarityDataset(pairs=[("a", "zzz", 1.0)])
        with pytest.raises(ValueError, match="covered"):
            similarity_correlation(model, vocab, dataset)

    def test_random_embeddings_near_zero_correlation(self):
        rng = np.random.default_rng(31)
        n_words = 600
        vocab = make_vocab({f"w{i:04d}": n_words - i for i in range(n_words)})
        model = model_from_matrix(rng.normal(size=(n_words, 8)))
        pairs = []
        seen = set()
        while len(pairs) < 500:
            a, b = rng.choice(n_words, size=2, replace=False)
            if (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            pairs.append((f"w{a:04d}", f"w{b:04d}", float(rng.uniform(0, 10))))
        rho, used = similarity_correlation(model, vocab, SimilarityDataset(pairs=pairs))
        assert used == 500
        assert abs(rho) < 0.1

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_distances_match_per_pair_reference(self, metric, monkeypatch):
        rng = np.random.default_rng(17)
        n_words = 120
        vocab = make_vocab({f"w{i:03d}": n_words - i for i in range(n_words)})
        model = model_from_matrix(rng.normal(size=(n_words, 300)))
        pairs = [(f"w{a:03d}", f"w{b:03d}", float(s))
                 for (a, b), s in zip(rng.integers(0, n_words + 10, size=(400, 2)),
                                      rng.uniform(0, 10, size=400)) if a != b]
        seen = []

        def record(distances, scores):
            seen.append((distances, scores))
            return 0.0

        monkeypatch.setattr(eval_intrinsic, "spearman_rho", record)
        _, used = similarity_correlation(model, vocab, SimilarityDataset(pairs=pairs),
                                         metric=metric)
        distances, scores = seen[0]
        expected = []
        for w1, w2, _ in pairs:
            if w1 in vocab and w2 in vocab:
                u, v = model.input[vocab.id(w1)], model.input[vocab.id(w2)]
                expected.append(cosine_distance(u, v) if metric == "cosine"
                                else float(np.sqrt(np.sum((u - v) * (u - v)))))
        assert used == len(expected) < len(pairs)
        assert [float(x) for x in distances] == expected
        assert list(scores) == [s for w1, w2, s in pairs if w1 in vocab and w2 in vocab]

    def test_euclidean_metric_available(self):
        vocab = make_vocab({"a": 3, "b": 2, "c": 1})
        model = model_from_matrix(np.random.default_rng(1).normal(size=(3, 4)))
        dataset = SimilarityDataset(pairs=[("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 3.0)])
        rho_cos, _ = similarity_correlation(model, vocab, dataset, metric="cosine")
        rho_euc, _ = similarity_correlation(model, vocab, dataset, metric="euclidean")
        assert -1 <= rho_euc <= 1 and -1 <= rho_cos <= 1
        with pytest.raises(ValueError):
            similarity_correlation(model, vocab, dataset, metric="manhattan")


class TestPairsetStats:
    def test_identical_vectors_zero_mean_zero_std(self):
        model = model_from_matrix(np.tile([1.0, 2.0], (4, 1)))
        stats_ = pairset_stats(model, PairSet("random", [(0, 1), (2, 3)]))
        assert stats_ == (pytest.approx(0.0, abs=1e-15), pytest.approx(0.0, abs=1e-15))

    def test_single_pair_zero_std(self):
        model = model_from_matrix(np.random.default_rng(0).normal(size=(3, 4)))
        mean, std = pairset_stats(model, PairSet("random", [(0, 2)]))
        assert std == 0.0

    def test_population_std(self):
        rng = np.random.default_rng(4)
        model = model_from_matrix(rng.normal(size=(6, 5)))
        pairs = [(0, 1), (2, 3), (4, 5)]
        mean, std = pairset_stats(model, PairSet("contextual", pairs))
        dists = [cosine_distance(model.input[a], model.input[b]) for a, b in pairs]
        assert mean == pytest.approx(np.mean(dists))
        assert std == pytest.approx(np.std(dists))  # ddof=0

    def test_self_pairs_rejected_by_pairset(self):
        with pytest.raises(ValueError, match="self-pairs"):
            PairSet("random", [(1, 1)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            PairSet("bogus", [(0, 1)])


class TestBuildPairsets:
    def setup_inputs(self):
        vocab = make_vocab({"gem": 9, "jewel": 8, "a": 7, "of": 6, "x": 5, "y": 4})
        natural = PairDataset(
            [vocab.id("gem"), vocab.id("gem"), vocab.id("a"), vocab.id("x")],
            [vocab.id("a"), vocab.id("of"), vocab.id("gem"), vocab.id("y")],
            [1, 2, 1, 1],
            [False] * 4,
        )
        substitutions = np.array([(vocab.id("gem"), vocab.id("jewel")),
                                  (vocab.id("gem"), vocab.id("jewel"))])
        return vocab, natural, substitutions

    def test_synonym_set_contains_substitution(self):
        vocab, natural, subs = self.setup_inputs()
        syn, _, _ = build_pairsets(subs, natural, vocab, 1, np.random.default_rng(0))
        pair = (min(vocab.id("gem"), vocab.id("jewel")), max(vocab.id("gem"), vocab.id("jewel")))
        assert tuple(syn.pairs[0]) == pair

    def test_contextual_set_is_distinct_unordered(self):
        vocab, natural, subs = self.setup_inputs()
        _, ctx, _ = build_pairsets(subs, natural, vocab, (1, 3, 3), np.random.default_rng(0))
        rows = {tuple(r) for r in ctx.pairs}
        # (gem,a) and (a,gem) collapse to one unordered pair
        assert len(rows) == 3

    def test_random_set_has_no_self_pairs_and_is_deterministic(self):
        vocab, natural, subs = self.setup_inputs()
        _, _, rand1 = build_pairsets(subs, natural, vocab, (1, 2, 8), np.random.default_rng(7))
        _, _, rand2 = build_pairsets(subs, natural, vocab, (1, 2, 8), np.random.default_rng(7))
        assert np.array_equal(rand1.pairs, rand2.pairs)
        assert (rand1.pairs[:, 0] != rand1.pairs[:, 1]).all()

    def test_oversized_request_rejected(self):
        vocab, natural, subs = self.setup_inputs()
        with pytest.raises(ValueError, match="synonym"):
            build_pairsets(subs, natural, vocab, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="random"):
            build_pairsets(subs, natural, vocab, (1, 1, 10_000), np.random.default_rng(0))

    @pytest.mark.parametrize("where", ["substitutions", "focus", "context"])
    @pytest.mark.parametrize("bad", [-1, 6])
    def test_ids_outside_the_vocabulary_rejected(self, where, bad):
        """A negative id would score another word's row, one past the end raise IndexError."""
        vocab, natural, subs = self.setup_inputs()
        column = subs[:, 1] if where == "substitutions" else getattr(natural, where)
        column[1] = bad
        with pytest.raises(ValueError, match=f"word id {bad} is outside the vocabulary of 6"):
            build_pairsets(subs, natural, vocab, 1, np.random.default_rng(0))

    def test_kinds_labelled(self):
        vocab, natural, subs = self.setup_inputs()
        syn, ctx, rand = build_pairsets(subs, natural, vocab, 1, np.random.default_rng(0))
        assert (syn.kind, ctx.kind, rand.kind) == ("synonym", "contextual", "random")


class TestDatasetLoaders:
    def test_simlex_format(self, tmp_path):
        path = tmp_path / "simlex.tsv"
        path.write_text(
            "word1\tword2\tPOS\tSimLex999\tconc(w1)\tconc(w2)\tconcQ\tAssoc(USF)"
            "\tSimAssoc333\tSD(SimLex)\n"
            "Old\tNew\tA\t1.58\t2.72\t2.81\t2\t7.25\t1\t0.41\n"
            "smart\tintelligent\tA\t9.2\t1.75\t2.46\t1\t7.11\t1\t0.67\n"
        )
        ds = load_similarity(path)
        assert ds.pairs == [("old", "new", 1.58), ("smart", "intelligent", 9.2)]
        assert ds.name == "simlex"

    def test_simlex_missing_column(self, tmp_path):
        path = tmp_path / "simlex.tsv"
        path.write_text("word2\tPOS\tSimLex999\nnew\tA\t1.58\n")
        with pytest.raises(ParseError, match=r":1: .*header"):
            load_similarity(path)

    def test_wordsim_with_header(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("Word 1\tWord 2\tHuman (mean)\nlove\tsex\t6.77\n")
        ds = load_similarity(path)
        assert ds.pairs == [("love", "sex", 6.77)]
        assert ds.name == "ws"

    def test_wordsim_without_header(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("tiger\tcat\t7.35\nbook\tpaper\t7.46\n")
        ds = load_similarity(path)
        assert len(ds.pairs) == 2

    def test_space_separated_rows_and_comments(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("# word1 word2 score\nTiger  cat 7.35\n\n# more\nbook paper 7.46\n")
        assert load_similarity(path).pairs == [("tiger", "cat", 7.35), ("book", "paper", 7.46)]

    def test_duplicate_unordered_pairs_dropped(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("cat\tdog\t5\ndog\tcat\t6\ncat\tfish\t2\n")
        ds = load_similarity(path)
        assert ds.pairs == [("cat", "dog", 5.0), ("cat", "fish", 2.0)]

    def test_wordsim_bad_score_mid_file(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("cat\tdog\t5\ndog\tfish\toops\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_similarity(path)

    def test_non_finite_score_rejected(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("cat\tdog\tnan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_similarity(path)
        path.write_text("word1\tword2\tSimLex999\ncat\tdog\tinf\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_similarity(path)


@given(st.lists(st.tuples(st.integers(-5, 40), st.integers(-5, 40)), max_size=60))
def test_distinct_unordered_matches_row_unique(pairs):
    """The 1-D coded unique against np.unique over rows."""
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keep = lo != hi
    expected = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    got = _distinct_unordered(pairs)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
