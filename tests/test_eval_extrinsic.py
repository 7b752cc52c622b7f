from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from synvec.eval_extrinsic import (
    NBowDocument,
    accuracy_ci,
    ground_cost,
    knn_classify,
    load_classification_corpus,
    nbow,
    read_split_manifest,
    rwmd,
    wcd,
    wmd,
)
from synvec.sgns import EmbeddingModel
from synvec.transport import TransportSolverError, solve_transport

from test_lexicon import make_vocab


def model_from_matrix(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingModel(input=matrix, output=np.zeros_like(matrix))


def lp_transport_cost(supply, demand, cost):
    """Brute-force oracle: generic LP over the flattened flow variables."""
    m, n = cost.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([supply, demand])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun


def random_doc(rng, vocab_size, max_support=4, label=None):
    support = rng.integers(1, max_support + 1)
    ids = rng.choice(vocab_size, size=support, replace=False)
    weights = rng.random(support) + 0.1
    return NBowDocument(ids=np.sort(ids), weights=weights / weights.sum(), label=label)


class TestNBow:
    def test_direct_counts(self):
        vocab = make_vocab({"a": 5, "b": 2})
        doc = nbow(["a", "a", "b"], vocab)
        assert dict(zip(doc.ids, doc.weights)) == {
            vocab.id("a"): pytest.approx(2 / 3),
            vocab.id("b"): pytest.approx(1 / 3),
        }

    def test_oov_dropped_then_renormalized(self):
        vocab = make_vocab({"a": 5})
        doc = nbow(["a", "z"], vocab)
        assert doc.weights.tolist() == [1.0]

    def test_weights_sum_to_one(self):
        vocab = make_vocab({f"w{i}": i + 1 for i in range(20)})
        rng = np.random.default_rng(0)
        tokens = [f"w{rng.integers(20)}" for _ in range(100)]
        doc = nbow(tokens, vocab)
        assert abs(doc.weights.sum() - 1.0) < 1e-12

    def test_all_oov_rejected(self):
        vocab = make_vocab({"a": 1})
        with pytest.raises(ValueError, match="no in-vocabulary"):
            nbow(["z", "q"], vocab)


class TestGroundCost:
    def test_same_word_zero(self):
        model = model_from_matrix(np.random.default_rng(0).normal(size=(4, 3)))
        assert ground_cost(model, 2, 2) == 0.0

    def test_three_four_five(self):
        model = model_from_matrix([[0.0, 0.0], [3.0, 4.0]])
        assert ground_cost(model, 0, 1) == pytest.approx(5.0)

    def test_symmetric(self):
        model = model_from_matrix(np.random.default_rng(1).normal(size=(5, 4)))
        assert ground_cost(model, 1, 3) == ground_cost(model, 3, 1)


class TestWMD:
    def test_identical_documents_distance_zero(self):
        model = model_from_matrix(np.random.default_rng(2).normal(size=(8, 4)))
        rng = np.random.default_rng(3)
        for _ in range(10):
            doc = random_doc(rng, 8)
            dist, _ = wmd(model, doc, doc)
            assert dist == pytest.approx(0.0, abs=1e-8)

    def test_single_word_documents_reduce_to_ground_cost(self):
        model = model_from_matrix(np.random.default_rng(4).normal(size=(6, 3)))
        d1 = NBowDocument(ids=[0], weights=[1.0])
        d2 = NBowDocument(ids=[5], weights=[1.0])
        dist, flow = wmd(model, d1, d2)
        assert dist == pytest.approx(ground_cost(model, 0, 5))
        assert flow.tolist() == [[pytest.approx(1.0)]]

    def test_matches_lp_oracle_on_random_instances(self):
        model = model_from_matrix(np.random.default_rng(5).normal(size=(12, 5)))
        rng = np.random.default_rng(6)
        for _ in range(50):
            d1 = random_doc(rng, 12)
            d2 = random_doc(rng, 12)
            dist, _ = wmd(model, d1, d2)
            cost = np.array([[ground_cost(model, i, j) for j in d2.ids] for i in d1.ids])
            assert dist == pytest.approx(lp_transport_cost(d1.weights, d2.weights, cost),
                                         abs=1e-6)

    def test_plan_marginals_match_masses(self):
        model = model_from_matrix(np.random.default_rng(7).normal(size=(10, 4)))
        rng = np.random.default_rng(8)
        for _ in range(20):
            d1 = random_doc(rng, 10)
            d2 = random_doc(rng, 10)
            _, flow = wmd(model, d1, d2)
            assert flow.shape == (len(d1.ids), len(d2.ids))
            assert (flow >= 0).all()
            assert flow.sum(axis=1) == pytest.approx(d1.weights, abs=1e-9)
            assert flow.sum(axis=0) == pytest.approx(d2.weights, abs=1e-9)

    def test_metric_axioms(self):
        model = model_from_matrix(np.random.default_rng(9).normal(size=(9, 4)))
        rng = np.random.default_rng(10)
        for _ in range(25):
            d1, d2, d3 = (random_doc(rng, 9) for _ in range(3))
            d12, _ = wmd(model, d1, d2)
            d21, _ = wmd(model, d2, d1)
            d13, _ = wmd(model, d1, d3)
            d23, _ = wmd(model, d2, d3)
            assert d12 == pytest.approx(d21, abs=1e-8)
            assert d13 <= d12 + d23 + 1e-8

    def test_solver_error_surfaces(self):
        with pytest.raises(TransportSolverError):
            solve_transport(
                np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                np.array([[1.0, 2.0], [3.0, 4.0]]), max_iterations=0,
            )

    def test_solver_input_validation(self):
        good = np.array([0.5, 0.5])
        cost = np.ones((2, 2))
        with pytest.raises(ValueError, match="shapes"):
            solve_transport(np.array([1.0]), good, cost)
        with pytest.raises(ValueError, match="strictly positive"):
            solve_transport(np.array([1.0, 0.0]), good, cost)
        with pytest.raises(ValueError, match="unbalanced"):
            solve_transport(np.array([0.9, 0.5]), good, cost)

    def test_solver_exact_on_degenerate_ties(self):
        # Uniform masses over clustered integer points maximize pivot
        # degeneracy; both entering rules must reach the same optimum.
        rng = np.random.default_rng(30)
        for stall_limit in (None, 0):  # 0 forces the Bland fallback path
            for _ in range(25):
                m = int(rng.integers(4, 14))
                pts = rng.integers(0, 3, size=(m, 2)).astype(float)
                qts = rng.integers(0, 3, size=(m, 2)).astype(float)
                cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
                masses = np.full(m, 1.0 / m)
                _, total = solve_transport(masses, masses, cost,
                                           stall_limit=stall_limit)
                assert total == pytest.approx(
                    lp_transport_cost(masses, masses, cost), abs=1e-9
                )


class TestLowerBounds:
    def test_identical_docs_zero(self):
        model = model_from_matrix(np.random.default_rng(11).normal(size=(6, 3)))
        doc = random_doc(np.random.default_rng(12), 6)
        assert wcd(model, doc, doc) == pytest.approx(0.0, abs=1e-12)
        assert rwmd(model, doc, doc) == pytest.approx(0.0, abs=1e-12)

    def test_single_word_docs_equal_wmd(self):
        model = model_from_matrix(np.random.default_rng(13).normal(size=(6, 3)))
        d1 = NBowDocument(ids=[1], weights=[1.0])
        d2 = NBowDocument(ids=[4], weights=[1.0])
        exact, _ = wmd(model, d1, d2)
        assert wcd(model, d1, d2) == pytest.approx(exact)
        assert rwmd(model, d1, d2) == pytest.approx(exact)

    def test_both_bounds_below_wmd_on_random_instances(self):
        model = model_from_matrix(np.random.default_rng(14).normal(size=(15, 6)))
        rng = np.random.default_rng(15)
        for _ in range(1000):
            d1 = random_doc(rng, 15, max_support=5)
            d2 = random_doc(rng, 15, max_support=5)
            exact, _ = wmd(model, d1, d2)
            assert wcd(model, d1, d2) <= exact + 1e-9
            assert rwmd(model, d1, d2) <= exact + 1e-9

    def test_rwmd_is_not_always_above_wcd(self):
        # The two lower bounds are not ordered: with shared support words
        # and opposite weights, every word's nearest counterpart is itself,
        # so rwmd collapses to zero while the centroids stay apart. Only
        # wcd <= wmd and rwmd <= wmd are guaranteed.
        model = model_from_matrix(np.random.default_rng(16).normal(size=(4, 3)))
        d1 = NBowDocument(ids=[0, 1], weights=[0.9, 0.1])
        d2 = NBowDocument(ids=[0, 1], weights=[0.1, 0.9])
        exact, _ = wmd(model, d1, d2)
        assert rwmd(model, d1, d2) == pytest.approx(0.0, abs=1e-12)
        assert wcd(model, d1, d2) > 0.1
        assert wcd(model, d1, d2) == pytest.approx(exact, abs=1e-9)


def naive_knn_oracle(model, test_docs, train_docs, k, skip_self=False):
    """Independent reference: full distance matrix, explicit sort and vote."""
    classes = sorted({d.label for d in train_docs})
    predictions = []
    for t, doc in enumerate(test_docs):
        dists = []
        for i, other in enumerate(train_docs):
            if skip_self and i == t:
                continue
            dists.append((wmd(model, doc, other)[0], i))
        dists.sort()
        top = dists[:k]
        votes = Counter(train_docs[i].label for _, i in top)
        best_count = max(votes.values())
        tied = [c for c in classes if votes.get(c) == best_count]
        if len(tied) > 1:
            totals = {
                c: sum(d for d, i in top if train_docs[i].label == c) for c in tied
            }
            tied.sort(key=lambda c: (totals[c], classes.index(c)))
        predictions.append(tied[0])
    return predictions


class TestKNN:
    def make_instance(self, n_docs, vocab_size=30, seed=0, n_classes=3):
        rng = np.random.default_rng(seed)
        model = model_from_matrix(rng.normal(size=(vocab_size, 5)))
        docs = [
            random_doc(rng, vocab_size, max_support=6, label=f"class{rng.integers(n_classes)}")
            for _ in range(n_docs)
        ]
        return model, docs

    def test_identical_training_doc_wins_at_k1(self):
        model, docs = self.make_instance(12, seed=20)
        probe = NBowDocument(ids=docs[4].ids.copy(), weights=docs[4].weights.copy(),
                             label=docs[4].label)
        predictions, acc = knn_classify(model, [probe], docs, k=1)
        assert predictions == [docs[4].label]
        assert acc == 1.0

    def test_prune_equals_exhaustive(self):
        model, docs = self.make_instance(30, seed=21)
        test = docs[:10]
        train = docs[10:]
        fast, _ = knn_classify(model, test, train, k=5, prune=True)
        slow, _ = knn_classify(model, test, train, k=5, prune=False)
        assert fast == slow

    def test_matches_naive_oracle(self):
        model, docs = self.make_instance(20, seed=22)
        test, train = docs[:8], docs[8:]
        for prune in (False, True):
            got, _ = knn_classify(model, test, train, k=3, prune=prune)
            assert got == naive_knn_oracle(model, test, train, k=3)

    def test_leave_one_out_excludes_self(self):
        model, docs = self.make_instance(10, seed=23)
        got, _ = knn_classify(model, docs, docs, k=2, leave_one_out=True)
        assert got == naive_knn_oracle(model, docs, docs, k=2, skip_self=True)

    def test_vote_tie_breaks_by_cumulative_distance_then_class(self):
        # Symmetric single-word docs: the probe sits exactly between one
        # 'b'-labelled and one 'a'-labelled neighbour.
        model = model_from_matrix([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        train = [
            NBowDocument(ids=[1], weights=[1.0], label="b"),
            NBowDocument(ids=[2], weights=[1.0], label="a"),
        ]
        probe = NBowDocument(ids=[0], weights=[1.0])
        predictions, _ = knn_classify(model, [probe], train, k=2)
        assert predictions == ["a"]  # equal votes, equal distance, lower class index

    def test_k_of_one_requires_positive_train_set(self):
        model, docs = self.make_instance(4, seed=25)
        with pytest.raises(ValueError):
            knn_classify(model, docs, [], k=1)
        with pytest.raises(ValueError):
            knn_classify(model, docs, docs, k=0)


class TestAccuracyCI:
    def test_first_table_anchor(self):
        correct = round(0.607 * 11314)
        acc, hw = accuracy_ci(correct, 11314)
        assert hw == pytest.approx(0.0090, abs=1e-4)

    def test_second_table_anchor(self):
        correct = round(0.783 * 11314)
        acc, hw = accuracy_ci(correct, 11314)
        assert hw == pytest.approx(0.0076, abs=1e-4)

    def test_degenerate_proportions(self):
        assert accuracy_ci(0, 50) == (0.0, 0.0)
        assert accuracy_ci(50, 50) == (1.0, 0.0)

    def test_unsupported_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            accuracy_ci(5, 10, level=0.5)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            accuracy_ci(0, 0)


class TestCorpusLoading:
    def write_tree(self, root):
        (root / "sport").mkdir(parents=True)
        (root / "music").mkdir()
        (root / "sport" / "d1.txt").write_text("The ball flies. Goal scored!")
        (root / "sport" / "d2.txt").write_text("ball ball goal")
        (root / "music" / "d1.txt").write_text("A chord rings.")
        (root / "music" / "d2.txt").write_text("zzz qqq")  # fully out of vocabulary

    def test_loads_labels_from_directories(self, tmp_path):
        self.write_tree(tmp_path)
        vocab = make_vocab({"ball": 5, "goal": 4, "chord": 3, "the": 6, "flies": 1,
                            "scored": 1, "a": 9, "rings": 1})
        corpus = load_classification_corpus(tmp_path, vocab)
        assert sorted(d.doc_id for d in corpus.train) == [
            "music/d1.txt", "sport/d1.txt", "sport/d2.txt"
        ]
        assert corpus.skipped == 1
        assert all(d.label in ("sport", "music") for d in corpus.train)

    def test_split_manifest(self, tmp_path):
        self.write_tree(tmp_path)
        manifest = tmp_path / "split.tsv"
        manifest.write_text(
            "sport/d1.txt\ttrain\nsport/d2.txt\ttest\nmusic/d1.txt\ttrain\n"
        )
        vocab = make_vocab({"ball": 5, "goal": 4, "chord": 3})
        split = read_split_manifest(manifest)
        corpus = load_classification_corpus(tmp_path, vocab, split=split)
        assert [d.doc_id for d in corpus.train] == ["music/d1.txt", "sport/d1.txt"]
        assert [d.doc_id for d in corpus.test] == ["sport/d2.txt"]
        assert corpus.unassigned == 1  # music/d2.txt not in the manifest

    def test_bad_manifest_line(self, tmp_path):
        manifest = tmp_path / "split.tsv"
        manifest.write_text("sport/d1.txt\tvalidation\n")
        with pytest.raises(ValueError, match="train|test"):
            read_split_manifest(manifest)
