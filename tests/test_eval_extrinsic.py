import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from synvec import eval_extrinsic, transport
from synvec.errors import ParseError
from synvec.eval_extrinsic import (
    NBowDocument,
    _cost_matrix,
    _k_nearest,
    accuracy_ci,
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


def transport_instances(count=40, seed=41):
    """Seeded transport problems at the benchmark's sizes: rectangular
    supports from 1 to 60 words, random masses, Euclidean costs between
    random points, with the 1x1, 1xn and nx1 edge shapes first."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 60), (60, 1), (1, 9), (23, 1)]
    shapes += [tuple(int(x) for x in rng.integers(1, 61, size=2))
               for _ in range(count - len(shapes))]
    for m, n in shapes:
        supply = rng.random(m) + 0.1
        demand = rng.random(n) + 0.1
        pts, qts = rng.normal(size=(m, 8)), rng.normal(size=(n, 8))
        cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
        yield supply / supply.sum(), demand / demand.sum(), cost


def lattice_tie_instances():
    """Uniform masses over clustered integer points, which maximize pivot
    degeneracy: 25 square problems, then 25 rectangular ones."""
    rng = np.random.default_rng(30)
    for _ in range(25):
        m = int(rng.integers(4, 14))
        pts = rng.integers(0, 3, size=(m, 2)).astype(float)
        qts = rng.integers(0, 3, size=(m, 2)).astype(float)
        cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
        yield np.full(m, 1.0 / m), np.full(m, 1.0 / m), cost
    rect = np.random.default_rng(31)
    for _ in range(25):
        m, n = (int(x) for x in rect.integers(1, 14, size=2))
        pts = rect.integers(0, 3, size=(m, 2)).astype(float)
        qts = rect.integers(0, 3, size=(n, 2)).astype(float)
        cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
        yield np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost


# Per instance of each set above, the solver's total as float.hex() and a
# SHA-256 of its flow's bytes.
SOLVER_BITS = Path(__file__).with_name("solver_bits.json")

# Both paths of the solver: solve_transport runs the C loop, which
# test_transport.py checks has loaded, and _solve_reference the Python one.
SOLVERS = (solve_transport, transport._solve_reference)


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
        doc = NBowDocument(ids=[2], weights=[1.0])
        assert _cost_matrix(model, doc, doc).tolist() == [[0.0]]

    def test_three_four_five(self):
        model = model_from_matrix([[0.0, 0.0], [3.0, 4.0]])
        d1, d2 = NBowDocument(ids=[0], weights=[1.0]), NBowDocument(ids=[1], weights=[1.0])
        assert _cost_matrix(model, d1, d2).tolist() == [[np.linalg.norm([3.0, 4.0])]]

    def test_symmetric(self):
        model = model_from_matrix(np.random.default_rng(1).normal(size=(5, 4)))
        d1 = NBowDocument(ids=[1, 4], weights=[0.5, 0.5])
        d2 = NBowDocument(ids=[0, 2, 3], weights=np.full(3, 1 / 3))
        assert _cost_matrix(model, d1, d2).tobytes() == _cost_matrix(model, d2, d1).T.tobytes()

    def test_cost_matrix_bitwise_equals_row_formula(self):
        rng = np.random.default_rng(2)
        model = model_from_matrix(rng.normal(size=(40, 9)))
        for m, n in [(1, 1), (1, 40), (40, 1), (7, 13), (23, 31)]:
            d1 = NBowDocument(ids=rng.choice(40, m, replace=False), weights=np.full(m, 1 / m))
            d2 = NBowDocument(ids=rng.choice(40, n, replace=False), weights=np.full(n, 1 / n))
            a, b = model.input[d1.ids], model.input[d2.ids]
            expected = np.array([np.sqrt(((row - b) ** 2).sum(-1)) for row in a])
            assert _cost_matrix(model, d1, d2).tobytes() == expected.tobytes()


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
        assert dist == pytest.approx(np.linalg.norm(model.input[0] - model.input[5]))
        assert flow.tolist() == [[pytest.approx(1.0)]]

    def test_matches_lp_oracle_on_random_instances(self):
        model = model_from_matrix(np.random.default_rng(5).normal(size=(12, 5)))
        rng = np.random.default_rng(6)
        for _ in range(50):
            d1 = random_doc(rng, 12)
            d2 = random_doc(rng, 12)
            dist, _ = wmd(model, d1, d2)
            cost = np.linalg.norm(model.input[d1.ids][:, None] - model.input[d2.ids], axis=-1)
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
        # This instance needs 2 pivots from the least-cost start, and so 3
        # passes with the final optimality check; caps 0, 1 and 2 stop short.
        cost = np.random.default_rng(40).random((5, 5))
        masses = np.full(5, 0.2)
        for solve in SOLVERS:
            with pytest.raises(TransportSolverError):
                solve(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                      np.array([[1.0, 2.0], [3.0, 4.0]]), max_iterations=0)
            for cap in (0, 1, 2):
                with pytest.raises(TransportSolverError, match=f"after {cap} iterations"):
                    solve(masses, masses, cost, max_iterations=cap)
            _, total = solve(masses, masses, cost, max_iterations=3)
            assert total == pytest.approx(lp_transport_cost(masses, masses, cost), abs=1e-9)

    def test_solver_input_validation(self):
        good = np.array([0.5, 0.5])
        cost = np.ones((2, 2))
        with pytest.raises(ValueError, match="shapes"):
            solve_transport(np.array([1.0]), good, cost)
        with pytest.raises(ValueError, match="strictly positive"):
            solve_transport(np.array([1.0, 0.0]), good, cost)
        with pytest.raises(ValueError, match="unbalanced"):
            solve_transport(np.array([0.9, 0.5]), good, cost)
        with pytest.raises(ValueError, match=r"got shape \(2,\)"):
            solve_transport(good, good, np.ones(2))
        with pytest.raises(ValueError, match=r"got shape \(0, 0\)"):
            solve_transport(np.ones(0), np.ones(0), np.ones((0, 0)))
        with pytest.raises(ValueError, match="max_iterations must be non-negative, got -3"):
            solve_transport(good, good, cost, max_iterations=-3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_transport(good, good, np.array([[1.0, bad], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="finite"):
                solve_transport(np.array([0.5, bad]), good, cost)

    def test_cost_argument_shape_checked(self):
        model = model_from_matrix(np.random.default_rng(18).normal(size=(6, 3)))
        d1 = NBowDocument(ids=[0, 2, 3], weights=[0.5, 0.25, 0.25])
        d2 = NBowDocument(ids=[4, 5], weights=[0.5, 0.5])
        cost = _cost_matrix(model, d1, d2)
        assert wmd(model, d1, d2, cost=cost)[0] == wmd(model, d1, d2)[0]
        assert rwmd(model, d1, d2, cost=cost) == rwmd(model, d1, d2)
        for bad in (cost.T, cost[:, :1], cost[:2], cost.ravel()):
            with pytest.raises(ValueError, match="cost has shape"):
                wmd(model, d1, d2, cost=bad)
            with pytest.raises(ValueError, match="cost has shape"):
                rwmd(model, d1, d2, cost=bad)

    def test_non_finite_embedding_rejected(self):
        matrix = np.random.default_rng(17).normal(size=(6, 3))
        matrix[2, 1] = np.nan
        model = model_from_matrix(matrix)
        d1 = NBowDocument(ids=[0, 2], weights=[0.5, 0.5])
        d2 = NBowDocument(ids=[4, 5], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            wmd(model, d1, d2)

    def test_solver_exact_on_degenerate_ties(self):
        for supply, demand, cost in lattice_tie_instances():
            _, total = solve_transport(supply, demand, cost)
            assert total == pytest.approx(
                lp_transport_cost(supply, demand, cost), abs=1e-9
            )

    @pytest.mark.parametrize("instances", [transport_instances, lattice_tie_instances])
    def test_solver_bits_are_pinned(self, instances):
        # A change to the start, the entering or leaving rule, or the order
        # of any sum shows here, and must re-record the file and say why.
        def fingerprint(solve, supply, demand, cost):
            flow, total = solve(supply, demand, cost)
            return [total.hex(), hashlib.sha256(flow.tobytes()).hexdigest()]

        recorded = json.loads(SOLVER_BITS.read_text())[instances.__name__]
        for solve in SOLVERS:
            got = [fingerprint(solve, *problem) for problem in instances()]
            assert got == recorded, solve.__name__

    def test_solver_keeps_tree_strongly_feasible(self, monkeypatch):
        # Every zero-flow basic cell must hang a row from its column, which
        # points it towards the root, or the leaving rule no longer rules
        # out cycling. Lattice costs with uniform masses make many such
        # cells. The Python solver's own lists are checked after the start
        # and before every pivot; the C loop keeps the same tree.
        start, paths = transport._least_cost_start, transport._paths_to_common_ancestor
        tree, checks = [], []

        def strongly_feasible(up_flow, parent, m):
            placed = [x for x in range(len(parent)) if parent[x] >= 0]
            return (len(placed) == len(parent) - 1
                    and all(up_flow[x] > 0 or x < m for x in placed))

        def checked_start(supply, *args):
            result = start(supply, *args)
            tree[:] = [result[0], result[1], len(supply)]
            checks.append(strongly_feasible(*tree))
            return result

        def checked_paths(*args):
            checks.append(strongly_feasible(*tree))
            return paths(*args)

        monkeypatch.setattr(transport, "_least_cost_start", checked_start)
        monkeypatch.setattr(transport, "_paths_to_common_ancestor", checked_paths)
        rng = np.random.default_rng(33)
        for _ in range(25):
            m, n = (int(x) for x in rng.integers(1, 14, size=2))
            pts = rng.integers(0, 3, size=(m, 2)).astype(float)
            qts = rng.integers(0, 3, size=(n, 2)).astype(float)
            cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
            transport._solve_reference(np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost)
        assert len(checks) > 50 and all(checks)

    def test_solver_masses_balanced_within_tolerance(self):
        # Totals that differ by less than the 1e-9 balance tolerance leave
        # a line with no positive flow after the least-cost start: the
        # third column, the transposed third row, or two small columns.
        base = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
        half = np.array([0.5, 0.5])
        cases = [
            (half, np.array([0.5, 0.5, 5e-10]), base),
            (np.array([0.5, 0.5, 5e-10]), half, base.T),
            (half, np.array([0.5, 0.5, 3e-10, 3e-10]), base[:, [0, 1, 2, 2]]),
        ]
        for (supply, demand, cost), solve in itertools.product(cases, SOLVERS):
            flow, total = solve(supply, demand, cost)
            m, n = cost.shape
            assert total == 0.0
            assert (flow >= 0).all()
            assert np.count_nonzero(flow) <= m + n - 1
            assert np.abs(flow.sum(axis=1) - supply).max() <= 1e-9
            assert np.abs(flow.sum(axis=0) - demand).max() <= 1e-9

    def test_solver_matches_lp_oracle_at_benchmark_sizes(self):
        for supply, demand, cost in transport_instances():
            _, total = solve_transport(supply, demand, cost)
            assert total == pytest.approx(lp_transport_cost(supply, demand, cost), abs=1e-9)

    def test_solver_returns_basic_feasible_flow(self):
        # A spanning-tree basis has m + n - 1 cells, so a correct pivot
        # sequence never leaves more positive cells than that.
        for (supply, demand, cost), solve in itertools.product(transport_instances(), SOLVERS):
            flow, _ = solve(supply, demand, cost)
            m, n = cost.shape
            assert flow.shape == (m, n)
            assert (flow >= 0).all()
            assert np.count_nonzero(flow) <= m + n - 1
            assert np.abs(flow.sum(axis=1) - supply).max() <= 1e-12
            assert np.abs(flow.sum(axis=0) - demand).max() <= 1e-12


@st.composite
def lattice_problems(draw, max_size=12):
    """m x n problems, 1 <= m, n <= max_size, with Euclidean costs between
    points of a 3 x 3 lattice (many ties, many degenerate pivots) and random
    positive masses."""
    m, n = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    point = st.tuples(st.integers(0, 2), st.integers(0, 2))
    pts = np.array(draw(st.lists(point, min_size=m, max_size=m)), dtype=float)
    qts = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
    cost = np.sqrt(((pts[:, None] - qts[None]) ** 2).sum(-1))
    mass = st.floats(0.01, 1.0)
    supply = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    demand = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    return supply / supply.sum(), demand / demand.sum(), cost


@settings(max_examples=100, deadline=None)
@given(problem=lattice_problems())
def test_solver_is_an_lp_optimal_basic_flow(problem):
    supply, demand, cost = problem
    m, n = cost.shape
    optimum = lp_transport_cost(supply, demand, cost)
    for solve in SOLVERS:
        flow, total = solve(supply, demand, cost)
        assert total == pytest.approx(optimum, abs=1e-9)
        assert (flow >= 0).all()
        assert np.count_nonzero(flow) <= m + n - 1
        assert np.abs(flow.sum(axis=1) - supply).max() <= 1e-12
        assert np.abs(flow.sum(axis=0) - demand).max() <= 1e-12


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

    @pytest.mark.parametrize("vocab_size, dim, n_train, support", [
        (30, 5, 40, 6),
        # A candidate union of several hundred words at d=300.
        (3000, 300, 30, 100),
    ])
    def test_k_nearest_bitwise_equals_per_pair_wmd(self, vocab_size, dim, n_train, support):
        rng = np.random.default_rng(26)
        model = model_from_matrix(rng.normal(size=(vocab_size, dim)))
        train = [random_doc(rng, vocab_size, max_support=support) for _ in range(n_train)]
        train[1] = NBowDocument(ids=[int(train[0].ids[0])], weights=[1.0])  # shares a word
        train[2] = NBowDocument(ids=[int(train[0].ids[0])], weights=[1.0])  # duplicate of 1
        train[3] = NBowDocument(ids=train[0].ids, weights=train[0].weights[::-1].copy())
        test = [train[0], train[1], random_doc(rng, vocab_size, max_support=40)]
        for doc, skip in [(test[0], None), (test[0], 0), (test[1], 1), (test[2], None)]:
            reference = sorted((wmd(model, doc, other)[0], i)
                               for i, other in enumerate(train) if i != skip)[:5]
            for prune in (False, True):
                got = _k_nearest(model, doc, train, 5, prune, skip_index=skip)
                assert [(d.hex(), i) for d, i in got] == [(d.hex(), i) for d, i in reference]

    def test_search_is_ordered_and_stopped_by_rwmd(self, monkeypatch):
        # The decoy holds a + e and a - e at half weight each: its centroid
        # is a, so its wcd to the one-word probe a is 0, while its wmd and
        # rwmd are |e| = 1. The k one-word candidates lie nearer than that,
        # so visiting by rwmd solves exactly those k and stops at the decoy;
        # visiting by wcd would solve the decoy first.
        a, e = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        near = [[0.0, 0.3], [0.0, 0.5], [0.0, 0.7]]
        model = model_from_matrix([a, a + e, a - e, *near, [0.0, 2.0], [0.0, 3.0]])
        k = len(near)
        train = [NBowDocument(ids=[6], weights=[1.0]),
                 NBowDocument(ids=[1, 2], weights=[0.5, 0.5]),
                 *(NBowDocument(ids=[3 + j], weights=[1.0]) for j in range(k)),
                 NBowDocument(ids=[7], weights=[1.0])]
        probe = NBowDocument(ids=[0], weights=[1.0])
        assert wcd(model, probe, train[1]) == 0.0
        assert rwmd(model, probe, train[1]) == wmd(model, probe, train[1])[0] == 1.0

        solves = []
        monkeypatch.setattr(eval_extrinsic, "wmd",
                            lambda *args, **kwargs: solves.append(1) or wmd(*args, **kwargs))
        got = _k_nearest(model, probe, train, k, True)
        assert len(solves) == k
        reference = _k_nearest(model, probe, train, k, False)
        assert [(d.hex(), i) for d, i in got] == [(d.hex(), i) for d, i in reference]
        assert [i for _, i in got] == [2, 3, 4]

    def test_k_of_one_requires_positive_train_set(self):
        model, docs = self.make_instance(4, seed=25)
        with pytest.raises(ValueError):
            knn_classify(model, docs, [], k=1)
        with pytest.raises(ValueError):
            knn_classify(model, docs, docs, k=0)
        for prune in (False, True):
            with pytest.raises(ValueError, match="at least two"):
                knn_classify(model, docs[:1], docs[:1], k=1, prune=prune, leave_one_out=True)


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
        split["music/d9.txt"] = "test"
        with pytest.raises(KeyError, match="music/d9.txt"):
            load_classification_corpus(tmp_path, vocab, split=split)

    def test_manifest_errors_name_path_and_line(self, tmp_path):
        manifest = tmp_path / "split.tsv"
        manifest.write_text("# comment\n\nsport/d1.txt\ttrain\nsport/d2.txt\n")
        with pytest.raises(ParseError, match=r"split\.tsv:4: expected"):
            read_split_manifest(manifest)

    def test_bad_manifest_line(self, tmp_path):
        manifest = tmp_path / "split.tsv"
        manifest.write_text("sport/d1.txt\tvalidation\n")
        with pytest.raises(ValueError, match="train|test"):
            read_split_manifest(manifest)
