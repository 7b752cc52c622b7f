"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (see conftest) and pins the tolerance it
must meet. Qualitative embedding-geometry checks run on a deterministic
synthetic corpus with planted synonym structure (see toycorpus).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from synvec.augment import AugmentationPlan, generate_augmented_pairs, mix
from synvec.cli import main as cli_main
from synvec.corpus import Vocabulary, encode
from synvec.embed_io import crop, read_binary, read_text, write_binary, write_text
from synvec.eval_extrinsic import accuracy_ci, knn_classify, rwmd, wcd, wmd
from synvec.eval_intrinsic import (
    SimilarityDataset,
    build_pairsets,
    pairset_stats,
    similarity_correlation,
    spearman_rho,
)
from synvec.lexicon import sample_synonym, write_lexicon
from synvec.pairgen import PairDataset, generate_pairs
from synvec.seeds import derived_rng
from synvec.sgns import EmbeddingModel, TrainConfig, pair_gradients, pair_loss, train

from test_eval_extrinsic import lp_transport_cost, naive_knn_oracle, random_doc
from test_lexicon import make_lexicon, make_vocab
from toycorpus import make_planted_corpus, planted_vocab

TOY_TRAIN = dict(dim=32, negatives=5, batch_size=10, learning_rate=0.05, epochs=10)


@pytest.fixture(scope="module")
def toy_models():
    """Deterministic planted-synonym corpus trained with and without
    augmentation at ratio 0.25; shared by the geometry criteria."""
    sentences, lexicon, syn_pairs = make_planted_corpus()
    vocab = planted_vocab(sentences)
    natural = generate_pairs(encode(sentences, vocab), 5, seed=101)
    pool, substitutions = generate_augmented_pairs(
        natural, lexicon, vocab, derived_rng(101, "aug")
    )
    mixed = mix(natural, pool, AugmentationPlan(ratio=0.25, seed=101))
    augmented_model, _ = train(mixed, vocab, TrainConfig(seed=77, **TOY_TRAIN))
    plain_model, _ = train(natural, vocab, TrainConfig(seed=77, **TOY_TRAIN))
    return {
        "vocab": vocab,
        "natural": natural,
        "substitutions": substitutions,
        "augmented_model": augmented_model,
        "plain_model": plain_model,
        "synonym_word_pairs": syn_pairs,
    }


def test_c01_positional_sampling_rates():
    """Empirical keep rate at each offset c in 1..5 (C=5) over >=1e6
    Bernoulli trials per offset is within +/-0.005 of (C-c+1)/C."""
    start = time.perf_counter()
    C = 5
    n_sentences, length = 200, 2505
    corpus = [[0] * length] * n_sentences
    dataset = generate_pairs(corpus, C, seed=2024)
    for c in range(1, C + 1):
        candidates = n_sentences * 2 * (length - c)
        assert candidates >= 1_000_000
        kept = int((dataset.position == c).sum())
        rate = kept / candidates
        assert abs(rate - (C - c + 1) / C) < 0.005, f"offset {c}: rate {rate}"
    assert time.perf_counter() - start < 10.0


def test_c02_augmentation_composition_exact():
    """ratio 0.25 with 7500 natural pairs gives exactly 2500 augmented."""
    start = time.perf_counter()
    n, pool_n = 7500, 4000
    natural = PairDataset(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                          np.ones(n, dtype=np.int64), np.zeros(n, dtype=bool))
    pool = PairDataset(np.full(pool_n, 2), np.ones(pool_n, dtype=np.int64),
                       np.ones(pool_n, dtype=np.int64), np.ones(pool_n, dtype=bool))
    mixed = mix(natural, pool, AugmentationPlan(ratio=0.25, seed=5))
    assert len(mixed) == 10_000
    assert mixed.n_augmented == 2500
    assert mixed.n_natural == 7500
    assert time.perf_counter() - start < 1.0


def test_c03_synonym_sampling_frequencies(tmp_path):
    """Counts {30, 10} yield selection frequencies within +/-0.01 of
    {0.75, 0.25} over 1e5 draws."""
    start = time.perf_counter()
    lexicon = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "gem\tnoun\tstone"])
    vocab = make_vocab({"jewel": 30, "stone": 10})
    rng = np.random.default_rng(314)
    draws = np.array([sample_synonym("gem", lexicon, vocab, rng) for _ in range(100_000)])
    assert abs((draws == vocab.id("jewel")).mean() - 0.75) < 0.01
    assert abs((draws == vocab.id("stone")).mean() - 0.25) < 0.01
    assert time.perf_counter() - start < 5.0


def test_c04_gradient_check_finite_differences():
    """Analytic gradients match central finite differences (h=1e-5) on a
    5-word, 4-dimensional model with max relative error < 1e-5."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    model = EmbeddingModel(
        input=rng.uniform(-0.5, 0.5, (5, 4)), output=rng.uniform(-0.5, 0.5, (5, 4))
    )
    focus, context, negatives = 0, 1, [2, 3, 4, 3, 2]
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
        approx = numeric(model.input, focus, col)
        worst = max(worst, abs(g_foc[col] - approx) / max(abs(approx), 1e-8))
        approx = numeric(model.output, context, col)
        worst = max(worst, abs(g_ctx[col] - approx) / max(abs(approx), 1e-8))
    for neg in set(negatives):
        rows = [i for i, n in enumerate(negatives) if n == neg]
        summed = g_neg[rows].sum(axis=0)
        for col in range(4):
            approx = numeric(model.output, neg, col)
            worst = max(worst, abs(summed[col] - approx) / max(abs(approx), 1e-8))
    assert worst < 1e-5, f"max relative error {worst}"
    assert time.perf_counter() - start < 1.0


def test_c05_distance_ordering_after_augmentation(toy_models):
    """Augmented training orders mean cosine distances synonym <
    contextual < random with each gap > 3 standard errors; without
    augmentation the synonym set is not below the contextual set."""
    start = time.perf_counter()
    tm = toy_models
    syn, ctx, rand = build_pairsets(
        tm["substitutions"], tm["natural"], tm["vocab"], (20, 500, 500),
        derived_rng(101, "sets"),
    )

    def summarize(model):
        out = {}
        for ps in (syn, ctx, rand):
            mean, std = pairset_stats(model, ps)
            out[ps.kind] = (mean, std / math.sqrt(len(ps)))
        return out

    aug = summarize(tm["augmented_model"])
    gap_sc = aug["contextual"][0] - aug["synonym"][0]
    gap_cr = aug["random"][0] - aug["contextual"][0]
    se_sc = math.hypot(aug["synonym"][1], aug["contextual"][1])
    se_cr = math.hypot(aug["contextual"][1], aug["random"][1])
    assert gap_sc > 3 * se_sc, f"synonym/contextual gap {gap_sc} vs 3*SE {3*se_sc}"
    assert gap_cr > 3 * se_cr, f"contextual/random gap {gap_cr} vs 3*SE {3*se_cr}"

    plain = summarize(tm["plain_model"])
    assert plain["synonym"][0] >= plain["contextual"][0]
    assert time.perf_counter() - start < 120.0


def test_c06_correlation_direction_after_augmentation(toy_models):
    """On a synthetic similarity dataset (planted synonyms score 1, random
    pairs 0), augmentation strictly increases |rho| and the sign is
    negative (distances fall as similarity rises)."""
    start = time.perf_counter()
    tm = toy_models
    vocab = tm["vocab"]
    rng = np.random.default_rng(202)
    pairs = [(a, b, 1.0) for a, b in tm["synonym_word_pairs"]]
    seen = {tuple(sorted(p[:2])) for p in pairs}
    while len(pairs) < 80:
        w1, w2 = rng.choice(vocab.words, size=2, replace=False)
        key = tuple(sorted((w1, w2)))
        if key not in seen:
            seen.add(key)
            pairs.append((w1, w2, 0.0))
    dataset = SimilarityDataset(pairs=pairs, name="planted")
    rho_aug, used = similarity_correlation(tm["augmented_model"], vocab, dataset)
    rho_plain, _ = similarity_correlation(tm["plain_model"], vocab, dataset)
    assert used == 80
    assert rho_aug < 0.0
    assert abs(rho_aug) > abs(rho_plain)
    assert time.perf_counter() - start < 120.0


def test_c07_wmd_exactness_and_bounds():
    """On 200 random instances with <=4 support words per side: wmd matches
    a brute-force LP oracle within 1e-6, the metric axioms hold within
    1e-8, wcd <= wmd and rwmd <= wmd throughout, rwmd equals wmd when
    either document has a single support word, and wcd equals wmd when
    both do. The two bounds are not ordered against each other (see
    test_eval_extrinsic.py::TestLowerBounds::test_rwmd_is_not_always_above_wcd)."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    model = EmbeddingModel(
        input=rng.normal(size=(14, 5)), output=np.zeros((14, 5))
    )
    instances = []
    for _ in range(200):
        d1 = random_doc(rng, 14, max_support=4)
        d2 = random_doc(rng, 14, max_support=4)
        instances.append((d1, d2))

    for d1, d2 in instances:
        exact, _ = wmd(model, d1, d2)
        cost = np.sqrt(
            ((model.input[d1.ids][:, None, :] - model.input[d2.ids][None, :, :]) ** 2).sum(-1)
        )
        oracle = lp_transport_cost(d1.weights, d2.weights, cost)
        assert abs(exact - oracle) < 1e-6, f"wmd {exact} vs LP {oracle}"

    for d1, d2 in instances[:60]:
        assert wmd(model, d1, d1)[0] < 1e-8
        assert abs(wmd(model, d1, d2)[0] - wmd(model, d2, d1)[0]) < 1e-8
    for (d1, d2), (d3, _) in zip(instances[:60], instances[60:120]):
        assert wmd(model, d1, d3)[0] <= wmd(model, d1, d2)[0] + wmd(model, d2, d3)[0] + 1e-8

    for d1, d2 in instances:
        exact, _ = wmd(model, d1, d2)
        lower_c = wcd(model, d1, d2)
        lower_r = rwmd(model, d1, d2)
        assert lower_r <= exact + 1e-9
        assert lower_c <= exact + 1e-9
        # A single-word document receives or sends all its mass at that
        # word, so relaxing the other document's marginal loses nothing.
        if len(d1.ids) == 1 or len(d2.ids) == 1:
            assert abs(lower_r - exact) < 1e-9, f"rwmd {lower_r} vs wmd {exact}"
        if len(d1.ids) == 1 and len(d2.ids) == 1:
            assert abs(lower_c - exact) < 1e-9, f"wcd {lower_c} vs wmd {exact}"
    assert time.perf_counter() - start < 30.0


def test_c08_knn_prune_exhaustive_oracle_agreement():
    """Pruned and exhaustive KNN agree label-for-label on a 50-document
    random instance, and both match an independent naive implementation."""
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    model = EmbeddingModel(input=rng.normal(size=(40, 6)), output=np.zeros((40, 6)))
    docs = [
        random_doc(rng, 40, max_support=6, label=f"class{rng.integers(3)}")
        for _ in range(50)
    ]
    test_docs, train_docs = docs[:15], docs[15:]
    pruned, _ = knn_classify(model, test_docs, train_docs, k=10, prune=True)
    exhaustive, _ = knn_classify(model, test_docs, train_docs, k=10, prune=False)
    assert pruned == exhaustive
    assert exhaustive == naive_knn_oracle(model, test_docs, train_docs, k=10)

    small = docs[:20]
    got, _ = knn_classify(model, small[:8], small[8:], k=5, prune=True)
    assert got == naive_knn_oracle(model, small[:8], small[8:], k=5)
    assert time.perf_counter() - start < 30.0


def test_c09_confidence_interval_anchors():
    """Normal-approximation half-widths reproduce the two published
    anchors at n=11314 to 4 decimal places."""
    start = time.perf_counter()
    _, hw = accuracy_ci(round(0.607 * 11314), 11314)
    assert abs(hw - 0.0090) < 1e-4
    _, hw = accuracy_ci(round(0.783 * 11314), 11314)
    assert abs(hw - 0.0076) < 1e-4
    assert time.perf_counter() - start < 1.0


def test_c10_spearman_against_independent_oracle():
    """spearman_rho matches scipy's rank-based computation within 1e-10 on
    100 random tied instances; self and reversed inputs give exactly +/-1."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 60))
        x = rng.integers(0, 10, size=n).astype(float)
        y = rng.integers(0, 10, size=n).astype(float)
        if (x == x[0]).all() or (y == y[0]).all():
            continue
        assert abs(spearman_rho(x, y) - stats.spearmanr(x, y).statistic) < 1e-10
        checked += 1
    x = rng.normal(size=40)
    assert spearman_rho(x, x) == 1.0
    assert spearman_rho(x, -x) == -1.0
    order = np.argsort(x)
    reversed_y = np.empty_like(x)
    reversed_y[order] = x[order][::-1]
    assert spearman_rho(x, reversed_y) == -1.0
    assert time.perf_counter() - start < 5.0


def test_c11_pipeline_determinism(tmp_path):
    """Two single-threaded end-to-end runs from one config produce
    bitwise-identical model files."""
    start = time.perf_counter()
    sentences, lexicon, _ = make_planted_corpus(n_sentences=200)
    raw = tmp_path / "corpus.txt"
    raw.write_text("\n".join(" ".join(s) + "." for s in sentences))
    lex_path = tmp_path / "synonyms.tsv"
    write_lexicon(lex_path, lexicon)

    def run_pipeline(workdir: Path) -> bytes:
        workdir.mkdir()
        config = workdir / "exp.cfg"
        config.write_text(
            f"inputs = {raw}\n"
            f"lexicon = {lex_path}\n"
            "min_count = 1\n"
            "context_size = 5\n"
            "seed = 33\n"
            "ratio = 0.25\n"
            "dim = 16\n"
            "epochs = 3\n"
            "lr = 0.05\n"
            "batch = 10\n"
            "negatives = 5\n"
        )
        steps = [
            ["tokenize", "--config", config, "--out", workdir / "tokens.txt"],
            ["build-vocab", "--config", config, "--corpus", workdir / "tokens.txt",
             "--out", workdir / "vocab.tsv"],
            ["gen-pairs", "--config", config, "--corpus", workdir / "tokens.txt",
             "--vocab", workdir / "vocab.tsv", "--out", workdir / "pairs.txt"],
            ["augment", "--config", config, "--pairs", workdir / "pairs.txt",
             "--vocab", workdir / "vocab.tsv", "--out", workdir / "mixed.txt"],
            ["train", "--config", config, "--pairs", workdir / "mixed.txt",
             "--vocab", workdir / "vocab.tsv", "--out", workdir / "model.txt"],
        ]
        for step in steps:
            assert cli_main([str(a) for a in step]) == 0
        return (workdir / "model.txt").read_bytes()

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert first == second
    assert (tmp_path / "run1" / "mixed.txt").read_bytes() == \
           (tmp_path / "run2" / "mixed.txt").read_bytes()
    assert time.perf_counter() - start < 300.0


def test_c12_io_roundtrips_bitwise(tmp_path):
    """Text and binary embedding formats round-trip bitwise; cropping
    leaves retained vectors bitwise unchanged."""
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(30)]
    matrix64 = rng.normal(size=(30, 12)) * np.logspace(-12, 12, 12)
    matrix64[0, 0] = -0.0
    text_path = tmp_path / "m.txt"
    write_text(text_path, words, matrix64)
    back_words, back64 = read_text(text_path)
    assert back_words == words
    assert back64.tobytes() == matrix64.tobytes()

    matrix32 = rng.normal(size=(30, 12)).astype("<f4")
    bin_path = tmp_path / "m.bin"
    write_binary(bin_path, words, matrix32)
    back_words, back32 = read_binary(bin_path)
    assert back_words == words
    assert back32.tobytes() == matrix32.tobytes()

    vocab = Vocabulary(
        words=[w for i, w in enumerate(words) if i % 3 == 0],
        counts=np.full(10, 2, dtype=np.int64),
        min_count=1,
    )
    kept_words, kept = crop(words, matrix64, vocab)
    assert kept_words == vocab.words
    for row, word in zip(kept, kept_words):
        assert row.tobytes() == matrix64[words.index(word)].tobytes()
    assert time.perf_counter() - start < 5.0
