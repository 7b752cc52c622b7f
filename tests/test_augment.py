import numpy as np
import pytest

from synvec.augment import (
    RATIO_SWEEP,
    AugmentationPlan,
    augmented_count,
    generate_augmented_pairs,
    max_ratio,
    mix,
    read_substitutions,
    write_substitutions,
)
from synvec.pairgen import ORIGIN_AUGMENTED, ORIGIN_NATURAL, PairDataset

from test_lexicon import make_lexicon, make_vocab


@pytest.fixture
def gem_setup(tmp_path):
    """Vocabulary and lexicon where 'gem' has the single synonym 'jewel'."""
    vocab = make_vocab({"a": 10, "priceless": 4, "of": 8, "gem": 3, "jewel": 2})
    lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "jewel\tnoun\tgem"])
    return vocab, lex


def natural_pairs(vocab, focus, contexts):
    n = len(contexts)
    return PairDataset([vocab.id(focus)] * n, [vocab.id(ctx) for ctx in contexts],
                       range(1, n + 1), [ORIGIN_NATURAL] * n)


class TestGenerateAugmentedPairs:
    def test_synonym_mirrors_all_contexts(self, gem_setup):
        vocab, lex = gem_setup
        natural = natural_pairs(vocab, "gem", ["a", "priceless", "of"])
        augmented, subs = generate_augmented_pairs(natural, lex, vocab, np.random.default_rng(0))
        jewel = vocab.id("jewel")
        assert list(zip(augmented.focus.tolist(), augmented.context.tolist(),
                        augmented.position.tolist())) == [
            (jewel, vocab.id("a"), 1),
            (jewel, vocab.id("priceless"), 2),
            (jewel, vocab.id("of"), 3),
        ]
        assert (augmented.origin == ORIGIN_AUGMENTED).all()
        assert subs == [(vocab.id("gem"), jewel)]

    def test_non_candidate_contributes_nothing(self, gem_setup):
        vocab, lex = gem_setup
        natural = natural_pairs(vocab, "of", ["a", "priceless"])
        augmented, subs = generate_augmented_pairs(natural, lex, vocab, np.random.default_rng(0))
        assert len(augmented) == 0 and subs == []

    def test_empty_input(self, gem_setup):
        vocab, lex = gem_setup
        augmented, subs = generate_augmented_pairs(
            PairDataset.empty(), lex, vocab, np.random.default_rng(0)
        )
        assert len(augmented) == 0 and subs == []

    def test_one_synonym_per_occurrence(self, tmp_path):
        # A candidate with two equally frequent synonyms: every pair within
        # one occurrence must share the same sampled synonym.
        vocab = make_vocab({"big": 10, "large": 5, "great": 5, "x": 9, "y": 7, "z": 6})
        lex = make_lexicon(tmp_path, ["big\tadjective\tlarge", "big\tadjective\tgreat"])
        rng = np.random.default_rng(3)
        sampled = set()
        for _ in range(40):
            natural = natural_pairs(vocab, "big", ["x", "y", "z"])
            augmented, subs = generate_augmented_pairs(natural, lex, vocab, rng)
            assert len(set(augmented.focus)) == 1
            sampled.add(subs[0][1])
        assert sampled == {vocab.id("large"), vocab.id("great")}

    def test_separate_occurrences_sample_independently(self, tmp_path):
        vocab = make_vocab({"big": 10, "large": 5, "great": 5, "x": 9, "y": 7})
        lex = make_lexicon(tmp_path, ["big\tadjective\tlarge", "big\tadjective\tgreat"])
        natural = PairDataset(
            [vocab.id("big"), vocab.id("x"), vocab.id("big")],
            [vocab.id("x"), vocab.id("big"), vocab.id("y")],
            [1, 1, 1],
            [ORIGIN_NATURAL] * 3,
        )
        seen_pairs = set()
        rng = np.random.default_rng(5)
        for _ in range(60):
            _, subs = generate_augmented_pairs(natural, lex, vocab, rng)
            assert len(subs) == 2
            seen_pairs.add(tuple(s for _, s in subs))
        assert len(seen_pairs) == 4  # both occurrences explore both synonyms

    def test_rejects_augmented_input(self, gem_setup):
        vocab, lex = gem_setup
        ds = PairDataset([0], [1], [1], [ORIGIN_AUGMENTED])
        with pytest.raises(ValueError, match="natural"):
            generate_augmented_pairs(ds, lex, vocab, np.random.default_rng(0))

    def test_context_and_position_inherited(self, gem_setup):
        vocab, lex = gem_setup
        rng = np.random.default_rng(11)
        natural = PairDataset.concat(
            [
                natural_pairs(vocab, "a", ["of"]),
                natural_pairs(vocab, "gem", ["a", "of"]),
                natural_pairs(vocab, "of", ["gem"]),
            ]
        )
        augmented, subs = generate_augmented_pairs(natural, lex, vocab, rng)
        contexts = {(int(f), int(c), int(p)) for f, c, p in
                    zip(natural.focus, natural.context, natural.position)}
        rows = zip(augmented.focus.tolist(), augmented.context.tolist(),
                   augmented.position.tolist(), [subs[0], subs[0]])
        for focus, context, position, (orig, syn) in rows:
            assert focus == syn
            assert (orig, context, position) in contexts


class TestPlanAndMix:
    def test_plan_validates_ratio(self):
        AugmentationPlan(ratio=0.0, seed=1)
        AugmentationPlan(ratio=0.64, seed=1)
        with pytest.raises(ValueError):
            AugmentationPlan(ratio=1.0, seed=1)
        with pytest.raises(ValueError):
            AugmentationPlan(ratio=-0.1, seed=1)

    def test_quarter_ratio_exact_composition(self):
        natural = PairDataset([0] * 7500, [1] * 7500, [1] * 7500, ["N"] * 7500)
        augmented = PairDataset([2] * 4000, [1] * 4000, [1] * 4000, ["A"] * 4000)
        mixed = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=9))
        assert len(mixed) == 10_000
        assert mixed.n_augmented == 2500
        assert mixed.n_natural == 7500

    def test_zero_ratio_is_shuffled_natural(self):
        natural = PairDataset(range(100), range(1, 101), [1] * 100, ["N"] * 100)
        mixed = mix(natural, PairDataset.empty(), AugmentationPlan(ratio=0.0, seed=2))
        assert mixed.n_augmented == 0
        assert sorted(mixed.focus) == sorted(natural.focus)
        assert not np.array_equal(mixed.focus, natural.focus)  # shuffled

    def test_insufficient_pool_reports_max_ratio(self):
        natural = PairDataset([0] * 100, [1] * 100, [1] * 100, ["N"] * 100)
        augmented = PairDataset([2] * 10, [1] * 10, [1] * 10, ["A"] * 10)
        with pytest.raises(ValueError, match="0.0909"):
            mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=0))

    def test_deterministic_given_seed(self):
        natural = PairDataset(range(50), range(1, 51), [1] * 50, ["N"] * 50)
        augmented = PairDataset(range(50, 90), range(51, 91), [2] * 40, ["A"] * 40)
        a = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=4))
        b = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=4))
        c = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=5))
        assert a == b
        assert a != c

    def test_all_natural_retained(self):
        natural = PairDataset(range(60), range(1, 61), [1] * 60, ["N"] * 60)
        augmented = PairDataset(range(100, 180), range(101, 181), [2] * 80, ["A"] * 80)
        mixed = mix(natural, augmented, AugmentationPlan(ratio=0.5, seed=7))
        kept_natural = mixed.by_origin(ORIGIN_NATURAL)
        assert sorted(kept_natural.focus) == sorted(natural.focus)

    def test_fraction_within_rounding_of_ratio(self):
        natural = PairDataset(range(977), range(1, 978), [1] * 977, ["N"] * 977)
        augmented = PairDataset(range(1000, 3000), range(1001, 3001), [2] * 2000, ["A"] * 2000)
        for ratio in RATIO_SWEEP:
            mixed = mix(natural, augmented, AugmentationPlan(ratio=ratio, seed=1))
            fraction = mixed.n_augmented / len(mixed)
            assert abs(fraction - ratio) <= 1.0 / len(mixed)

    def test_empty_natural_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mix(PairDataset.empty(), PairDataset.empty(), AugmentationPlan(0.0, 1))

    def test_helper_formulas(self):
        assert augmented_count(7500, 0.25) == 2500
        assert augmented_count(100, 0.25) == 33
        assert max_ratio(100, 10) == pytest.approx(10 / 110)


def test_substitutions_file_roundtrip(tmp_path):
    subs = [(3, 9), (1, 4), (3, 9)]
    path = tmp_path / "subs.tsv"
    write_substitutions(path, subs, meta={"seed": 42})
    assert read_substitutions(path) == subs
    assert path.read_text().splitlines()[0] == "#subs v1 seed=42"
