import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from synvec.errors import ParseError
from synvec.lexicon import SynonymLexicon, is_candidate, sample_synonym
from synvec.pairgen import PairDataset, generate_pairs

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
                       range(1, n + 1), np.zeros(n, dtype=bool))


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
        assert augmented.augmented.all()
        assert subs.dtype == np.int64 and subs.tolist() == [[vocab.id("gem"), jewel]]

    def test_non_candidate_contributes_nothing(self, gem_setup):
        vocab, lex = gem_setup
        natural = natural_pairs(vocab, "of", ["a", "priceless"])
        augmented, subs = generate_augmented_pairs(natural, lex, vocab, np.random.default_rng(0))
        assert len(augmented) == 0 and subs.shape == (0, 2)

    def test_empty_input(self, gem_setup):
        vocab, lex = gem_setup
        augmented, subs = generate_augmented_pairs(
            PairDataset.empty(), lex, vocab, np.random.default_rng(0)
        )
        assert len(augmented) == 0 and subs.shape == (0, 2)

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
            sampled.add(int(subs[0, 1]))
        assert sampled == {vocab.id("large"), vocab.id("great")}

    def test_separate_occurrences_sample_independently(self, tmp_path):
        vocab = make_vocab({"big": 10, "large": 5, "great": 5, "x": 9, "y": 7})
        lex = make_lexicon(tmp_path, ["big\tadjective\tlarge", "big\tadjective\tgreat"])
        natural = PairDataset(
            [vocab.id("big"), vocab.id("x"), vocab.id("big")],
            [vocab.id("x"), vocab.id("big"), vocab.id("y")],
            [1, 1, 1],
            [False] * 3,
        )
        seen_pairs = set()
        rng = np.random.default_rng(5)
        for _ in range(60):
            _, subs = generate_augmented_pairs(natural, lex, vocab, rng)
            assert len(subs) == 2
            seen_pairs.add(tuple(subs[:, 1].tolist()))
        assert len(seen_pairs) == 4  # both occurrences explore both synonyms

    def test_rejects_augmented_input(self, gem_setup):
        vocab, lex = gem_setup
        ds = PairDataset([0], [1], [1], [True])
        with pytest.raises(ValueError, match="natural"):
            generate_augmented_pairs(ds, lex, vocab, np.random.default_rng(0))

    @pytest.mark.parametrize("column", ["focus", "context"])
    @pytest.mark.parametrize("bad", [-4, 5])
    def test_ids_outside_the_vocabulary_rejected(self, gem_setup, column, bad):
        """A negative id would wrap to another word, one past the end raise IndexError."""
        vocab, lex = gem_setup
        ids = {"focus": [vocab.id("gem")] * 2, "context": [vocab.id("a")] * 2}
        ids[column][1] = bad
        natural = PairDataset(ids["focus"], ids["context"], [1, 2], [False, False])
        with pytest.raises(ValueError, match=f"word id {bad} is outside the vocabulary of 5"):
            generate_augmented_pairs(natural, lex, vocab, np.random.default_rng(0))

    def test_context_and_position_inherited(self, gem_setup):
        vocab, lex = gem_setup
        rng = np.random.default_rng(11)
        a, gem, of = vocab.id("a"), vocab.id("gem"), vocab.id("of")
        natural = PairDataset([a, gem, gem, of], [of, a, of, gem], [1, 1, 2, 1], [False] * 4)
        augmented, subs = generate_augmented_pairs(natural, lex, vocab, rng)
        contexts = {(int(f), int(c), int(p)) for f, c, p in
                    zip(natural.focus, natural.context, natural.position)}
        rows = zip(augmented.focus.tolist(), augmented.context.tolist(),
                   augmented.position.tolist(), [subs[0].tolist()] * 2)
        for focus, context, position, (orig, syn) in rows:
            assert focus == syn
            assert (orig, context, position) in contexts


def reference_generate_augmented_pairs(natural, lexicon, vocab, rng):
    """generate_augmented_pairs written run by run: each run of one focus id
    appends its slices of the pool to three lists, and its substitution to a
    list of (focus, synonym) tuples."""
    if natural.n_augmented:
        raise ValueError("input to generate_augmented_pairs must be natural pairs only")
    n = len(natural)
    focus, context, position = [], [], []
    substitutions = []
    cuts = np.flatnonzero(natural.focus[1:] != natural.focus[:-1]) + 1
    starts = np.concatenate([[0], cuts]) if n else np.empty(0, dtype=np.int64)
    ends = np.concatenate([cuts, [n]]) if n else np.empty(0, dtype=np.int64)
    for start, end in zip(starts, ends):
        focus_id = int(natural.focus[start])
        word = vocab.words[focus_id]
        if not is_candidate(word, lexicon):
            continue
        synonym = sample_synonym(word, lexicon, vocab, rng)
        if synonym is None:
            continue
        focus.append(np.full(end - start, synonym, dtype=np.int64))
        context.append(natural.context[start:end])
        position.append(natural.position[start:end])
        substitutions.append((focus_id, synonym))
    substitutions = np.array(substitutions, dtype=np.int64).reshape(-1, 2)
    if not focus:
        return PairDataset.empty(), substitutions
    focus = np.concatenate(focus)
    augmented = PairDataset(focus, np.concatenate(context), np.concatenate(position),
                            np.ones(len(focus), dtype=bool))
    return augmented, substitutions


WORDS = ["w0", "w1", "w2", "w3", "w4", "w5"]


@st.composite
def augment_cases(draw):
    """A vocabulary, a lexicon in which a word has 0, 1 or 2+ in-vocabulary
    synonyms (some records name words outside the vocabulary), and the
    natural pairs of a corpus whose sentences repeat words side by side."""
    counts = draw(st.lists(st.integers(1, 9), min_size=len(WORDS), max_size=len(WORDS)))
    vocab = make_vocab(dict(zip(WORDS, counts)))
    entries = {}
    for word in WORDS:
        synonyms = draw(st.sets(st.sampled_from(WORDS + ["oov1", "oov2"]), max_size=4)) - {word}
        if synonyms:
            entries[word] = {("noun", s) for s in synonyms}
    encoded = draw(st.lists(st.lists(st.integers(0, len(WORDS) - 1), max_size=9), max_size=6))
    natural = generate_pairs(encoded, draw(st.integers(1, 10)), draw(st.integers(0, 99)))
    return natural, SynonymLexicon(entries), vocab


def planted_case():
    """w1 has no in-vocabulary synonym, w2 one, w3 three and w4 no record;
    w3 and w2 repeat side by side."""
    vocab = make_vocab({"w0": 5, "w1": 4, "w2": 3, "w3": 2, "w4": 6})
    lexicon = SynonymLexicon({"w1": {("noun", "oov1")}, "w2": {("verb", "w3")},
                              "w3": {("noun", "w0"), ("noun", "w1"), ("adverb", "w4")}})
    ids = [vocab.id(w) for w in ["w4", "w3", "w3", "w1", "w2", "w2", "w0", "w3"]]
    return generate_pairs([ids, [], ids[:1], ids[::-1]], 3, 4), lexicon, vocab


@settings(max_examples=300, deadline=None)
@given(case=augment_cases(), seed=st.integers(0, 2**32))
@example(case=planted_case(), seed=0)
@example(case=planted_case(), seed=1)
def test_generate_augmented_pairs_matches_reference(case, seed):
    """The same pool and substitutions, and the generator left where the
    reference leaves it: the same draws in the same order."""
    natural, lexicon, vocab = case
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pool, substitutions = generate_augmented_pairs(natural, lexicon, vocab, rng)
    want_pool, want_substitutions = reference_generate_augmented_pairs(
        natural, lexicon, vocab, reference_rng)
    assert pool == want_pool
    assert substitutions.dtype == np.int64
    assert np.array_equal(substitutions, want_substitutions)  # shapes too, (0, 2) included
    assert rng.random() == reference_rng.random()


class TestPlanAndMix:
    def test_plan_validates_ratio(self):
        AugmentationPlan(ratio=0.0, seed=1)
        AugmentationPlan(ratio=0.64, seed=1)
        with pytest.raises(ValueError):
            AugmentationPlan(ratio=1.0, seed=1)
        with pytest.raises(ValueError):
            AugmentationPlan(ratio=-0.1, seed=1)

    def test_quarter_ratio_exact_composition(self):
        natural = PairDataset([0] * 7500, [1] * 7500, [1] * 7500, [False] * 7500)
        augmented = PairDataset([2] * 4000, [1] * 4000, [1] * 4000, [True] * 4000)
        mixed = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=9))
        assert len(mixed) == 10_000
        assert mixed.n_augmented == 2500
        assert mixed.n_natural == 7500

    def test_zero_ratio_is_shuffled_natural(self):
        natural = PairDataset(range(100), range(1, 101), [1] * 100, [False] * 100)
        mixed = mix(natural, PairDataset.empty(), AugmentationPlan(ratio=0.0, seed=2))
        assert mixed.n_augmented == 0
        assert sorted(mixed.focus) == sorted(natural.focus)
        assert not np.array_equal(mixed.focus, natural.focus)  # shuffled

    def test_insufficient_pool_reports_max_ratio(self):
        natural = PairDataset([0] * 100, [1] * 100, [1] * 100, [False] * 100)
        augmented = PairDataset([2] * 10, [1] * 10, [1] * 10, [True] * 10)
        with pytest.raises(ValueError, match="0.0909"):
            mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=0))

    def test_deterministic_given_seed(self):
        natural = PairDataset(range(50), range(1, 51), [1] * 50, [False] * 50)
        augmented = PairDataset(range(50, 90), range(51, 91), [2] * 40, [True] * 40)
        a = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=4))
        b = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=4))
        c = mix(natural, augmented, AugmentationPlan(ratio=0.25, seed=5))
        assert a == b
        assert a != c

    def test_all_natural_retained(self):
        natural = PairDataset(range(60), range(1, 61), [1] * 60, [False] * 60)
        augmented = PairDataset(range(100, 180), range(101, 181), [2] * 80, [True] * 80)
        mixed = mix(natural, augmented, AugmentationPlan(ratio=0.5, seed=7))
        kept_natural = mixed.subset(~mixed.augmented)
        assert sorted(kept_natural.focus) == sorted(natural.focus)

    def test_fraction_within_rounding_of_ratio(self):
        natural = PairDataset(range(977), range(1, 978), [1] * 977, [False] * 977)
        augmented = PairDataset(range(1000, 3000), range(1001, 3001), [2] * 2000, [True] * 2000)
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
    subs = np.array([(3, 9), (1, 4), (3, 9)])
    path = tmp_path / "subs.tsv"
    write_substitutions(path, subs, meta={"seed": 42})
    assert np.array_equal(read_substitutions(path), subs)
    assert path.read_text().splitlines()[0] == "#subs v1 seed=42"
    assert path.read_text().splitlines()[1:] == ["3\t9", "1\t4", "3\t9"]


@pytest.mark.parametrize("big", ["99999999999999999999", "-9223372036854775809"])
def test_substitution_past_int64_names_its_line(tmp_path, big):
    path = tmp_path / "subs.tsv"
    path.write_text(f"#subs v1\n3\t9\n\n{big}\t4\n")
    with pytest.raises(ParseError, match=rf"subs.tsv:4: id {big} does not fit in int64"):
        read_substitutions(path)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1)),
                     max_size=20))
@example(rows=[])
def test_substitutions_array_roundtrip(tmp_path_factory, rows):
    """Any int64 [focus, synonym] array, the empty one included, reads back
    as an equal (n, 2) int64 array."""
    subs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    path = tmp_path_factory.mktemp("subs") / "subs.tsv"
    write_substitutions(path, subs)
    got = read_substitutions(path)
    assert got.dtype == np.int64 and got.shape == (len(rows), 2)
    assert np.array_equal(got, subs)
