import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from synvec.corpus import Vocabulary
from synvec.errors import ParseError
from synvec.lexicon import (
    SynonymLexicon,
    is_candidate,
    load_lexicon,
    sample_synonym,
    sample_synonyms,
    write_lexicon,
)


def make_lexicon(tmp_path, lines):
    path = tmp_path / "syn.tsv"
    path.write_text("#synlex v1\n" + "".join(line + "\n" for line in lines))
    return load_lexicon(path)


def make_vocab(counts: dict[str, int]) -> Vocabulary:
    items = sorted(counts.items(), key=lambda wc: (-wc[1], wc[0]))
    return Vocabulary(
        words=[w for w, _ in items],
        counts=np.array([c for _, c in items], dtype=np.int64),
        min_count=1,
    )


class TestLoadLexicon:
    def test_basic_record(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel"])
        assert ("noun", "jewel") in lex.entries["gem"]
        assert lex.dropped == 0

    def test_self_synonym_dropped(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tgem"])
        assert "gem" not in lex
        assert lex.dropped == 1

    def test_multi_token_synonym_dropped(self, tmp_path):
        lex = make_lexicon(tmp_path, ["go\tverb\tget_going", "go\tverb\tgo away"])
        assert "go" not in lex
        assert lex.dropped == 2

    def test_case_normalized(self, tmp_path):
        lex = make_lexicon(tmp_path, ["Gem\tNOUN\tJewel"])
        assert lex.synonyms("gem") == {"jewel"}

    def test_comment_lines_ignored(self, tmp_path):
        lex = make_lexicon(tmp_path, ["# a comment", "gem\tnoun\tjewel"])
        assert len(lex) == 1

    def test_unknown_pos_rejected_with_line(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("#synlex v1\ngem\tpronoun\tjewel\n")
        with pytest.raises(ParseError, match=r":2: unknown POS"):
            load_lexicon(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("#synlex v1\ngem\tjewel\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_lexicon(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("gem\tnoun\tjewel\n")
        with pytest.raises(ParseError, match="header"):
            load_lexicon(path)

    def test_write_read_roundtrip(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "gem\tnoun\tstone", "big\tadjective\tlarge"])
        out = tmp_path / "out.tsv"
        write_lexicon(out, lex)
        assert load_lexicon(out).entries == lex.entries


class TestIsCandidate:
    def test_word_with_synonyms(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel"])
        assert is_candidate("gem", lex)

    def test_absent_word(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel"])
        assert not is_candidate("the", lex)

    def test_word_with_no_surviving_synonyms(self, tmp_path):
        lex = make_lexicon(tmp_path, ["go\tverb\tget_going"])
        assert not is_candidate("go", lex)


class TestSampleSynonym:
    def test_single_in_vocab_synonym(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "gem\tnoun\trarity"])
        vocab = make_vocab({"gem": 5, "jewel": 3})
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_synonym("gem", lex, vocab, rng) == vocab.id("jewel")

    def test_all_synonyms_oov(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel"])
        vocab = make_vocab({"gem": 5})
        assert sample_synonym("gem", lex, vocab, np.random.default_rng(0)) is None

    def test_never_returns_query_word_or_oov(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "gem\tnoun\tstone", "gem\tnoun\tgem"])
        vocab = make_vocab({"gem": 50, "jewel": 3, "stone": 2})
        rng = np.random.default_rng(1)
        drawn = {sample_synonym("gem", lex, vocab, rng) for _ in range(200)}
        assert vocab.id("gem") not in drawn
        assert drawn <= {vocab.id("jewel"), vocab.id("stone")}

    def test_count_proportional_frequencies(self, tmp_path):
        lex = make_lexicon(tmp_path, ["gem\tnoun\tjewel", "gem\tnoun\tstone"])
        vocab = make_vocab({"jewel": 30, "stone": 10})
        rng = np.random.default_rng(123)
        draws = np.array([sample_synonym("gem", lex, vocab, rng) for _ in range(100_000)])
        freq_jewel = (draws == vocab.id("jewel")).mean()
        assert abs(freq_jewel - 0.75) < 0.01
        assert abs((draws == vocab.id("stone")).mean() - 0.25) < 0.01

    def test_chi_square_goodness_of_fit(self, tmp_path):
        lex = make_lexicon(
            tmp_path,
            ["big\tadjective\tlarge", "big\tadjective\tgreat", "big\tadjective\tgrand"],
        )
        vocab = make_vocab({"large": 12, "great": 5, "grand": 3, "big": 9})
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([sample_synonym("big", lex, vocab, rng) for _ in range(n)])
        ids = sorted(vocab.id(w) for w in ("large", "great", "grand"))
        observed = np.array([(draws == i).sum() for i in ids])
        weights = np.array([vocab.counts[i] for i in ids], dtype=float)
        expected = n * weights / weights.sum()
        assert stats.chisquare(observed, expected).pvalue > 0.01


def choice_draw(word, lexicon, vocab, rng):
    """The draw through ``Generator.choice``: the sorted in-vocabulary synonym
    ids weighted by count, None for none, and no draw for a single one."""
    ids = sorted(vocab.id(s) for s in lexicon.synonyms(word) if s in vocab)
    if len(ids) < 2:
        return ids[0] if ids else None
    weights = vocab.counts[ids].astype(np.float64)
    return int(rng.choice(ids, p=weights / weights.sum()))


DRAW_WORDS = ["w0", "w1", "w2", "w3", "w4", "w5"]


@st.composite
def draw_cases(draw):
    """Counts from 1 to 10^6, a lexicon in which a word has 0, 1 or 2+
    in-vocabulary synonyms, and a word sequence with repeats."""
    counts = draw(st.lists(st.integers(1, 10**6), min_size=6, max_size=6))
    vocab = make_vocab(dict(zip(DRAW_WORDS, counts)))
    entries = {}
    for word in DRAW_WORDS:
        synonyms = draw(st.sets(st.sampled_from(DRAW_WORDS + ["oov"]), max_size=5)) - {word}
        if synonyms:
            entries[word] = {("noun", s) for s in synonyms}
    words = draw(st.lists(st.sampled_from(DRAW_WORDS), max_size=40))
    return SynonymLexicon(entries), vocab, words


def planted_draw_case():
    """w0 has no in-vocabulary synonym, w1 one, w2 two and w3 four, with
    counts 1 and 10^6 side by side; words repeat."""
    vocab = make_vocab({"w0": 7, "w1": 1, "w2": 10**6, "w3": 2, "w4": 999_999, "w5": 1})
    lexicon = SynonymLexicon({
        "w0": {("noun", "oov")}, "w1": {("noun", "w0")},
        "w2": {("noun", "w1"), ("verb", "w5")},
        "w3": {("noun", s) for s in ("w1", "w2", "w4", "w5", "oov")}})
    return lexicon, vocab, ["w3", "w3", "w2", "w0", "w1", "w3", "w4", "w2", "w3"]


@settings(max_examples=300, deadline=None)
@given(case=draw_cases(), seed=st.integers(0, 2**32))
@example(case=planted_draw_case(), seed=0)
@example(case=(SynonymLexicon({}), make_vocab({"w0": 1}), []), seed=0)
def test_draws_follow_generator_choice(case, seed):
    """sample_synonym word by word and sample_synonyms over the sequence
    return what Generator.choice draws and leave the generator where it
    leaves it, so a numpy release that changes choice fails here."""
    lexicon, vocab, words = case
    want_rng, one_rng, bulk_rng = (np.random.default_rng(seed) for _ in range(3))
    want = [choice_draw(word, lexicon, vocab, want_rng) for word in words]
    assert [sample_synonym(word, lexicon, vocab, one_rng) for word in words] == want
    bulk = sample_synonyms(np.array([vocab.id(word) for word in words], dtype=np.int64),
                           lexicon, vocab, bulk_rng)
    assert bulk.dtype == np.int64
    assert bulk.tolist() == [-1 if synonym is None else synonym for synonym in want]
    assert one_rng.random() == bulk_rng.random() == want_rng.random()
