import numpy as np
import pytest
from hypothesis import given, strategies as st

from synvec.corpus import (
    Vocabulary,
    build_vocabulary,
    encode,
    read_text_files,
    read_tokens,
    read_vocab,
    tokenize,
    write_tokens,
    write_vocab,
)
from synvec.errors import ParseError


class TestTokenize:
    def test_terminal_punctuation_splits_sentences(self):
        assert tokenize("A gem. It shines!") == [["a", "gem"], ["it", "shines"]]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_internal_apostrophe_retained(self):
        assert tokenize("don't stop") == [["don't", "stop"]]

    def test_internal_hyphen_retained(self):
        assert tokenize("a mother-in-law visits") == [["a", "mother-in-law", "visits"]]

    def test_surrounding_punctuation_stripped(self):
        assert tokenize("'hello', she said -- loudly") == [["hello", "she", "said", "loudly"]]

    def test_punctuation_only_sentences_dropped(self):
        assert tokenize("... !!! ?") == []

    def test_no_terminal_punctuation_is_one_sentence(self):
        assert tokenize("one two three") == [["one", "two", "three"]]

    def test_punctuation_without_whitespace_does_not_split(self):
        # e.g. decimal-like or tight punctuation inside a run of text
        assert tokenize("see fig.3 now") == [["see", "fig", "now"]]

    def test_question_and_exclamation(self):
        assert tokenize("Really?! Yes. ") == [["really"], ["yes"]]

    def test_digits_and_underscores_break_tokens(self):
        assert tokenize("abc123def x_y") == [["abc", "def", "x", "y"]]

    def test_unicode_letters(self):
        assert tokenize("Café Crème") == [["café", "crème"]]

    @given(st.text(max_size=300))
    def test_invariants(self, text):
        corpus = tokenize(text)
        for sentence in corpus:
            assert sentence, "no empty sentences"
            for token in sentence:
                assert token, "no empty tokens"
                assert not any(ch.isspace() for ch in token)
                assert token == token.lower()


class TestReadTextFiles:
    def test_concatenates_in_order(self, tmp_path):
        (tmp_path / "a.txt").write_text("one.")
        (tmp_path / "b.txt").write_text("two.")
        text = read_text_files([tmp_path / "a.txt", tmp_path / "b.txt"])
        assert tokenize(text) == [["one"], ["two"]]

    def test_a_file_ends_its_last_sentence(self, tmp_path):
        """Contexts must not run from one file's last words into the next file."""
        (tmp_path / "f1.txt").write_text("first file ends without a stop")
        (tmp_path / "f2.txt").write_text("second file starts here.")
        text = read_text_files([tmp_path / "f1.txt", tmp_path / "f2.txt"])
        assert tokenize(text) == [["first", "file", "ends", "without", "a", "stop"],
                                  ["second", "file", "starts", "here"]]

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        """The ParseError names the file among several, and the line."""
        (tmp_path / "ok.txt").write_text("one.\ntwo.\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"fine until \xff\xfe here")
        with pytest.raises(ParseError, match=r"bad.txt:1: .* in position 11") as err:
            read_text_files([tmp_path / "ok.txt", bad])
        assert err.value.__cause__.start == 11


class TestBuildVocabulary:
    def test_below_threshold_pruned(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert vocab.words == ["a"]
        assert vocab.count("a") == 2

    def test_ids_in_frequency_order(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=1)
        assert vocab.words == ["a", "b"]
        assert vocab.id("a") == 0 and vocab.id("b") == 1

    def test_ties_broken_lexicographically(self):
        vocab = build_vocabulary([["b", "a", "c"]], min_count=1)
        assert vocab.words == ["a", "b", "c"]

    def test_empty_vocabulary_is_an_error(self):
        with pytest.raises(ValueError, match="prunes the entire vocabulary"):
            build_vocabulary([["a", "b"]], min_count=5)

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_count=0)

    @pytest.mark.parametrize("counts", [[3, 0], [2, -1]])
    def test_count_below_one_rejected(self, counts):
        """Counts weight synonym draws: all-zero weights would make NaN odds."""
        with pytest.raises(ValueError, match=f"word 'b' has count {counts[1]}, below 1"):
            Vocabulary(words=["a", "b"], counts=counts, min_count=1)

    def test_counts_match_brute_force_recount(self):
        rng = np.random.default_rng(7)
        alphabet = [f"w{i}" for i in range(30)]
        corpus = [
            [alphabet[rng.integers(len(alphabet))] for _ in range(rng.integers(1, 12))]
            for _ in range(50)
        ]
        vocab = build_vocabulary(corpus, min_count=2)
        flat = [t for s in corpus for t in s]
        for word in vocab.words:
            assert vocab.count(word) == flat.count(word)
            assert vocab.count(word) >= 2

    def test_size_monotone_in_min_count(self):
        rng = np.random.default_rng(11)
        corpus = [[f"w{rng.integers(20)}" for _ in range(10)] for _ in range(30)]
        sizes = []
        for mc in (1, 2, 3, 5, 8):
            try:
                sizes.append(len(build_vocabulary(corpus, min_count=mc)))
            except ValueError:
                sizes.append(0)
        assert sizes == sorted(sizes, reverse=True)


class TestEncode:
    def test_oov_dropped(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        assert encode([["a", "b"]], vocab) == [[0]]

    def test_all_oov_sentence_dropped(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        assert encode([["b"]], vocab) == []

    def test_identity_for_in_vocab(self):
        vocab = build_vocabulary([["a", "a"]], min_count=1)
        assert encode([["a", "a"]], vocab) == [[0, 0]]

    def test_decode_roundtrip_over_in_vocab_tokens(self):
        corpus = [["the", "gem", "shines"], ["a", "gem"]]
        vocab = build_vocabulary(corpus, min_count=1)
        encoded = encode(corpus, vocab)
        decoded = [[vocab.words[i] for i in ids] for ids in encoded]
        assert decoded == corpus


class TestCheckIds:
    def test_ids_in_range_pass(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        vocab.check_ids([0, 1, 2], np.array([[2, 0]]), np.empty(0, dtype=np.int64))
        vocab.check_ids()

    @pytest.mark.parametrize("columns, bad", [
        (([0, -3, 1],), -3),
        (([0, 3, 1],), 3),
        (([0, 1], [2, -1, 7]), -1),           # the first bad id of the first bad column
        ((np.array([[0, 1], [5, -2]]),), 5),  # row by row in an (n, 2) array
    ])
    def test_first_id_outside_is_named_with_the_size(self, columns, bad):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        with pytest.raises(ValueError, match=rf"^word id {bad} is outside the vocabulary "
                                             r"of 3 words$"):
            vocab.check_ids(*columns)


class TestVocabFile:
    def test_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["b", "a", "a", "c", "c", "c"]], min_count=2)
        path = tmp_path / "vocab.tsv"
        write_vocab(path, vocab)
        loaded = read_vocab(path)
        assert loaded.words == vocab.words
        assert np.array_equal(loaded.counts, vocab.counts)
        assert loaded.min_count == vocab.min_count

    def test_header_line(self, tmp_path):
        vocab = build_vocabulary([["a"]], min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocab(path, vocab)
        assert path.read_text().splitlines()[0] == "#vocab v1 min_count=1"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t3\n")
        with pytest.raises(ParseError, match="header"):
            read_vocab(path)

    def test_bad_count_reported_with_line_number(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab v1 min_count=1\na\tthree\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_vocab(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab v1 min_count=1\na\t3\nb\t3\na\t2\n")
        with pytest.raises(ParseError,
                           match=r"vocab.tsv:4: duplicate word 'a' \(first on line 2\)"):
            read_vocab(path)

    def test_min_count_below_one_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab v1 min_count=0\na\t3\nb\t0\n")
        with pytest.raises(ParseError, match=r"vocab.tsv:1: min_count must be >= 1, got 0"):
            read_vocab(path)

    def test_hash_word_is_a_row_not_a_comment(self, tmp_path):
        """Ids are positional, so a word starting with `#` keeps its row."""
        vocab = build_vocabulary([["a", "a", "#tag", "#tag", "#tag", "b"]])
        path = tmp_path / "vocab.tsv"
        write_vocab(path, vocab)
        assert path.read_text().splitlines()[1] == "#tag\t3"
        assert read_vocab(path).words == ["#tag", "a", "b"]

    def test_count_below_threshold_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab v1 min_count=5\na\t3\n")
        with pytest.raises(ParseError, match="below min_count"):
            read_vocab(path)


def test_tokens_file_roundtrip(tmp_path):
    corpus = tokenize("A gem. It shines! don't stop")
    path = tmp_path / "corpus.txt"
    write_tokens(path, corpus)
    assert read_tokens(path) == corpus
