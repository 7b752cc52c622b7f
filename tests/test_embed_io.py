import struct

import numpy as np
import pytest

from synvec.embed_io import crop, read_binary, read_text, write_binary, write_text
from synvec.errors import ParseError

from test_lexicon import make_vocab


class TestTextFormat:
    def test_single_row(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2\nhi 0.5 -1.0\n")
        words, matrix = read_text(path)
        assert words == ["hi"]
        assert np.array_equal(matrix, [[0.5, -1.0]])

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(7, 5)) * np.logspace(-30, 30, 5)
        matrix[0, 0] = -0.0
        matrix[1, 1] = 1e-310  # subnormal
        words = [f"w{i}" for i in range(7)]
        path = tmp_path / "e.txt"
        write_text(path, words, matrix)
        back_words, back = read_text(path)
        assert back_words == words
        assert back.tobytes() == matrix.tobytes()

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("2 3\nhi 1 2 3\n")
        with pytest.raises(ParseError, match="promised 2 rows"):
            read_text(path)

    def test_extra_rows_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 1\na 1.0\nb 2.0\n")
        with pytest.raises(ParseError, match="more than 1"):
            read_text(path)

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2\nhi 0.5 oops\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_text(path)

    def test_wrong_dimension_reports_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 3\nhi 0.5 1.5\n")
        with pytest.raises(ParseError, match="3 floats"):
            read_text(path)

    def test_duplicate_word_reports_both_lines(self, tmp_path):
        """A repeated word would otherwise shadow its first row in every lookup."""
        path = tmp_path / "e.txt"
        path.write_text("3 1\nfoo 1.0\n\nbar 2.0\nfoo 3.0\n")
        with pytest.raises(ParseError, match=r"e.txt:5: duplicate word 'foo' \(first on line 2\)"):
            read_text(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("banana\n")
        with pytest.raises(ParseError, match="header"):
            read_text(path)

    @pytest.mark.parametrize("header, message", [
        ("1000000000 1000000000", "header promises 1000000000 rows of 1000000000 values, more "
                                  "than the file's 26 bytes can hold"),
        ("99999999999999999999 3", "header count 99999999999999999999 does not fit in int64"),
    ], ids=["past-file-size", "past-int64"])
    def test_header_the_file_cannot_hold_is_refused(self, tmp_path, header, message):
        """Refused at line 1, before the table is allocated."""
        path = tmp_path / "e.txt"
        path.write_text(f"{header}\na 1\n")
        with pytest.raises(ParseError, match=rf"e.txt:1: {message}$"):
            read_text(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_component_reports_line(self, tmp_path, bad):
        path = tmp_path / "e.txt"
        path.write_text(f"2 2\na 1.0 2.0\n\nb 0.5 {bad}\n")
        with pytest.raises(ParseError, match=r":4: non-finite vector component for word 'b'"):
            read_text(path)

    @pytest.mark.parametrize("token", [
        "1_0", "1_0.0_1", "infinity", "-Infinity", "iNfInItY", "nan", "-nan", "\u0661\u0662",
        "\u0661.\u0665", "1e500", "-1e500", "0x1p3", "0x10", "5e-324", "4.9e-324",
        "2.2250738585072014e-308", "1e-400", "+.5", "-0", "1E5", "1__0", "_1", "1_", "1e", ".",
        "0b1", "1d5", "1,5", "nan(1)",
    ])
    def test_component_reads_as_float_reads_it(self, tmp_path, token):
        path = tmp_path / "e.txt"
        path.write_text(f"1 2\nw 0.5 {token}\n", encoding="utf-8")
        try:
            value = float(token)
        except ValueError:
            with pytest.raises(ParseError, match=r":2: non-numeric vector component"):
                read_text(path)
            return
        if not np.isfinite(value):
            with pytest.raises(ParseError, match=r":2: non-finite vector component"):
                read_text(path)
            return
        assert struct.pack("<d", read_text(path)[1][0, 1]) == struct.pack("<d", value)

    def test_word_with_whitespace_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            write_text(tmp_path / "e.txt", ["a b"], np.ones((1, 2)))


class TestBinaryFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(5, 3)).astype("<f4")
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        path = tmp_path / "e.bin"
        write_binary(path, words, matrix)
        back_words, back = read_binary(path)
        assert back_words == words
        assert back.tobytes() == matrix.tobytes()

    def test_empty_model(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"0 300\n")
        words, matrix = read_binary(path)
        assert words == []
        assert matrix.shape == (0, 300)

    def test_ieee_754_layout(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1 1\none " + bytes([0x00, 0x00, 0x80, 0x3F]) + b"\n")
        words, matrix = read_binary(path)
        assert words == ["one"]
        assert matrix[0, 0] == np.float32(1.0)

    def test_missing_trailing_newline_tolerated(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1 2\nhi " + struct.pack("<2f", 0.5, -2.0))
        words, matrix = read_binary(path)
        assert words == ["hi"]
        assert np.allclose(matrix, [[0.5, -2.0]])

    def test_truncated_vector_reports_record(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1 2\nhi " + struct.pack("<f", 0.5))
        with pytest.raises(ParseError, match="truncated vector"):
            read_binary(path)

    def test_truncated_word_reports_record(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"2 1\nhi " + struct.pack("<f", 0.5) + b"\nbroken")
        with pytest.raises(ParseError, match="truncated record"):
            read_binary(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1 1\nhi " + struct.pack("<f", 0.5) + b"\nextra junk")
        with pytest.raises(ParseError, match="trailing data"):
            read_binary(path)

    def test_non_utf8_word_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1 1\n\xff\xfe " + struct.pack("<f", 0.5) + b"\n")
        with pytest.raises(ParseError, match="UTF-8"):
            read_binary(path)

    def test_duplicate_word_reports_both_records(self, tmp_path):
        """A repeated word would otherwise shadow its first row in every lookup."""
        path = tmp_path / "e.bin"
        write_binary(path, ["foo", "bar", "foo"], np.arange(6, dtype="<f4").reshape(3, 2))
        with pytest.raises(ParseError, match=r"e.bin:3: duplicate word 'foo' \(first on line 1\)"):
            read_binary(path)

    @pytest.mark.parametrize("header, message", [
        (b"1000000000 1000000000", "header promises 1000000000 rows of 1000000000 values, "
                                   "more than the file's 32 bytes can hold"),
        (b"3 2", "header promises 3 rows of 2 values, more than the file's 14 bytes can hold"),
        (b"99999999999999999999 3", "header count 99999999999999999999 does not fit in int64"),
    ], ids=["past-file-size", "past-file-size-small", "past-int64"])
    def test_header_the_file_cannot_hold_is_refused(self, tmp_path, header, message):
        """Refused at record 1, before the table is allocated."""
        path = tmp_path / "e.bin"
        path.write_bytes(header + b"\na " + struct.pack("<2f", 0.5, 1.5))
        with pytest.raises(ParseError, match=rf"e.bin:1: {message}$"):
            read_binary(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_reports_record(self, tmp_path, bad):
        matrix = np.ones((3, 2), dtype="<f4")
        matrix[1, 0] = bad
        path = tmp_path / "e.bin"
        write_binary(path, ["a", "b", "c"], matrix)
        with pytest.raises(ParseError, match=r":2: non-finite vector component for word 'b'"):
            read_binary(path)


class TestCrop:
    def test_full_cover_ordered_by_vocab_id(self):
        vocab = make_vocab({"big": 9, "ape": 4, "cat": 2})
        file_words = ["cat", "zebra", "ape", "big"]
        matrix = np.arange(16, dtype=np.float64).reshape(4, 4)
        kept_words, kept = crop(file_words, matrix, vocab)
        assert kept_words == ["big", "ape", "cat"]
        assert np.array_equal(kept, matrix[[3, 2, 0]])
        assert len(kept_words) == len(vocab)

    def test_disjoint_sets_rejected(self):
        vocab = make_vocab({"big": 1})
        with pytest.raises(ValueError, match="no words"):
            crop(["x", "y"], np.ones((2, 2)), vocab)

    def test_rows_bitwise_unmodified(self):
        vocab = make_vocab({"a": 2, "b": 1})
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(3, 6))
        _, kept = crop(["b", "q", "a"], matrix, vocab)
        assert kept[0].tobytes() == matrix[2].tobytes()  # a
        assert kept[1].tobytes() == matrix[0].tobytes()  # b

    def test_crop_returns_independent_copy(self):
        vocab = make_vocab({"a": 1})
        matrix = np.ones((1, 2))
        _, kept = crop(["a"], matrix, vocab)
        kept[0, 0] = 99.0
        assert matrix[0, 0] == 1.0
