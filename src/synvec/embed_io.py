"""Embedding interchange formats (text and word2vec-style binary) and cropping.

Text files hold float64 values printed with shortest round-trippable
decimals; binary files hold little-endian float32 vectors. Both round-trip
bit-exactly at their own precision.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio
from .corpus import Vocabulary
from .errors import ParseError


def write_text(path: str | Path, words: Sequence[str], matrix: np.ndarray) -> None:
    """Write `<count> <dim>` header then `<word> <floats>` rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _check_rows(words, matrix)
    with fileio.output(path, "w", encoding="utf-8") as f:
        f.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            f.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")


def read_text(path: str | Path) -> tuple[list[str], np.ndarray]:
    with fileio.open_text(path) as f:
        count, dim = _parse_header(path, f.readline(), os.fstat(f.fileno()).st_size, 2)
        keyed: list[tuple[int, str]] = []  # each row's line and word
        rows = np.empty((count, dim), dtype=np.float64)
        lineno = 1
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if len(keyed) == count:
                raise ParseError(path, lineno, f"more than {count} rows")
            fields = line.split()
            if len(fields) != dim + 1:
                raise ParseError(
                    path, lineno, f"expected a word and {dim} floats, got {len(fields)} fields"
                )
            try:
                rows[len(keyed)] = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise ParseError(path, lineno, f"non-numeric vector component in {line!r}")
            keyed.append((lineno, fields[0]))
        if len(keyed) != count:
            raise ParseError(path, lineno, f"header promised {count} rows, found {len(keyed)}")
    return _checked_table(path, keyed, rows)


def write_binary(path: str | Path, words: Sequence[str], matrix: np.ndarray) -> None:
    """Write the word2vec binary layout: ASCII header, then per word the
    UTF-8 word, one space, and dim little-endian float32 values."""
    matrix = np.asarray(matrix, dtype="<f4")
    _check_rows(words, matrix)
    with fileio.output(path, "wb") as f:
        f.write(f"{matrix.shape[0]} {matrix.shape[1]}\n".encode("ascii"))
        for word, row in zip(words, matrix):
            f.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def read_binary(path: str | Path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    if end == -1:
        raise ParseError(path, 1, "missing header line")
    count, dim = _parse_header(path, data[:end].decode("ascii", errors="replace"), len(data), 4)
    keyed: list[tuple[int, str]] = []  # each record's number and word
    rows = np.empty((count, dim), dtype="<f4")
    pos = end + 1
    vec_bytes = 4 * dim
    for record in range(1, count + 1):
        while data[pos:pos + 1] == b"\n":
            pos += 1
        space = data.find(b" ", pos)
        if space == -1:
            raise ParseError(path, record, "truncated record (no word terminator)")
        try:
            word = data[pos:space].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(path, record, "word is not valid UTF-8")
        if len(data) < space + 1 + vec_bytes:
            raise ParseError(path, record, f"truncated vector for word {word!r}")
        rows[record - 1] = np.frombuffer(data, dtype="<f4", count=dim, offset=space + 1)
        keyed.append((record, word))
        pos = space + 1 + vec_bytes
    if data[pos:].strip(b" \r\n"):
        raise ParseError(path, count + 1, "unexpected trailing data after last record")
    return _checked_table(path, keyed, rows)


def crop(
    words: Sequence[str], matrix: np.ndarray, vocab: Vocabulary
) -> tuple[list[str], np.ndarray]:
    """Restrict an embedding table to a vocabulary, ordered by vocabulary id.

    Retained rows are copied unmodified; raises if the intersection is
    empty.
    """
    row_of = {w: i for i, w in enumerate(words)}
    kept = [(w, row_of[w]) for w in vocab.words if w in row_of]
    if not kept:
        raise ValueError("embedding file and vocabulary share no words")
    kept_words = [w for w, _ in kept]
    kept_matrix = np.asarray(matrix)[[i for _, i in kept]]
    return kept_words, kept_matrix


def _check_rows(words: Sequence[str], matrix: np.ndarray) -> None:
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if len(words) != matrix.shape[0]:
        raise ValueError(f"{len(words)} words for {matrix.shape[0]} matrix rows")
    for word in words:
        if not word or any(ch.isspace() for ch in word):
            raise ValueError(f"word {word!r} cannot be serialized (whitespace or empty)")


def _checked_table(path, keyed: list[tuple[int, str]],
                   rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The words and rows of a table whose words came as `(line, word)` pairs,
    in row order. A repeated word, or a row with a NaN or infinite component,
    raises a ParseError naming its line."""
    words = list(fileio.first_lines(path, keyed, "word"))
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        lineno, word = keyed[int(np.argmin(finite))]
        raise ParseError(path, lineno, f"non-finite vector component for word {word!r}")
    return words, rows


def _parse_header(path, line: str, size: int, value_bytes: int) -> tuple[int, int]:
    """The `<count> <dim>` of a header line. A table that could not fit in the
    file's `size` bytes, each value taking `value_bytes` at least, raises a
    ParseError before it is allocated."""
    fields = line.split()
    if len(fields) != 2:
        raise ParseError(path, 1, f"expected '<count> <dim>' header, got {line.strip()!r}")
    count = fileio.int64(fields[0], path, 1, "header count")
    dim = fileio.int64(fields[1], path, 1, "header dim")
    if count < 0 or dim < 1:
        raise ParseError(path, 1, f"invalid header values count={count} dim={dim}")
    if count * dim * value_bytes > size:
        raise ParseError(path, 1, f"header promises {count} rows of {dim} values, more than "
                         f"the file's {size} bytes can hold")
    return count, dim
