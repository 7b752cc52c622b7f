"""Embedding interchange formats (text and word2vec-style binary) and cropping.

Text files hold float64 values printed with shortest round-trippable
decimals; binary files hold little-endian float32 vectors. Both round-trip
bit-exactly at their own precision.
"""

from __future__ import annotations

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
        count, dim = _parse_header(path, f.readline())
        words: list[str] = []
        linenos: list[int] = []
        rows = np.empty((count, dim), dtype=np.float64)
        lineno = 1
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if len(words) == count:
                raise ParseError(path, lineno, f"more than {count} rows")
            fields = line.split()
            if len(fields) != dim + 1:
                raise ParseError(
                    path, lineno, f"expected a word and {dim} floats, got {len(fields)} fields"
                )
            try:
                rows[len(words)] = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise ParseError(path, lineno, f"non-numeric vector component in {line!r}")
            words.append(fields[0])
            linenos.append(lineno)
        if len(words) != count:
            raise ParseError(path, lineno, f"header promised {count} rows, found {len(words)}")
    bad = _first_non_finite_row(rows)
    if bad is not None:
        raise ParseError(path, linenos[bad], f"non-finite vector component for word {words[bad]!r}")
    return words, rows


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
    count, dim = _parse_header(path, data[:end].decode("ascii", errors="replace"))
    words: list[str] = []
    rows = np.empty((count, dim), dtype="<f4")
    pos = end + 1
    vec_bytes = 4 * dim
    for record in range(count):
        while data[pos:pos + 1] == b"\n":
            pos += 1
        space = data.find(b" ", pos)
        if space == -1:
            raise ParseError(path, record + 1, "truncated record (no word terminator)")
        try:
            word = data[pos:space].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(path, record + 1, "word is not valid UTF-8")
        if len(data) < space + 1 + vec_bytes:
            raise ParseError(path, record + 1, f"truncated vector for word {word!r}")
        rows[record] = np.frombuffer(data, dtype="<f4", count=dim, offset=space + 1)
        words.append(word)
        pos = space + 1 + vec_bytes
    if data[pos:].strip(b" \r\n"):
        raise ParseError(path, count + 1, "unexpected trailing data after last record")
    bad = _first_non_finite_row(rows)
    if bad is not None:
        raise ParseError(path, bad + 1, f"non-finite vector component for word {words[bad]!r}")
    return words, rows


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


def _first_non_finite_row(rows: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or infinite component, if any."""
    finite = np.isfinite(rows).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _parse_header(path, line: str) -> tuple[int, int]:
    fields = line.split()
    if len(fields) != 2:
        raise ParseError(path, 1, f"expected '<count> <dim>' header, got {line.strip()!r}")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer header fields in {line.strip()!r}")
    if count < 0 or dim < 1:
        raise ParseError(path, 1, f"invalid header values count={count} dim={dim}")
    return count, dim
