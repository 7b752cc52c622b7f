"""Skip-gram (focus, context) pair generation with positional sampling.

Rather than shrinking the context window at random, every candidate pair at
offset c from its focus word is kept independently with probability
(C - c + 1) / C, which gives the same marginal distribution over offsets.
"""

from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import EncodedCorpus
from .errors import ParseError
from .seeds import derived_rng

# The letters of a pair file's origin field. Only the file code below reads
# or writes them; in memory a pair's origin is its bool `augmented` flag.
ORIGIN_NATURAL = "N"
ORIGIN_AUGMENTED = "A"


class PairDataset:
    """Columnar collection of word pairs.

    Stores focus ids, context ids, positions (absolute context offsets) and
    a bool ``augmented`` flag (False for a natural pair) as parallel numpy
    arrays; pair i is row i of every column.
    """

    __slots__ = ("focus", "context", "position", "augmented")

    def __init__(self, focus, context, position, augmented):
        self.focus = np.asarray(focus, dtype=np.int64)
        self.context = np.asarray(context, dtype=np.int64)
        self.position = np.asarray(position, dtype=np.int64)
        self.augmented = np.asarray(augmented)
        if self.augmented.dtype != bool:  # letters would cast to True, not be refused
            raise TypeError(f"augmented flags must have dtype bool, got {self.augmented.dtype}")
        n = len(self.focus)
        if not (len(self.context) == len(self.position) == len(self.augmented) == n):
            raise ValueError("pair columns have mismatched lengths")

    @classmethod
    def empty(cls) -> "PairDataset":
        return cls([], [], [], np.zeros(0, dtype=bool))

    def __len__(self) -> int:
        return len(self.focus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairDataset):
            return NotImplemented
        return (
            np.array_equal(self.focus, other.focus)
            and np.array_equal(self.context, other.context)
            and np.array_equal(self.position, other.position)
            and np.array_equal(self.augmented, other.augmented)
        )

    def subset(self, indices) -> "PairDataset":
        return PairDataset(
            self.focus[indices], self.context[indices],
            self.position[indices], self.augmented[indices],
        )

    @property
    def n_natural(self) -> int:
        return len(self) - self.n_augmented

    @property
    def n_augmented(self) -> int:
        return int(self.augmented.sum())


def keep_probability(c: int, C: int) -> float:
    """Survival probability (C - c + 1) / C of a pair at context offset c."""
    if C < 1:
        raise ValueError(f"max context size must be >= 1, got {C}")
    if not 1 <= c <= C:
        raise ValueError(f"context position must be in [1, {C}], got {c}")
    return (C - c + 1) / C


def generate_pairs(encoded: EncodedCorpus, C: int, seed: int) -> PairDataset:
    """Emit natural skip-gram pairs, sampling each by its context offset.

    Every token is a focus word; each in-sentence context at offset
    c <= C (both directions) survives independently with probability
    keep_probability(c, C). Each sentence draws randomness from its own
    sub-seed, so generation order (or parallel generation) cannot change
    the result.

    The candidates are whole columns over the flattened corpus. The token
    at position p of an n-token sentence has min(p, C) + min(n - 1 - p, C)
    contexts; its index repeated that often is the focus column, already
    focus-major, and the rank within its block, skipping the focus itself,
    gives the contexts in reading order.
    """
    if C < 1:
        raise ValueError(f"max context size must be >= 1, got {C}")
    lengths = np.array([len(sentence) for sentence in encoded], dtype=np.int64)
    ids = np.fromiter(itertools.chain.from_iterable(encoded), np.int64, int(lengths.sum()))
    ends = np.cumsum(lengths)
    token = np.arange(len(ids))
    before = np.minimum(token - np.repeat(ends - lengths, lengths), C)
    count = before + np.minimum(np.repeat(ends, lengths) - 1 - token, C)
    fi = np.repeat(token, count)
    block = np.cumsum(count)                # candidates through each focus
    step = np.arange(len(fi)) - np.repeat(block - count + before, count)
    step += step >= 0                       # -before..-1, then 1..after
    ci = fi + step
    offsets = np.abs(step, out=step)
    bounds = np.concatenate([[0], block])[ends].tolist()  # through each sentence
    draws = np.empty(len(fi))
    for index, (lo, hi) in enumerate(zip([0, *bounds], bounds)):
        if hi > lo:
            derived_rng(seed, "pairgen.sentence", index).random(out=draws[lo:hi])
    keep = draws < (C - offsets + 1) / C
    return PairDataset(ids[fi[keep]], ids[ci[keep]], offsets[keep],
                       np.zeros(int(keep.sum()), dtype=bool))


# --- file format -------------------------------------------------------------


def write_pairs(path: str | Path, dataset: PairDataset, meta: dict | None = None) -> None:
    """Write `<focus> <context> <position> <origin>` lines under a `#pairs v1` header."""
    columns = (dataset.focus.tolist(), dataset.context.tolist(), dataset.position.tolist(),
               np.where(dataset.augmented, ORIGIN_AUGMENTED, ORIGIN_NATURAL).tolist())
    with fileio.output(path, "w", encoding="utf-8") as f:
        f.write(fileio.header("pairs", meta))
        f.writelines(f"{a} {b} {c} {o}\n" for a, b, c, o in zip(*columns))


# A body line for np.loadtxt; two origin bytes, so that `NA` is not cut to `N`.
_ROW = np.dtype([("focus", np.int64), ("context", np.int64), ("position", np.int64),
                 ("origin", "S2")])


def read_pairs(path: str | Path) -> tuple[PairDataset, dict[str, str]]:
    """The pairs and header fields of a `#pairs v1` file, read by np.loadtxt.
    The line loop `_read_pair_lines` is the reference it must equal, and names
    a bad line: it reads a file numpy refuses, with a flag not N or A, or with
    a NUL byte (numpy drops a flag's trailing NULs)."""
    with fileio.open_text(path) as f:
        meta = fileio.read_header(f, path, "pairs")
        try:
            with warnings.catch_warnings():  # a body without pairs is an empty dataset
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(f, dtype=_ROW, comments=None, ndmin=1)
        except ValueError:
            rows = None
        if rows is not None and not _holds_nul(f):
            augmented = rows["origin"] == ORIGIN_AUGMENTED.encode()
            if (augmented | (rows["origin"] == ORIGIN_NATURAL.encode())).all():
                return PairDataset(*(rows[k].copy() for k in _ROW.names[:3]), augmented), meta
    return PairDataset(*_read_pair_lines(path)), meta


def _holds_nul(f) -> bool:
    """Whether the file under the text stream ``f`` holds a NUL byte."""
    f.buffer.seek(0)
    return any(b"\0" in chunk for chunk in iter(lambda: f.buffer.read(1 << 20), b""))


def _read_pair_lines(path: str | Path) -> tuple:
    """The columns of a pair file, line by line; a ParseError names the bad line."""
    with fileio.open_text(path) as f:
        f.readline()
        focus, context, position, augmented = [], [], [], []
        for lineno, fields in fileio.records(f, path, "<focus> <context> <position> <origin>"):
            focus.append(fileio.int64(fields[0], path, lineno, "id"))
            context.append(fileio.int64(fields[1], path, lineno, "id"))
            position.append(fileio.int64(fields[2], path, lineno, "id"))
            if fields[3] not in (ORIGIN_NATURAL, ORIGIN_AUGMENTED):
                raise ParseError(path, lineno, f"unknown origin flag {fields[3]!r}")
            augmented.append(fields[3] == ORIGIN_AUGMENTED)
    return focus, context, position, np.array(augmented, dtype=bool)
