"""Skip-gram (focus, context) pair generation with positional sampling.

Rather than shrinking the context window at random, every candidate pair at
offset c from its focus word is kept independently with probability
(C - c + 1) / C, which gives the same marginal distribution over offsets.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import EncodedCorpus
from .errors import ParseError
from .seeds import derived_rng

ORIGIN_NATURAL = "N"
ORIGIN_AUGMENTED = "A"


class PairDataset:
    """Columnar collection of word pairs.

    Stores focus ids, context ids, positions (absolute context offsets) and
    origin flags as parallel numpy arrays; pair i is row i of every column.
    """

    __slots__ = ("focus", "context", "position", "origin")

    def __init__(self, focus, context, position, origin):
        self.focus = np.asarray(focus, dtype=np.int64)
        self.context = np.asarray(context, dtype=np.int64)
        self.position = np.asarray(position, dtype=np.int64)
        self.origin = np.asarray(origin, dtype="<U1")
        n = len(self.focus)
        if not (len(self.context) == len(self.position) == len(self.origin) == n):
            raise ValueError("pair columns have mismatched lengths")
        bad = ~np.isin(self.origin, (ORIGIN_NATURAL, ORIGIN_AUGMENTED))
        if bad.any():
            raise ValueError(f"unknown origin flag {self.origin[bad][0]!r}")

    @classmethod
    def empty(cls) -> "PairDataset":
        return cls([], [], [], [])

    @classmethod
    def concat(cls, parts: Iterable["PairDataset"]) -> "PairDataset":
        parts = list(parts)
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.focus for p in parts]),
            np.concatenate([p.context for p in parts]),
            np.concatenate([p.position for p in parts]),
            np.concatenate([p.origin for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.focus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairDataset):
            return NotImplemented
        return (
            np.array_equal(self.focus, other.focus)
            and np.array_equal(self.context, other.context)
            and np.array_equal(self.position, other.position)
            and np.array_equal(self.origin, other.origin)
        )

    def subset(self, indices) -> "PairDataset":
        return PairDataset(
            self.focus[indices], self.context[indices],
            self.position[indices], self.origin[indices],
        )

    def by_origin(self, origin: str) -> "PairDataset":
        return self.subset(self.origin == origin)

    @property
    def n_natural(self) -> int:
        return int((self.origin == ORIGIN_NATURAL).sum())

    @property
    def n_augmented(self) -> int:
        return int((self.origin == ORIGIN_AUGMENTED).sum())


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
    """
    if C < 1:
        raise ValueError(f"max context size must be >= 1, got {C}")
    parts = []
    for index, sentence in enumerate(encoded):
        ids = np.asarray(sentence, dtype=np.int64)
        n = len(ids)
        if n < 2:
            continue
        foc_idx, ctx_idx = [], []
        for c in range(1, min(C, n - 1) + 1):
            right = np.arange(n - c)
            foc_idx.extend((right + c, right))
            ctx_idx.extend((right, right + c))
        fi = np.concatenate(foc_idx)
        ci = np.concatenate(ctx_idx)
        # Focus-major, then context order: mirrors reading order of the corpus.
        order = np.lexsort((ci, fi))
        fi, ci = fi[order], ci[order]
        offsets = np.abs(fi - ci)
        rng = derived_rng(seed, "pairgen.sentence", index)
        keep = rng.random(len(fi)) < (C - offsets + 1) / C
        parts.append(
            PairDataset(
                ids[fi[keep]],
                ids[ci[keep]],
                offsets[keep],
                np.full(int(keep.sum()), ORIGIN_NATURAL, dtype="<U1"),
            )
        )
    return PairDataset.concat(parts)


# --- file format -------------------------------------------------------------


def write_pairs(path: str | Path, dataset: PairDataset, meta: dict | None = None) -> None:
    """Write `<focus> <context> <position> <origin>` lines under a `#pairs v1` header."""
    fields = " ".join(f"{k}={v}" for k, v in (meta or {}).items())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#pairs v1 {fields}".rstrip() + "\n")
        for i in range(len(dataset)):
            f.write(
                f"{dataset.focus[i]} {dataset.context[i]} "
                f"{dataset.position[i]} {dataset.origin[i]}\n"
            )


def read_pairs(path: str | Path) -> tuple[PairDataset, dict[str, str]]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith("#pairs v1"):
            raise ParseError(path, 1, f"expected '#pairs v1' header, got {header!r}")
        meta = {}
        for item in header[len("#pairs v1"):].split():
            key, sep, value = item.partition("=")
            if sep:
                meta[key] = value
        focus, context, position, origin = [], [], [], []
        for lineno, line in enumerate(f, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(
                    path, lineno, f"expected '<focus> <context> <position> <origin>', got {line!r}"
                )
            try:
                focus.append(int(fields[0]))
                context.append(int(fields[1]))
                position.append(int(fields[2]))
            except ValueError:
                raise ParseError(path, lineno, f"non-integer id field in {line!r}")
            if fields[3] not in (ORIGIN_NATURAL, ORIGIN_AUGMENTED):
                raise ParseError(path, lineno, f"unknown origin flag {fields[3]!r}")
            origin.append(fields[3])
    return PairDataset(focus, context, position, origin), meta
