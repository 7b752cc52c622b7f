"""Intrinsic embedding evaluation.

Two probes: rank correlation between embedding distances and human
similarity judgements, and the distance distributions of synonym /
contextual / random word-pair sets. All distances are computed over the
input embedding matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Vocabulary
from .errors import ParseError
from .pairgen import PairDataset
from .sgns import EmbeddingModel

PAIRSET_KINDS = ("synonym", "contextual", "random")


@dataclass
class SimilarityDataset:
    """Human-scored word pairs; unordered duplicates are dropped on load."""

    pairs: list[tuple[str, str, float]]
    name: str = ""


@dataclass
class PairSet:
    """A named set of word-id pairs whose distance distribution we measure."""

    kind: str
    pairs: np.ndarray

    def __post_init__(self):
        if self.kind not in PAIRSET_KINDS:
            raise ValueError(f"unknown pair set kind {self.kind!r}")
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if len(self.pairs) and (self.pairs[:, 0] == self.pairs[:, 1]).any():
            raise ValueError("pair set contains self-pairs")

    def __len__(self) -> int:
        return len(self.pairs)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v), in [0, 2]. Zero vectors have no direction and raise."""
    return float(_cosine_distances(np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis by numpy's pairwise sum: no BLAS, whose bits vary by CPU."""
    return np.sum(a * b, axis=-1)


def _cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - cos of row i of `a` and row i of `b`. Zero rows raise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.sqrt(_row_dots(a, a))
    nb = np.sqrt(_row_dots(b, b))
    if (na == 0.0).any() or (nb == 0.0).any():
        raise ValueError("cosine distance is undefined for a zero vector")
    return 1.0 - _row_dots(a, b) / (na * nb)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the average of the ranks they occupy."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman_rho(xs, ys) -> float:
    """Rank correlation: Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if len(xs) < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("inputs must be finite")
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        raise ValueError("correlation is undefined for constant input")
    rx = _average_ranks(xs) - (len(xs) + 1) / 2.0
    ry = _average_ranks(ys) - (len(ys) + 1) / 2.0
    return float(_row_dots(rx, ry) / np.sqrt(_row_dots(rx, rx) * _row_dots(ry, ry)))


def similarity_correlation(
    model: EmbeddingModel,
    vocab: Vocabulary,
    dataset: SimilarityDataset,
    common_vocab: Vocabulary | None = None,
    metric: str = "cosine",
) -> tuple[float, int]:
    """Spearman's rho between embedding distances and human scores.

    Pairs are filtered to words present in both the model vocabulary and
    ``common_vocab`` (when given), so different models can be compared on
    one shared pair set. Returns (rho, number of pairs used). ``metric``
    may be "cosine" (default) or "euclidean".
    """
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    usable = [
        (w1, w2, score)
        for w1, w2, score in dataset.pairs
        if w1 in vocab and w2 in vocab
        and (common_vocab is None or (w1 in common_vocab and w2 in common_vocab))
    ]
    if len(usable) < 2:
        raise ValueError(
            f"only {len(usable)} dataset pairs are covered by the vocabulary"
        )
    ids = np.array([(vocab.id(w1), vocab.id(w2)) for w1, w2, _ in usable], dtype=np.int64)
    a, b = model.input[ids.T]
    if metric == "cosine":
        distances = _cosine_distances(a, b)
    else:
        diff = a - b
        distances = np.sqrt(_row_dots(diff, diff))
    scores = np.array([score for _, _, score in usable])
    return spearman_rho(distances, scores), len(usable)


def pairset_stats(model: EmbeddingModel, pairset: PairSet) -> tuple[float, float]:
    """Population mean and standard deviation of pairwise cosine distances."""
    if len(pairset) == 0:
        raise ValueError("pair set is empty")
    distances = _cosine_distances(*model.input[pairset.pairs.T])
    return float(distances.mean()), float(distances.std())


def build_pairsets(
    substitutions: np.ndarray,
    natural: PairDataset,
    vocab: Vocabulary,
    sizes: int | tuple[int, int, int],
    rng: np.random.Generator,
) -> tuple[PairSet, PairSet, PairSet]:
    """Assemble the synonym / contextual / random pair sets.

    Synonym pairs are the distinct rows of ``substitutions``, the (n, 2)
    [focus, synonym] array of the whole augmented pool, drawn by a mix or
    not, so every ratio (0 included) is scored on the same set; contextual
    pairs are distinct co-occurring (focus, context) pairs from the natural
    data; random pairs are sampled uniformly from the vocabulary. Each set
    is subsampled to its requested size (one int for all three, or a
    (synonym, contextual, random) triple) of distinct unordered pairs.
    """
    if isinstance(sizes, int):
        sizes = (sizes, sizes, sizes)
    n_syn, n_ctx, n_rand = sizes
    if min(sizes) < 1:
        raise ValueError("pair set sizes must be >= 1")
    vocab.check_ids(substitutions, natural.focus, natural.context)

    synonym_pool = _distinct_unordered(substitutions)
    contextual_pool = _distinct_unordered(
        np.stack([natural.focus, natural.context], axis=1)
    )
    synonym = PairSet("synonym", _subsample(synonym_pool, n_syn, rng, "synonym"))
    contextual = PairSet("contextual", _subsample(contextual_pool, n_ctx, rng, "contextual"))

    n_words = len(vocab)
    total_random = n_words * (n_words - 1) // 2
    if n_rand > total_random:
        raise ValueError(
            f"requested {n_rand} random pairs but only {total_random} distinct pairs exist"
        )
    chosen: dict[tuple[int, int], None] = {}
    while len(chosen) < n_rand:
        draw = rng.integers(0, n_words, size=2 * (n_rand - len(chosen)) + 8).reshape(-1, 2)
        for a, b in draw:
            if a != b:
                chosen.setdefault((min(a, b), max(a, b)), None)
                if len(chosen) == n_rand:
                    break
    random = PairSet("random", np.array(list(chosen), dtype=np.int64))
    return synonym, contextual, random


def _distinct_unordered(pairs: np.ndarray) -> np.ndarray:
    """Distinct unordered pairs, self-pairs removed, sorted for determinism.

    Each pair is coded as one integer, ``(lo - base) * span + (hi - base)``,
    whose order is the pairs' row order, so a 1-D unique sorts them.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    base = lo.min(initial=0)
    span = hi.max(initial=0) - base + 1
    codes = np.unique((lo - base) * span + (hi - base))
    return np.stack([codes // span + base, codes % span + base], axis=1)


def _subsample(pool: np.ndarray, size: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    if size > len(pool):
        raise ValueError(
            f"requested {size} {kind} pairs but only {len(pool)} distinct pairs are available"
        )
    idx = np.sort(rng.choice(len(pool), size=size, replace=False))
    return pool[idx]


# --- similarity dataset files -------------------------------------------------


def load_similarity(path: str | Path) -> SimilarityDataset:
    """Read human-scored word pairs, named after the file stem.

    A first line with a tab field `SimLex999` is a SimLex-999 header naming the
    `word1`, `word2` and score columns. Otherwise rows are `word1 word2 score`,
    split on tabs if the line has one and else on whitespace, and a first line
    whose score does not parse is a header. Blank and `#` lines are skipped.
    Words are lowercased; the first copy of an unordered duplicate pair is kept.
    """
    cols = (0, 1, 2)  # word1, word2, score
    pairs = []
    seen: set[tuple[str, str]] = set()
    with fileio.open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            fields = line.split("\t") if "\t" in line else line.split()
            if lineno == 1 and "\t" in line and "SimLex999" in fields:
                if "word1" not in fields or "word2" not in fields:
                    raise ParseError(path, 1, f"SimLex999 header lacks word1 or word2: {fields}")
                cols = tuple(fields.index(c) for c in ("word1", "word2", "SimLex999"))
                continue
            if not line.strip() or line.startswith("#"):
                continue
            if len(fields) <= max(cols):
                raise ParseError(path, lineno, f"expected {max(cols) + 1} columns, got {line!r}")
            try:
                score = float(fields[cols[2]])
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise ParseError(path, lineno, f"non-numeric score {fields[cols[2]]!r}")
            if not np.isfinite(score):
                raise ParseError(path, lineno, f"non-finite score {fields[cols[2]]!r}")
            w1, w2 = fields[cols[0]].lower(), fields[cols[1]].lower()
            key = (min(w1, w2), max(w1, w2))
            if key not in seen:
                seen.add(key)
                pairs.append((w1, w2, score))
    return SimilarityDataset(pairs=pairs, name=Path(path).stem)
