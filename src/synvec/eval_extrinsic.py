"""Document classification with Word Mover's Distance and K-nearest neighbours.

Documents are normalized bag-of-words mass distributions; the distance
between two documents is the exact minimum-cost transport between their
masses with Euclidean embedding distance as the ground cost. Two cheap
lower bounds (centroid distance and the relaxed one-constraint problem)
let the classifier skip most exact computations without changing any
prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Vocabulary, tokenize
from .sgns import EmbeddingModel
from .transport import solve_transport

# Two-sided normal quantiles for the supported confidence levels.
_Z_BY_LEVEL = {0.90: 1.644854, 0.95: 1.959964, 0.99: 2.575829}


@dataclass
class NBowDocument:
    """Normalized bag-of-words: positive masses over vocabulary ids, summing to 1."""

    ids: np.ndarray
    weights: np.ndarray
    label: str | None = None
    doc_id: str | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.ids.shape != self.weights.shape or self.ids.ndim != 1:
            raise ValueError("ids and weights must be parallel 1-D arrays")
        if len(self.ids) == 0:
            raise ValueError("document has no in-vocabulary mass")
        if (self.weights <= 0).any():
            raise ValueError("document weights must be strictly positive")
        if not math.isclose(float(self.weights.sum()), 1.0, abs_tol=1e-12):
            raise ValueError(f"document weights sum to {self.weights.sum()}, expected 1")


def nbow(tokens: Sequence[str], vocab: Vocabulary, label: str | None = None,
         doc_id: str | None = None) -> NBowDocument:
    """Build the normalized word-mass distribution of a token sequence.

    Out-of-vocabulary tokens are dropped before normalization; a document
    with no in-vocabulary tokens raises ValueError.
    """
    counts = Counter(vocab.word2id[t] for t in tokens if t in vocab.word2id)
    if not counts:
        raise ValueError("document has no in-vocabulary tokens")
    ids = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in ids], dtype=np.float64)
    return NBowDocument(ids=ids, weights=weights / weights.sum(), label=label, doc_id=doc_id)


def ground_cost(model: EmbeddingModel, i: int, j: int) -> float:
    """Euclidean distance between the input embeddings of words i and j."""
    diff = model.input[i] - model.input[j]
    return float(np.sqrt(diff @ diff))


def _cost_matrix(model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument) -> np.ndarray:
    # Explicit differences, not the |a|^2+|b|^2-2ab expansion: the latter
    # cancels catastrophically near zero distance (identical words would
    # get cost ~1e-8 instead of 0). Blocked to bound the (m, n, d) buffer.
    a = model.input[d1.ids]
    b = model.input[d2.ids]
    out = np.empty((len(a), len(b)))
    block = max(1, 4_000_000 // max(1, b.size))
    for start in range(0, len(a), block):
        diff = a[start:start + block, None, :] - b[None, :, :]
        out[start:start + block] = np.sqrt((diff * diff).sum(-1))
    return out


def wmd(
    model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument
) -> tuple[float, np.ndarray]:
    """Exact Word Mover's Distance and an optimal flow matrix.

    ``flow[i, j]`` is the mass moved from word ``d1.ids[i]`` to word
    ``d2.ids[j]``; its rows sum to ``d1.weights`` and its columns to
    ``d2.weights``.
    """
    flow, total = solve_transport(d1.weights, d2.weights, _cost_matrix(model, d1, d2))
    return total, flow


def wcd(model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument) -> float:
    """Word centroid distance: a cheap lower bound on wmd."""
    c1 = d1.weights @ model.input[d1.ids]
    c2 = d2.weights @ model.input[d2.ids]
    diff = c1 - c2
    return float(np.sqrt(diff @ diff))


def rwmd(model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument) -> float:
    """Relaxed WMD: drop one marginal constraint at a time, keep the max.

    Each relaxation sends every word's mass to its cheapest counterpart.
    Usually (not always) tighter than wcd; like wcd it never exceeds the
    exact distance, which is all the pruning logic relies on.
    """
    cost = _cost_matrix(model, d1, d2)
    forward = float(d1.weights @ cost.min(axis=1))
    backward = float(d2.weights @ cost.min(axis=0))
    return max(forward, backward)


def accuracy_ci(correct: int, total: int, level: float = 0.95) -> tuple[float, float]:
    """Accuracy and the half-width of its normal-approximation interval."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if level not in _Z_BY_LEVEL:
        raise ValueError(f"unsupported level {level}; choose from {sorted(_Z_BY_LEVEL)}")
    p = correct / total
    half_width = _Z_BY_LEVEL[level] * math.sqrt(p * (1.0 - p) / total)
    return p, half_width


# --- K-nearest neighbours over WMD -------------------------------------------


def _k_nearest(model, test_doc, train_docs, k, prune, skip_index=None):
    """Indices and distances of the k training docs nearest to test_doc.

    Returned sorted by (distance, index); with ``prune`` the wcd/rwmd
    lower bounds skip exact WMD solves that provably cannot enter the
    result, which therefore matches exhaustive search exactly.
    """
    candidates = [i for i in range(len(train_docs)) if i != skip_index]
    k = min(k, len(candidates))
    if not prune:
        dists = [(wmd(model, test_doc, train_docs[i])[0], i) for i in candidates]
        dists.sort()
        return dists[:k]
    order = sorted(candidates, key=lambda i: (wcd(model, test_doc, train_docs[i]), i))
    best = [(wmd(model, test_doc, train_docs[i])[0], i) for i in order[:k]]
    best.sort()
    kth = best[-1][0]
    for i in order[k:]:
        if rwmd(model, test_doc, train_docs[i]) > kth:
            continue
        best.append((wmd(model, test_doc, train_docs[i])[0], i))
        best.sort()
        best.pop()
        kth = best[-1][0]
    return best


def _vote(neighbours, train_docs, class_index):
    """Majority vote; break ties by least cumulative distance, then class index."""
    votes: Counter = Counter()
    cumdist: dict[str, float] = {}
    for dist, i in neighbours:
        label = train_docs[i].label
        votes[label] += 1
        cumdist[label] = cumdist.get(label, 0.0) + dist
    top = max(votes.values())
    tied = [label for label, v in votes.items() if v == top]
    return min(tied, key=lambda lb: (cumdist[lb], class_index[lb]))


def knn_classify(
    model: EmbeddingModel,
    test_docs: Sequence[NBowDocument],
    train_docs: Sequence[NBowDocument],
    k: int = 10,
    prune: bool = False,
    leave_one_out: bool = False,
) -> tuple[list, float]:
    """Predict a label for each test document by majority vote of its
    k WMD-nearest training documents.

    With ``leave_one_out`` the i-th test document is assumed to be the
    i-th training document and is excluded from its own neighbourhood.
    Returns (predictions, accuracy over documents with a true label).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not train_docs:
        raise ValueError("training set is empty")
    if leave_one_out and len(test_docs) != len(train_docs):
        raise ValueError("leave-one-out requires test_docs == train_docs")
    class_index = {label: idx for idx, label in
                   enumerate(sorted({d.label for d in train_docs}))}

    def classify(t: int):
        skip = t if leave_one_out else None
        neighbours = _k_nearest(model, test_docs[t], train_docs, k, prune, skip_index=skip)
        return _vote(neighbours, train_docs, class_index)

    predictions = [classify(t) for t in range(len(test_docs))]
    correct = scored = 0
    for doc, label in zip(test_docs, predictions):
        if doc.label is not None:
            scored += 1
            correct += label == doc.label
    accuracy = correct / scored if scored else float("nan")
    return predictions, accuracy


# --- classification corpus loading -------------------------------------------


@dataclass
class ClassificationCorpus:
    """Documents loaded from a <root>/<class>/<doc> tree.

    Without a split manifest every document lands in ``train`` (the
    leave-one-out evaluation mode); ``skipped`` counts documents dropped
    for having no in-vocabulary tokens.
    """

    train: list[NBowDocument] = field(default_factory=list)
    test: list[NBowDocument] = field(default_factory=list)
    skipped: int = 0
    unassigned: int = 0


def read_split_manifest(path: str | Path) -> dict[str, str]:
    """Parse `<class>/<doc>\\t<train|test>` lines."""
    assignment = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2 or fields[1] not in ("train", "test"):
                raise ValueError(f"{path}:{lineno}: expected '<class>/<doc>\\t<train|test>'")
            assignment[fields[0]] = fields[1]
    return assignment


def load_classification_corpus(
    root: str | Path,
    vocab: Vocabulary,
    split: dict[str, str] | None = None,
) -> ClassificationCorpus:
    """Read one-file-per-document class directories into nBOW form."""
    root = Path(root)
    corpus = ClassificationCorpus()
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for doc_path in sorted(p for p in class_dir.iterdir() if p.is_file()):
            doc_key = f"{class_dir.name}/{doc_path.name}"
            destination = "train"
            if split is not None:
                destination = split.get(doc_key)
                if destination is None:
                    corpus.unassigned += 1
                    continue
            text = doc_path.read_bytes().decode("utf-8")
            tokens = [t for sentence in tokenize(text) for t in sentence]
            try:
                doc = nbow(tokens, vocab, label=class_dir.name, doc_id=doc_key)
            except ValueError:
                corpus.skipped += 1
                continue
            getattr(corpus, destination).append(doc)
    return corpus
