"""Document classification with Word Mover's Distance and K-nearest neighbours.

Documents are normalized bag-of-words mass distributions; the distance
between two documents is the exact minimum-cost transport between their
masses with Euclidean embedding distance as the ground cost. One cheap
lower bound, the relaxed one-constraint problem (rwmd), both orders the
classifier's search and stops it, which skips most exact computations
without changing any prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _native, fileio
from .corpus import Vocabulary, tokenize
from .errors import ParseError
from .sgns import EmbeddingModel
from .transport import solve_transport

# Two-sided normal quantile of a 95% confidence interval.
_Z_95 = 1.959964


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


def _pairwise_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b.

    Explicit differences, not the |a|^2+|b|^2-2ab expansion: the latter
    cancels catastrophically near zero distance (identical words would
    get cost ~1e-8 instead of 0). Two float64 matrices go through the C
    kernel of ``_ground_cost.c``, which repeats the bits of
    ``_pairwise_cost_reference``; that runs for any other input (a float32
    model computes in float32) and when the library cannot be built.
    """
    library = _native._library()
    if library is None or not (a.dtype == b.dtype == np.float64 and a.ndim == b.ndim == 2
                               and a.shape[1] == b.shape[1]):
        return _pairwise_cost_reference(a, b)
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    out = np.empty((len(a), len(b)))
    library.synvec_pairwise_cost(len(a), len(b), a.shape[1], a.ctypes.data, b.ctypes.data,
                                 out.ctypes.data)
    return out


def _pairwise_cost_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_pairwise_cost`` in numpy, whether or not the C library loaded: the
    reference that tests compare the kernel with. One row of a at a time
    goes through one reused (len(b), d) buffer; every entry is the same
    subtract, square, sum over d and sqrt.
    """
    out = np.empty((len(a), len(b)))
    diff = np.empty(b.shape)
    for row, dist in zip(a, out):
        np.subtract(row, b, out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=-1, out=dist)
    np.sqrt(out, out=out)
    return out


def _cost_matrix(model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument) -> np.ndarray:
    return _pairwise_cost(model.input[d1.ids], model.input[d2.ids])


def _checked_cost(model, d1, d2, cost) -> np.ndarray:
    if cost is None:
        return _cost_matrix(model, d1, d2)
    if np.shape(cost) != (len(d1.ids), len(d2.ids)):
        raise ValueError(f"cost has shape {np.shape(cost)}, expected "
                         f"{(len(d1.ids), len(d2.ids))} (words of d1, words of d2)")
    return cost


def wmd(
    model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument, *, cost: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Exact Word Mover's Distance and an optimal flow matrix.

    ``flow[i, j]`` is the mass moved from word ``d1.ids[i]`` to word
    ``d2.ids[j]``; its rows sum to ``d1.weights`` and its columns to
    ``d2.weights``. ``cost``, if given, is the ground-cost matrix between
    those words, as ``_cost_matrix`` would build it.
    """
    flow, total = solve_transport(d1.weights, d2.weights, _checked_cost(model, d1, d2, cost))
    return total, flow


def wcd(model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument) -> float:
    """Word centroid distance: a cheap lower bound on wmd."""
    c1 = d1.weights @ model.input[d1.ids]
    c2 = d2.weights @ model.input[d2.ids]
    diff = c1 - c2
    return float(np.sqrt(diff @ diff))


def rwmd(
    model: EmbeddingModel, d1: NBowDocument, d2: NBowDocument, *, cost: np.ndarray | None = None
) -> float:
    """Relaxed WMD: drop one marginal constraint at a time, keep the max.

    Each relaxation sends every word's mass to its cheapest counterpart.
    Usually (not always) tighter than wcd; like wcd it never exceeds the
    exact distance, which is all the pruning logic relies on. ``cost`` is
    as for ``wmd``.
    """
    cost = _checked_cost(model, d1, d2, cost)
    forward = float(d1.weights @ cost.min(axis=1))
    backward = float(d2.weights @ cost.min(axis=0))
    return max(forward, backward)


def accuracy_ci(correct: int, total: int) -> tuple[float, float]:
    """Accuracy and the half-width of its 95% normal-approximation interval."""
    if total < 1:
        raise ValueError("total must be >= 1")
    p = correct / total
    half_width = _Z_95 * math.sqrt(p * (1.0 - p) / total)
    return p, half_width


# --- K-nearest neighbours over WMD -------------------------------------------


def _k_nearest(model, test_doc, train_docs, k, prune, skip_index=None):
    """Indices and distances of the k training docs nearest to test_doc.

    Returned sorted by (distance, index). With ``prune`` the candidates are
    visited by (rwmd, index); once k are held, the first whose rwmd lower
    bound exceeds the k-th distance ends the search, as every later one's
    does too, so the result matches exhaustive search exactly. The ground
    costs from test_doc to every candidate word are built once, as one
    (len(test_doc.ids), len(cols)) block, and sliced per candidate.
    """
    candidates = [i for i in range(len(train_docs)) if i != skip_index]
    k = min(k, len(candidates))
    cols = np.unique(np.concatenate([train_docs[i].ids for i in candidates]))
    block = _pairwise_cost(model.input[test_doc.ids], model.input[cols])
    visits = [(-math.inf, i) for i in candidates]  # exhaustive: no bound stops it
    if prune:
        visits = sorted((rwmd(model, test_doc, train_docs[i],
                              cost=block[:, np.searchsorted(cols, train_docs[i].ids)]), i)
                        for i in candidates)
    best: list[tuple[float, int]] = []
    for bound, i in visits:
        if len(best) == k and bound > best[-1][0]:
            break
        doc = train_docs[i]
        cost = block[:, np.searchsorted(cols, doc.ids)]
        best.append((wmd(model, test_doc, doc, cost=cost)[0], i))
        best.sort()
        del best[k:]
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
    prune: bool = True,
    leave_one_out: bool = False,
) -> tuple[list, float]:
    """Predict a label for each test document by majority vote of its
    k WMD-nearest training documents.

    ``prune`` only saves exact solves and never changes a prediction;
    ``prune=False`` is the exhaustive reference that tests compare with.
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
    if leave_one_out and len(train_docs) < 2:
        raise ValueError("leave-one-out needs at least two training documents")
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
    """Parse `<class>/<doc>\\t<train|test>` lines; a document listed twice
    raises a ParseError naming both its lines."""
    layout = "<class>/<doc>\t<train|test>"
    with fileio.open_text(path) as f:
        rows = list(fileio.records(f, path, layout, "\t", start=1, comments=True))
    for lineno, (_, part) in rows:
        if part not in ("train", "test"):
            raise ParseError(path, lineno, f"expected {layout!r}, got {part!r}")
    fileio.first_lines(path, ((lineno, doc) for lineno, (doc, _) in rows), "document")
    return {doc: part for _, (doc, part) in rows}


def load_classification_corpus(
    root: str | Path,
    vocab: Vocabulary,
    split: dict[str, str] | None = None,
) -> ClassificationCorpus:
    """Read one-file-per-document class directories into nBOW form. A split key
    that names no `<class>/<doc>` file raises KeyError before any is read."""
    root = Path(root)
    paths = {f"{class_dir.name}/{doc_path.name}": doc_path
             for class_dir in sorted(p for p in root.iterdir() if p.is_dir())
             for doc_path in sorted(p for p in class_dir.iterdir() if p.is_file())}
    if split is not None and not split.keys() <= paths.keys():
        raise KeyError(next(doc_key for doc_key in split if doc_key not in paths))
    corpus = ClassificationCorpus()
    for doc_key, doc_path in paths.items():
        destination = "train" if split is None else split.get(doc_key)
        if destination is None:
            corpus.unassigned += 1
            continue
        with fileio.open_text(doc_path, newline="") as f:
            text = f.read()
        tokens = [t for sentence in tokenize(text) for t in sentence]
        try:
            doc = nbow(tokens, vocab, label=doc_path.parent.name, doc_id=doc_key)
        except ValueError:
            corpus.skipped += 1
            continue
        getattr(corpus, destination).append(doc)
    return corpus
