"""The benchmark's workloads.

Each workload generates its inputs in `setup`, runs one timed pass of the
user's job in `run_pass`, and verifies the outputs in `checks`, which runs
after the timed phase. A pass calls the program only through `call(name,
fn, *args)` for the calls the benchmark makes itself, so the traced run
can record a span around them; everything else goes through the modules'
public names, which the tracer patches.

- train-e2e: the README's command sequence from raw text to evaluated
  vectors; SGD takes most of the time.
- wmd-knn: split-mode KNN over exact WMD, one `knn_classify` call per test
  document; the transport solver dominates, training and prep are
  bypassed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs


@dataclass
class PassResult:
    work: float                       # units of work the pass completed
    digest: str                       # equal on every pass of one seed
    latencies_ms: list[float] = field(default_factory=list)  # per document
    quality: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall: float = 0.0
    traced: bool = False


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _pairs_roundtrip(pairgen, dataset, path: Path) -> bool:
    pairgen.write_pairs(path, dataset, meta={"check": 1})
    return pairgen.read_pairs(path)[0] == dataset


class TrainE2E:
    """tokenize → build-vocab → gen-pairs → augment → train → eval-pairsets."""

    throughput_name = "pipeline_tokens_per_s"
    sample = "one whole pass"
    base_tokens = 10_000
    ratio = 0.25

    def __init__(self, program, seed: int, scale: float):
        self.p = program
        self.seed = seed
        self.n_tokens = max(500, int(self.base_tokens * scale))

    def setup(self, directory: Path) -> None:
        """Generate the text and lexicon, then load both with the program's
        own readers to confirm what it will see."""
        p = self.p
        self.inputs = inputs.write_pipeline_inputs(directory, self.seed, self.n_tokens)
        sentences = p.corpus.tokenize(p.corpus.read_text_files([self.inputs["text"]]))
        if sum(map(len, sentences)) != self.n_tokens:
            raise RuntimeError("generated corpus does not tokenize to the requested size")
        if p.lexicon.load_lexicon(self.inputs["lexicon"]).dropped != 1:
            raise RuntimeError("generated lexicon does not load as written")

    def cli(self, call, *argv) -> None:
        argv = [str(a) for a in argv]
        if call(f"cli.{argv[0]}", self.p.cli.main, argv) != 0:
            raise RuntimeError(f"synvec {' '.join(argv)} failed")

    def latency_samples(self, passes) -> list[float]:
        """A whole pass is the user's operation: one sample per pass."""
        return [p.wall * 1e3 for p in passes]

    def run_pass(self, d: Path, call) -> PassResult:
        cli, seed = self.cli, self.seed
        tok, vocab, natural, mixed = d / "corpus.tok", d / "vocab.tsv", d / "natural.pairs", d / "mixed.pairs"
        model, pairsets = d / "model.txt", d / "pairsets.csv"
        cli(call, "tokenize", self.inputs["text"], "--out", tok)
        cli(call, "build-vocab", "--corpus", tok, "--out", vocab)
        cli(call, "gen-pairs", "--corpus", tok, "--vocab", vocab, "--context-size", 5,
            "--seed", seed, "--out", natural)
        cli(call, "augment", "--pairs", natural, "--vocab", vocab, "--lexicon", self.inputs["lexicon"],
            "--ratio", self.ratio, "--seed", seed, "--out", mixed)
        cli(call, "train", "--pairs", mixed, "--vocab", vocab, "--dim", 300, "--negatives", 5,
            "--epochs", 1, "--lr", 0.025, "--batch", 10, "--seed", seed, "--out", model)
        cli(call, "eval-pairsets", "--model", model, "--pairs", mixed, "--subs", f"{mixed}.subs",
            "--vocab", vocab, "--size", "20,1000,1000", "--seed", seed, "--out", pairsets)
        means = {}
        for line in pairsets.read_text(encoding="utf-8").splitlines()[1:]:
            kind, _n, mean, _std = line.split(",")
            means[kind] = float(mean)
        return PassResult(
            work=self.n_tokens,
            digest=_digest([natural, mixed, f"{mixed}.subs", model, pairsets]),
            quality={"syn_gap": means["random"] - means["synonym"]},
            outputs={"dir": d},
        )

    def checks(self, passes) -> list[tuple[str, bool]]:
        pairgen, augment = self.p.pairgen, self.p.augment
        d = passes[-1].outputs["dir"]
        natural, _ = pairgen.read_pairs(d / "natural.pairs")
        mixed, _ = pairgen.read_pairs(d / "mixed.pairs")
        losses = [float(line.split(",")[1]) for line in
                  (d / "model.txt.loss.csv").read_text(encoding="utf-8").splitlines()[1:]]
        return [
            ("digests_identical_across_passes", len({p.digest for p in passes}) == 1),
            ("mixed_holds_augmented_count",
             mixed.n_natural == len(natural)
             and mixed.n_augmented == augment.augmented_count(len(natural), self.ratio)),
            ("natural_pairs_roundtrip", _pairs_roundtrip(pairgen, natural, d / "check.pairs")),
            ("mixed_pairs_roundtrip", _pairs_roundtrip(pairgen, mixed, d / "check.pairs")),
            ("losses_finite", bool(losses) and all(map(math.isfinite, losses))),
        ]


class WmdKnn:
    """Split-mode KNN (k=10, pruning on), one knn_classify call per test doc."""

    throughput_name = "knn_docs_per_s"
    sample = "per test document, median over passes"
    k = 10
    oracle_pairs = 6

    def __init__(self, program, seed: int, scale: float):
        self.p = program
        self.seed = seed
        self.n_train = max(12, int(40 * scale))
        self.n_test = max(12, int(80 * scale))

    def setup(self, directory: Path) -> None:
        p = self.p
        paths = inputs.write_wmd_inputs(directory, self.seed, self.n_train, self.n_test)
        words, matrix = p.embed_io.read_text(paths["model"])
        vocab = p.corpus.Vocabulary(words=words, counts=np.ones(len(words), dtype=np.int64),
                                    min_count=1)
        self.model = p.sgns.EmbeddingModel(input=matrix, output=np.zeros_like(matrix))
        split = p.eval_extrinsic.read_split_manifest(paths["split"])
        loaded = p.eval_extrinsic.load_classification_corpus(paths["docs"], vocab, split=split)
        self.train, self.test = loaded.train, loaded.test

    def run_pass(self, d: Path, call) -> PassResult:
        knn = self.p.eval_extrinsic
        predictions, latencies = [], []
        for doc in self.test:
            start = time.perf_counter()
            (label,), _ = knn.knn_classify(self.model, [doc], self.train, self.k, True)
            latencies.append((time.perf_counter() - start) * 1e3)
            predictions.append(label)
        correct = sum(label == doc.label for label, doc in zip(predictions, self.test))
        return PassResult(
            work=len(self.test),
            digest=hashlib.sha256("\n".join(predictions).encode()).hexdigest(),
            latencies_ms=latencies,
            quality={"knn_accuracy": correct / len(self.test)},
        )

    def latency_samples(self, passes) -> list[float]:
        """One sample per test document: its median latency over passes."""
        return [statistics.median(p.latencies_ms[i] for p in passes)
                for i in range(len(self.test))]

    def checks(self, passes) -> list[tuple[str, bool]]:
        """Exact WMD against the HiGHS LP, and both lower bounds, on a sample
        of solves spread over the support-size range."""
        ev = self.p.eval_extrinsic
        rng = np.random.default_rng([self.seed, 3])
        by_size = sorted(range(len(self.test)), key=lambda i: len(self.test[i].ids))
        picks = [by_size[int(q * (len(by_size) - 1))]
                 for q in np.linspace(0.0, 1.0, self.oracle_pairs)]
        checks = [("predictions_identical_across_passes", len({p.digest for p in passes}) == 1)]
        for t in picks:
            a, b = self.test[t], self.train[int(rng.integers(len(self.train)))]
            exact, _plan = ev.wmd(self.model, a, b)
            pair = f"test{t}_support{len(a.ids)}x{len(b.ids)}"
            checks += [
                (f"wmd_matches_highs_{pair}", abs(exact - _highs_cost(self.model, a, b)) <= 1e-6),
                (f"wcd_le_wmd_{pair}", ev.wcd(self.model, a, b) <= exact + 1e-9),
                (f"rwmd_le_wmd_{pair}", ev.rwmd(self.model, a, b) <= exact + 1e-9),
            ]
        return checks


def _highs_cost(model, a, b) -> float:
    """Optimal transport cost from scipy's HiGHS LP solver, an oracle
    independent of the program's own solver."""
    from scipy.optimize import linprog

    x, y = model.input[a.ids], model.input[b.ids]
    cost = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1))
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    result = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a.weights, b.weights]),
                     bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"HiGHS oracle failed: {result.message}")
    return float(result.fun)


def plain_call(name, fn, *args):
    """`call` for untraced passes: no span, just the call."""
    return fn(*args)


WORKLOADS = {"train-e2e": TrainE2E, "wmd-knn": WmdKnn}
