"""Span tracing of the program's public functions, from outside `src/`.

`Tracer.install` replaces each traced function with a timing wrapper at
the name its caller looks it up by. Several modules bind a function at
import (`from .seeds import derived_rng`), so such a function is patched
once per importing module, each alias recording a span under the name of
the module that defines it. `Tracer.uninstall` puts the originals back,
so untraced passes run the program exactly as shipped.

Spans are kept in memory as (name, start, end, parent, run id, note) and
reduced to per-layer metrics by `Tracer.metrics` after the timed phase. A
layer is the module a span's name starts with; its self time is the time
inside its spans not covered by their child spans.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "corpus", "seeds", "lexicon", "pairgen", "augment", "sgns",
          "embed_io", "eval_intrinsic", "eval_extrinsic", "transport")

CLI_COMMANDS = ("tokenize", "build-vocab", "gen-pairs", "augment", "train", "eval-pairsets")

# Bucket edges on the larger support of a transport problem.
SOLVE_BUCKETS = (("small", 0, 16), ("medium", 17, 48), ("large", 49, 1 << 30))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _cost_shape(args, kwargs, result):
    return np.shape(args[2])


# (module, attribute, span name, note): `note(args, kwargs, result)` keeps
# the counts a metric needs, measured where the work happens.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("corpus", "read_text_files", "corpus.read_text_files", None),
    ("corpus", "tokenize", "corpus.tokenize", lambda a, k, r: sum(map(len, r))),
    ("corpus", "write_tokens", "corpus.write_tokens", None),
    ("corpus", "read_tokens", "corpus.read_tokens", None),
    ("corpus", "build_vocabulary", "corpus.build_vocabulary", None),
    ("corpus", "write_vocab", "corpus.write_vocab", None),
    ("corpus", "read_vocab", "corpus.read_vocab", None),
    ("corpus", "encode", "corpus.encode", None),
    ("cli", "derive_seed", "seeds.derive_seed", None),
    ("cli", "derived_rng", "seeds.derived_rng", None),
    ("pairgen", "derived_rng", "seeds.derived_rng", None),
    ("augment", "derived_rng", "seeds.derived_rng", None),
    ("sgns", "derive_seed", "seeds.derive_seed", None),
    ("sgns", "derived_rng", "seeds.derived_rng", None),
    ("lexicon", "load_lexicon", "lexicon.load_lexicon", None),
    ("augment", "is_candidate", "lexicon.is_candidate", None),
    ("augment", "sample_synonym", "lexicon.sample_synonym", None),
    ("pairgen", "generate_pairs", "pairgen.generate_pairs",
     lambda a, k, r: (len(r), _candidate_pairs(a[0], a[1]))),
    ("pairgen", "write_pairs", "pairgen.write_pairs", _file_bytes),
    ("pairgen", "read_pairs", "pairgen.read_pairs", _file_bytes),
    ("augment", "generate_augmented_pairs", "augment.generate_augmented_pairs",
     lambda a, k, r: (len(a[0]), len(r[0]), len(r[1]))),
    ("augment", "mix", "augment.mix",
     lambda a, k, r: (len(a[1]), r.n_augmented, len(r))),
    ("augment", "write_substitutions", "augment.write_substitutions", None),
    ("augment", "read_substitutions", "augment.read_substitutions", None),
    ("sgns", "train", "sgns.train", lambda a, k, r: r[1][-1]),
    ("sgns", "init_random", "sgns.init_random", None),
    ("sgns", "noise_distribution", "sgns.noise_distribution", None),
    ("sgns", "train_step", "sgns.train_step", lambda a, k, r: len(a[1])),
    ("sgns", "draw_negatives", "sgns.draw_negatives", None),
    ("embed_io", "write_text", "embed_io.write_text", _file_bytes),
    ("embed_io", "read_text", "embed_io.read_text", None),
    ("eval_intrinsic", "build_pairsets", "eval_intrinsic.build_pairsets", None),
    ("eval_intrinsic", "pairset_stats", "eval_intrinsic.pairset_stats", None),
    ("eval_extrinsic", "knn_classify", "eval_extrinsic.knn_classify",
     lambda a, k, r: len(a[1]) * len(a[2])),
    ("eval_extrinsic", "wcd", "eval_extrinsic.wcd", None),
    ("eval_extrinsic", "rwmd", "eval_extrinsic.rwmd", None),
    ("eval_extrinsic", "wmd", "eval_extrinsic.wmd", None),
    ("eval_extrinsic", "solve_transport", "transport.solve_transport", _cost_shape),
)


def _candidate_pairs(encoded, C) -> int:
    """In-sentence (focus, context) pairs at offsets 1..C, before sampling."""
    total = 0
    for sentence in encoded:
        n = len(sentence)
        total += sum(2 * (n - c) for c in range(1, min(C, n - 1) + 1))
    return total


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if note is not None:
                spans[index].note = note(args, kwargs, result)
            return result

        return traced

    def install(self, run: int) -> None:
        self.run = run
        for module_name, attr, name, note in TRACED:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, *args):
        """Record a span around a call the benchmark makes itself."""
        return self._wrap(fn, name, None)(*args)

    def metrics(self, run_walls: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; each time, count and
        size is a mean per traced pass, `run_walls` holding their wall times."""
        return _layer_metrics(self.spans, run_walls, self.package.augment)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _layer_metrics(spans: list[Span], run_walls: list[float], augment) -> dict[str, tuple[float, str]]:
    runs = len(run_walls)
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    for index, span in enumerate(spans):
        by_name[span.name].append(span)
        self_by_layer[span.name.split(".")[0]] += span.duration - child_time[index]
    top_level = sum(s.duration for s in spans if s.parent < 0)

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n]) / runs

    def calls(name):
        return len(by_name[name]) / runs

    def self_of(name):
        return sum(spans[i].duration - child_time[i]
                   for i, s in enumerate(spans) if s.name == name) / runs

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["trace.spans"] = (len(spans) / runs, "count")
    m["trace.outside_s"] = (max(0.0, sum(run_walls) - top_level) / runs, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer] / runs, "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (total(f"cli.{command}"), "s")

    tokens = sum(s.note for s in by_name["corpus.tokenize"]) / runs
    m["corpus.tokenize_s"] = (total("corpus.tokenize"), "s")
    m["corpus.tokens_per_s"] = (rate(tokens, total("corpus.tokenize")), "tokens/s")
    m["corpus.build_vocab_s"] = (total("corpus.build_vocabulary"), "s")
    m["corpus.encode_s"] = (total("corpus.encode"), "s")
    m["corpus.io_s"] = (total("corpus.read_text_files", "corpus.write_tokens", "corpus.read_tokens",
                              "corpus.write_vocab", "corpus.read_vocab"), "s")

    m["seeds.derived_rng_calls"] = (calls("seeds.derived_rng"), "count")
    m["seeds.derived_rng_s"] = (total("seeds.derived_rng"), "s")

    m["lexicon.load_s"] = (total("lexicon.load_lexicon"), "s")
    m["lexicon.sample_calls"] = (calls("lexicon.sample_synonym"), "count")
    m["lexicon.sample_s"] = (total("lexicon.sample_synonym"), "s")

    generated = [s.note for s in by_name["pairgen.generate_pairs"]]
    kept = sum(g[0] for g in generated)
    written = sum(s.note for s in by_name["pairgen.write_pairs"]) / runs
    read = sum(s.note for s in by_name["pairgen.read_pairs"]) / runs
    m["pairgen.generate_s"] = (total("pairgen.generate_pairs"), "s")
    m["pairgen.pairs_per_s"] = (rate(kept / runs, total("pairgen.generate_pairs")), "pairs/s")
    m["pairgen.keep_frac"] = (rate(kept, sum(g[1] for g in generated)), "ratio")
    m["pairgen.write_s"] = (total("pairgen.write_pairs"), "s")
    m["pairgen.write_MBps"] = (rate(written / 1e6, total("pairgen.write_pairs")), "MB/s")
    m["pairgen.read_s"] = (total("pairgen.read_pairs"), "s")
    m["pairgen.read_MBps"] = (rate(read / 1e6, total("pairgen.read_pairs")), "MB/s")

    pools = [s.note for s in by_name["augment.generate_augmented_pairs"]]
    mixes = [s.note for s in by_name["augment.mix"]]
    top_mix = max(mixes, key=lambda x: x[1], default=(0, 0, 0))
    m["augment.generate_s"] = (total("augment.generate_augmented_pairs"), "s")
    m["augment.pool_pairs"] = (sum(p[1] for p in pools) / runs, "count")
    m["augment.subs"] = (sum(p[2] for p in pools) / runs, "count")
    m["augment.mix_s"] = (total("augment.mix"), "s")
    m["augment.achieved_ratio"] = (rate(top_mix[1], top_mix[2]), "ratio")
    m["augment.pool_use_frac"] = (rate(top_mix[1], top_mix[0]), "ratio")
    m["augment.subs_io_s"] = (total("augment.write_substitutions", "augment.read_substitutions"), "s")
    m["augment.sweep_unreachable"] = (sum(
        sum(r > augment.max_ratio(n, pool) for r in augment.RATIO_SWEEP)
        for n, pool, _subs in pools) / runs, "count")

    steps_us = [s.duration * 1e6 for s in by_name["sgns.train_step"]]
    step_pairs = sum(s.note for s in by_name["sgns.train_step"]) / runs
    losses = [s.note for s in by_name["sgns.train"]]
    m["sgns.train_s"] = (total("sgns.train"), "s")
    m["sgns.pairs_per_s"] = (rate(step_pairs, total("sgns.train")), "pairs/s")
    m["sgns.step_calls"] = (calls("sgns.train_step"), "count")
    m["sgns.step_us_p50"] = (_percentile(steps_us, 50), "us")
    m["sgns.step_us_p99"] = (_percentile(steps_us, 99), "us")
    m["sgns.draw_negatives_s"] = (total("sgns.draw_negatives"), "s")
    m["sgns.loop_self_s"] = (self_of("sgns.train"), "s")
    m["sgns.final_loss"] = (losses[-1] if losses else 0.0, "nats")

    written_model = sum(s.note for s in by_name["embed_io.write_text"]) / runs
    m["embed_io.write_text_s"] = (total("embed_io.write_text"), "s")
    m["embed_io.write_MBps"] = (rate(written_model / 1e6, total("embed_io.write_text")), "MB/s")

    m["eval_intrinsic.build_pairsets_s"] = (total("eval_intrinsic.build_pairsets"), "s")
    m["eval_intrinsic.pairset_stats_s"] = (total("eval_intrinsic.pairset_stats"), "s")

    candidates = sum(s.note for s in by_name["eval_extrinsic.knn_classify"]) / runs
    wmd_calls = calls("eval_extrinsic.wmd")
    m["eval_extrinsic.knn_s"] = (total("eval_extrinsic.knn_classify"), "s")
    m["eval_extrinsic.knn_self_s"] = (self_of("eval_extrinsic.knn_classify"), "s")
    m["eval_extrinsic.wcd_calls"] = (calls("eval_extrinsic.wcd"), "count")
    m["eval_extrinsic.wcd_s"] = (total("eval_extrinsic.wcd"), "s")
    m["eval_extrinsic.rwmd_calls"] = (calls("eval_extrinsic.rwmd"), "count")
    m["eval_extrinsic.rwmd_s"] = (total("eval_extrinsic.rwmd"), "s")
    m["eval_extrinsic.wmd_calls"] = (wmd_calls, "count")
    m["eval_extrinsic.wmd_self_s"] = (self_of("eval_extrinsic.wmd"), "s")
    m["eval_extrinsic.candidate_pairs"] = (candidates, "count")
    m["eval_extrinsic.prune_frac"] = (1.0 - wmd_calls / candidates if candidates else 0.0, "ratio")

    solves = by_name["transport.solve_transport"]
    solve_ms = [s.duration * 1e3 for s in solves]
    m["transport.solve_calls"] = (calls("transport.solve_transport"), "count")
    m["transport.solve_s"] = (total("transport.solve_transport"), "s")
    m["transport.solve_ms_p50"] = (_percentile(solve_ms, 50), "ms")
    m["transport.solve_ms_p99"] = (_percentile(solve_ms, 99), "ms")
    for bucket, low, high in SOLVE_BUCKETS:
        chosen = [s.duration * 1e3 for s in solves if low <= max(s.note) <= high]
        m[f"transport.solve_ms.{bucket}"] = (_percentile(chosen, 50), "ms")
    return m
