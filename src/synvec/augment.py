"""Synonym augmentation: mirror natural pairs through sampled synonyms and mix.

For each occurrence of a candidate focus word, one synonym is sampled and
paired with every context that occurrence kept, so the synonym literally
appears in the same contexts as the original word. The mixed dataset hits a
target augmented fraction by subsampling the augmented pool, never by
duplicating natural data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Vocabulary
from .errors import ParseError
# is_candidate and sample_synonym go unused here, but perfbench/tracer.py wraps
# them as augment's names, and tests/test_benchmark_contract.py checks they exist.
from .lexicon import SynonymLexicon, is_candidate, sample_synonym, sample_synonyms
from .pairgen import PairDataset
from .seeds import derived_rng

# Sweep values exposed by the CLI preset `--ratio standard`.
RATIO_SWEEP = (0.0, 0.02, 0.035, 0.06, 0.10, 0.16, 0.25, 0.37, 0.50, 0.64)


@dataclass(frozen=True)
class AugmentationPlan:
    """Target augmented fraction of the final dataset, plus the mixing seed."""

    ratio: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"augmentation ratio must be in [0, 1), got {self.ratio}")


def generate_augmented_pairs(
    natural: PairDataset,
    lexicon: SynonymLexicon,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> tuple[PairDataset, np.ndarray]:
    """Build the augmented pair pool from surviving natural pairs.

    One synonym is drawn per candidate focus occurrence and substituted as
    the focus of all that occurrence's pairs; contexts and positions are
    inherited unchanged. Also returns the (n, 2) int64 array of [focus,
    synonym] substitutions, one per occurrence in the pool whether or not a
    mix draws it: the fixed synonym evaluation set of every ratio, 0 included.

    Occurrences are recovered as consecutive runs of the same focus id
    (pair records carry no token index, so directly repeated words merge).
    Each run draws as ``sample_synonym`` would, in pair order; its synonym,
    or -1 for none, is then repeated over the run's pairs, and the runs with
    one make up the pool.
    """
    if natural.n_augmented:
        raise ValueError("input to generate_augmented_pairs must be natural pairs only")
    vocab.check_ids(natural.focus, natural.context)
    focus = natural.focus
    starts = np.flatnonzero(np.diff(focus, prepend=focus[:1] - 1))
    synonyms = sample_synonyms(focus[starts], lexicon, vocab, rng)
    runs = np.diff(starts, append=len(focus))
    drawn = synonyms >= 0
    pooled = np.repeat(drawn, runs)
    augmented = PairDataset(np.repeat(synonyms[drawn], runs[drawn]), natural.context[pooled],
                            natural.position[pooled], np.ones(int(pooled.sum()), dtype=bool))
    return augmented, np.stack([focus[starts[drawn]], synonyms[drawn]], axis=1)


def augmented_count(n_natural: int, ratio: float) -> int:
    """Number of augmented pairs needed so they form ``ratio`` of the mix."""
    return round(ratio * n_natural / (1.0 - ratio))


def max_ratio(n_natural: int, n_augmented: int) -> float:
    """Largest achievable augmented fraction given the available pool."""
    return n_augmented / (n_natural + n_augmented)


def mix(natural: PairDataset, augmented: PairDataset, plan: AugmentationPlan) -> PairDataset:
    """Combine all natural pairs with a subsample of the augmented pool.

    The augmented pool is subsampled without replacement to exactly
    m = round(ratio * |natural| / (1 - ratio)) pairs and the result is
    shuffled, all driven by the plan seed. Each column is gathered once from
    the natural column followed by the chosen pool rows.
    """
    if len(natural) == 0:
        raise ValueError("natural pair set must be non-empty")
    if natural.n_augmented:
        raise ValueError("natural input to mix contains augmented pairs")
    if augmented.n_natural:
        raise ValueError("augmented input to mix contains natural pairs")
    m = augmented_count(len(natural), plan.ratio)
    if len(augmented) < m:
        raise ValueError(
            f"ratio {plan.ratio} needs {m} augmented pairs but only "
            f"{len(augmented)} are available; maximum achievable ratio is "
            f"{max_ratio(len(natural), len(augmented)):.4f}"
        )
    rng = derived_rng(plan.seed, "augment.mix")
    chosen = np.sort(rng.choice(len(augmented), size=m, replace=False))
    order = rng.permutation(len(natural) + m)
    return PairDataset(*(np.concatenate([getattr(natural, k), getattr(augmented, k)[chosen]])[order]
                         for k in PairDataset.__slots__))


# --- substitution records file ------------------------------------------------


def write_substitutions(
    path: str | Path, substitutions: np.ndarray, meta: dict | None = None
) -> None:
    """Write `<focus_id>\\t<synonym_id>` lines, one per row, under a `#subs v1` header."""
    with fileio.output(path, "w", encoding="utf-8") as f:
        f.write(fileio.header("subs", meta))
        for focus_id, synonym_id in substitutions.tolist():
            f.write(f"{focus_id}\t{synonym_id}\n")


def read_substitutions(path: str | Path) -> np.ndarray:
    """The file's substitutions as an int64 array of [focus, synonym] rows."""
    rows = []
    with fileio.open_text(path) as f:
        fileio.read_header(f, path, "subs")
        for lineno, fields in fileio.records(f, path, "<focus>\t<synonym>", "\t"):
            try:
                rows.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise ParseError(path, lineno, f"non-integer id in {fields}")
    return fileio.int64_array(rows, path).reshape(-1, 2)
