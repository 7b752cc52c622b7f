"""Skip-gram with negative sampling, trained by mini-batch SGD.

The model keeps two embedding matrices: ``input`` rows represent focus
words, ``output`` rows represent context words. For a (focus, context)
pair with noise words n_1..n_k the loss is

    -log s(u_ctx . v_foc) - sum_i log s(-u_{n_i} . v_foc)

with s the logistic function, v rows of ``input`` and u rows of ``output``.
A batch's gradients are all taken at the parameters before the step, then
added row by row; only rows touched by a batch (as focus, context, or
negative) ever change. The additions to one row go in a fixed order:
``input`` rows in batch order; ``output`` rows first the context additions
in batch order, then the negative ones pair-major (pair 0's k draws, then
pair 1's). Floating-point addition does not associate, so this order is part
of the bitwise contract.

A step runs in two parts. Its plan holds what does not depend on the model:
the drawn negatives, the ``output`` rows (contexts, then negatives
pair-major) and the scatter rounds that apply the additions in that order
(see ``_add_rounds``). The kernel gathers the rows, takes the gradients and
adds them. ``train`` plans ``PLAN_BATCHES`` batches at a time, drawing their
negatives batch by batch as the steps would, then runs the kernel on each;
``train_step`` plans one batch and runs the same kernel.

All floating point work is float64 and every random draw comes from a
sub-seed derived from the config seed, so single-threaded training is
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import embed_io
from .corpus import Vocabulary
from .pairgen import PairDataset
from .seeds import derive_seed, derived_rng

# Batches planned at a time, so the plans' memory is bounded by one chunk.
PLAN_BATCHES = 1024


class TrainingError(RuntimeError):
    """Training diverged or could not proceed."""


@dataclass
class EmbeddingModel:
    """Input (focus) and output (context) embedding matrices, one row per word."""

    input: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        if self.input.shape != self.output.shape:
            raise ValueError(
                f"input/output shape mismatch: {self.input.shape} vs {self.output.shape}"
            )

    @property
    def vocab_size(self) -> int:
        return self.input.shape[0]

    @property
    def dim(self) -> int:
        return self.input.shape[1]

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(self.input.copy(), self.output.copy())


@dataclass
class NoiseDistribution:
    """Unigram noise distribution with exponent-damped counts."""

    probabilities: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        total = self.probabilities.sum()
        if not np.isclose(total, 1.0, atol=1e-12):
            raise ValueError(f"noise probabilities sum to {total}, expected 1")
        self._cdf = np.cumsum(self.probabilities)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw word ids i.i.d. from the distribution (inverse-CDF)."""
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        return np.minimum(idx, len(self.probabilities) - 1)


@dataclass
class TrainConfig:
    dim: int = 300
    negatives: int = 5
    epochs: int = 10
    learning_rate: float = 0.01
    batch_size: int = 10
    seed: int = 0
    noise_exponent: float = 0.75

    def __post_init__(self):
        for name in ("dim", "negatives", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.learning_rate < np.inf:  # NaN fails both comparisons
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


def init_random(vocab_size: int, dim: int, seed: int) -> EmbeddingModel:
    """Input rows i.i.d. uniform on [-0.5/dim, 0.5/dim); output rows zero."""
    if vocab_size < 1 or dim < 1:
        raise ValueError("vocab_size and dim must be positive")
    rng = np.random.default_rng(seed)
    inp = (rng.random((vocab_size, dim)) - 0.5) / dim
    return EmbeddingModel(input=inp, output=np.zeros((vocab_size, dim)))


def init_pretrained(
    vocab: Vocabulary, embedding_file: str | Path, config: TrainConfig
) -> tuple[EmbeddingModel, float]:
    """Copy pretrained input rows where available; randomize the rest.

    A file named ``*.bin`` is read as word2vec binary, any other as text.
    Vocabulary words found in the file (``embed_io.crop``) get their input
    row copied verbatim; the other input rows are those ``init_random``
    draws from the ``"sgns.init"`` stream of ``config.seed``. Output rows
    follow from the same stream and scheme (the pretrained output unit is
    assumed unavailable). Returns the model and the fraction of the
    vocabulary covered by the file. A file of another dim, or one that shares
    no word with the vocabulary, raises a ValueError naming the file.
    """
    read = embed_io.read_binary if Path(embedding_file).suffix == ".bin" else embed_io.read_text
    words, matrix = read(embedding_file)
    if matrix.shape[1] != config.dim:
        raise ValueError(f"{embedding_file}: embedding file has dim {matrix.shape[1]}, "
                         f"expected {config.dim}")
    try:
        words, matrix = embed_io.crop(words, matrix, vocab)
    except ValueError as exc:
        raise ValueError(f"{embedding_file}: {exc}") from exc
    rng = np.random.default_rng(derive_seed(config.seed, "sgns.init"))
    inp = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    out = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    inp[[vocab.id(w) for w in words]] = matrix
    return EmbeddingModel(input=inp, output=out), len(words) / len(vocab)


def noise_distribution(vocab: Vocabulary, alpha: float = 0.75) -> NoiseDistribution:
    """P(w) proportional to count(w)**alpha; an alpha that leaves no distribution raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        weights = vocab.counts.astype(np.float64) ** alpha
        total = weights.sum()
    if not 0 < total < np.inf:  # NaN fails both comparisons
        raise ValueError(f"noise exponent {alpha} leaves no distribution: weights sum to {total}")
    return NoiseDistribution(probabilities=weights / total)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow
    return np.logaddexp(0.0, x)


def pair_loss(model: EmbeddingModel, focus: int, context: int, negatives) -> float:
    """Negative-sampling loss of one pair against its drawn noise words."""
    v = model.input[focus]
    pos_score = model.output[context] @ v
    neg_scores = model.output[np.asarray(negatives, dtype=np.int64)] @ v
    return float(_softplus(-pos_score) + _softplus(neg_scores).sum())


def _gradients(v: np.ndarray, u: np.ndarray, k: int):
    """Losses and gradients of a batch at the current parameters.

    ``v`` holds the batch's ``input`` rows (B, d); ``u`` its ``output`` rows
    (B * (k + 1), d), the B context rows first and then the negatives
    pair-major. Returns (losses, g_input, g_output) with g_output laid out
    as ``u``, which is the order the module docstring gives for the
    additions.
    """
    b, d = v.shape
    uc, un = u[:b], u[b:].reshape(b, k, d)
    scores = np.empty((b, k + 1))           # positive score, then the k negatives
    np.einsum("bd,bd->b", uc, v, out=scores[:, 0])
    np.einsum("bkd,bd->bk", un, v, out=scores[:, 1:])
    s = _sigmoid(scores)
    s[:, 0] -= 1.0
    scores[:, 0] *= -1.0
    sp = _softplus(scores)
    losses = sp[:, 0] + sp[:, 1:].sum(axis=1)
    g_out = np.empty_like(u)
    np.multiply(s[:, :1], v, out=g_out[:b])
    np.multiply(s[:, 1:, None], v[:, None, :], out=g_out[b:].reshape(b, k, d))
    g_in = s[:, :1] * uc + np.einsum("bk,bkd->bd", s[:, 1:], un)
    return losses, g_in, g_out


def pair_gradients(model: EmbeddingModel, focus: int, context: int, negatives):
    """Analytic gradients of pair_loss for a single pair.

    Returns (g_focus, g_context, g_negatives) with g_negatives of shape
    (k, dim), one row per drawn negative (repeats get their own rows).
    """
    out = np.concatenate([[context], np.asarray(negatives, dtype=np.int64)])
    _, g_in, g_out = _gradients(model.input[[focus]], model.output[out], len(out) - 1)
    return g_in[0], g_out[0], g_out[1:]


def draw_negatives(
    ctx: np.ndarray, k: int, noise: NoiseDistribution, rng: np.random.Generator
) -> np.ndarray:
    """k noise ids per pair, i.i.d. from the noise distribution.

    Draws equal to the pair's true context word are rejected and redrawn.
    """
    negs = noise.sample(rng, (len(ctx), k))
    clash = negs == ctx[:, None]
    tries = 0
    while clash.any():
        negs[clash] = noise.sample(rng, int(clash.sum()))
        clash = negs == ctx[:, None]
        tries += 1
        if tries > 1000:
            raise TrainingError("cannot draw negatives distinct from the context word")
    return negs


class _Rounds(NamedTuple):
    """Scatter rounds of a run of batches of row ids.

    Round j of a batch holds the j-th occurrence of each of its rows, so
    the rows within a round are distinct. Round r spans
    ``rows[bounds[r]:bounds[r + 1]]``, with ``positions`` giving each row's
    index in its batch, in increasing order; batch i owns rounds
    ``first[i]`` to ``first[i + 1] - 1``.
    """

    rows: np.ndarray
    positions: np.ndarray
    bounds: list[int]
    first: list[int]


def _plan_rounds(rows: np.ndarray, starts: np.ndarray) -> _Rounds:
    """The scatter rounds of ``rows``, cut into batches at ``starts``
    (ascending, from 0 to ``len(rows)``), for every batch at once."""
    batch = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    key = batch * (int(rows.max()) + 1) + rows  # (batch, row), in that order
    order = key.argsort(kind="stable")
    ranked = key[order]
    rank = np.empty_like(rows)              # occurrence number of each row in its batch
    rank[order] = np.arange(len(rows)) - ranked.searchsorted(ranked)
    key = batch * (int(rank.max()) + 1) + rank  # (batch, round)
    by_round = key.argsort(kind="stable")   # stable: positions increase within a round
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(key[by_round])) + 1, [len(rows)]])
    return _Rounds(rows[by_round], by_round - starts[batch[by_round]], bounds.tolist(),
                   bounds.searchsorted(starts).tolist())


def _add_rounds(matrix: np.ndarray, rounds: _Rounds, i: int, updates: np.ndarray) -> None:
    """``matrix[row] += update`` for batch ``i`` of ``rounds``, round by round.

    The rows within a round are distinct, so one fancy-index add applies
    it. Every row sees the same additions in the same order as in a loop
    over the batch, so the bits are those of numpy's unbuffered ufunc
    ``at`` method, without its per-element cost.
    """
    for r in range(rounds.first[i], rounds.first[i + 1]):
        lo, hi = rounds.bounds[r], rounds.bounds[r + 1]
        matrix[rounds.rows[lo:hi]] += updates[rounds.positions[lo:hi]]


class _Plan(NamedTuple):
    """Everything about a run of SGD steps that does not depend on the model:
    the ``input`` rows, the ``output`` rows (per batch the contexts, then the
    negatives pair-major) and the scatter rounds of both."""

    k: int
    starts: list[int]                       # batch i is pairs starts[i]:starts[i + 1]
    foc: np.ndarray
    out: np.ndarray
    input_rounds: _Rounds
    output_rounds: _Rounds


def _plan(
    foc: np.ndarray,
    ctx: np.ndarray,
    batch_size: int,
    k: int,
    noise: NoiseDistribution,
    rng: np.random.Generator,
) -> _Plan:
    """Draw the negatives batch by batch, in the order steps would, and plan
    the steps over ``foc``/``ctx`` in batches of ``batch_size``."""
    starts = np.append(np.arange(0, len(foc), batch_size), len(foc))
    pieces = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        pieces += [ctx[lo:hi], draw_negatives(ctx[lo:hi], k, noise, rng).reshape(-1)]
    out = np.concatenate(pieces)
    return _Plan(k, starts.tolist(), foc, out, _plan_rounds(foc, starts),
                 _plan_rounds(out, starts * (k + 1)))


def _kernel(model: EmbeddingModel, plan: _Plan, i: int, lr: float) -> float:
    """Apply step ``i`` of ``plan`` to the model in place: take every gradient
    at the current parameters, then add them in the module docstring's
    order. Returns the batch mean loss."""
    lo, hi = plan.starts[i], plan.starts[i + 1]
    width = plan.k + 1
    losses, g_in, g_out = _gradients(model.input[plan.foc[lo:hi]],
                                     model.output[plan.out[lo * width:hi * width]], plan.k)
    g_in *= -lr
    g_out *= -lr
    _add_rounds(model.input, plan.input_rounds, i, g_in)
    _add_rounds(model.output, plan.output_rounds, i, g_out)
    return float(losses.sum() / (hi - lo))


def train_step(
    model: EmbeddingModel,
    foc: np.ndarray,
    ctx: np.ndarray,
    noise: NoiseDistribution,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[EmbeddingModel, float]:
    """One SGD step over a batch of (foc[i], ctx[i]) id pairs: draw the
    negatives, plan the one batch, then run the kernel that ``train`` runs.

    The model is updated in place and returned along with the batch mean
    loss.
    """
    if len(foc) == 0:
        raise ValueError("batch must be non-empty")
    plan = _plan(foc, ctx, len(foc), config.negatives, noise, rng)
    return model, _kernel(model, plan, 0, config.learning_rate)


def train(
    dataset: PairDataset,
    vocab: Vocabulary,
    config: TrainConfig,
    initial: EmbeddingModel | None = None,
    on_epoch=None,
) -> tuple[EmbeddingModel, list[float]]:
    """Train over the dataset for config.epochs, reshuffling every epoch.

    Starts from ``initial`` if given (e.g. from init_pretrained), otherwise
    from init_random. Returns the trained model and the per-epoch mean
    losses. Deterministic given (dataset, config) — every random draw
    derives from config.seed.
    ``on_epoch(epoch, model, mean_loss)``, if given, runs after each epoch
    (checkpointing hook; it must not mutate the model).
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    if len(vocab) < 2:
        raise ValueError("training needs a vocabulary of at least 2 words")
    vocab.check_ids(dataset.focus, dataset.context)
    if initial is None:
        initial = init_random(len(vocab), config.dim, derive_seed(config.seed, "sgns.init"))
    model = initial
    if model.vocab_size != len(vocab) or model.dim != config.dim:
        raise ValueError("initial model shape does not match vocabulary/config")
    noise = noise_distribution(vocab, config.noise_exponent)
    n = len(dataset)
    epoch_losses = []
    for epoch in range(config.epochs):
        order = derived_rng(config.seed, "sgns.shuffle", epoch).permutation(n)
        neg_rng = derived_rng(config.seed, "sgns.negatives", epoch)
        focus, context = dataset.focus[order], dataset.context[order]
        total = 0.0
        chunk = PLAN_BATCHES * config.batch_size
        for start in range(0, n, chunk):
            plan = _plan(focus[start:start + chunk], context[start:start + chunk],
                         config.batch_size, config.negatives, noise, neg_rng)
            for i in range(len(plan.starts) - 1):
                mean_loss = _kernel(model, plan, i, config.learning_rate)
                if not np.isfinite(mean_loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, "
                                        f"batch {start // config.batch_size + i}")
                total += mean_loss * (plan.starts[i + 1] - plan.starts[i])
        epoch_losses.append(total / n)
        if on_epoch is not None:
            on_epoch(epoch, model, epoch_losses[-1])
    return model, epoch_losses
