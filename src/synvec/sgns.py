"""Skip-gram with negative sampling, trained by mini-batch SGD.

The model keeps two embedding matrices: ``input`` rows represent focus
words, ``output`` rows represent context words. For a (focus, context)
pair with noise words n_1..n_k the loss is

    -log s(u_ctx . v_foc) - sum_i log s(-u_{n_i} . v_foc)

with s the logistic function, v rows of ``input`` and u rows of ``output``.
Gradients are accumulated over a batch and applied once; only rows touched
by a batch (as focus, context, or negative) ever change.

All floating point work is float64 and every random draw comes from a
sub-seed derived from the config seed, so single-threaded training is
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .pairgen import PairDataset
from .seeds import derive_seed, derived_rng


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
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")


def init_random(vocab_size: int, dim: int, seed: int) -> EmbeddingModel:
    """Input rows i.i.d. uniform on [-0.5/dim, 0.5/dim); output rows zero."""
    if vocab_size < 1 or dim < 1:
        raise ValueError("vocab_size and dim must be positive")
    rng = np.random.default_rng(seed)
    inp = (rng.random((vocab_size, dim)) - 0.5) / dim
    return EmbeddingModel(input=inp, output=np.zeros((vocab_size, dim)))


def init_pretrained(
    vocab: Vocabulary,
    embedding_file: str | Path,
    dim: int,
    seed: int,
    binary: bool = False,
) -> tuple[EmbeddingModel, float]:
    """Copy pretrained input rows where available; randomize the rest.

    Vocabulary words found in the file get their input row copied verbatim;
    missing words fall back to the random-init scheme. Output rows are
    always drawn from the same uniform scheme (the pretrained output unit
    is assumed unavailable). Returns the model and the fraction of the
    vocabulary covered by the file.
    """
    from . import embed_io

    words, matrix = (embed_io.read_binary if binary else embed_io.read_text)(embedding_file)
    if matrix.shape[1] != dim:
        raise ValueError(f"embedding file has dim {matrix.shape[1]}, expected {dim}")
    rng = np.random.default_rng(seed)
    inp = (rng.random((len(vocab), dim)) - 0.5) / dim
    out = (rng.random((len(vocab), dim)) - 0.5) / dim
    row_of = {w: i for i, w in enumerate(words)}
    found = 0
    for wid, word in enumerate(vocab.words):
        row = row_of.get(word)
        if row is not None:
            inp[wid] = matrix[row].astype(np.float64)
            found += 1
    return EmbeddingModel(input=inp, output=out), found / len(vocab)


def noise_distribution(vocab: Vocabulary, alpha: float = 0.75) -> NoiseDistribution:
    """P(w) proportional to count(w)**alpha."""
    weights = vocab.counts.astype(np.float64) ** alpha
    return NoiseDistribution(probabilities=weights / weights.sum())


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


def _batch_gradients(model, foc, ctx, negs):
    """Loss and parameter gradients for a batch of pairs with fixed negatives.

    Returns (losses, g_input, g_context, g_negatives) where g_input is the
    gradient w.r.t. input[foc] rows, g_context w.r.t. output[ctx] rows and
    g_negatives w.r.t. output[negs] rows, all at the current parameters.
    """
    v = model.input[foc]                    # (B, d)
    uc = model.output[ctx]                  # (B, d)
    un = model.output[negs]                 # (B, k, d)
    pos_score = np.einsum("bd,bd->b", uc, v)
    neg_score = np.einsum("bkd,bd->bk", un, v)
    losses = _softplus(-pos_score) + _softplus(neg_score).sum(axis=1)
    s_pos = _sigmoid(pos_score)
    s_neg = _sigmoid(neg_score)
    g_ctx = (s_pos - 1.0)[:, None] * v
    g_neg = s_neg[:, :, None] * v[:, None, :]
    g_in = (s_pos - 1.0)[:, None] * uc + np.einsum("bk,bkd->bd", s_neg, un)
    return losses, g_in, g_ctx, g_neg


def pair_gradients(model: EmbeddingModel, focus: int, context: int, negatives):
    """Analytic gradients of pair_loss for a single pair.

    Returns (g_focus, g_context, g_negatives) with g_negatives of shape
    (k, dim), one row per drawn negative (repeats get their own rows).
    """
    foc = np.array([focus], dtype=np.int64)
    ctx = np.array([context], dtype=np.int64)
    negs = np.asarray(negatives, dtype=np.int64).reshape(1, -1)
    _, g_in, g_ctx, g_neg = _batch_gradients(model, foc, ctx, negs)
    return g_in[0], g_ctx[0], g_neg[0]


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


def train_step(
    model: EmbeddingModel,
    foc: np.ndarray,
    ctx: np.ndarray,
    noise: NoiseDistribution,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[EmbeddingModel, float]:
    """One SGD step over a batch of (foc[i], ctx[i]) id pairs: accumulate
    gradients, apply once.

    The model is updated in place and returned along with the batch mean
    loss.
    """
    if len(foc) == 0:
        raise ValueError("batch must be non-empty")
    negs = draw_negatives(ctx, config.negatives, noise, rng)
    losses, g_in, g_ctx, g_neg = _batch_gradients(model, foc, ctx, negs)
    lr = config.learning_rate
    np.add.at(model.input, foc, -lr * g_in)
    np.add.at(model.output, ctx, -lr * g_ctx)
    np.add.at(model.output, negs.reshape(-1), -lr * g_neg.reshape(-1, model.dim))
    return model, float(losses.mean())


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
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            foc = focus[start:start + config.batch_size]
            ctx = context[start:start + config.batch_size]
            _, mean_loss = train_step(model, foc, ctx, noise, config, neg_rng)
            if not np.isfinite(mean_loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            total += mean_loss * len(foc)
        epoch_losses.append(total / n)
        if on_epoch is not None:
            on_epoch(epoch, model, epoch_losses[-1])
    return model, epoch_losses
