"""Command-line orchestration of the embedding pipeline.

Each subcommand declares its parameters once, as `Param` rows in its
`@command` table. The table drives everything else: the argparse flags,
the layered lookup (flag, then a `key = value` config file, then the
default), the coercion of config strings, the usage errors (exit 2) for a
missing value or one outside its choices, and the manifest written next to
the primary output. Feeding a manifest back in as ``--config`` reproduces
the run. All randomness flows from the single ``seed`` value through named
sub-seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, augment, corpus, embed_io, eval_extrinsic, eval_intrinsic
from . import lexicon as lexicon_mod
from . import pairgen, sgns
from .seeds import derive_seed, derived_rng


class UsageError(Exception):
    """A parameter is missing, malformed or inconsistent (exit status 2)."""


def boolean(raw: str) -> bool:
    """Config-file spelling of a boolean; on the command line `--x/--no-x`."""
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot interpret {raw!r} as a boolean")


def file_list(raw: str) -> list[str]:
    """Config-file spelling of the positional file list: shell words, so a
    path with spaces is quoted."""
    return shlex.split(raw)


REQUIRED = object()  # default of a parameter the run cannot do without


@dataclass(frozen=True)
class Param:
    """One parameter: config and manifest key `name`, flag `--name-with-dashes`.

    ``type`` turns a config string into the value; a ``file_list`` parameter is
    the positional argument list. A default of None means unset, and unset
    parameters are left out of the manifest.
    """

    name: str
    type: Callable[[str], Any] = str
    default: Any = None
    help: str = ""
    choices: tuple = ()
    alias: str | None = None

    def resolve(self, flag_value, config: dict[str, str]):
        """Flag, then config, then default."""
        value = None if flag_value == [] else flag_value  # empty nargs="*" is absent
        if value is None and self.name in config:
            try:
                value = self.type(config[self.name])
            except ValueError as exc:
                raise UsageError(f"config value {self.name} = {config[self.name]!r}: {exc}")
        if value is None:
            value = self.default
        if value is REQUIRED:
            raise _missing(self.name)
        if self.choices and value not in self.choices:
            raise UsageError(f"{self.name} must be one of {', '.join(self.choices)}, "
                             f"got {value!r}")
        return value


def _missing(name: str) -> UsageError:
    return UsageError(f"missing required parameter '{name}' (flag or config)")


def _require(p: argparse.Namespace, *names: str) -> None:
    """Usage error unless each named parameter is set; for the parameters
    whose need depends on the value of another."""
    for name in names:
        if getattr(p, name) is None:
            raise _missing(name)


@dataclass(frozen=True)
class Command:
    run: Callable[[argparse.Namespace], Any]  # returns the manifest's anchor path
    help: str
    params: tuple[Param, ...]


COMMANDS: dict[str, Command] = {}


def command(name: str, help: str, *params: Param):
    """Register a subcommand under `name` with its parameter table."""
    def register(run):
        COMMANDS[name] = Command(run, help, params)
        return run
    return register


def read_config(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines. A line whose first non-blank character is
    `#` is a comment; a `#` anywhere else belongs to the value."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            values[key.strip()] = value.strip()
    return values


def write_manifest(out_path: str | Path, command: str, params: dict) -> Path:
    """Record the resolved parameters of a run next to its primary output."""
    manifest = Path(str(out_path) + ".manifest")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write(f"# synvec {__version__} run manifest\n")
        f.write(f"command = {command}\n")
        for key in sorted(params):
            value = params[key]
            if isinstance(value, (list, tuple)):
                value = shlex.join(str(v) for v in value)
            f.write(f"{key} = {value}\n")
    return manifest


def _pseudo_vocab(words: list[str]) -> corpus.Vocabulary:
    """Positional vocabulary for a bare embedding file (unit counts)."""
    return corpus.Vocabulary(words=words, counts=np.ones(len(words), dtype=np.int64),
                             min_count=1)


def _load_model(path: str, binary: bool = False):
    words, matrix = (embed_io.read_binary if binary else embed_io.read_text)(path)
    matrix = matrix.astype(np.float64)
    model = sgns.EmbeddingModel(input=matrix, output=np.zeros_like(matrix))
    return model, _pseudo_vocab(words)


# --- subcommands ---------------------------------------------------------------

INPUTS = Param("inputs", file_list, REQUIRED, "input files")
CORPUS = Param("corpus", str, REQUIRED, "tokenized corpus file")
VOCAB = Param("vocab", str, REQUIRED, "vocabulary file")
PAIRS = Param("pairs", str, REQUIRED, "pair file")
MODEL = Param("model", str, REQUIRED, "embedding file (text format)")
SEED = Param("seed", int, 0, "master seed; every random stream derives from it")
OUT = Param("out", str, REQUIRED, "output file; the manifest goes to <out>.manifest")


@command("tokenize", "split raw text into sentences of word tokens", INPUTS, OUT)
def cmd_tokenize(p) -> str:
    sentences = corpus.tokenize(corpus.read_text_files(p.inputs))
    corpus.write_tokens(p.out, sentences)
    print(f"tokenize: {len(sentences)} sentences, "
          f"{sum(len(s) for s in sentences)} tokens -> {p.out}")
    return p.out


@command("build-vocab", "build a frequency-pruned vocabulary",
         CORPUS, Param("min_count", int, 1, "drop words seen fewer times"), OUT)
def cmd_build_vocab(p) -> str:
    vocab = corpus.build_vocabulary(corpus.read_tokens(p.corpus), min_count=p.min_count)
    corpus.write_vocab(p.out, vocab)
    print(f"build-vocab: {len(vocab)} words at min_count={p.min_count} -> {p.out}")
    return p.out


@command("gen-pairs", "generate positional-sampled skip-gram pairs",
         CORPUS, VOCAB, Param("context_size", int, 5, "maximum context offset C", alias="-C"),
         SEED, OUT)
def cmd_gen_pairs(p) -> str:
    vocab = corpus.read_vocab(p.vocab)
    encoded = corpus.encode(corpus.read_tokens(p.corpus), vocab)
    pairs = pairgen.generate_pairs(encoded, p.context_size, derive_seed(p.seed, "pairgen"))
    pairgen.write_pairs(p.out, pairs, meta={"C": p.context_size, "seed": p.seed})
    print(f"gen-pairs: {len(pairs)} natural pairs (C={p.context_size}) -> {p.out}")
    return p.out


@command("augment", "mix synonym-augmented pairs into the dataset",
         PAIRS, VOCAB, Param("lexicon", str, REQUIRED, "synonym lexicon (#synlex v1)"),
         Param("ratio", float, None, "augmented fraction of the mix; writes --out"),
         Param("ratio_sweep", str, None,
               "'standard' (the preset ratios the pool reaches) or comma-separated "
               "ratios; writes to --out-dir"),
         Param("out_dir", str, None, "directory of the --ratio-sweep pair files"),
         SEED, Param("out", str, None, "mixed pair file of --ratio"))
def cmd_augment(p) -> Path | str:
    if p.ratio_sweep is None:
        _require(p, "ratio", "out")
        ratios, anchor = [p.ratio], p.out
    else:
        _require(p, "out_dir")
        ratios = (augment.RATIO_SWEEP if p.ratio_sweep == "standard"
                  else [float(r) for r in p.ratio_sweep.split(",")])
        out_dir = Path(p.out_dir)
        anchor = out_dir / "augment"
    plans = [augment.AugmentationPlan(ratio=r, seed=derive_seed(p.seed, "augment.mix"))
             for r in ratios]

    vocab = corpus.read_vocab(p.vocab)
    lex = lexicon_mod.load_lexicon(p.lexicon)
    natural, meta = pairgen.read_pairs(p.pairs)
    if natural.n_augmented:
        natural = natural.by_origin(pairgen.ORIGIN_NATURAL)
    pool, substitutions = augment.generate_augmented_pairs(
        natural, lex, vocab, derived_rng(p.seed, "augment.synonyms")
    )
    unreachable = [plan.ratio for plan in plans
                   if augment.augmented_count(len(natural), plan.ratio) > len(pool)]
    if unreachable:
        reason = (f"ratio {', '.join(f'{r:g}' for r in unreachable)} out of reach: "
                  f"{len(pool)} augmented pairs available, maximum achievable ratio is "
                  f"{augment.max_ratio(len(natural), len(pool)):.4f}")
        # The preset spans every corpus size, so it keeps the ratios this pool
        # reaches; explicit ratios are refused as a whole before any is written.
        if p.ratio_sweep != "standard":
            raise ValueError(reason)
        print(f"augment: skipping standard sweep {reason}")
        plans = [plan for plan in plans if plan.ratio not in unreachable]
    if p.ratio_sweep is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for plan in plans:
        out = p.out if p.ratio_sweep is None else out_dir / f"pairs_r{plan.ratio:g}.txt"
        mixed = augment.mix(natural, pool, plan)
        pairgen.write_pairs(out, mixed, meta={"C": meta.get("C", "?"),
                                              "seed": p.seed, "ratio": plan.ratio})
        augment.write_substitutions(str(out) + ".subs", substitutions,
                                    meta={"seed": p.seed})
        print(f"augment: ratio={plan.ratio:g} -> {len(mixed)} pairs "
              f"({mixed.n_augmented} augmented) -> {out}")
    return anchor


@command("train", "train skip-gram embeddings with negative sampling",
         PAIRS, VOCAB,
         Param("dim", int, sgns.TrainConfig.dim, "embedding dimension"),
         Param("negatives", int, sgns.TrainConfig.negatives, "noise words drawn per pair"),
         Param("epochs", int, sgns.TrainConfig.epochs, "passes over the pairs"),
         Param("lr", float, sgns.TrainConfig.learning_rate, "SGD learning rate"),
         Param("batch", int, sgns.TrainConfig.batch_size, "pairs per gradient step"),
         SEED,
         Param("init", str, "random", "initial input vectors",
               choices=("random", "pretrained")),
         Param("pretrained_file", str, None, "vectors read by --init pretrained"),
         Param("binary", boolean, False, "--pretrained-file is word2vec binary"),
         Param("noise_exponent", float, sgns.TrainConfig.noise_exponent,
               "power of the counts in the noise distribution"),
         Param("loss_csv", str, None, "per-epoch mean loss file, <out>.loss.csv if unset"),
         Param("checkpoint_every", int, 0, "write <out>.epochN snapshots every N epochs"),
         OUT)
def cmd_train(p) -> str:
    if p.init == "pretrained":
        _require(p, "pretrained_file")
    config = sgns.TrainConfig(
        dim=p.dim, negatives=p.negatives, epochs=p.epochs, learning_rate=p.lr,
        batch_size=p.batch, seed=derive_seed(p.seed, "sgns"),
        noise_exponent=p.noise_exponent,
    )
    vocab = corpus.read_vocab(p.vocab)
    dataset, _meta = pairgen.read_pairs(p.pairs)
    initial = None
    if p.init == "pretrained":
        initial, coverage = sgns.init_pretrained(
            vocab, p.pretrained_file, config.dim,
            derive_seed(config.seed, "sgns.init"), binary=p.binary,
        )
        print(f"train: pretrained coverage {coverage:.1%}")

    def checkpoint(epoch, model, mean_loss):
        if p.checkpoint_every and (epoch + 1) % p.checkpoint_every == 0:
            embed_io.write_text(f"{p.out}.epoch{epoch + 1}", vocab.words, model.input)

    model, losses = sgns.train(dataset, vocab, config, initial=initial,
                               on_epoch=checkpoint)
    embed_io.write_text(p.out, vocab.words, model.input)
    with open(p.loss_csv or f"{p.out}.loss.csv", "w", encoding="utf-8") as f:
        f.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(losses):
            f.write(f"{epoch},{loss!r}\n")
    print(f"train: {config.epochs} epochs over {len(dataset)} pairs, "
          f"final mean loss {losses[-1]:.6f} -> {p.out}")
    return p.out


@command("eval-sim", "similarity-distance rank correlation",
         MODEL, Param("dataset", str, REQUIRED, "word-pair similarity file"),
         Param("dataset_format", str, "wordsim", "layout of --dataset",
               choices=("simlex", "wordsim")),
         Param("name", str, None, "dataset name in the output, the file stem if unset"),
         Param("metric", str, "cosine", "vector distance", choices=("cosine", "euclidean")),
         Param("common_vocab", str, None, "vocabulary that every scored word must be in"),
         OUT)
def cmd_eval_sim(p) -> str:
    model, vocab = _load_model(p.model)
    load = (eval_intrinsic.load_simlex if p.dataset_format == "simlex"
            else eval_intrinsic.load_wordsim)
    dataset = load(p.dataset, name=p.name or Path(p.dataset).stem)
    common = corpus.read_vocab(p.common_vocab) if p.common_vocab else None
    rho, used = eval_intrinsic.similarity_correlation(
        model, vocab, dataset, common_vocab=common, metric=p.metric
    )
    with open(p.out, "w", encoding="utf-8") as f:
        f.write("dataset,pairs_used,rho\n")
        f.write(f"{dataset.name},{used},{rho!r}\n")
    print(f"eval-sim: {dataset.name} rho={rho:.4f} over {used} pairs -> {p.out}")
    return p.out


@command("eval-pairsets", "distance stats over synonym/contextual/random pairs",
         MODEL, PAIRS, Param("subs", str, REQUIRED, "substitution records from augment"),
         VOCAB, Param("size", str, "1000", "pairs per set: one value or syn,ctx,rand"),
         SEED, OUT)
def cmd_eval_pairsets(p) -> str:
    size = (tuple(int(s) for s in p.size.split(",")) if "," in p.size else int(p.size))
    model, model_vocab = _load_model(p.model)
    vocab = corpus.read_vocab(p.vocab)
    if model_vocab.words != vocab.words:
        row = next((i for i, (a, b) in enumerate(zip(model_vocab.words, vocab.words))
                    if a != b), min(len(model_vocab), len(vocab)))
        raise ValueError(f"model rows do not line up with the vocabulary: {p.model} has "
                         f"{len(model_vocab)} words, {p.vocab} has {len(vocab)}, "
                         f"first difference at row {row}")
    dataset, _meta = pairgen.read_pairs(p.pairs)
    natural = dataset.by_origin(pairgen.ORIGIN_NATURAL)
    substitutions = augment.read_substitutions(p.subs)
    sets = eval_intrinsic.build_pairsets(
        substitutions, natural, vocab, size, derived_rng(p.seed, "pairsets")
    )
    with open(p.out, "w", encoding="utf-8") as f:
        f.write("set,pairs,mean,std\n")
        for pairset in sets:
            mean, std = eval_intrinsic.pairset_stats(model, pairset)
            f.write(f"{pairset.kind},{len(pairset)},{mean!r},{std!r}\n")
            print(f"eval-pairsets: {pairset.kind} mean={mean:.4f} std={std:.4f}")
    return p.out


@command("eval-wmd", "KNN document classification over Word Mover's Distance",
         MODEL, Param("docs", str, REQUIRED, "root of <class>/<doc> text files"),
         Param("split", str, None, "manifest of <class>/<doc>\\t<train|test> lines"),
         Param("mode", str, "loo", "leave-one-out over all docs, or train/test split",
               choices=("loo", "split")),
         Param("k", int, 10, "neighbours that vote"),
         Param("prune", boolean, True, "skip exact solves the WCD/RWMD bounds rule out"),
         OUT)
def cmd_eval_wmd(p) -> str:
    if p.mode == "split":
        _require(p, "split")
    model, vocab = _load_model(p.model)
    split = eval_extrinsic.read_split_manifest(p.split) if p.split else None
    loaded = eval_extrinsic.load_classification_corpus(p.docs, vocab, split=split)
    if p.mode == "loo":
        test_docs, train_docs, loo = loaded.train, loaded.train, True
    else:
        test_docs, train_docs, loo = loaded.test, loaded.train, False
    predictions, _ = eval_extrinsic.knn_classify(
        model, test_docs, train_docs, k=p.k, prune=p.prune, leave_one_out=loo,
    )
    correct = sum(pred == d.label for pred, d in zip(predictions, test_docs))
    acc, half_width = eval_extrinsic.accuracy_ci(correct, len(test_docs))
    with open(p.out, "w", encoding="utf-8") as f:
        f.write("doc_id,true_label,predicted_label\n")
        for doc, pred in zip(test_docs, predictions):
            f.write(f"{doc.doc_id},{doc.label},{pred}\n")
        f.write("accuracy,half_width,n\n")
        f.write(f"{acc!r},{half_width!r},{len(test_docs)}\n")
    print(f"eval-wmd: accuracy {acc:.4f} (+/- {half_width:.4f}) over "
          f"{len(test_docs)} docs ({loaded.skipped} skipped) -> {p.out}")
    return p.out


@command("report", "merge evaluation CSVs into one summary",
         INPUTS, Param("json", boolean, False, "write JSON, not CSV"), OUT)
def cmd_report(p) -> str:
    rows = []
    for path in p.inputs:
        with open(path, encoding="utf-8", newline="") as f:
            header: list[str] | None = None
            for record in csv.reader(f):
                if not record:
                    continue
                if header is None or len(record) != len(header):
                    header = record
                    continue
                rows.append({"source": path, **dict(zip(header, record))})
    if p.json:
        with open(p.out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
    else:
        keys = ["source"]
        for row in rows:
            keys.extend(k for k in row if k not in keys)
        with open(p.out, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=keys, restval="")
            writer.writeheader()
            writer.writerows(rows)
    print(f"report: merged {len(rows)} rows from {len(p.inputs)} files -> {p.out}")
    return p.out


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synvec",
        description="Train and evaluate skip-gram embeddings with synonym augmentation.",
    )
    parser.add_argument("--version", action="version", version=f"synvec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="key = value file supplying defaults")
        for row in cmd.params:
            text = row.help
            if row.default is REQUIRED:
                text += " (required)"
            elif row.default is not None:
                text += f" (default: {row.default})"
            if row.type is file_list:
                p.add_argument(row.name, nargs="*", help=text)
                continue
            flags = [f"--{row.name.replace('_', '-')}"] + ([row.alias] if row.alias else [])
            if row.type is boolean:
                p.add_argument(*flags, dest=row.name, default=None, help=text,
                               action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(*flags, dest=row.name, default=None, help=text,
                               type=row.type, choices=row.choices or None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        config = read_config(args.config) if args.config else {}
        params = {row.name: row.resolve(getattr(args, row.name), config)
                  for row in cmd.params}
        anchor = cmd.run(argparse.Namespace(**params))
        write_manifest(anchor, args.command,
                       {k: v for k, v in params.items() if v is not None})
    except UsageError as exc:
        parser.error(f"{args.command}: {exc}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"synvec {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
