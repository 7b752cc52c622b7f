"""Command-line orchestration of the embedding pipeline.

Each subcommand declares its parameters once, as `Param` rows in its
`@command` table. The table drives everything else: the argparse flags,
which only collect strings; the layered lookup (flag, then a `key = value`
config file, then the default); the parsing of a flag or config string
into its value, and the usage errors (exit 2) for a missing value, one
that does not parse or one outside its choices, worded alike for both
sources; and the manifest written next to the primary output. Feeding a
manifest back in as ``--config`` reproduces the run. All randomness flows
from the single ``seed`` value through named sub-seeds.
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

from . import __version__, augment, corpus, embed_io, eval_extrinsic, eval_intrinsic, fileio
from . import lexicon as lexicon_mod
from . import pairgen, sgns
from .seeds import derive_seed, derived_rng


class UsageError(Exception):
    """A parameter is missing, malformed or inconsistent (exit status 2)."""


def pair_set_sizes(raw: str) -> int | tuple[int, int, int]:
    """`--size`: one positive pair count for all sets, or syn,ctx,rand."""
    sizes = tuple(int(s) for s in raw.split(","))
    if len(sizes) not in (1, 3) or min(sizes) < 1:
        raise ValueError(f"expected one positive integer or three, got {raw!r}")
    return sizes[0] if len(sizes) == 1 else sizes


def sweep_ratios(raw: str) -> str | tuple[float, ...]:
    """`--ratio`: `standard` or comma-separated ratios, no two of which name
    the same `_r<ratio>` file."""
    if raw == "standard":
        return raw
    ratios = tuple(float(r) for r in raw.split(","))
    if len({f"{r:g}" for r in ratios}) < len(ratios):
        raise ValueError(f"two of the ratios {raw!r} print as the same _r<ratio> name")
    return ratios


def file_list(raw: str) -> list[str]:
    """Config-file spelling of the positional file list: shell words, so a
    path with spaces is quoted."""
    return shlex.split(raw)


REQUIRED = object()  # default of a parameter the run cannot do without


@dataclass(frozen=True)
class Param:
    """One parameter: config and manifest key `name`, flag `--name-with-dashes`.

    ``type`` turns a flag or config string into the value; argparse already
    splits the positional list of a ``file_list`` parameter. A default of
    None means unset, and unset parameters are left out of the manifest.
    """

    name: str
    type: Callable[[str], Any] = str
    default: Any = None
    help: str = ""
    choices: tuple = ()
    alias: str | None = None

    @property
    def flag(self) -> str:
        return f"--{self.name.replace('_', '-')}"

    def resolve(self, flag_value, config: dict[str, str]):
        """Flag, then config, then default. Either source's string is parsed by
        ``type`` and checked against ``choices``, and refused in one form."""
        if flag_value is not None and flag_value != []:  # empty nargs="*" is absent
            source, raw = f"argument {self.flag}", flag_value
        elif self.name in config:
            source, raw = f"config value {self.name} =", config[self.name]
        elif self.default is REQUIRED:
            raise UsageError(f"missing required parameter '{self.name}' (flag or config)")
        else:
            return self.default
        try:
            value = raw if isinstance(raw, list) else self.type(raw)
        except ValueError as exc:
            raise UsageError(f"{source} {raw!r}: {exc}") from None
        if self.choices and value not in self.choices:
            raise UsageError(f"{source} {raw!r}: must be one of {', '.join(self.choices)}")
        return value


@dataclass(frozen=True)
class Command:
    run: Callable[[argparse.Namespace], None]
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
    `#` is a comment; a `#` anywhere else belongs to the value. A key given
    twice raises a ParseError naming both its lines."""
    entries: list[tuple[int, str, str]] = []  # each line's number, key and value
    with fileio.open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            entries.append((lineno, key.strip(), value.strip()))
    fileio.first_lines(path, ((lineno, key) for lineno, key, _ in entries), "key")
    return {key: value for _, key, value in entries}


def write_manifest(out_path: str | Path, command: str, params: dict) -> None:
    """Record the resolved parameters of a run next to its primary output."""
    with fileio.output(f"{out_path}.manifest", "w", encoding="utf-8") as f:
        f.write(f"# synvec {__version__} run manifest\n")
        f.write(f"command = {command}\n")
        for key in sorted(params):
            value = params[key]
            if isinstance(value, list):  # the positional file list, as shell words
                value = shlex.join(value)
            elif isinstance(value, tuple):  # numbers, comma-separated as on the flag
                value = ",".join(map(str, value))
            f.write(f"{key} = {value}\n")


def _write_csv(path: str | Path, rows: list) -> None:
    """Write rows as CSV, quoting a field that holds a comma or quote. An
    empty row is a blank line, which ends one table; the next row is a header."""
    with fileio.output(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _load_model(path: str):
    """A text embedding file as a model and its positional vocabulary (unit counts)."""
    words, matrix = embed_io.read_text(path)
    model = sgns.EmbeddingModel(input=matrix, output=np.zeros_like(matrix))
    return model, corpus.Vocabulary(words=words, counts=np.ones(len(words), dtype=np.int64),
                                    min_count=1)


# --- subcommands ---------------------------------------------------------------

INPUTS = Param("inputs", file_list, REQUIRED, "input files")
CORPUS = Param("corpus", str, REQUIRED, "tokenized corpus file")
VOCAB = Param("vocab", str, REQUIRED, "vocabulary file")
PAIRS = Param("pairs", str, REQUIRED, "pair file")
MODEL = Param("model", str, REQUIRED, "embedding file (text format)")
SEED = Param("seed", int, 0, "master seed; every random stream derives from it")
OUT = Param("out", str, REQUIRED, "output file; the manifest goes to <out>.manifest")


@command("tokenize", "split raw text into sentences of word tokens", INPUTS, OUT)
def cmd_tokenize(p):
    sentences = corpus.tokenize(corpus.read_text_files(p.inputs))
    corpus.write_tokens(p.out, sentences)
    print(f"tokenize: {len(sentences)} sentences, "
          f"{sum(len(s) for s in sentences)} tokens -> {p.out}")


@command("build-vocab", "build a frequency-pruned vocabulary",
         CORPUS, Param("min_count", int, 1, "drop words seen fewer times"), OUT)
def cmd_build_vocab(p):
    vocab = corpus.build_vocabulary(corpus.read_tokens(p.corpus), min_count=p.min_count)
    corpus.write_vocab(p.out, vocab)
    print(f"build-vocab: {len(vocab)} words at min_count={p.min_count} -> {p.out}")


@command("gen-pairs", "generate positional-sampled skip-gram pairs",
         CORPUS, VOCAB, Param("context_size", int, 5, "maximum context offset C", alias="-C"),
         SEED, OUT)
def cmd_gen_pairs(p):
    vocab = corpus.read_vocab(p.vocab)
    encoded = corpus.encode(corpus.read_tokens(p.corpus), vocab)
    pairs = pairgen.generate_pairs(encoded, p.context_size, derive_seed(p.seed, "pairgen"))
    pairgen.write_pairs(p.out, pairs, meta={"C": p.context_size, "seed": p.seed})
    print(f"gen-pairs: {len(pairs)} natural pairs (C={p.context_size}) -> {p.out}")


@command("augment", "mix synonym-augmented pairs into the dataset",
         PAIRS, VOCAB, Param("lexicon", str, REQUIRED, "synonym lexicon (#synlex v1)"),
         Param("ratio", sweep_ratios, REQUIRED,
               "augmented fraction of the mix: one ratio, comma-separated ratios, or "
               "'standard' (the preset ratios the pool reaches)"),
         SEED, Param("out", str, REQUIRED, "mixed pair file of one ratio; ratio r of "
                     "several goes to <stem>_r<r><suffix> beside it"))
def cmd_augment(p):
    ratios = augment.RATIO_SWEEP if p.ratio == "standard" else p.ratio
    plans = [augment.AugmentationPlan(ratio=r, seed=derive_seed(p.seed, "augment.mix"))
             for r in ratios]

    vocab = corpus.read_vocab(p.vocab)
    lex = lexicon_mod.load_lexicon(p.lexicon)
    natural, meta = pairgen.read_pairs(p.pairs)
    if "ratio" in meta:  # a mix is shuffled, so its runs of one focus are not occurrences
        raise ValueError(f"{p.pairs}: augment reads natural pairs, not a mix augment wrote")
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
        if p.ratio != "standard":
            raise ValueError(reason)
        print(f"augment: skipping standard sweep {reason}")
        plans = [plan for plan in plans if plan.ratio not in unreachable]
    # One list for the whole pool, the fixed synonym set every ratio is scored on.
    augment.write_substitutions(f"{p.out}.subs", substitutions, meta={"seed": p.seed})
    single = p.ratio != "standard" and len(p.ratio) == 1
    base = Path(p.out)
    for plan in plans:
        out = p.out if single else base.with_name(f"{base.stem}_r{plan.ratio:g}{base.suffix}")
        mixed = augment.mix(natural, pool, plan)
        pairgen.write_pairs(out, mixed, meta={"C": meta.get("C", "?"),
                                              "seed": p.seed, "ratio": plan.ratio})
        print(f"augment: ratio={plan.ratio:g} -> {len(mixed)} pairs "
              f"({mixed.n_augmented} augmented) -> {out}")


@command("train", "train skip-gram embeddings with negative sampling",
         PAIRS, VOCAB,
         Param("dim", int, sgns.TrainConfig.dim, "embedding dimension"),
         Param("negatives", int, sgns.TrainConfig.negatives, "noise words drawn per pair"),
         Param("epochs", int, sgns.TrainConfig.epochs, "passes over the pairs"),
         Param("lr", float, sgns.TrainConfig.learning_rate, "SGD learning rate"),
         Param("batch", int, sgns.TrainConfig.batch_size, "pairs per gradient step"),
         SEED,
         Param("pretrained_file", str, None, "vectors to start from, word2vec binary if "
               "named *.bin, text otherwise; a random start if unset"),
         Param("noise_exponent", float, sgns.TrainConfig.noise_exponent,
               "power of the counts in the noise distribution"),
         Param("checkpoint_every", int, 0, "write <out>.epochN snapshots every N epochs"),
         OUT)
def cmd_train(p):
    if p.checkpoint_every < 0:
        raise UsageError(f"checkpoint_every must be >= 0, got {p.checkpoint_every}")
    config = sgns.TrainConfig(
        dim=p.dim, negatives=p.negatives, epochs=p.epochs, learning_rate=p.lr,
        batch_size=p.batch, seed=derive_seed(p.seed, "sgns"),
        noise_exponent=p.noise_exponent,
    )
    vocab = corpus.read_vocab(p.vocab)
    dataset, _meta = pairgen.read_pairs(p.pairs)
    initial = None
    if p.pretrained_file:
        initial, coverage = sgns.init_pretrained(vocab, p.pretrained_file, config)
        print(f"train: pretrained coverage {coverage:.1%}")

    def checkpoint(epoch, model, mean_loss):
        if p.checkpoint_every and (epoch + 1) % p.checkpoint_every == 0:
            embed_io.write_text(f"{p.out}.epoch{epoch + 1}", vocab.words, model.input)

    model, losses = sgns.train(dataset, vocab, config, initial=initial,
                               on_epoch=checkpoint)
    embed_io.write_text(p.out, vocab.words, model.input)
    _write_csv(f"{p.out}.loss.csv", [["epoch", "mean_loss"], *enumerate(losses)])
    print(f"train: {config.epochs} epochs over {len(dataset)} pairs, "
          f"final mean loss {losses[-1]:.6f} -> {p.out}")


@command("eval-sim", "similarity-distance rank correlation",
         MODEL, Param("dataset", str, REQUIRED, "word-pair similarity file"),
         Param("metric", str, "cosine", "vector distance", choices=("cosine", "euclidean")),
         Param("common_vocab", str, None, "vocabulary that every scored word must be in"),
         OUT)
def cmd_eval_sim(p):
    model, vocab = _load_model(p.model)
    dataset = eval_intrinsic.load_similarity(p.dataset)
    common = corpus.read_vocab(p.common_vocab) if p.common_vocab else None
    rho, used = eval_intrinsic.similarity_correlation(
        model, vocab, dataset, common_vocab=common, metric=p.metric
    )
    _write_csv(p.out, [["dataset", "pairs_used", "rho"], [dataset.name, used, rho]])
    print(f"eval-sim: {dataset.name} rho={rho:.4f} over {used} pairs -> {p.out}")


@command("eval-pairsets", "distance stats over synonym/contextual/random pairs",
         MODEL, PAIRS, Param("subs", str, REQUIRED, "substitution records from augment"),
         VOCAB, Param("size", pair_set_sizes, 1000, "pairs per set: one value or syn,ctx,rand"),
         SEED, OUT)
def cmd_eval_pairsets(p):
    model, model_vocab = _load_model(p.model)
    vocab = corpus.read_vocab(p.vocab)
    if model_vocab.words != vocab.words:
        row = next((i for i, (a, b) in enumerate(zip(model_vocab.words, vocab.words))
                    if a != b), min(len(model_vocab), len(vocab)))
        raise ValueError(f"model rows do not line up with the vocabulary: {p.model} has "
                         f"{len(model_vocab)} words, {p.vocab} has {len(vocab)}, "
                         f"first difference at row {row}")
    dataset, _meta = pairgen.read_pairs(p.pairs)
    natural = dataset.subset(~dataset.augmented)
    substitutions = augment.read_substitutions(p.subs)
    sets = eval_intrinsic.build_pairsets(
        substitutions, natural, vocab, p.size, derived_rng(p.seed, "pairsets")
    )
    table = [["set", "pairs", "mean", "std"]]
    for pairset in sets:
        mean, std = eval_intrinsic.pairset_stats(model, pairset)
        table.append([pairset.kind, len(pairset), mean, std])
        print(f"eval-pairsets: {pairset.kind} mean={mean:.4f} std={std:.4f}")
    _write_csv(p.out, table)


@command("eval-wmd", "KNN document classification over Word Mover's Distance",
         MODEL, Param("docs", str, REQUIRED, "root of <class>/<doc> text files"),
         Param("split", str, None, "manifest of <class>/<doc>\\t<train|test> lines; "
               "leave-one-out over all docs if unset"),
         Param("k", int, 10, "neighbours that vote"),
         OUT)
def cmd_eval_wmd(p):
    model, vocab = _load_model(p.model)
    split = eval_extrinsic.read_split_manifest(p.split) if p.split else None
    try:
        loaded = eval_extrinsic.load_classification_corpus(p.docs, vocab, split=split)
    except KeyError as exc:
        raise ValueError(f"{p.split} lists {exc.args[0]}, which is not a <class>/<doc> "
                         f"file under {p.docs}") from None
    test_docs = loaded.train if split is None else loaded.test
    if not test_docs:
        raise ValueError(
            f"no documents to classify: {p.split or p.docs} leaves {len(loaded.train)} train, "
            f"{len(loaded.test)} test, {loaded.skipped} skipped and {loaded.unassigned} "
            "unassigned documents"
        )
    predictions, _ = eval_extrinsic.knn_classify(
        model, test_docs, loaded.train, k=p.k, leave_one_out=split is None,
    )
    correct = sum(pred == d.label for pred, d in zip(predictions, test_docs))
    acc, half_width = eval_extrinsic.accuracy_ci(correct, len(test_docs))
    _write_csv(p.out, [["doc_id", "true_label", "predicted_label"],
                       *([d.doc_id, d.label, pred] for d, pred in zip(test_docs, predictions)),
                       [], ["accuracy", "half_width", "n"], [acc, half_width, len(test_docs)]])
    print(f"eval-wmd: accuracy {acc:.4f} (+/- {half_width:.4f}) over "
          f"{len(test_docs)} docs ({loaded.skipped} skipped, {loaded.unassigned} unassigned) "
          f"-> {p.out}")


@command("report", "merge evaluation CSVs into one summary, JSON if --out is *.json",
         INPUTS, OUT)
def cmd_report(p):
    rows = []
    for path in p.inputs:
        with fileio.open_text(path, newline="") as f:
            header: list[str] | None = None
            reader = csv.reader(f)
            for record in reader:
                if not record:  # a blank line ends a table; the next line is a header
                    header = None
                elif header is None:
                    header = record
                elif len(record) != len(header):
                    raise ValueError(f"{path}:{reader.line_num}: {len(record)} fields under "
                                     f"a header of {len(header)}")
                else:
                    rows.append({"source": path, **dict(zip(header, record))})
    if Path(p.out).suffix == ".json":
        with fileio.output(p.out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
    else:
        keys = list(dict.fromkeys(["source", *(k for row in rows for k in row)]))
        _write_csv(p.out, [keys, *([row.get(k, "") for k in keys] for row in rows)])
    print(f"report: merged {len(rows)} rows from {len(p.inputs)} files -> {p.out}")


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synvec",
        description="Train and evaluate skip-gram embeddings with synonym augmentation.",
    )
    parser.add_argument("--version", action="version", version=f"synvec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        # Flags must be spelled in full, so an unknown flag that is a prefix
        # of a real one (`--mode` of `--model`) is a usage error, not an alias.
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        p.set_defaults(usage_error=p.error)  # a refused value shows this command's usage
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
            flags = [row.flag, row.alias] if row.alias else [row.flag]
            p.add_argument(*flags, dest=row.name, help=text,
                           metavar="{" + ",".join(row.choices) + "}" if row.choices else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        config = read_config(args.config) if args.config else {}
        params = {row.name: row.resolve(getattr(args, row.name), config)
                  for row in cmd.params}
        out_dir = Path(params["out"]).parent
        if not out_dir.is_dir():  # found now, not after the stage has run
            raise UsageError(f"--out {params['out']}: directory {out_dir} does not exist")
        cmd.run(argparse.Namespace(**params))
        write_manifest(params["out"], args.command,
                       {k: v for k, v in params.items() if v is not None})
    except UsageError as exc:
        args.usage_error(str(exc))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"synvec {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
