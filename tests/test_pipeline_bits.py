"""The pipeline's output bytes, pinned.

The train-e2e command sequence (tokenize, build-vocab, gen-pairs, augment,
train, eval-pairsets), then eval-sim and eval-wmd with a split manifest,
runs through `cli.main` on a small planted corpus at three seeds. Every file
the commands write, manifests included, must hash to the SHA-256 recorded
in `pipeline_bits.json`. A change that alters any output byte shows here,
and must re-record the file (`PYTHONPATH=src python tests/test_pipeline_bits.py`)
and say why. The pins were recorded with numpy 2.4.6.

The pins must not depend on which BLAS kernel the CPU selects, so one seed
also runs in a child process under each OpenBLAS core type this CPU can
execute.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from synvec.cli import main
from synvec.lexicon import write_lexicon
from toycorpus import make_planted_corpus

PIPELINE_BITS = Path(__file__).with_name("pipeline_bits.json")
SEEDS = (1, 2, 3)


def write_inputs(seed: int) -> None:
    """Raw text of 3000 tokens, its lexicon, a similarity file and a
    two-class document tree with its split manifest, in the current directory."""
    sentences, lexicon, synonym_pairs = make_planted_corpus(n_sentences=300, seed=seed)
    Path("raw.txt").write_text("\n".join(" ".join(s) + "." for s in sentences))
    write_lexicon("syn.tsv", lexicon)
    Path("sim.tsv").write_text("".join(
        f"{a}\t{b}\t{9 - i % 7}\n{a}\tfill{'abcdefghij'[i % 10]}\t{i % 5}\n"
        for i, (a, b) in enumerate(synonym_pairs)))
    split = []
    for klass, topics in (("low", range(10)), ("high", range(10, 20))):
        Path("docs", klass).mkdir(parents=True)
        for doc in range(6):
            chosen = [s for i, s in enumerate(sentences) if i % 20 in topics][doc::6][:8]
            Path("docs", klass, f"d{doc}.txt").write_text(
                " ".join(" ".join(s) + "." for s in chosen))
            split.append(f"{klass}/d{doc}.txt\t{'test' if doc % 3 == 0 else 'train'}\n")
    Path("split.tsv").write_text("".join(split))


def run_pipeline(seed: int) -> dict[str, str]:
    """The SHA-256 of every file the commands write, by name."""
    inputs = {"raw.txt", "syn.tsv", "sim.tsv", "split.tsv", "docs"}
    steps = [
        ["tokenize", "raw.txt", "--out", "corpus.tok"],
        ["build-vocab", "--corpus", "corpus.tok", "--out", "vocab.tsv"],
        ["gen-pairs", "--corpus", "corpus.tok", "--vocab", "vocab.tsv", "--context-size", "5",
         "--seed", seed, "--out", "natural.pairs"],
        ["augment", "--pairs", "natural.pairs", "--vocab", "vocab.tsv", "--lexicon", "syn.tsv",
         "--ratio", "0.25", "--seed", seed, "--out", "mixed.pairs"],
        ["train", "--pairs", "mixed.pairs", "--vocab", "vocab.tsv", "--dim", "20",
         "--negatives", "5", "--epochs", "1", "--lr", "0.025", "--batch", "10", "--seed", seed,
         "--out", "model.txt"],
        ["eval-pairsets", "--model", "model.txt", "--pairs", "mixed.pairs",
         "--subs", "mixed.pairs.subs", "--vocab", "vocab.tsv", "--size", "10,200,200",
         "--seed", seed, "--out", "pairsets.csv"],
        ["eval-sim", "--model", "model.txt", "--dataset", "sim.tsv", "--out", "sim.csv"],
        ["eval-wmd", "--model", "model.txt", "--docs", "docs", "--split", "split.tsv",
         "--k", "3", "--out", "wmd.csv"],
    ]
    write_inputs(seed)
    for step in steps:
        assert main([str(arg) for arg in step]) == 0, step
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path().iterdir()) if path.name not in inputs}


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_outputs_are_pinned(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)  # relative paths keep the manifests free of the temp dir
    assert run_pipeline(seed) == json.loads(PIPELINE_BITS.read_text())[str(seed)]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernels")
def test_pins_hold_under_other_blas_kernels(tmp_path):
    cores = ["Prescott"]
    if np._core._multiarray_umath.__cpu_features__["AVX2"]:  # else Haswell code would crash
        cores.append("Haswell")
    child = ("import json, sys; from test_pipeline_bits import run_pipeline; "
             "print(json.dumps(run_pipeline(1)))")
    for core in cores:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(sys.path))
        (tmp_path / core).mkdir()
        done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path / core, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        hashes = json.loads(done.stdout.splitlines()[-1])  # after the commands' own lines
        assert hashes == json.loads(PIPELINE_BITS.read_text())["1"], core


def record() -> None:
    """Rewrite `pipeline_bits.json` from the program as it stands."""
    pins = {}
    home = Path.cwd()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                pins[str(seed)] = run_pipeline(seed)
            finally:
                os.chdir(home)
    PIPELINE_BITS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    record()
