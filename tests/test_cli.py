import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from synvec import cli
from synvec.cli import main, read_config
from synvec.corpus import read_vocab
from synvec.embed_io import read_text, write_text
from synvec.pairgen import read_pairs


@pytest.fixture
def pipeline_dir(tmp_path):
    """Raw inputs for a miniature end-to-end run."""
    raw = tmp_path / "raw.txt"
    rng = np.random.default_rng(0)
    fillers = ["the", "a", "of", "in"]
    content = ["gem", "jewel", "stone", "rock", "house", "home", "boat", "ship"]
    sentences = []
    for _ in range(60):
        words = [
            content[rng.integers(len(content))] if rng.random() < 0.5
            else fillers[rng.integers(len(fillers))]
            for _ in range(7)
        ]
        sentences.append(" ".join(words) + ".")
    raw.write_text(" ".join(sentences))
    lexicon = tmp_path / "syn.tsv"
    lexicon.write_text(
        "#synlex v1\n"
        "gem\tnoun\tjewel\njewel\tnoun\tgem\n"
        "stone\tnoun\trock\nrock\tnoun\tstone\n"
        "house\tnoun\thome\nhome\tnoun\thouse\n"
        "boat\tnoun\tship\nship\tnoun\tboat\n"
    )
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def prepare(d, model=True):
    """tokens.txt, vocab.tsv, pairs.txt (C=3, seed 7) and a dim-8 model.txt in d."""
    run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
    run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
    run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
         "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
    if model:
        run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
             "--dim", "8", "--epochs", "1", "--seed", "7", "--out", d / "model.txt"])


class TestPipeline:
    def test_end_to_end(self, pipeline_dir, capsys):
        d = pipeline_dir
        assert run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"]) == 0
        assert run(["build-vocab", "--corpus", d / "tokens.txt", "--min-count", "1",
                    "--out", d / "vocab.tsv"]) == 0
        assert run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
                    "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"]) == 0
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio", "0.25", "--seed", "7",
                    "--out", d / "mixed.txt"]) == 0
        assert run(["train", "--pairs", d / "mixed.txt", "--vocab", d / "vocab.tsv",
                    "--dim", "8", "--epochs", "2", "--seed", "7",
                    "--out", d / "model.txt"]) == 0

        mixed, meta = read_pairs(d / "mixed.txt")
        assert meta["ratio"] == "0.25"
        assert mixed.n_augmented == round(0.25 * mixed.n_natural / 0.75)

        words, matrix = read_text(d / "model.txt")
        assert matrix.shape[1] == 8
        loss_lines = (d / "model.txt.loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_loss"
        assert len(loss_lines) == 3

        simfile = d / "sim.tsv"
        simfile.write_text("gem\tjewel\t9.5\ngem\tstone\t5.0\nboat\tship\t9.0\n")
        assert run(["eval-sim", "--model", d / "model.txt", "--dataset", simfile,
                    "--out", d / "sim.csv"]) == 0
        sim_lines = (d / "sim.csv").read_text().splitlines()
        assert sim_lines[0] == "dataset,pairs_used,rho"
        assert sim_lines[1].startswith("sim,3,")

        assert run(["eval-pairsets", "--model", d / "model.txt", "--pairs", d / "mixed.txt",
                    "--subs", str(d / "mixed.txt") + ".subs", "--vocab", d / "vocab.tsv",
                    "--size", "3,20,20", "--seed", "1", "--out", d / "pairsets.csv"]) == 0
        ps_lines = (d / "pairsets.csv").read_text().splitlines()
        assert ps_lines[0] == "set,pairs,mean,std"
        assert [l.split(",")[0] for l in ps_lines[1:]] == ["synonym", "contextual", "random"]

        docs = d / "docs"
        for klass, text in [
            ("gems", "gem jewel gem. stone of gem."),
            ("boats", "boat ship boat. ship in the boat."),
        ]:
            (docs / klass).mkdir(parents=True)
            (docs / klass / "d1.txt").write_text(text)
            (docs / klass / "d2.txt").write_text(text.replace(".", " a."))
        assert run(["eval-wmd", "--model", d / "model.txt", "--docs", docs,
                    "--k", "1", "--out", d / "wmd.csv"]) == 0
        wmd_lines = (d / "wmd.csv").read_text().splitlines()
        assert wmd_lines[0] == "doc_id,true_label,predicted_label"
        assert wmd_lines[-2] == "accuracy,half_width,n"
        assert wmd_lines[-1].endswith(",4")

        assert run(["report", d / "sim.csv", d / "pairsets.csv",
                    "--out", d / "summary.csv"]) == 0
        summary = (d / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("source,")
        assert len(summary) == 1 + 1 + 3  # sim row + three pairset rows

    def test_manifest_reproduces_run(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "4", "--seed", "3", "--out", d / "pairs_a.txt"])
        manifest = d / "pairs_a.txt.manifest"
        assert manifest.exists()
        config = read_config(manifest)
        assert config["command"] == "gen-pairs"
        # rerun purely from the manifest
        assert run(["gen-pairs", "--config", manifest, "--out", d / "pairs_b.txt"]) == 0
        a = (d / "pairs_a.txt").read_text().splitlines()
        b = (d / "pairs_b.txt").read_text().splitlines()
        assert a[1:] == b[1:]  # identical pairs; header differs only if meta order changed
        assert a[0] == b[0]

    def test_config_file_supplies_defaults_and_flags_win(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        config = d / "exp.cfg"
        config.write_text(
            "# experiment config\n"
            f"corpus = {d/'tokens.txt'}\n"
            "min_count = 2\n"
            f"out = {d/'vocab_c.tsv'}\n"
        )
        assert run(["build-vocab", "--config", config]) == 0
        assert (d / "vocab_c.tsv").exists()
        header = (d / "vocab_c.tsv").read_text().splitlines()[0]
        assert header == "#vocab v1 min_count=2"
        # a flag overrides the config value
        assert run(["build-vocab", "--config", config, "--min-count", "1",
                    "--out", d / "vocab_d.tsv"]) == 0
        assert (d / "vocab_d.tsv").read_text().splitlines()[0] == "#vocab v1 min_count=1"

    def test_train_pretrained_init(self, pipeline_dir, capsys):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        pretrained = d / "pre.txt"
        pretrained.write_text("2 8\n" + "gem " + " ".join(["0.25"] * 8) + "\n"
                              + "the " + " ".join(["-0.5"] * 8) + "\n")
        assert run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--dim", "8", "--epochs", "1", "--seed", "7",
                    "--pretrained-file", pretrained,
                    "--out", d / "model_pre.txt"]) == 0
        assert "coverage" in capsys.readouterr().out
        assert (d / "model_pre.txt").exists()

    def test_train_checkpoints(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        assert run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--dim", "8", "--epochs", "4", "--seed", "7",
                    "--checkpoint-every", "2", "--out", d / "model.txt"]) == 0
        assert (d / "model.txt.epoch2").exists()
        assert (d / "model.txt.epoch4").exists()
        _, snap = read_text(d / "model.txt.epoch4")
        _, final = read_text(d / "model.txt")
        assert np.array_equal(snap, final)  # last checkpoint equals the final model

    def test_eval_sim_with_common_vocab(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
             "--dim", "8", "--epochs", "1", "--seed", "7", "--out", d / "model.txt"])
        common = d / "common.tsv"
        common.write_text("#vocab v1 min_count=1\ngem\t5\njewel\t4\nstone\t3\n")
        simfile = d / "sim.tsv"
        simfile.write_text("gem\tjewel\t9.5\ngem\tstone\t5.0\nboat\tship\t9.0\n")
        assert run(["eval-sim", "--model", d / "model.txt", "--dataset", simfile,
                    "--common-vocab", common, "--out", d / "sim.csv"]) == 0
        # (boat, ship) is filtered out by the common vocabulary
        assert (d / "sim.csv").read_text().splitlines()[1].startswith("sim,2,")

    def test_eval_sim_reads_simlex_header(self, pipeline_dir):
        """The header names the layout: no flag says the file is SimLex-999."""
        d = pipeline_dir
        prepare(d)
        simfile = d / "SimLex-999.txt"
        simfile.write_text("word1\tword2\tPOS\tSimLex999\tconc(w1)\n"
                           "gem\tjewel\tN\t9.5\t4.1\ngem\tstone\tN\t5.0\t4.1\n"
                           "boat\tship\tN\t9.0\t4.9\n")
        assert run(["eval-sim", "--model", d / "model.txt", "--dataset", simfile,
                    "--out", d / "sim.csv"]) == 0
        assert (d / "sim.csv").read_text().splitlines()[1].startswith("SimLex-999,3,")

    def test_eval_wmd_split_mode(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
             "--dim", "8", "--epochs", "1", "--seed", "7", "--out", d / "model.txt"])
        docs = d / "docs2"
        for klass, text in [("gems", "gem jewel stone gem."), ("boats", "boat ship boat the.")]:
            (docs / klass).mkdir(parents=True)
            for i in range(3):
                (docs / klass / f"d{i}.txt").write_text(text)
        split = d / "split.tsv"
        split.write_text(
            "gems/d0.txt\ttrain\ngems/d1.txt\ttrain\ngems/d2.txt\ttest\n"
            "boats/d0.txt\ttrain\nboats/d1.txt\ttrain\nboats/d2.txt\ttest\n"
        )
        # --split alone selects split mode: only the two test docs are classified.
        assert run(["eval-wmd", "--model", d / "model.txt", "--docs", docs,
                    "--split", split, "--k", "1", "--out", d / "wmd_split.csv"]) == 0
        lines = (d / "wmd_split.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1 + 2  # header, two test docs, blank, summary pair
        assert lines == ["doc_id,true_label,predicted_label",
                         "boats/d2.txt,boats,boats", "gems/d2.txt,gems,gems", "",
                         "accuracy,half_width,n", "1.0,0.0,2"]

    def test_eval_wmd_split_without_test_documents(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d)
        docs = d / "docs3"
        for klass, text in [("gems", "gem jewel stone."), ("boats", "boat ship the.")]:
            (docs / klass).mkdir(parents=True)
            for i in range(2):
                (docs / klass / f"d{i}.txt").write_text(text)
        split = d / "split.tsv"
        # The only test line names a document that does not exist.
        split.write_text("gems/d0.txt\ttrain\nboats/d0.txt\ttrain\nboats/d9.txt\ttest\n")
        args = ["eval-wmd", "--model", d / "model.txt", "--docs", docs,
                "--split", split, "--k", "1", "--out"]
        capsys.readouterr()
        assert run(args + [d / "none.csv"]) == 1
        err = capsys.readouterr().err
        assert str(split) in err
        assert "2 train, 0 test, 0 skipped and 2 unassigned" in err
        assert not (d / "none.csv").exists()
        # Documents the split leaves out are counted in the summary line.
        split.write_text("gems/d0.txt\ttrain\nboats/d0.txt\ttrain\nboats/d1.txt\ttest\n")
        assert run(args + [d / "one.csv"]) == 0
        assert "1 docs (0 skipped, 1 unassigned)" in capsys.readouterr().out

    def test_old_config_keys_are_ignored(self, pipeline_dir, capsys):
        """Configs written before `mode`, `prune`, `init`, `dataset_format`,
        `name` and `loss_csv` were removed still run: the split file alone
        selects split mode, the pretrained file alone selects the pretrained
        start, the loss file is always `<out>.loss.csv`, the dataset's header
        selects its layout and the file stem names it."""
        d = pipeline_dir
        prepare(d)
        docs = d / "docs4"
        for klass, text in [("gems", "gem jewel stone gem."), ("boats", "boat ship boat the.")]:
            (docs / klass).mkdir(parents=True)
            for i in range(2):
                (docs / klass / f"d{i}.txt").write_text(text)
        split = d / "split.tsv"
        split.write_text("gems/d0.txt\ttrain\ngems/d1.txt\ttest\n"
                         "boats/d0.txt\ttrain\nboats/d1.txt\ttest\n")
        assert run(["eval-wmd", "--model", d / "model.txt", "--docs", docs, "--split", split,
                    "--k", "1", "--out", d / "flags.csv"]) == 0
        config = d / "old.cfg"
        config.write_text(f"model = {d / 'model.txt'}\ndocs = {docs}\nsplit = {split}\n"
                          "k = 1\nmode = loo\nprune = false\n")
        assert run(["eval-wmd", "--config", config, "--out", d / "config.csv"]) == 0
        assert (d / "config.csv").read_bytes() == (d / "flags.csv").read_bytes()

        pretrained = d / "pre.txt"
        pretrained.write_text("1 8\ngem " + " ".join(["0.25"] * 8) + "\n")
        config.write_text(f"pairs = {d / 'pairs.txt'}\nvocab = {d / 'vocab.tsv'}\ndim = 8\n"
                          f"epochs = 1\ninit = random\npretrained_file = {pretrained}\n"
                          f"loss_csv = {d / 'x'}\n")
        capsys.readouterr()
        assert run(["train", "--config", config, "--out", d / "model_pre.txt"]) == 0
        assert "pretrained coverage" in capsys.readouterr().out
        assert (d / "model_pre.txt.loss.csv").exists() and not (d / "x").exists()

        simfile = d / "sim.tsv"
        simfile.write_text("word1\tword2\tSimLex999\ngem\tjewel\t9.5\n"
                           "gem\tstone\t5.0\nboat\tship\t9.0\n")
        assert run(["eval-sim", "--model", d / "model.txt", "--dataset", simfile,
                    "--out", d / "sim_flags.csv"]) == 0
        config.write_text(f"model = {d / 'model.txt'}\ndataset = {simfile}\n"
                          "dataset_format = wordsim\nname = simlex999\n")
        assert run(["eval-sim", "--config", config, "--out", d / "sim_config.csv"]) == 0
        assert (d / "sim_config.csv").read_bytes() == (d / "sim_flags.csv").read_bytes()
        assert (d / "sim_config.csv").read_text().splitlines()[1].startswith("sim,3,")

    def test_report_reads_eval_wmd_tables(self, pipeline_dir):
        """A doc id holding a comma is quoted, and the accuracy table after the
        blank line gets its own header."""
        d = pipeline_dir
        prepare(d)
        docs = d / "docs5"
        for klass, text in [("gems", "gem jewel stone gem."), ("boats", "boat ship boat the.")]:
            (docs / klass).mkdir(parents=True)
            for name in ("d1.txt", "d,2.txt"):
                (docs / klass / name).write_text(text)
        assert run(["eval-wmd", "--model", d / "model.txt", "--docs", docs, "--k", "1",
                    "--out", d / "wmd.csv"]) == 0
        assert run(["report", d / "wmd.csv", "--json", "--out", d / "report.json"]) == 0
        rows = json.loads((d / "report.json").read_text())
        assert [(r["doc_id"], r["true_label"]) for r in rows[:4]] == [
            ("boats/d,2.txt", "boats"), ("boats/d1.txt", "boats"),
            ("gems/d,2.txt", "gems"), ("gems/d1.txt", "gems")]
        assert all(set(r) == {"source", "doc_id", "true_label", "predicted_label"}
                   for r in rows[:4])
        assert len(rows) == 5
        assert set(rows[4]) == {"source", "accuracy", "half_width", "n"}
        assert rows[4]["n"] == "4"

    def test_report_merges_tables_with_newline_endings(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("x,y\n1,2\n")
        b.write_text("z\n\"3,4\"\n")
        assert run(["report", a, b, "--out", tmp_path / "r.csv"]) == 0
        assert (tmp_path / "r.csv").read_bytes() == (
            f"source,x,y,z\n{a},1,2,\n{b},,,\"3,4\"\n".encode())

    def test_report_rejects_row_of_wrong_width(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("a,b\n1,2\n\nc\n3\n4,5\n")
        assert run(["report", table, "--out", tmp_path / "r.csv"]) == 1
        assert f"{table}:6: 2 fields under a header of 1" in capsys.readouterr().err

    def test_ratio_sweep_explicit_list(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        (d / "sweep").mkdir()
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio", "0,0.1,0.25",
                    "--seed", "7", "--out", d / "sweep" / "pairs.txt"]) == 0
        made = sorted(p.name for p in (d / "sweep").glob("pairs_r*.txt"))
        assert made == ["pairs_r0.1.txt", "pairs_r0.25.txt", "pairs_r0.txt"]

    def test_ratio_sweep_standard_keeps_reachable_ratios(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        (d / "sweep").mkdir()
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio", "standard",
                    "--seed", "7", "--out", d / "sweep" / "pairs.txt"]) == 0
        made = sorted(p.name for p in (d / "sweep").glob("pairs_r*.txt"))
        assert made == sorted(f"pairs_r{r}.txt" for r in
                              ("0", "0.02", "0.035", "0.06", "0.1", "0.16", "0.25"))
        out = capsys.readouterr().out
        assert "ratio 0.37, 0.5, 0.64 out of reach" in out
        assert "maximum achievable ratio is 0." in out

    def test_one_ratio_and_a_sweep_share_one_path(self, pipeline_dir):
        """A ratio's pair file is the same alone or in a sweep, and a sweep
        writes one substitution list, the one a single ratio writes."""
        d = pipeline_dir
        prepare(d, model=False)
        argv = ["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                "--lexicon", d / "syn.tsv", "--seed", "7"]
        assert run(argv + ["--ratio", "0.1", "--out", d / "single.txt"]) == 0
        (d / "sw").mkdir()
        assert run(argv + ["--ratio", "0,0.1", "--out", d / "sw" / "pairs.txt"]) == 0
        assert (d / "sw" / "pairs_r0.1.txt").read_bytes() == (d / "single.txt").read_bytes()
        subs = list((d / "sw").glob("*.subs"))
        assert subs == [d / "sw" / "pairs.txt.subs"]
        assert subs[0].read_bytes() == (d / "single.txt.subs").read_bytes()

    def test_manifest_quotes_paths_with_spaces(self, tmp_path):
        raw = tmp_path / "my raw.txt"
        raw.write_text("A gem. The jewel shone.")
        assert run(["tokenize", raw, "--out", tmp_path / "t1.txt"]) == 0
        assert run(["tokenize", "--config", tmp_path / "t1.txt.manifest",
                    "--out", tmp_path / "t2.txt"]) == 0
        assert (tmp_path / "t2.txt").read_bytes() == (tmp_path / "t1.txt").read_bytes()
        csv_in = tmp_path / "my eval.csv"
        csv_in.write_text("dataset,pairs_used,rho\nsim,3,0.5\n")
        assert run(["report", csv_in, "--out", tmp_path / "r1.csv"]) == 0
        assert run(["report", "--config", tmp_path / "r1.csv.manifest",
                    "--out", tmp_path / "r2.csv"]) == 0
        assert (tmp_path / "r2.csv").read_bytes() == (tmp_path / "r1.csv").read_bytes()

    def test_manifest_reruns_reproduce_outputs(self, pipeline_dir):
        """A manifest lists only parameters that have a value, so re-running
        it with a new --out reproduces the primary output byte for byte, and
        defaults derived from --out follow the new one."""
        d = pipeline_dir
        prepare(d)
        simfile = d / "sim.tsv"
        simfile.write_text("gem\tjewel\t9.5\ngem\tstone\t5.0\nboat\tship\t9.0\n")
        docs = d / "docs"
        for klass, text in [("gems", "gem jewel gem. stone of gem."),
                            ("boats", "boat ship boat. ship in the boat.")]:
            (docs / klass).mkdir(parents=True)
            (docs / klass / "d1.txt").write_text(text)
            (docs / klass / "d2.txt").write_text(text.replace(".", " a."))
        runs = {
            "mixed.txt": ["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                          "--lexicon", d / "syn.tsv", "--ratio", "0.25", "--seed", "7"],
            "sim.csv": ["eval-sim", "--model", d / "model.txt", "--dataset", simfile],
            "pairsets.csv": ["eval-pairsets", "--model", d / "model.txt",
                             "--pairs", d / "mixed.txt", "--subs", d / "mixed.txt.subs",
                             "--vocab", d / "vocab.tsv", "--size", "3,20,20", "--seed", "1"],
            "wmd.csv": ["eval-wmd", "--model", d / "model.txt", "--docs", docs, "--k", "1"],
            "model2.txt": ["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                           "--dim", "8", "--epochs", "1", "--seed", "7"],
        }
        for name, argv in runs.items():
            first, again = d / name, d / f"again_{name}"
            assert run(argv + ["--out", first]) == 0
            manifest = f"{first}.manifest"
            assert run([argv[0], "--config", manifest, "--out", again]) == 0, name
            assert "None" not in Path(manifest).read_text()
            assert again.read_bytes() == first.read_bytes(), name
        assert (d / "again_model2.txt.loss.csv").read_bytes() == \
               (d / "model2.txt.loss.csv").read_bytes()
        sweep = ["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                 "--lexicon", d / "syn.tsv", "--ratio", "0,0.1", "--seed", "7"]
        (d / "sweep").mkdir()
        (d / "again_sweep").mkdir()
        assert run(sweep + ["--out", d / "sweep" / "pairs.txt"]) == 0
        assert run(["augment", "--config", d / "sweep" / "pairs.txt.manifest",
                    "--out", d / "again_sweep" / "pairs.txt"]) == 0
        for name in ("pairs_r0.txt", "pairs_r0.1.txt"):
            assert (d / "again_sweep" / name).read_bytes() == (d / "sweep" / name).read_bytes()

    def test_hash_inside_config_value(self, tmp_path):
        src = tmp_path / "in#dir"
        src.mkdir()
        (src / "tokens.txt").write_text("a b c\nb c\n")
        assert run(["build-vocab", "--corpus", src / "tokens.txt",
                    "--out", tmp_path / "v1.tsv"]) == 0
        assert run(["build-vocab", "--config", tmp_path / "v1.tsv.manifest",
                    "--out", tmp_path / "v2.tsv"]) == 0
        assert (tmp_path / "v2.tsv").read_bytes() == (tmp_path / "v1.tsv").read_bytes()
        config = tmp_path / "c.cfg"
        config.write_text("  # only = a comment line\nkey = a#b # c\n")
        assert read_config(config) == {"key": "a#b # c"}

    def test_ratio_sweep_out_of_reach_writes_nothing(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        (d / "sweep").mkdir()
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio", "0,0.1,0.6,0.9",
                    "--seed", "7", "--out", d / "sweep" / "pairs.txt"]) == 1
        err = capsys.readouterr().err
        assert "ratio 0.6, 0.9 out of reach" in err
        assert "maximum achievable ratio is 0." in err
        assert not list((d / "sweep").glob("pairs*"))

    def test_eval_pairsets_rejects_permuted_model_rows(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d)
        run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
             "--lexicon", d / "syn.tsv", "--ratio", "0.25", "--seed", "7",
             "--out", d / "mixed.txt"])
        words, matrix = read_text(d / "model.txt")
        order = np.roll(np.arange(len(words)), 1)
        write_text(d / "permuted.txt", [words[i] for i in order], matrix[order])
        assert run(["eval-pairsets", "--model", d / "permuted.txt", "--pairs", d / "mixed.txt",
                    "--subs", f"{d / 'mixed.txt'}.subs", "--vocab", d / "vocab.tsv",
                    "--size", "3,20,20", "--out", d / "pairsets.csv"]) == 1
        assert "do not line up with the vocabulary" in capsys.readouterr().err
        assert not (d / "pairsets.csv").exists()

    def test_eval_pairsets_rejects_non_finite_model(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d)
        run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
             "--lexicon", d / "syn.tsv", "--ratio", "0.25", "--seed", "7",
             "--out", d / "mixed.txt"])
        words, matrix = read_text(d / "model.txt")
        matrix[2, 3] = np.nan
        write_text(d / "nan.txt", words, matrix)
        assert run(["eval-pairsets", "--model", d / "nan.txt", "--pairs", d / "mixed.txt",
                    "--subs", f"{d / 'mixed.txt'}.subs", "--vocab", d / "vocab.tsv",
                    "--size", "3,20,20", "--out", d / "pairsets.csv"]) == 1
        assert f"nan.txt:4: non-finite vector component for word {words[2]!r}" in (
            capsys.readouterr().err)
        assert not (d / "pairsets.csv").exists()

    @pytest.mark.parametrize("command", ["train", "augment", "eval-pairsets"])
    @pytest.mark.parametrize("past_end", [False, True])
    def test_ids_outside_the_vocabulary_exit_one(self, pipeline_dir, command, past_end, capsys):
        """A negative id would wrap to another word's row, and one past the end
        raise IndexError: each stage names the id, exits 1 and writes nothing."""
        d = pipeline_dir
        prepare(d)
        n_words = len(read_vocab(d / "vocab.tsv"))
        bad = n_words if past_end else {"train": -3, "augment": -4, "eval-pairsets": -1}[command]
        (d / "bad.pairs").write_text(f"#pairs v1\n0 1 1 N\n0 {bad} 1 N\n" if command == "train"
                                     else f"#pairs v1\n{bad} 1 1 N\n0 1 1 N\n")
        (d / "bad.subs").write_text(f"#subs v1\n0\t{bad}\n")
        argv = {
            "train": ["--pairs", d / "bad.pairs", "--dim", "8"],
            "augment": ["--pairs", d / "bad.pairs", "--lexicon", d / "syn.tsv", "--ratio", "0"],
            "eval-pairsets": ["--model", d / "model.txt", "--pairs", d / "pairs.txt",
                              "--subs", d / "bad.subs", "--size", "1,3,3"],
        }[command]
        assert run([command, *argv, "--vocab", d / "vocab.tsv", "--out", d / "out.txt"]) == 1
        assert (f"synvec {command}: error: word id {bad} is outside the vocabulary of "
                f"{n_words} words") in capsys.readouterr().err
        assert not list(d.glob("out.txt*"))

    @pytest.mark.parametrize("command", ["train", "eval-pairsets"])
    def test_id_past_int64_exits_one(self, pipeline_dir, command, capsys):
        """An id too long for int64, in a pair file's line-by-line parse or a
        .subs file, is named by file and line; the stage exits 1."""
        d = pipeline_dir
        prepare(d)
        big = "99999999999999999999"
        (d / "big.pairs").write_text(f"#pairs v1\n0 {big} 1 N\n")
        (d / "big.subs").write_text(f"#subs v1\n0\t{big}\n")
        argv = {
            "train": ["--pairs", d / "big.pairs", "--dim", "8"],
            "eval-pairsets": ["--model", d / "model.txt", "--pairs", d / "pairs.txt",
                              "--subs", d / "big.subs", "--size", "1,3,3"],
        }[command]
        bad = "big.pairs" if command == "train" else "big.subs"
        assert run([command, *argv, "--vocab", d / "vocab.tsv", "--out", d / "out.txt"]) == 1
        assert (f"synvec {command}: error: {d / bad}:2: id {big} does not fit in int64"
                in capsys.readouterr().err)
        assert not list(d.glob("out.txt*"))

    @pytest.mark.parametrize("command", ["tokenize", "build-vocab", "train", "augment",
                                         "gen-pairs", "eval-wmd"])
    def test_byte_not_utf8_names_file_and_line(self, pipeline_dir, command, capsys):
        """A byte that is not UTF-8, in any input a stage reads, is named by
        file and line; the stage exits 1 and writes nothing."""
        d = pipeline_dir
        prepare(d)
        docs = d / "docs"
        for klass in ("gems", "boats"):
            (docs / klass).mkdir(parents=True)
            (docs / klass / "d0.txt").write_text(f"the {klass[:-1]}.")
        bad, body, line = {
            "tokenize": ("bad.txt", b"one.\ntwo \xff.\n", 2),
            "build-vocab": ("bad.tok", b"the gem\nthe \xff\n", 2),
            "train": ("bad.pairs", b"#pairs v1\n0 1 1 N\n0 1 1 \xff\n", 3),
            "augment": ("bad.tsv", b"#synlex v1\ngem\tnoun\tjewel\n\xff\tnoun\tgem\n", 3),
            "gen-pairs": ("bad.cfg", b"seed = 7\ncontext_size = \xff\n", 2),
            "eval-wmd": ("docs/boats/d1.txt", b"the boat\nthe \xff.", 2),
        }[command]
        (d / bad).write_bytes(body)
        argv = {
            "tokenize": [d / "raw.txt", d / bad],
            "build-vocab": ["--corpus", d / bad],
            "train": ["--pairs", d / bad, "--vocab", d / "vocab.tsv", "--dim", "8"],
            "augment": ["--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                        "--lexicon", d / bad, "--ratio", "0.25"],
            "gen-pairs": ["--config", d / bad, "--corpus", d / "tokens.txt",
                          "--vocab", d / "vocab.tsv"],
            "eval-wmd": ["--model", d / "model.txt", "--docs", docs, "--k", "1"],
        }[command]
        assert run([command, *argv, "--out", d / "out.txt"]) == 1
        assert (f"synvec {command}: error: {d / bad}:{line}: 'utf-8' codec can't decode "
                f"byte 0xff" in capsys.readouterr().err)
        assert not list(d.glob("out.txt*"))

    def test_zero_count_vocabulary_names_its_header(self, pipeline_dir, capsys):
        """A vocabulary that admits count 0 is refused at its header line, before
        a synonym draw can weigh by a zero count; augment exits 1, writing nothing."""
        d = pipeline_dir
        prepare(d, model=False)
        rows = [line.split("\t") for line in (d / "vocab.tsv").read_text().splitlines()[1:]]
        (d / "zero.tsv").write_text("#vocab v1 min_count=0\n" + "".join(
            f"{word}\t{0 if word in ('jewel', 'stone') else count}\n" for word, count in rows))
        (d / "two.tsv").write_text("#synlex v1\ngem\tnoun\tjewel\ngem\tnoun\tstone\n")
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "zero.tsv",
                    "--lexicon", d / "two.tsv", "--ratio", "0.25", "--out", d / "out.txt"]) == 1
        assert (f"synvec augment: error: {d / 'zero.tsv'}:1: min_count must be >= 1, got 0"
                in capsys.readouterr().err)
        assert not list(d.glob("out.txt*"))

    @pytest.mark.parametrize("command", ["gen-pairs", "eval-sim", "train"])
    def test_duplicate_word_names_file_and_line(self, pipeline_dir, command, capsys):
        """A vocabulary or a text model that repeats a word is named by file,
        line and word, and the line of the first copy; the stage exits 1."""
        d = pipeline_dir
        prepare(d, model=False)
        (d / "dup.tsv").write_text("#vocab v1 min_count=1\nfoo\t3\nbar\t2\nfoo\t1\n")
        (d / "dup.txt").write_text("3 8\n" + "".join(f"{w}{' 0.5' * 8}\n"
                                                      for w in ("foo", "bar", "foo")))
        (d / "sim.tsv").write_text("foo\tbar\t1.0\n")
        bad, argv = {
            "gen-pairs": ("dup.tsv", ["--corpus", d / "tokens.txt", "--vocab", d / "dup.tsv"]),
            "eval-sim": ("dup.txt", ["--model", d / "dup.txt", "--dataset", d / "sim.tsv"]),
            "train": ("dup.txt", ["--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                                  "--dim", "8", "--pretrained-file", d / "dup.txt"]),
        }[command]
        assert run([command, *argv, "--out", d / "out.txt"]) == 1
        assert (f"synvec {command}: error: {d / bad}:4: duplicate word 'foo' (first on line 2)"
                in capsys.readouterr().err)
        assert not list(d.glob("out.txt*"))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["tokenize", "--bogus", "x"])
        assert exc.value.code == 2

    def test_missing_required_parameter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--out", str(tmp_path / "v.tsv")])
        assert exc.value.code == 2

    def test_pipeline_error_returns_one(self, tmp_path, capsys):
        code = main(["build-vocab", "--corpus", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "v.tsv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_threshold_too_high_returns_one(self, tmp_path, capsys):
        tokens = tmp_path / "t.txt"
        tokens.write_text("a b c\n")
        code = main(["build-vocab", "--corpus", str(tokens), "--min-count", "9",
                     "--out", str(tmp_path / "v.tsv")])
        assert code == 1
        assert "prunes the entire vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["tokenize", "build-vocab", "gen-pairs", "augment", "train",
                                      "eval-sim", "eval-pairsets", "eval-wmd", "report"])
    def test_help_lists_every_table_parameter(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        params = cli.COMMANDS[name].params
        assert params
        for param in params:
            flag = param.name if param.name == "inputs" else \
                "--" + param.name.replace("_", "-")
            assert flag in out

    def test_derived_flag_spellings(self, capsys):
        for name, flags in [("gen-pairs", ["--context-size", "-C", "(default: 5)"]),
                            ("augment", ["--ratio", "--out"]),
                            ("train", ["--binary", "--no-binary"]),
                            ("eval-sim", ["{cosine,euclidean}"])]:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out

    @pytest.mark.parametrize("command,line", [("eval-sim", "metric = bogus"),
                                              ("train", "binary = maybe"),
                                              ("eval-pairsets", "size = abc"),
                                              ("eval-pairsets", "size = 1,2"),
                                              ("augment", "ratio = 0.1,x")])
    def test_bad_config_value_is_usage_error(self, tmp_path, command, line, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("model = m\ndocs = d\npairs = p\nvocab = v\ndataset = s\n"
                          f"subs = s\nlexicon = l\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval-pairsets", "--size", "abc"],
        ["eval-pairsets", "--size", "1,2"],
        ["eval-pairsets", "--size", "0"],
        ["eval-pairsets", "--size", "3,0,20"],
        ["augment", "--ratio", "0.1,x"],
        ["augment", "--ratio", "0.1,"],
        ["augment", "--ratio", "0.1,0.1"],
        ["augment", "--ratio", "0.1,0.1000001"],
    ])
    def test_value_that_does_not_parse_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--model", "m", "--pairs", "p", "--subs", "s", "--vocab", "v",
                         "--lexicon", "l", "--out", "o"])
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,reason", [
        (["augment", "--ratio", "0.1,0.1000001"], "print as the same _r<ratio> name"),
        (["eval-pairsets", "--size", "5,0,3"], "expected one positive integer or three"),
    ])
    def test_refused_flag_value_says_why(self, argv, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--model", "m", "--pairs", "p", "--subs", "s", "--vocab", "v",
                         "--lexicon", "l", "--out", "o"])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err

    def test_missing_out_directory_is_found_before_the_stage_runs(
            self, pipeline_dir, monkeypatch, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        monkeypatch.setattr(cli.sgns, "train",
                            lambda *a, **k: pytest.fail("trained before checking --out"))
        with pytest.raises(SystemExit) as exc:
            run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                 "--dim", "8", "--epochs", "1", "--out", d / "nodir" / "m.txt"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err and f"directory {d / 'nodir'} does not exist" in err
        assert not (d / "nodir").exists()

    def test_negative_checkpoint_interval_is_usage_error(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        with pytest.raises(SystemExit) as exc:
            run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv", "--dim", "8",
                 "--epochs", "4", "--checkpoint-every", "-2", "--out", d / "model.txt"])
        assert exc.value.code == 2
        assert "checkpoint_every must be >= 0, got -2" in capsys.readouterr().err
        assert not list(d.glob("model.txt*"))

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_is_refused_before_training(self, pipeline_dir, lr,
                                                                  monkeypatch, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        monkeypatch.setattr(cli.sgns, "train",
                            lambda *a, **k: pytest.fail("trained with a non-finite rate"))
        assert run(["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--dim", "8", f"--lr={lr}", "--out", d / "model.txt"]) == 1
        assert f"learning_rate must be finite and >= 0, got {float(lr)}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--out", "o"],
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--ratio", "0"],
    ])
    def test_parameter_needed_by_another_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval-wmd", "--model", "m", "--docs", "d", "--mode", "loo", "--out", "o"],
        ["eval-wmd", "--model", "m", "--docs", "d", "--no-prune", "--out", "o"],
        ["train", "--pairs", "p", "--vocab", "v", "--init", "pretrained", "--out", "o"],
        ["eval-sim", "--model", "m", "--dataset", "s", "--dataset-format", "simlex",
         "--out", "o"],
        ["eval-sim", "--model", "m", "--dataset", "s", "--name", "x", "--out", "o"],
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--ratio-sweep", "0",
         "--out", "o"],
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--ratio", "0",
         "--out-dir", "o", "--out", "o"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        # Without full spelling, `--mode` would be taken for `--model`.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_option_budget(self):
        total = sum(len(cmd.params) for cmd in cli.COMMANDS.values())
        assert total == 49, (
            f"the CLI now has {total} settable values, not 49; if that is intended, "
            "update this number and say in CHANGES.md why the option is needed")

    def test_every_command_requires_out(self):
        """The manifest goes to <out>.manifest, so every command has a required
        --out naming a file."""
        for name, cmd in cli.COMMANDS.items():
            out = [param for param in cmd.params if param.name == "out"]
            assert len(out) == 1 and out[0].default is cli.REQUIRED, name


def readme_commands() -> list[str]:
    """Each `synvec ...` command of README's `sh` blocks, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["synvec"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 12
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README example does not parse: synvec {shlex.join(words)}")
