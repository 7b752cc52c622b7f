import numpy as np
import pytest

from synvec import cli
from synvec.cli import main, read_config
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
                    "--dataset-format", "wordsim", "--out", d / "sim.csv"]) == 0
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
                    "--mode", "loo", "--k", "1", "--out", d / "wmd.csv"]) == 0
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
                    "--init", "pretrained", "--pretrained-file", pretrained,
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
        assert run(["eval-wmd", "--model", d / "model.txt", "--docs", docs,
                    "--split", split, "--mode", "split", "--k", "1",
                    "--out", d / "wmd_split.csv"]) == 0
        lines = (d / "wmd_split.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 2  # header, two test docs, summary pair
        assert lines[-1].endswith(",2")

    def test_ratio_sweep_explicit_list(self, pipeline_dir):
        d = pipeline_dir
        run(["tokenize", d / "raw.txt", "--out", d / "tokens.txt"])
        run(["build-vocab", "--corpus", d / "tokens.txt", "--out", d / "vocab.tsv"])
        run(["gen-pairs", "--corpus", d / "tokens.txt", "--vocab", d / "vocab.tsv",
             "--context-size", "3", "--seed", "7", "--out", d / "pairs.txt"])
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio-sweep", "0,0.1,0.25",
                    "--seed", "7", "--out-dir", d / "sweep"]) == 0
        made = sorted(p.name for p in (d / "sweep").glob("pairs_r*.txt"))
        assert made == ["pairs_r0.1.txt", "pairs_r0.25.txt", "pairs_r0.txt"]

    def test_ratio_sweep_standard_keeps_reachable_ratios(self, pipeline_dir, capsys):
        d = pipeline_dir
        prepare(d, model=False)
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio-sweep", "standard",
                    "--seed", "7", "--out-dir", d / "sweep"]) == 0
        made = sorted(p.name for p in (d / "sweep").glob("pairs_r*.txt"))
        assert made == sorted(f"pairs_r{r}.txt" for r in
                              ("0", "0.02", "0.035", "0.06", "0.1", "0.16", "0.25"))
        out = capsys.readouterr().out
        assert "ratio 0.37, 0.5, 0.64 out of reach" in out
        assert "maximum achievable ratio is 0." in out

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
            "wmd.csv": ["eval-wmd", "--model", d / "model.txt", "--docs", docs,
                        "--mode", "loo", "--k", "1"],
            "model2.txt": ["train", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                           "--dim", "8", "--epochs", "1", "--seed", "7"],
        }
        for name, argv in runs.items():
            first, again = d / name, d / f"again_{name}"
            assert run(argv + ["--out", first]) == 0
            manifest = f"{first}.manifest"
            assert run([argv[0], "--config", manifest, "--out", again]) == 0, name
            assert "None" not in open(manifest).read()
            assert again.read_bytes() == first.read_bytes(), name
        assert (d / "again_model2.txt.loss.csv").read_bytes() == \
               (d / "model2.txt.loss.csv").read_bytes()

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
        assert run(["augment", "--pairs", d / "pairs.txt", "--vocab", d / "vocab.tsv",
                    "--lexicon", d / "syn.tsv", "--ratio-sweep", "0,0.1,0.6,0.9",
                    "--seed", "7", "--out-dir", d / "sweep"]) == 1
        err = capsys.readouterr().err
        assert "ratio 0.6, 0.9 out of reach" in err
        assert "maximum achievable ratio is 0." in err
        assert not list((d / "sweep").glob("pairs_r*"))

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
                            ("augment", ["--ratio-sweep", "--out-dir"]),
                            ("eval-wmd", ["--prune", "--no-prune", "{loo,split}"])]:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out

    @pytest.mark.parametrize("command,line", [("eval-wmd", "mode = bogus"),
                                              ("train", "init = bogus"),
                                              ("eval-sim", "metric = bogus"),
                                              ("eval-wmd", "prune = maybe")])
    def test_bad_config_value_is_usage_error(self, tmp_path, command, line):
        config = tmp_path / "bad.cfg"
        config.write_text("model = m\ndocs = d\npairs = p\nvocab = v\ndataset = s\n"
                          f"{line}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--out", "o"],
        ["augment", "--pairs", "p", "--vocab", "v", "--lexicon", "l", "--ratio-sweep", "0"],
        ["train", "--pairs", "p", "--vocab", "v", "--init", "pretrained", "--out", "o"],
        ["eval-wmd", "--model", "m", "--docs", "d", "--mode", "split", "--out", "o"],
    ])
    def test_parameter_needed_by_another_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
