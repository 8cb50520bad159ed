"""Command-line interface: arguments, config files, outputs, exit codes."""

import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import granalign.autodiff as ad
from granalign import training
from granalign.cli import main, parse_config_file
from granalign.data import DEFAULT_WORLD, ToyWorldSpec, gen_corpus, load_manifest
from granalign.ingest import to_json
from granalign.model import Model, ModelConfig
from granalign.training import TrainConfig, load_checkpoint
from conftest import fixture_path

SMALL_CONFIG = """\
# small model for fast tests
d_model = 8
d_emb = 8
num_heads = 2
num_layers = 2
d_ff = 16
max_len = 32

batch_size = 4
epochs = 2
seed = 1
lr = 1e-3
"""


@pytest.fixture(scope="session")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    gen_corpus(DEFAULT_WORLD, 8, 4, 23, str(root))
    return root


@pytest.fixture(scope="session")
def cli_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfigFile:
    def test_parses_sections_comments_and_types(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("d_model = 16  # comment\n"
                     "\n"
                     "streams = ce, ss\n"
                     "use_lead_graphs = false\n"
                     "grad_clip = none\n"
                     "lr = 5e-4\n"
                     "word_vectors = vecs.txt\n")
        model_kw, train_kw, extra = parse_config_file(str(p))
        assert model_kw == {"d_model": 16, "streams": ("ce", "ss"),
                            "use_lead_graphs": False}
        assert train_kw == {"grad_clip": None, "lr": 5e-4}
        assert extra == {"word_vectors": "vecs.txt"}

    def test_no_file_gives_empty_maps(self):
        assert parse_config_file(None) == ({}, {}, {})

    def test_unknown_key_names_path_and_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("d_model = 8\nbogus = 1\n")
        with pytest.raises(ValueError, match=r"line 2.*bogus"):
            parse_config_file(str(p))

    def test_missing_equals_sign(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("d_model 8\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(str(p))

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = many\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(str(p))

    def test_keys_are_the_dataclass_fields(self, tmp_path):
        """One file sets every field of both dataclasses to a value other than
        its default, and each value arrives in its field."""
        model = ModelConfig(num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=40,
                            d_emb=6, pooling="sep", use_lead_graphs=False,
                            node_reduction=True, streams=("ss", "ce"), sep_connect_all=False)
        train = TrainConfig(batch_size=3, epochs=4, seed=5, lr=2.5e-3, grad_clip=0.5,
                            checkpoint_interval=2)
        text = {bool: lambda v: "yes" if v else "no", tuple: ", ".join}
        lines = []
        for cfg in (model, train):
            for f in dataclasses.fields(cfg):
                value = getattr(cfg, f.name)
                assert value != f.default, f.name
                lines.append(f"{f.name} = {text.get(type(value), str)(value)}\n")
        p = tmp_path / "all.cfg"
        p.write_text("".join(lines))
        model_kw, train_kw, extra = parse_config_file(str(p))
        assert ModelConfig(**model_kw) == model and TrainConfig(**train_kw) == train
        assert len(model_kw) == 11 and len(train_kw) == 6 and extra == {}

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr = 1e-3\nd_model = 8\n\nlr = 2e-3\n")
        with pytest.raises(ValueError, match=f"^{p}: line 4: key 'lr' repeats line 1$"):
            parse_config_file(str(p))

    def test_file_not_utf8_names_the_path(self, cli_corpus, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"epochs = 1\nlr = \xff\n")
        rc = main(["train", "--data", str(cli_corpus), "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {p}: 'utf-8' codec can't decode byte 0xff")

    def test_word_vector_file_not_utf8_names_the_path(self, cli_corpus, tmp_path, capsys):
        wv = tmp_path / "wv.txt"
        wv.write_bytes(b"dog 0.1 0.2\n\xff\xfe 0.3 0.4\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"epochs = 1\nword_vectors = {wv}\n")
        rc = main(["train", "--data", str(cli_corpus), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err.startswith(f"error: {wv}: 'utf-8' codec can't decode byte 0xff")


class TestGenData:
    def test_writes_both_manifests(self, tmp_path, capsys):
        rc = main(["gen-data", "--n", "5", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [str(tmp_path / "train.json"), str(tmp_path / "eval.json")]
        train = json.loads((tmp_path / "train.json").read_text())
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert len(train["samples"]) == 5
        assert len(ev["samples"]) == 1  # default n // 5

    def test_explicit_eval_count(self, tmp_path):
        rc = main(["gen-data", "--n", "4", "--eval-n", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert len(ev["samples"]) == 3

    def test_spec_file_controls_the_world(self, tmp_path, capsys):
        spec = ToyWorldSpec(grid_size=3, d_region=8, d_spatial=8)
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(to_json(spec)))
        rc = main(["gen-data", "--spec", str(spec_path), "--n", "3",
                   "--out", str(tmp_path / "c")])
        assert rc == 0
        manifest = json.loads((tmp_path / "c" / "train.json").read_text())
        assert ToyWorldSpec.from_dict(manifest["world"]) == spec
        ds = load_manifest(str(tmp_path / "c" / "train.json"))
        assert (ds.grid_size, ds.d_region, ds.d_spatial) == (3, 8, 8)

    def test_bad_spec_file_exits_one(self, tmp_path, capsys):
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps({"categories": []}))
        rc = main(["gen-data", "--spec", str(spec_path), "--n", "3",
                   "--out", str(tmp_path / "c")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("counts, split", [(["--n", "3", "--eval-n", "0"], "eval"),
                                               (["--n", "0", "--eval-n", "2"], "train")])
    def test_bad_count_leaves_the_corpus_as_it_was(self, tmp_path, capsys, counts, split):
        """A split size below 1 exits 1 naming the split, before any file of an
        existing corpus in ``--out`` is written."""
        out = tmp_path / "c"
        assert main(["gen-data", "--n", "2", "--eval-n", "1", "--seed", "4",
                     "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        rc = main(["gen-data", *counts, "--seed", "9", "--out", str(out)])
        assert rc == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{split}: sample count must be >= 1" in err

    def test_overflowing_spec_prints_only_its_error(self, tmp_path):
        """The feature products that overflow print no numpy warning before the
        error that rejects them."""
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps({"feature_scale": 1e200, "feature_noise": 1e200}))
        proc = subprocess.run([sys.executable, "-m", "granalign.cli", "gen-data", "--spec",
                               str(spec_path), "--n", "3", "--out", str(tmp_path / "c")],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ("error: feature_scale 1e+200 and feature_noise 1e+200 give a "
                               "feature value beyond ±1e+150\n")
        assert not (tmp_path / "c").exists()

    def test_allocation_beyond_any_memory_exits_one(self, tmp_path, capsys):
        """A feature width of 1e13 fails at the size rule, before any draw: an
        error line, exit 1 and no traceback, and nothing written."""
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps({"d_region": 10_000_000_000_000}))
        rc = main(["gen-data", "--spec", str(spec_path), "--n", "3",
                   "--out", str(tmp_path / "c")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_negative_seed_names_the_seed_and_writes_nothing(self, tmp_path, capsys):
        out, fresh = tmp_path / "c", tmp_path / "fresh"
        assert main(["gen-data", "--n", "2", "--eval-n", "1", "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        for target in (out, fresh):
            rc = main(["gen-data", "--n", "8", "--eval-n", "4", "--seed", "-1",
                       "--out", str(target)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == "error: seed must be >= 0, got -1\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert not fresh.exists()


class TestTrainEval:
    def test_train_then_eval_roundtrip(self, cli_corpus, cli_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "metrics.jsonl"
        rc = main(["train", "--data", str(cli_corpus), "--config", cli_config,
                   "--out", str(ckpt), "--log", str(log)])
        assert rc == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2  # one record per epoch
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert {"epoch", "loss", "acc_avg"} <= set(record)
        assert ckpt.exists()

        rc = main(["eval", "--data", str(cli_corpus), "--ckpt", str(ckpt)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 4
        assert 0.0 <= report["acc_avg"] <= 1.0

    def test_zero_epochs_writes_the_seeded_initial_checkpoint(self, cli_corpus, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 0"))
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "metrics.jsonl"
        rc = main(["train", "--data", str(cli_corpus), "--config", str(cfg),
                   "--out", str(ckpt), "--log", str(log)])
        assert rc == 0 and log.read_text() == ""
        model, opt = load_checkpoint(str(ckpt))
        assert opt.step_count == 0 and not opt.m_flat.any() and not opt.v_flat.any()
        model_kw, train_kw, _ = parse_config_file(str(cfg))
        ds = load_manifest(str(cli_corpus / "train.json"))
        seeded = Model(ModelConfig(**model_kw), ds.word_vocab, ds.answer_vocab,
                       ds.d_region, ds.d_spatial, seed=train_kw["seed"])
        assert model.params.flat.tobytes() == seeded.params.flat.tobytes()

    def test_eval_on_train_split(self, cli_corpus, cli_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(cli_corpus), "--config", cli_config,
              "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")])
        capsys.readouterr()
        rc = main(["eval", "--data", str(cli_corpus), "--ckpt", str(ckpt),
                   "--split", "train"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 8

    def test_metrics_default_to_stdout(self, cli_corpus, cli_config, capsys):
        rc = main(["train", "--data", str(cli_corpus), "--config", cli_config])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        json.loads(lines[0])

    @pytest.mark.parametrize("change, message", [
        ("answers", "dataset answer vocabulary does not match the model"),
        ("d_region", "dataset d_region 6 does not match the model's 32"),
    ])
    def test_eval_on_a_corpus_the_model_does_not_fit_exits_one(
            self, cli_corpus, cli_config, tmp_path, capsys, change, message):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(cli_corpus), "--config", cli_config,
                     "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")]) == 0
        data = tmp_path / "data"
        if change == "d_region":
            gen_corpus(dataclasses.replace(DEFAULT_WORLD, d_region=6), 4, 4, 23, str(data))
        else:
            shutil.copytree(cli_corpus, data)
            manifest = json.loads((data / "eval.json").read_text())
            manifest["world"]["attributes"].reverse()
            (data / "eval.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--data", str(data), "--ckpt", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_corpus_exits_one(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nowhere")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_epochs_exits_one(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = -1\n")
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(cli_corpus), "--config", str(cfg),
                   "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epochs" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("setting", ["d_model = 8000000000000", "d_emb = 8000000000000"])
    def test_model_beyond_any_memory_exits_one(self, cli_corpus, tmp_path, capsys, setting):
        """A d_model or a d_emb of 8e12 fails at the size rule, before any draw:
        an error line, exit 1 and no traceback, and no checkpoint."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(setting + "\n")
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(cli_corpus), "--config", str(cfg),
                   "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not ckpt.exists()

    def test_memory_error_in_the_build_exits_one(self, cli_corpus, tmp_path, capsys,
                                                 monkeypatch):
        """An allocation that fails while the model is built is one error line."""
        def no_memory(*args):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (10**12,)")

        monkeypatch.setattr(ad, "Parameters", no_memory)
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(cli_corpus), "--out", str(ckpt)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: Unable to allocate 8.00 TiB for an array "
                                           "with shape (10**12,)\n")
        assert not ckpt.exists()

    def test_missing_checkpoint_exits_one(self, cli_corpus, capsys):
        rc = main(["eval", "--data", str(cli_corpus), "--ckpt", "/no/such.ckpt"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_checkpoint_version_exits_one(self, cli_corpus, cli_config, tmp_path, capsys,
                                                version):
        """A checkpoint of an older version (2: blocks in declaration order; 3: a
        top-level d_emb beside model_config's) is refused by its version: one
        error line, no traceback."""
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(cli_corpus), "--config", cli_config, "--out", str(ckpt)])
        blob = ckpt.read_bytes()
        assert struct.unpack("<I", blob[4:8]) == (training.CKPT_VERSION,) == (4,)
        ckpt.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        capsys.readouterr()
        rc = main(["eval", "--data", str(cli_corpus), "--ckpt", str(ckpt)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error: {ckpt}: unsupported checkpoint version {version}\n"

    @pytest.mark.parametrize("damage", ["no_d_emb", "trailing", "truncated", "bad_optimizer",
                                        "zero_d_emb"])
    def test_damaged_checkpoint_exits_one(self, cli_corpus, cli_config, tmp_path, capsys,
                                          damage):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(cli_corpus), "--config", cli_config,
              "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")])
        blob = ckpt.read_bytes()
        if damage in ("no_d_emb", "bad_optimizer", "zero_d_emb"):
            (hlen,) = struct.unpack("<Q", blob[8:16])
            header = json.loads(blob[16:16 + hlen])
            if damage == "no_d_emb":
                del header["model_config"]["d_emb"]
            elif damage == "zero_d_emb":
                header["model_config"]["d_emb"] = 0
            else:
                header["optimizer"].update(lr=-1.0)
            raw = json.dumps(header).encode()
            blob = blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:]
        elif damage == "trailing":
            blob += b"\x00" * 8
        else:
            blob = blob[:-3]
        ckpt.write_bytes(blob)
        capsys.readouterr()
        rc = main(["eval", "--data", str(cli_corpus), "--ckpt", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {ckpt}: ") and "Traceback" not in err
        if damage == "no_d_emb":
            assert "missing field 'd_emb'" in err
        if damage == "zero_d_emb":
            assert "d_emb must be >= 1, got 0" in err


class TestSizeRule:
    """A size setting beyond ``ingest.SIZE_LIMIT`` fails before the first
    draw. Each case runs alone in a child process with a 5 s timeout and 2 GB
    of address space, so a setting that hangs or fills memory fails here
    rather than stalling the suite."""

    ENCODER = "an encoder stack's parameter count (num_layers, d_model, d_ff, max_len)"
    MODEL = "a model's parameter count"
    SCENE = ("world spec: a scene's feature count "
             "(grid_size² × d_spatial + objects_max × d_region)")
    CORPUS = ("a corpus's feature count ((n_train + n_eval) × "
              "(grid_size² × d_spatial + objects_max × d_region))")

    @pytest.mark.parametrize("command, setting, what", [
        ("train", "num_layers = 100000000000000000000000", ENCODER),
        ("train", "d_model = 1000000000000", ENCODER),
        ("train", "d_ff = 1000000000000", ENCODER),
        ("train", "max_len = 1000000000000", ENCODER),
        ("gen-data", {"grid_size": 10**12}, SCENE),
        ("gen-data", {"d_spatial": 10**12}, SCENE),
        ("gen-data", {"d_region": 10**12}, SCENE),
        ("gen-data", "1000000000000", CORPUS),
        ("train", "d_emb = 1000000000000", MODEL),
        ("gradcheck", "num_layers = 100000000000000000000000", ENCODER),
        ("gradcheck", "d_emb = 1000000000000", MODEL),
        ("ablate", "d_model = 1000000000000", ENCODER),
        ("ablate", "d_emb = 1000000000000", MODEL),
    ], ids=["num_layers", "d_model", "d_ff", "max_len", "grid_size", "d_spatial", "d_region",
            "corpus", "d_emb", "gradcheck-num_layers", "gradcheck-d_emb", "ablate-d_model",
            "ablate-d_emb"])
    def test_huge_size_setting_exits_one_at_once(self, cli_corpus, tmp_path, command,
                                                 setting, what):
        out = tmp_path / "out"
        if command == "gen-data" and isinstance(setting, str):  # the sample count
            argv = ["gen-data", "--n", setting, "--out", str(out)]
        elif command == "gen-data":
            spec = tmp_path / "world.json"
            spec.write_text(json.dumps(setting))
            argv = ["gen-data", "--spec", str(spec), "--n", "3", "--out", str(out)]
        else:
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(setting + "\n")
            argv = [command, "--data", str(cli_corpus), "--config", str(cfg)]
            argv += {"train": ["--out", str(out)], "gradcheck": [],
                     "ablate": ["--epochs", "1"]}[command]
        self.exits_one_at_once(argv, what, "1e+07")
        assert not out.exists()

    def test_one_wide_layers_by_the_hundred_thousand(self, cli_corpus, tmp_path):
        """200,000 layers of width 1 hold few values but 2.4 million blocks per
        stack, beyond ``ingest.BLOCK_LIMIT``."""
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("num_layers = 200000\nd_model = 1\nnum_heads = 1\nd_ff = 1\n")
        out = tmp_path / "out"
        self.exits_one_at_once(["train", "--data", str(cli_corpus), "--config", str(cfg),
                                "--out", str(out)],
                               "an encoder stack's block count (num_layers)", "100000")
        assert not out.exists()

    def test_grid_cells_by_the_million(self, tmp_path):
        """A 3000 x 3000 grid of one-wide cells holds 9 million feature values,
        under ``ingest.SIZE_LIMIT``, but its cells are beyond
        ``ingest.CELL_LIMIT``: about 3 minutes of generation per scene."""
        spec, out = tmp_path / "world.json", tmp_path / "out"
        spec.write_text(json.dumps({"grid_size": 3000, "d_spatial": 1}))
        self.exits_one_at_once(["gen-data", "--spec", str(spec), "--n", "3", "--out", str(out)],
                               "world spec: a scene's grid cell count (grid_size²)", "10000")
        assert not out.exists()

    @staticmethod
    def exits_one_at_once(argv, what, limit):
        """The CLI on ``argv``, alone in a child process under the class's
        rule, exits 1 with one ``error:`` line: ``what`` beyond ``limit``."""
        limited = ("import resource, sys; "
                   "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                   "from granalign.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", limited, *argv], capture_output=True,
                              text=True, timeout=5,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {what} is ") and proc.stderr.endswith(
            f", beyond the limit {limit}\n")


class TestGradcheckCommand:
    def test_default_model_passes_every_block(self, cli_corpus, capsys):
        rc = main(["gradcheck", "--data", str(cli_corpus), "--sample", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1].endswith("parameter blocks passed")
        body = lines[:-1]
        assert all(line.startswith("PASS ") for line in body)
        assert "max_rel_err=" in body[0] and "coords=" in body[0]

    def test_impossible_tolerance_fails(self, cli_corpus, cli_config, capsys):
        rc = main(["gradcheck", "--data", str(cli_corpus), "--config", cli_config,
                   "--tol", "1e-16"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_nan_parameter_fails_and_exits_one(self, cli_corpus, monkeypatch, capsys):
        """A block whose relative error is NaN fails, and is printed as nan."""
        point = training.generic_parameter_point

        def nan_point(model, seed):
            point(model, seed=seed)
            model.params["fuse.ga.head_b"].data[0] = np.nan

        monkeypatch.setattr(training, "generic_parameter_point", nan_point)
        rc = main(["gradcheck", "--data", str(cli_corpus), "--sample", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL fuse.ga.head_b max_rel_err=nan " in out
        passed, total = out.splitlines()[-1].split()[0].split("/")
        assert int(passed) < int(total)

    @pytest.mark.parametrize("at_init", [True, False], ids=["at-init", "generic-point"])
    def test_at_init_checks_the_training_draw(self, tmp_path, monkeypatch, capsys, at_init):
        """``--at-init`` checks the seeded draw, and the default the generic point
        drawn over it; either prints every block once and exits 1 exactly when a
        block fails."""
        train_path, _ = gen_corpus(DEFAULT_WORLD, 4, 2, 1, str(tmp_path / "data"))
        model_kw = dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in model_kw.items()))
        seeds, point = [], training.generic_parameter_point

        def spy(model, seed):
            seeds.append(seed)
            point(model, seed=seed)

        monkeypatch.setattr(training, "generic_parameter_point", spy)
        rc = main(["gradcheck", "--data", str(tmp_path / "data"), "--config", str(cfg),
                   *["--at-init"] * at_init])
        captured = capsys.readouterr()
        *body, last = captured.out.splitlines()
        names = training.build_model(load_manifest(train_path), model_kw, 0).params.names()
        assert [line.split()[1] for line in body] == names
        failed = sum(line.startswith("FAIL ") for line in body)
        assert all(line.startswith(("PASS ", "FAIL ")) for line in body)
        assert last == f"{len(names) - failed}/{len(names)} parameter blocks passed"
        assert rc == (1 if failed else 0)
        assert seeds == ([] if at_init else [123])
        assert captured.err == ""

    def test_sample_index_out_of_range(self, cli_corpus, capsys):
        rc = main(["gradcheck", "--data", str(cli_corpus), "--sample", "99"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--step", "0"), ("--step", "-1"),
                                             ("--step", "nan"), ("--tol", "-1")])
    def test_bad_step_or_tolerance_exits_one(self, cli_corpus, capsys, flag, value):
        rc = main(["gradcheck", "--data", str(cli_corpus), flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: gradcheck {flag[2:]} must be a finite value > 0")
        assert value in captured.err and "Traceback" not in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("setting, message", [
        ("batch_size = 0", "batch_size must be >= 1, got 0"),
        ("epochs = -3", "epochs must be >= 0, got -3"),
        ("seed = -1", "seed must be >= 0, got -1")])
    def test_training_setting_rejected_as_by_train(self, cli_corpus, tmp_path, capsys, setting,
                                                   message):
        """The training settings of the config file pass the same checks as in
        ``train``, before any block is checked."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{setting}\n")
        rc = main(["gradcheck", "--data", str(cli_corpus), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n" and captured.out == ""


class TestDumpLeadgraph:
    # image side: girl->left, left->dog, right->girl, dog->right, dog->brown,
    # then the SEP row/column; question side: the single self-looped entity
    GOLDEN_LAYER3 = "\n".join([
        "0 1 0 0 0 1 1",
        "0 0 0 1 0 1 1",
        "1 0 0 0 0 1 1",
        "0 0 1 0 1 1 1",
        "0 0 0 0 0 1 1",
        "1 1 1 1 1 1 1",
        "1 1 1 1 1 1 1",
    ])

    def test_concept_layer3_golden(self, capsys):
        rc = main(["dump-leadgraph", "--sample", fixture_path("girl_dog.json"),
                   "--stream", "ce", "--layer", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# stream ce layer 3"
        assert lines[1] == "# image_tokens 5 sep 1 question_tokens 1"
        assert "\n".join(lines[2:]) == self.GOLDEN_LAYER3

    def test_layer1_is_question_self_only(self, capsys):
        rc = main(["dump-leadgraph", "--sample", fixture_path("girl_dog.json"),
                   "--stream", "ce", "--layer", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        grid = np.array([[int(v) for v in line.split()] for line in lines[2:]])
        expect = np.zeros((7, 7), dtype=int)
        expect[6, 6] = 1
        np.testing.assert_array_equal(grid, expect)

    def test_layer2_is_cross_modal_only(self, capsys):
        rc = main(["dump-leadgraph", "--sample", fixture_path("girl_dog.json"),
                   "--stream", "ce", "--layer", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        grid = np.array([[int(v) for v in line.split()] for line in lines[2:]])
        expect = np.zeros((7, 7), dtype=int)
        expect[:6, 6] = 1
        expect[6, :6] = 1
        np.testing.assert_array_equal(grid, expect)

    def test_spatial_stream_dimensions(self, capsys):
        rc = main(["dump-leadgraph", "--sample", fixture_path("girl_dog.json"),
                   "--stream", "ss", "--layer", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        # 4 grid cells + SEP + 5 sentence tokens
        assert lines[1] == "# image_tokens 4 sep 1 question_tokens 5"
        assert len(lines) - 2 == 10

    def test_stream_longer_than_the_default_max_len(self, tmp_path, capsys):
        """``dump-leadgraph`` builds no model, so no ``max_len`` bounds it: the
        ss stream of an 8x8 grid (64 cells, SEP and the sentence) prints whole.
        ``train`` at the default ``max_len`` 64 refuses the same corpus with
        one error line."""
        gen_corpus(ToyWorldSpec(grid_size=8), 1, 1, 3, str(tmp_path))
        rc = main(["dump-leadgraph", "--sample", str(tmp_path / "samples" / "train_0000.json"),
                   "--stream", "ss", "--layer", "1"])
        lines = capsys.readouterr().out.splitlines()
        n_q = int(lines[1].split()[-1])
        assert rc == 0 and lines[1] == f"# image_tokens 64 sep 1 question_tokens {n_q}"
        grid = np.array([[int(v) for v in line.split()] for line in lines[2:]])
        n = 65 + n_q
        assert grid.shape == (n, n) and grid[64:, 65:].any()
        rc = main(["train", "--data", str(tmp_path), "--log", os.devnull])
        assert rc == 1 and capsys.readouterr().err == (
            f"error: stream ss has {n} tokens, more than max_len 64\n")

    def test_invalid_layer_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["dump-leadgraph", "--sample", "x.json",
                  "--stream", "ce", "--layer", "4"])
        assert exc.value.code == 2

    def test_missing_sample_file_exits_one(self, capsys):
        rc = main(["dump-leadgraph", "--sample", "/no/such.json",
                   "--stream", "ce", "--layer", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_sample_id_of_the_wrong_type_exits_one(self, tmp_path, capsys):
        """The file is read as a ``Sample`` record: only an absent id or answer
        is filled in (the fixture has neither), so an id of 5 is an error."""
        with open(fixture_path("girl_dog.json"), encoding="utf-8") as f:
            doc = json.load(f)
        assert "id" not in doc and "answer" not in doc
        sample = tmp_path / "numbered.json"
        sample.write_text(json.dumps({**doc, "id": 5}))
        rc = main(["dump-leadgraph", "--sample", str(sample), "--stream", "ce", "--layer", "1"])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {sample}: field 'id' must be a string, "
                                           f"got int\n")

    def test_unknown_top_level_key_exits_one(self, tmp_path, capsys):
        with open(fixture_path("girl_dog.json"), encoding="utf-8") as f:
            doc = json.load(f)
        doc["answr"] = "x"
        sample = tmp_path / "typo.json"
        sample.write_text(json.dumps(doc))
        rc = main(["dump-leadgraph", "--sample", str(sample), "--stream", "ce", "--layer", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {sample}: unknown fields ['answr']\n"

    @pytest.mark.parametrize("part, field, message", [
        ("scene", "objects", "scene has no objects"),
        ("question", "tokens", "question has no tokens"),
    ])
    def test_empty_scene_or_question_exits_one(self, tmp_path, capsys, part, field, message):
        with open(fixture_path("girl_dog.json"), encoding="utf-8") as f:
            doc = json.load(f)
        doc[part][field] = []
        sample = tmp_path / "empty.json"
        sample.write_text(json.dumps(doc))
        rc = main(["dump-leadgraph", "--sample", str(sample), "--stream", "ce", "--layer", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("where, value, message", [
        (("scene",), 5, "field 'scene' must be an object, got int"),
        (("scene", "objects"), 5, "field 'objects' must be a list, got int"),
        (("scene", "relations"), 5, "field 'relations' must be a list, got int"),
        (("scene", "spatial"), 5, "field 'spatial' must be an object, got int"),
        (("question", "tokens"), 5, "field 'tokens' must be a list, got int"),
        (("question", "dependency_edges"), 5, "field 'dependency_edges' must be a list"),
        (("question", "dependency_edges"), [[2, "0"]],
         "dependency_edges[0] must be a (head, dependent) pair of integers"),
        (("question", "tokens"), "abc", "field 'tokens' must be a list, got str"),
        (("question", "noun_phrases"), "ab", "field 'noun_phrases' must be a list, got str"),
        (("scene", "objects", 0, "region_feature"), [[0.1, 0.2], [0.3, 0.4]],
         "objects[0]: region_feature must be a 1-D array of numbers"),
        (("scene", "objects", 0, "region_feature"), [float("nan"), 0.2, 0.3, 0.4],
         "objects[0]: region_feature holds a non-finite value"),
        (("scene", "spatial", "features"), [[0.0, 0.0, 0.0, float("inf")]] * 4,
         "spatial: features holds a non-finite value"),
        (("scene", "objects", 1, "region_feature"), [0.1, 0.2, 0.3],
         "objects[1]: region_feature has 3 values, objects[0] has 4"),
        (("scene", "objects", 0, "region_feature"), ["1.5", 0.2, 0.3, 0.4],
         "objects[0]: region_feature must hold numbers, got str"),
        (("scene", "objects", 0, "region_feature"), [0.1, True, 0.3, 0.4],
         "objects[0]: region_feature must hold numbers, got bool"),
        (("scene", "spatial", "features"), [[0.0, 0.0, "0", 0.0]] * 4,
         "spatial: features must hold numbers, got str"),
        (("scene", "spatial", "features"), [[0.0, 0.0, 0.0, 1]] * 3 + [[False, 0.0, 0.0, 0.0]],
         "spatial: features must hold numbers, got bool"),
        (("scene", "objects", 0, "region_feature"), [10**400, 0.2, 0.3, 0.4],
         "objects[0]: region_feature must be a 1-D array of numbers"),
        (("scene", "spatial", "features"), [[0.0, 0.0, 0.0, 0.0]] * 3,
         "spatial: features must be a 4 x d matrix"),
    ], ids=["scene", "objects", "relations", "spatial", "tokens", "dependency_edges",
            "dependency_edge-string", "tokens-string", "noun_phrases-string", "region_feature-2d",
            "region_feature-nan", "spatial-infinity", "region_feature-ragged",
            "region_feature-string", "region_feature-bool", "spatial-string", "spatial-bool",
            "region_feature-overflow", "spatial-rows"])
    def test_malformed_sample_exits_one(self, tmp_path, capsys, where, value, message):
        with open(fixture_path("girl_dog.json"), encoding="utf-8") as f:
            doc = json.load(f)
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        sample = tmp_path / "bad.json"
        sample.write_text(json.dumps(doc))
        rc = main(["dump-leadgraph", "--sample", str(sample), "--stream", "ce", "--layer", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {sample}") and message in err
        assert "Traceback" not in err


class TestCorpusFiles:
    @pytest.mark.parametrize("samples, message", [
        (5, "field 'samples' must be a list, got int"),
        ([5], "samples must hold strings, got int"),
    ])
    def test_malformed_manifest_exits_one(self, cli_corpus, cli_config, tmp_path, capsys,
                                          samples, message):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(cli_corpus), "--config", cli_config,
                     "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")]) == 0
        data = tmp_path / "data"
        data.mkdir()
        manifest = json.loads((cli_corpus / "eval.json").read_text())
        manifest["samples"] = samples
        (data / "eval.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--data", str(data), "--ckpt", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_spatial_width_mismatch_exits_one(self, cli_corpus, cli_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(cli_corpus), "--config", cli_config,
                     "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")]) == 0
        data = tmp_path / "data"
        shutil.copytree(cli_corpus, data)
        spath = data / "samples" / "eval_0002.json"
        doc = json.loads(spath.read_text())
        doc["scene"]["spatial"]["features"] = [r[:3] for r in doc["scene"]["spatial"]["features"]]
        spath.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data", str(data), "--ckpt", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {data / 'eval.json'}: sample eval_0002: spatial feature "
                              f"width 3 != d_spatial 32")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, message", [
        ({"grid_size": "x"}, "field 'grid_size' must be an integer, got str"),
        ({"feature_noise": "x"}, "field 'feature_noise' must be a number, got str"),
        ({"categories": "ab"}, "field 'categories' must be a list, got str"),
        ([2], "world spec must be an object, got list"),
        ({"grid_size": 0}, "grid_size must be >= 1, got 0"),
        ({"d_region": -1}, "d_region must be >= 1, got -1"),
        ({"d_region": 0}, "d_region must be >= 1, got 0"),
        ({"d_spatial": 0}, "d_spatial must be >= 1, got 0"),
        ({"feature_noise": -1.0}, "feature_noise must be a finite value >= 0, got -1.0"),
        ({"feature_noise": float("nan")}, "feature_noise must be a finite value >= 0, got nan"),
        ({"feature_scale": 0.0}, "feature_scale must be a finite value > 0, got 0.0"),
        ({"feature_scale": float("inf")}, "feature_scale must be a finite value > 0, got inf"),
        ({"categories": ["dog", "dog", "cat"]}, "categories holds a duplicate entry"),
        ({"attributes": ["red", "red"]}, "attributes holds a duplicate entry"),
        ({"relations": ["left", "left"]}, "relations holds a duplicate entry"),
        ({"feature_noise": 10**400}, "field 'feature_noise' is out of the float range"),
        ({"templates": ["relation"], "objects_min": 1, "objects_max": 1},
         "relation-only templates need objects_max >= 2"),
        ({"feature_scale": 1e200}, "feature_scale 1e+200 and feature_noise 0.05 give a "
                                   "feature value beyond ±1e+150"),
        ({"feature_noise": 1e300}, "feature_scale 1 and feature_noise 1e+300 give a "
                                   "feature value beyond ±1e+150"),
        ({"objects_min": 3, "objects_max": 2}, "objects_max must be >= 3, got 2"),
        ({"objects_max": 5}, "objects_max exceeds the category set"),
        ({"categories": ["a", "b", "c", "d", "e"], "objects_max": 5},
         "objects_max exceeds the number of grid cells"),
    ], ids=["grid_size", "feature_noise", "categories", "not-an-object", "grid_size-0",
            "d_region-negative", "d_region-0", "d_spatial-0", "feature_noise-negative",
            "feature_noise-nan", "feature_scale-0", "feature_scale-inf", "categories-duplicate",
            "attributes-duplicate", "relations-duplicate", "feature_noise-overflow",
            "relation-only-one-object", "feature_scale-beyond-limit",
            "feature_noise-beyond-limit", "objects_max-below-objects_min",
            "objects_max-beyond-categories", "objects_max-beyond-grid-cells"])
    def test_malformed_world_spec_exits_one(self, tmp_path, capsys, spec, message):
        """Also a spec whose features its corpus's reader would reject; no file
        is written."""
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["gen-data", "--spec", str(spec_path), "--n", "3",
                   "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("d_emb", 0, "d_emb must be >= 1, got 0", id="d_emb-0"),
        pytest.param("d_emb", -3, "d_emb must be >= 1, got -3", id="d_emb--3"),
        pytest.param("max_len", 0, "max_len must be >= 1, got 0", id="max_len-0"),
        pytest.param("streams", "ce, ce", "streams holds a duplicate entry", id="streams-ce,ce"),
        pytest.param("seed", -1, "seed must be >= 0, got -1", id="seed--1"),
        pytest.param("num_heads", 0, "num_heads must be >= 1, got 0", id="num_heads-0"),
        pytest.param("use_lead_graphs", "maybe",
                     "{cfg}: line 1: expected a boolean, got 'maybe'", id="use_lead_graphs-maybe"),
        pytest.param("word_vectors", b"", "{wv}: empty word-vector file",
                     id="word_vectors-empty"),
        pytest.param("word_vectors", b"dog\n", "{wv}: line 1: no vector components",
                     id="word_vectors-no-components")])
    def test_malformed_model_setting_exits_one(self, cli_corpus, tmp_path, capsys, field, value,
                                               message):
        """``{cfg}`` in a message is the config file's path and ``{wv}`` the
        word-vector file's, whose content a bytes ``value`` is."""
        cfg, wv = tmp_path / "bad.cfg", tmp_path / "wv.txt"
        if isinstance(value, bytes):
            wv.write_bytes(value)
            value = wv
        cfg.write_text(f"{field} = {value}\nepochs = 1\n")
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(cli_corpus), "--config", str(cfg),
                   "--out", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {message.format(cfg=cfg, wv=wv)}")
        assert not ckpt.exists()

    @pytest.mark.parametrize("damage", ["truncated", "not-utf8", "nested-too-deep"])
    @pytest.mark.parametrize("role", ["world-spec", "sample", "manifest", "corpus-sample"])
    def test_undecodable_json_file_exits_one(self, cli_corpus, cli_config, tmp_path, capsys,
                                             role, damage):
        """A file that is cut short, not UTF-8 or nested deeper than the
        decoder's recursion limit fails with an error naming it."""
        data = tmp_path / "data"
        shutil.copytree(cli_corpus, data)
        bad = {"world-spec": tmp_path / "world.json", "sample": data / "samples" / "eval_0000.json",
               "manifest": data / "eval.json",
               "corpus-sample": data / "samples" / "eval_0000.json"}[role]
        text = bad.read_bytes() if bad.exists() else b'{"grid_size": 3, "d_region": 8}'
        bad.write_bytes({"truncated": text[:len(text) // 2],
                         "not-utf8": text.replace(b'"', b'"\xff', 1),
                         "nested-too-deep": b"[" * 10**5}[damage])
        ckpt = tmp_path / "model.ckpt"
        if role in ("manifest", "corpus-sample"):
            assert main(["train", "--data", str(cli_corpus), "--config", cli_config,
                         "--out", str(ckpt), "--log", str(tmp_path / "m.jsonl")]) == 0
        argv = {"world-spec": ["gen-data", "--spec", str(bad), "--n", "3",
                               "--out", str(tmp_path / "c")],
                "sample": ["dump-leadgraph", "--sample", str(bad), "--stream", "ce",
                           "--layer", "1"]}.get(role, ["eval", "--data", str(data),
                                                       "--ckpt", str(ckpt)])
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: invalid JSON: ") and "Traceback" not in err


class TestAblate:
    def test_table_has_all_variants(self, cli_corpus, cli_config, capsys):
        rc = main(["ablate", "--data", str(cli_corpus), "--config", cli_config,
                   "--epochs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["variant", "train_acc", "eval_acc", "eval_loss"]
        body = lines[2:]
        names = [line.split()[0] for line in body]
        assert names == ["full", "no_lead_graph", "ce_only", "rn_only",
                         "ss_only", "node_reduction"]

    def test_relation_corpus_rows(self, cli_corpus, cli_config, tmp_path, capsys):
        spec = ToyWorldSpec(templates=("relation",))
        rel_dir = tmp_path / "rel"
        gen_corpus(spec, 4, 2, 31, str(rel_dir))
        rc = main(["ablate", "--data", str(cli_corpus), "--config", cli_config,
                   "--epochs", "1", "--relation-data", str(rel_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("(relation corpus)") == 2


    def test_zero_epochs_exits_one(self, cli_corpus, cli_config, capsys):
        rc = main(["ablate", "--data", str(cli_corpus), "--config", cli_config,
                   "--epochs", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: an experiment needs epochs >= 1")
        assert "got 0" in captured.err and captured.out == ""

    def test_config_epochs_apply_without_the_flag(self, cli_corpus, tmp_path, capsys):
        """Without ``--epochs`` the config file's ``epochs`` counts; with it
        the flag wins (``test_zero_epochs_exits_one``)."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 0"))
        rc = main(["ablate", "--data", str(cli_corpus), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == ("error: an experiment needs epochs >= 1 to report training "
                                "metrics, got 0\n")

    def test_epochs_flag_wins_over_the_config(self, cli_corpus, tmp_path, capsys):
        """``--epochs 1`` trains every variant although the config says 0."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 0"))
        rc = main(["ablate", "--data", str(cli_corpus), "--config", str(cfg), "--epochs", "1"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert len(captured.out.splitlines()) == 2 + 6


class TestParser:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--n", "2", "--out", "/tmp/x", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point_prints_no_warning(self):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "granalign.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "dump-leadgraph" in proc.stdout

    def test_installed_script_smoke(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "granalign.cli", "gen-data", "--n", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "train.json").exists()
