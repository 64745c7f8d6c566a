import contextlib
import importlib
import io
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from osrkit import checks
from osrkit.cli import main
from osrkit.config import (GRIDS, PRESETS, DataConfig, FullConfig, TrainConfig, _cast, key_text,
                           load_config, param_cells, with_keys)
from osrkit.data import gen_synthetic, save_features
from osrkit.errors import ConfigError
from osrkit.losses import LossConfig
from osrkit.model import ModelConfig, init_model, save_checkpoint
from osrkit.numerics import Metric
from test_data import csv_texts, load_outcome, per_row_load_csv

FAST_CONFIG = """
[model]
layer_dims = 5,8,4
seed = 0

[loss]
variant = full
gap_threshold = 0.25

[train]
preset = desk
epochs = 3
batch_size = 8
seed = 0
eval_every = 1

[data]
num_classes = 4
samples_per_class = 20
dim = 5
separation = 4.0
overlap = 0.8
hard = false
seed = 0
known_classes = 0,1
unknown_classes = 2,3
test_fraction = 0.3
"""


# The standard benchmark recipe (osrkit.benchmark) as a config file.
STANDARD_CONFIG = """
[model]
layer_dims = 8,32,8

[loss]
variant = full
gap_threshold = 0.25

[train]
preset = desk
epochs = 60

[data]
num_classes = 6
samples_per_class = 200
dim = 8
separation = 5.0
overlap = 1.0
hard = true
known_classes = 0,1,2,3
unknown_classes = 4,5
test_fraction = 0.25
"""

# The config of the benchmark's CLI round trip at seed 0.
ROUNDTRIP_CONFIG = """
[model]
layer_dims = 16,32,8
seed = 0

[loss]
variant = full
gap_threshold = 0.25

[train]
preset = desk
epochs = 3
seed = 0

[data]
num_classes = 6
samples_per_class = 1000
dim = 16
separation = 5.0
overlap = 1.0
hard = true
seed = 0
known_classes = 0,1,2,3
unknown_classes = 4,5
test_fraction = 0.25
"""


# Files configparser itself cannot read, keyed by what is wrong with them.
UNREADABLE_CONFIGS = {
    "no_section_header": b"# osrkit\n\nA README, not a config.\n",
    "duplicate_key": b"[train]\nepochs = 3\nepochs = 4\n",
    "binary": b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR",
    "percent_value": b"[train]\nlearning_rate = 5%\n",
}

# One value that a config check rejects, per "section.key" (a "#" suffix tells two values of
# one key apart): (value, the error's message).
BAD_CONFIG_VALUES = {
    "train.epochs": ("-3", "epochs must be >= 0, got -3"),
    "train.batch_size": ("0", "batch_size must be >= 1, got 0"),
    "train.learning_rate": ("0", "learning_rate must be > 0, got 0.0"),
    "train.optimizer": ("rmsprop", "optimizer must be adam or sgd, got 'rmsprop'"),
    "train.eval_every": ("0", "eval_every must be >= 1, got 0"),
    "model.seed": ("-1", "model seed must be non-negative, got -1"),
    "loss.alpha": ("-1", "alpha must be >= 0, got -1.0"),
    "loss.beta": ("-1", "beta must be >= 0, got -1.0"),
    "loss.gap_threshold": ("-0.5", "gap_threshold must be >= 0, got -0.5"),
    "loss.classification_metric": (
        "manhattan", "classification_metric must be euclidean or angular, got manhattan"),
    "data.samples_per_class": ("0", "samples_per_class must be >= 1"),
    "data.dim": ("1", "dim must be >= 2"),
    "data.num_groups": ("0", "num_groups must be >= 1"),
    "data.test_fraction": ("1", "test_fraction must be in (0, 1), got 1.0"),
    "data.hard": ("maybe", "bad value for hard: 'maybe' (not a boolean: maybe)"),
    "data.known_classes": ("0", "need at least 2 known classes"),
    "data.known_classes#duplicate": ("0,0,1", "duplicate class ids in split spec"),
}

# (command line after --config/--out, (old, new) edit of FAST_CONFIG or None, the message)
DATA_SEED = ("hard = false\nseed = 0", "hard = false\nseed = -3")
FLAG_SEED = "argument --seed: seed must be a non-negative integer, got '-1'"
NEGATIVE_SEEDS = {
    "gen-data --seed": (["gen-data", "--seed", "-1"], None, FLAG_SEED),
    "train --seed": (["train", "--seed", "-1"], None, FLAG_SEED),
    "grad-check --seed": (["grad-check", "--seed", "-1"], None, FLAG_SEED),
    "gen-data [data] seed": (["gen-data"], DATA_SEED, "data seed must be non-negative, got -3"),
    "train [data] seed": (["train"], DATA_SEED, "data seed must be non-negative, got -3"),
    "train [train] seed": (["train"], ("batch_size = 8\nseed = 0", "batch_size = 8\nseed = -2"),
                           "train seed must be non-negative, got -2"),
}


SRC = Path(__file__).resolve().parent.parent / "src"


def _unopenable(tmp_path, name):
    """Set up one file the CLI cannot open; return the argv and the path the error must name."""
    cfg, out = tmp_path / "cfg.ini", tmp_path / "o"
    cfg.write_text(FAST_CONFIG)
    if name.endswith("_features"):
        path = tmp_path / "features.csv"
        if name == "non_utf8_features":
            path.write_bytes("label,group,f0\n0,0,1.0 \u00b5\n".encode("latin-1"))
        cfg.write_text(FAST_CONFIG + f"features_path = {path}\n")
        return ["train", "--config", str(cfg), "--out", str(out)], path
    if name == "out_is_file":
        out.write_text("not a directory\n")
        return ["gen-data", "--config", str(cfg), "--out", str(out)], out
    path = tmp_path / "model.osrp"
    if name == "checkpoint_is_dir":
        path.mkdir()
    return ["eval", "--config", str(cfg), "--checkpoint", str(path), "--out", str(out)], path


def _train_on_csv(tmp_path, scale=1.0, text=None, rows=slice(None)):
    """``train`` argv for FAST_CONFIG reading a feature CSV: its own data with the
    inputs' ``rows`` multiplied by ``scale``, or ``text`` verbatim."""
    path = tmp_path / "features.csv"
    if text is None:
        ds = gen_synthetic(4, 20, 5, 4.0, 0.8, seed=0)
        ds.inputs[rows] *= scale
        save_features(path, ds)
    else:
        path.write_text(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(FAST_CONFIG + f"features_path = {path}\n")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "o")], path


# What an empty config file loads to.
EMPTY_CONFIG = FullConfig(replace(TrainConfig(ModelConfig([8, 32, 16]), LossConfig()),
                                  **PRESETS["desk"]), DataConfig())
SECTION_CONFIGS = {"model": EMPTY_CONFIG.train.model, "loss": EMPTY_CONFIG.train.loss,
                   "train": EMPTY_CONFIG.train, "data": EMPTY_CONFIG.data}
# (section, key) for every field that is not itself a config
CONFIG_KEYS = [(section, f.name) for section, obj in SECTION_CONFIGS.items()
               for f in fields(obj) if not is_dataclass(getattr(obj, f.name))]
# the keys that --param can sweep: those of the training run that hold no list
PARAM_KEYS = [(section, key) for section, key in CONFIG_KEYS if section != "data"
              and not isinstance(getattr(SECTION_CONFIGS[section], key), list)]
# (key, value) for every value of every named grid
GRID_VALUES = [(key, value) for cells in GRIDS.values() for cell in cells
               for key, value in cell.items()]


def _other_value(value):
    """A value of ``value``'s type other than ``value``, and its INI text."""
    if isinstance(value, bool):
        return not value, str(not value).lower()
    if isinstance(value, (int, float)):
        return value + 3, repr(value + 3)
    if isinstance(value, Metric):
        return Metric.MANHATTAN, "manhattan"  # no field defaults to it
    if isinstance(value, list):
        return [9, 7], "9,7"
    return "other", "other"  # str, and features_path's None


def _with_field(cfg, section, key, value):
    """``cfg`` with one field of one section's config replaced."""
    train, data = cfg.train, cfg.data
    if section in ("model", "loss"):
        train = replace(train, **{section: replace(getattr(train, section), **{key: value})})
    elif section == "train":
        train = replace(train, **{key: value})
    else:
        data = replace(data, **{key: value})
    return FullConfig(train, data)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(FAST_CONFIG)
    return path


class TestConfigParsing:
    def test_full_parse(self, config_file):
        cfg = load_config(config_file)
        assert cfg.train.model.layer_dims == [5, 8, 4]
        assert cfg.train.epochs == 3
        assert cfg.train.loss.gap_threshold == 0.25
        assert cfg.train.loss.classification_metric is Metric.ANGULAR
        assert cfg.data.known_classes == [0, 1]

    def test_variant_euclidean(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[loss]\nvariant = euclidean\n")
        cfg = load_config(path)
        assert cfg.train.loss.classification_metric is Metric.EUCLIDEAN

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_bad_value(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[train]\nepochs = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_file_loads_defaults(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("")
        assert load_config(path) == EMPTY_CONFIG

    def test_desk_preset_is_the_defaults(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[train]\npreset = desk\n")
        assert load_config(path) == EMPTY_CONFIG
        assert EMPTY_CONFIG.train == TrainConfig(ModelConfig([8, 32, 16]), LossConfig())

    @pytest.mark.parametrize("section,key", CONFIG_KEYS, ids=[".".join(k) for k in CONFIG_KEYS])
    def test_each_key_sets_exactly_its_field(self, tmp_path, section, key):
        value, text = _other_value(getattr(SECTION_CONFIGS[section], key))
        path = tmp_path / "p.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        assert load_config(path) == _with_field(EMPTY_CONFIG, section, key, value)

    @pytest.mark.parametrize("section,key", PARAM_KEYS, ids=[".".join(k) for k in PARAM_KEYS])
    def test_each_scalar_key_works_through_param(self, tmp_path, section, key):
        value, text = _other_value(getattr(SECTION_CONFIGS[section], key))
        path = tmp_path / "p.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        read = load_config(path)
        read = {"model": read.train.model, "loss": read.train.loss, "train": read.train}[section]
        (cell,) = param_cells(EMPTY_CONFIG.train, [f"{key}={text}"])
        assert cell == {key: getattr(read, key)}
        expected = EMPTY_CONFIG
        for owner, name in PARAM_KEYS:  # seed is both a training and a model key
            if name == key:
                expected = _with_field(expected, owner, key, value)
        assert FullConfig(with_keys(EMPTY_CONFIG.train, cell), EMPTY_CONFIG.data) == expected

    @pytest.mark.parametrize("key,value", GRID_VALUES,
                             ids=[f"{k}={key_text(v)}" for k, v in GRID_VALUES])
    def test_grid_value_reads_back_from_its_sweep_csv_text(self, key, value):
        default = next(getattr(SECTION_CONFIGS[s], k) for s, k in PARAM_KEYS if k == key)
        back = _cast(key, default, key_text(value))
        assert back == value and type(back) is type(value)

    @pytest.mark.parametrize("text,name", [
        ("[train]\nlearning_rat = 0.5\n", "'learning_rat'"),
        ("[trian]\nepochs = 3\n", "[trian]"),
        ("[train]\nmodel = 8,8\n", "'model'"),
        ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
        ("[loss]\nvariant = bogus\n", "unknown variant 'bogus'; choose from full, euclidean"),
        ("[train]\npreset = fast\n", "unknown preset 'fast'; choose from desk"),
        ("[train]\npreset = paper\n", "unknown preset 'paper'; choose from desk"),
    ], ids=["key", "section", "nested_config", "default_section", "variant", "preset",
            "preset_paper"])
    def test_unknown_key_or_section_exit_one(self, tmp_path, capsys, text, name):
        path = tmp_path / "p.ini"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_train_with_paper_preset_exits_one(self, tmp_path, capsys):
        """The deleted ``paper`` preset is refused by ``train`` before anything is written."""
        path = tmp_path / "p.ini"
        path.write_text("[train]\npreset = paper\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown preset 'paper'; choose from desk\n"
        assert not out.exists()

    def test_readme_example_loads(self, tmp_path):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert cfg.train.loss == LossConfig(gap_threshold=0.25)
        assert (cfg.train.epochs, cfg.train.model.layer_dims) == (60, [8, 32, 8])
        assert cfg.data.features_path is None


class TestCli:
    def test_gen_data_deterministic(self, config_file, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["gen-data", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", str(config_file), "--out", str(out2)]) == 0
        assert (out1 / "dataset.ossf").read_bytes() == (out2 / "dataset.ossf").read_bytes()

    def test_train_then_eval_deterministic(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "model.osrp").exists()
        assert (out / "history.csv").exists()

        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        for e in (e1, e2):
            code = main([
                "eval", "--config", str(config_file),
                "--checkpoint", str(out / "model.osrp"), "--out", str(e),
            ])
            assert code == 0
        assert (e1 / "report.json").read_bytes() == (e2 / "report.json").read_bytes()
        assert (e1 / "roc.csv").read_bytes() == (e2 / "roc.csv").read_bytes()
        assert (e1 / "oscr.csv").read_bytes() == (e2 / "oscr.csv").read_bytes()
        report = json.loads((e1 / "report.json").read_text())
        assert set(report) == {"closed_accuracy", "auroc", "oscr"}

    def test_sweep_structure(self, config_file, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(config_file), "--grid", "margin-metric",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "margin_metric,acc,auroc,oscr"
        assert len(lines) == 5

    def test_sweep_custom_param(self, config_file, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(config_file), "--grid", "custom",
            "--param", "gap_threshold=0.1,0.2", "--out", str(out),
        ])
        assert code == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_sweep_all_cells_failed_exit_one(self, config_file, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(config_file), "--grid", "custom",
            "--param", "tau=-1,-2", "--out", str(out),
        ])
        assert code == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines[1:]] == ["error", "error"]
        assert "tau must be > 0" in capsys.readouterr().err

    def test_sweep_negative_int_fails_only_its_cell(self, config_file, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(config_file), "--grid", "custom",
            "--param", "epochs=-1,2", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "-1,error,error,error"
        assert lines[2].startswith("2,") and "error" not in lines[2]
        assert "epochs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        pytest.param(["--grid", "custom", "--param", "epochs=abc,x"],
                     "bad value for epochs: 'abc' (invalid literal for int() with base 10: 'abc')",
                     id="epochs=abc,x"),
        pytest.param(["--grid", "custom", "--param", "epochs=2.5"],
                     "bad value for epochs: '2.5' (invalid literal for int() with base 10: '2.5')",
                     id="epochs=2.5"),
        pytest.param(["--grid", "custom", "--param", "margin_metric=bogus"],
                     "bad value for margin_metric: 'bogus' (unknown metric 'bogus'; choose from "
                     "euclidean, angular, manhattan, chebyshev)", id="margin_metric=bogus"),
        pytest.param(["--param", "alpha=0.05,0.5"],
                     "--param needs --grid custom, not --grid gap-threshold",
                     id="param-without-custom-grid"),
        pytest.param(["--grid", "custom", "--param", "alpha=0.05", "--param", "alpha=0.5,0.7"],
                     "--param alpha given twice", id="param-given-twice"),
        pytest.param(["--grid", "custom", "--param", "layer_dims=8"],
                     "sweep parameter 'layer_dims' is a list; --param cannot sweep it",
                     id="list-field"),
        pytest.param(["--grid", "custom"], "--grid custom requires at least one --param",
                     id="custom-grid-without-param"),
        pytest.param(["--grid", "custom", "--param", "alpha"],
                     "--param expects name=v1,v2,... got 'alpha'", id="param-without-values"),
    ])
    def test_sweep_malformed_value_exit_one(self, config_file, tmp_path, capsys, args, message):
        code = main(["sweep", "--config", str(config_file), *args, "--out", str(tmp_path / "sw")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sw").exists()

    def test_eval_class_count_mismatch_exit_one(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        other = tmp_path / "three.ini"
        other.write_text(FAST_CONFIG.replace("known_classes = 0,1\nunknown_classes = 2,3",
                                             "known_classes = 0,1,2\nunknown_classes = 3"))
        code = main([
            "eval", "--config", str(other),
            "--checkpoint", str(out / "model.osrp"), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert "2 classes" in capsys.readouterr().err

    def test_eval_non_finite_checkpoint_exit_one(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        ckpt = out / "model.osrp"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))  # the last margin
        code = main([
            "eval", "--config", str(config_file),
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "non-finite" in err

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_grad_check_no_instances_exit_one(self, capsys, instances):
        assert main(["grad-check", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert "ok" not in captured.out
        assert "instances must be >= 1" in captured.err

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_grad_check_rejects_file_flags(self, tmp_path, capsys, flag):
        path = tmp_path / "d"
        assert main(["grad-check", flag, str(path), "--instances", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag}")
        assert not path.exists()

    def test_grad_check_exit_zero(self, capsys):
        assert main(["grad-check", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_grad_check_failure_exit_two(self, capsys, monkeypatch):
        # the cheapest real case and one whose gradient is wrong
        cases = {"overconfidence": checks.gradient_cases()["overconfidence"],
                 "wrong": lambda rng: 1.0}
        monkeypatch.setattr(checks, "gradient_cases", lambda: cases)
        assert main(["grad-check", "--instances", "1"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line[:5] for line in lines] == ["ok   ", "FAIL "]
        assert lines[1] == f"FAIL {'wrong':28s} max_rel_err=1.000e+00 (tol 0.0001)"
        assert captured.err == "numeric failure: gradient check failed\n"

    def test_missing_config_is_usage_error(self):
        assert main(["train"]) == 1

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["train", "--bogus"]) == 1

    @pytest.mark.parametrize("name", sorted(BAD_CONFIG_VALUES))
    def test_bad_config_value_exit_one(self, tmp_path, capsys, name):
        section, key = name.partition("#")[0].split(".")
        value, message = BAD_CONFIG_VALUES[name]
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exit_one(self, tmp_path, capsys, name):
        path = tmp_path / "bad.ini"
        path.write_bytes(UNREADABLE_CONFIGS[name])
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", [
        "missing_features", "missing_checkpoint", "checkpoint_is_dir", "out_is_file",
        "non_utf8_features",
    ])
    def test_unopenable_file_exit_one(self, tmp_path, capsys, name):
        argv, path = _unopenable(tmp_path, name)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("argv,status", [
        (["grad-check", "--instances", "1"], 0),
        (["train"], 1),
    ])
    def test_python_dash_m_exit_status(self, tmp_path, argv, status):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "osrkit", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == status, proc.stderr

    @pytest.mark.parametrize("row", ["-1,0", "99999999999999999999,0", "0,-3"])
    def test_csv_label_or_group_out_of_range_exit_one(self, tmp_path, capsys, row):
        argv, path = _train_on_csv(tmp_path, text=f"label,group,f0,f1,f2,f3,f4\n{row},1,2,3,4,5\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "row 2" in err

    @given(csv_texts())
    @settings(max_examples=50, deadline=None)
    def test_defective_feature_csv_exit_one(self, tmp_path_factory, text):
        """``train`` on a drawn feature CSV exits 1 with the per-row reader's message, before
        it creates ``--out``."""
        tmp = tmp_path_factory.mktemp("csv")
        path, cfg, out = tmp / "features.csv", tmp / "cfg.ini", tmp / "o"
        path.write_text(text, encoding="utf-8")
        message = load_outcome(per_row_load_csv, path)
        assume(isinstance(message, str))  # two ragged edits of one line can cancel out
        cfg.write_text(FAST_CONFIG + f"features_path = {path}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["train", "--config", str(cfg), "--out", str(out)])
        assert (status, err.getvalue(), out.exists()) == (1, f"error: {message}\n", False)

    def test_train_on_header_only_ossf_exit_one(self, tmp_path, capsys):
        ossf, cfg = tmp_path / "features.ossf", tmp_path / "cfg.ini"
        ossf.write_bytes(struct.pack("<4sHII", b"OSSF", 1, 0, 5))  # B = 0 rows, D = 5
        cfg.write_text(FAST_CONFIG + f"features_path = {ossf}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {ossf}: no data rows\n"

    def test_train_zero_inputs_under_angular_exit_one(self, tmp_path, capsys):
        argv, _ = _train_on_csv(tmp_path, scale=0.0)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: features row 0 has norm")

    def test_train_overflowing_inputs_exit_two(self, tmp_path, capsys):
        argv, _ = _train_on_csv(tmp_path, scale=1e200)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: features row 0 has an infinite norm")

    def test_train_unscorable_test_set_exit_two_and_no_output(self, tmp_path, capsys):
        # training never reads class 3; scoring the test sets fails before --out is made
        ds = gen_synthetic(4, 20, 5, 4.0, 0.8, seed=0)
        argv, _ = _train_on_csv(tmp_path, scale=1e200, rows=ds.labels.tolist().index(3))
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: test_unknown: features row")
        assert "infinite norm" in lines[0] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("separation", ["1e160", "1e200", "1e300"])
    def test_eval_overflowing_feature_norm_exit_two(self, config_file, tmp_path, capsys,
                                                     separation):
        # an overflowing norm would make every cosine 0 and the numbers chance-level
        assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "t")]) == 0
        path = tmp_path / "far.ini"
        path.write_text(FAST_CONFIG.replace("separation = 4.0", f"separation = {separation}"))
        capsys.readouterr()
        assert main(["eval", "--config", str(path), "--checkpoint", str(tmp_path / "t/model.osrp"),
                     "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: test_known: features row")
        assert "infinite norm" in lines[0] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("separation,loss_keys,message", [
        # angular margins: the loss would be a constant ln 4
        ("1e200", "margin_metric = angular\n", "features row 0 has an infinite norm"),
        # an inf in Adam's second moment would freeze every weight
        ("1e150", "", "non-finite Adam second moment at epoch 0"),
    ], ids=["angular-margin", "adam"])
    def test_train_overflow_exit_two(self, tmp_path, capsys, separation, loss_keys, message):
        path = tmp_path / "far.ini"
        path.write_text(FAST_CONFIG.replace("[train]", loss_keys + "\n[train]")
                        .replace("separation = 4.0", f"separation = {separation}"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"numeric failure: {message}")
        assert not (tmp_path / "o").exists()

    def test_train_overflowing_inputs_print_one_stderr_line(self, tmp_path):
        # a subprocess, because pytest's warning capture would hide numpy's warnings from capsys
        argv, _ = _train_on_csv(tmp_path, scale=1e200)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "osrkit", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:"), proc.stderr

    def test_gen_data_overflow_exit_two_and_no_file(self, tmp_path):
        # a subprocess, as above: numpy's overflow warning must not reach stderr
        path = tmp_path / "cfg.ini"
        path.write_text("[data]\noverlap = 1e308\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "osrkit", "gen-data", "--config", str(path), "--csv",
             "--out", str(tmp_path / "o")], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:"), proc.stderr
        assert "overlap 1e+308" in lines[0]
        assert not (tmp_path / "o").exists()

    def test_eval_overflowing_checkpoint_print_one_stderr_line(self, config_file, tmp_path):
        # a subprocess, as above: numpy's overflow warning must not reach stderr
        emb, bank = init_model(ModelConfig([5, 8, 4], seed=0), 2)
        emb.weights = [w * 1e200 for w in emb.weights]
        save_checkpoint(tmp_path / "model.osrp", emb, bank)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "osrkit", "eval", "--config", str(config_file),
             "--checkpoint", str(tmp_path / "model.osrp"), "--out", str(tmp_path / "o")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:"), proc.stderr
        assert not (tmp_path / "o").exists()

    def test_train_one_dim_angular_embedding_exit_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(FAST_CONFIG.replace("layer_dims = 5,8,4", "layer_dims = 5,8,1"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: layer_dims ends in 1")
        assert not (tmp_path / "o").exists()

    def test_eval_one_dim_embedding_under_angular_head_exit_one(self, tmp_path, capsys):
        # ``train`` refuses the 1-wide angular head; ``eval`` of a euclidean checkpoint must too
        one_wide = FAST_CONFIG.replace("layer_dims = 5,8,4", "layer_dims = 5,8,1")
        trained, angular = tmp_path / "euclidean.ini", tmp_path / "full.ini"
        trained.write_text(one_wide.replace("variant = full", "variant = euclidean"))
        angular.write_text(one_wide)
        assert main(["train", "--config", str(trained), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(angular), "--checkpoint",
                     str(tmp_path / "run" / "model.osrp"), "--out", str(tmp_path / "e")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: layer_dims ends in 1: every angular score would be +-1\n"
        assert not (tmp_path / "e").exists()

    def test_sweep_warns_once_for_the_vacuous_gap_threshold_cell(self, config_file, tmp_path,
                                                               capsys):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        warnings = [w for w in capsys.readouterr().err.splitlines() if w.startswith("warning:")]
        assert len(warnings) == 1 and "{'gap_threshold': 2.0}" in warnings[0]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 5 and not any("error" in r for r in rows)

    def test_train_warns_for_vacuous_gap_threshold(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(FAST_CONFIG.replace("gap_threshold = 0.25", "gap_threshold = 2.0"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err.startswith("warning: gap_threshold 2 >= 2 * tau")
        assert (tmp_path / "o" / "model.osrp").exists()

    @pytest.mark.parametrize("text", [STANDARD_CONFIG, ROUNDTRIP_CONFIG],
                             ids=["standard", "cli_roundtrip"])
    def test_benchmark_configs_train_without_warning(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_importing_dunder_main_runs_nothing(self):
        # tools that walk the package import every submodule, __main__ included
        importlib.import_module("osrkit.__main__")

    @pytest.mark.parametrize("name", sorted(NEGATIVE_SEEDS))
    def test_negative_seed_exit_one(self, tmp_path, capsys, name):
        argv, edit, message = NEGATIVE_SEEDS[name]
        if argv[0] != "grad-check":  # grad-check takes no --config or --out
            text = FAST_CONFIG if edit is None else FAST_CONFIG.replace(*edit)
            path = tmp_path / "cfg.ini"
            path.write_text(text)
            argv = argv + ["--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_seed_override_changes_output(self, config_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["gen-data", "--config", str(config_file), "--out", str(out1), "--seed", "1"])
        main(["gen-data", "--config", str(config_file), "--out", str(out2), "--seed", "2"])
        b1 = (out1 / "dataset.ossf").read_bytes()
        b2 = (out2 / "dataset.ossf").read_bytes()
        assert b1 != b2

    def test_csv_output_flag(self, config_file, tmp_path):
        out = tmp_path / "c"
        assert main(["gen-data", "--config", str(config_file), "--out", str(out), "--csv"]) == 0
        text = (out / "dataset.csv").read_text().splitlines()
        assert text[0].startswith("label,group,f0")
