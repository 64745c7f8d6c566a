import json

import pytest

from osrkit.cli import main
from osrkit.config import load_config
from osrkit.errors import ConfigError
from osrkit.numerics import Metric

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


# Files configparser itself cannot read, keyed by what is wrong with them.
UNREADABLE_CONFIGS = {
    "no_section_header": b"# osrkit\n\nA README, not a config.\n",
    "duplicate_key": b"[train]\nepochs = 3\nepochs = 4\n",
    "binary": b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR",
    "percent_value": b"[train]\nlearning_rate = 5%\n",
}

# (command line after --config/--out, (old, new) edit of FAST_CONFIG or None)
DATA_SEED = ("hard = false\nseed = 0", "hard = false\nseed = -3")
NEGATIVE_SEEDS = {
    "gen-data --seed": (["gen-data", "--seed", "-1"], None),
    "train --seed": (["train", "--seed", "-1"], None),
    "grad-check --seed": (["grad-check", "--seed", "-1"], None),
    "gen-data [data] seed": (["gen-data"], DATA_SEED),
    "train [data] seed": (["train"], DATA_SEED),
    "train [train] seed": (["train"], ("batch_size = 8\nseed = 0", "batch_size = 8\nseed = -2")),
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(FAST_CONFIG)
    return path


class TestConfigParsing:
    def test_full_parse(self, config_file):
        cfg = load_config(config_file)
        assert cfg.model.layer_dims == [5, 8, 4]
        assert cfg.train.epochs == 3
        assert cfg.loss.gap_threshold == 0.25
        assert cfg.loss.classification_metric is Metric.ANGULAR
        assert cfg.data.known_classes == [0, 1]

    def test_paper_preset(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[train]\npreset = paper\n")
        cfg = load_config(path)
        assert cfg.train.epochs == 90
        assert cfg.train.batch_size == 64
        assert cfg.train.learning_rate == 1e-5

    def test_variant_euclidean(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[loss]\nvariant = euclidean\n")
        cfg = load_config(path)
        assert cfg.loss.classification_metric is Metric.EUCLIDEAN

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_bad_value(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[train]\nepochs = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)


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

    @pytest.mark.parametrize("param", ["epochs=abc,x", "epochs=2.5", "margin_metric=bogus"])
    def test_sweep_malformed_value_exit_one(self, config_file, tmp_path, param):
        code = main([
            "sweep", "--config", str(config_file), "--grid", "custom",
            "--param", param, "--out", str(tmp_path / "sw"),
        ])
        assert code == 1

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

    def test_grad_check_exit_zero(self, capsys):
        assert main(["grad-check", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_missing_config_is_usage_error(self):
        assert main(["train"]) == 1

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_bad_config_value_exit_one(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = -3\n[data]\nsamples_per_class = 4\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exit_one(self, tmp_path, capsys, name):
        path = tmp_path / "bad.ini"
        path.write_bytes(UNREADABLE_CONFIGS[name])
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", sorted(NEGATIVE_SEEDS))
    def test_negative_seed_exit_one(self, tmp_path, capsys, name):
        argv, edit = NEGATIVE_SEEDS[name]
        text = FAST_CONFIG if edit is None else FAST_CONFIG.replace(*edit)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        code = main(argv + ["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "non-negative" in capsys.readouterr().err

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
