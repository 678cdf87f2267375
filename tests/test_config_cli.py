import numpy as np
import pytest

from modfeat import cli
from modfeat import data as dat
from modfeat.config import ConfigError, load_config

MINI_CONFIG = """
[data]
kind = synthetic
num_classes = 3
num_domains = 3
signal_dim = 4
noise_dim = 4
samples_per_class_per_domain = 24
class_sep = 3.0
domain_shift = 4.0
bias_jitter = 0.5
target_domain = 0
labels_per_class = 4

[model]
hidden_dims =
feature_dim = 8

[train]
epochs = 2
per_domain_labeled = 4
per_domain_unlabeled = 6
mc_samples = 3
seeds = 0,1

[output]
dir = {out}
"""


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINI_CONFIG.format(out=tmp_path / "out"))
    return path


class TestConfig:
    def test_defaults_and_parsing(self, mini_config):
        config = load_config(mini_config)
        assert config.data.num_classes == 3
        assert config.model.hidden_dims == ()
        assert config.train.epochs == 2
        assert config.train.lr_main == 0.03  # untouched default
        assert config.seeds == (0, 1)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nlearning_rate = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 0.5\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_overrides(self, mini_config):
        config = load_config(mini_config, {"train.epochs": "5", "tau": "0.6"})
        assert config.train.epochs == 5
        assert config.train.tau == 0.6

    def test_ambiguous_or_unknown_override(self, mini_config):
        with pytest.raises(ConfigError):
            load_config(mini_config, {"definitely_not_a_key": "1"})

    def test_invalid_value_reported(self, mini_config):
        with pytest.raises(ConfigError):
            load_config(mini_config, {"train.epochs": "many"})

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[train]\nepochs = 1\n")
        monkeypatch.setenv("MODFEAT_SEED", "42")
        assert load_config(path).seeds == (42,)
        monkeypatch.delenv("MODFEAT_SEED")
        assert load_config(path).seeds == (0,)

    def test_csv_kind_requires_path(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[data]\nkind = csv\n")
        with pytest.raises(ConfigError, match="path"):
            load_config(path)


class TestCli:
    def test_train_end_to_end(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), "--seeds", "0"]) == 0
        assert (out / "config.resolved.ini").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "aggregate.csv").is_file()
        assert (out / "seed_0" / "metrics.csv").is_file()
        assert (out / "seed_0" / "checkpoint.npz").is_file()
        summary_rows = (out / "summary.csv").read_text().splitlines()
        assert len(summary_rows) == 2  # header + one seed
        captured = capsys.readouterr()
        assert "target_acc" in captured.out

    def test_train_seed_rows_in_summary(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 3  # header + seeds 0,1

    def test_resolved_config_reproduces_run(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), "--seeds", "0"]) == 0
        clone_out = tmp_path / "clone"
        assert (
            cli.main(
                [
                    "train",
                    str(out / "config.resolved.ini"),
                    f"--output.dir={clone_out}",
                ]
            )
            == 0
        )
        assert (out / "seed_0" / "metrics.csv").read_bytes() == (
            clone_out / "seed_0" / "metrics.csv"
        ).read_bytes()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["train", str(tmp_path / "missing.ini")]) == 2

    def test_bad_override_exits_2(self, mini_config):
        assert cli.main(["train", str(mini_config), "--nonsense=1"]) == 2

    @pytest.mark.parametrize(
        "override",
        ["--mc_samples=1", "--dropout_p=1.5", "--dropout_p=-0.1", "--momentum=-3",
         "--momentum=1"],
    )
    def test_out_of_range_training_value_exits_2(
        self, mini_config, tmp_path, capsys, override
    ):
        assert cli.main(["train", str(mini_config), "--seeds", "0", override]) == 2
        err = capsys.readouterr().err
        key = override[2:].split("=")[0]
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mode_override_runs_baseline(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert (
            cli.main(
                ["train", str(mini_config), "--seeds", "0", "--mode", "fixmatch-baseline"]
            )
            == 0
        )
        resolved = (out / "config.resolved.ini").read_text()
        assert "mode = fixmatch-baseline" in resolved
        # baseline checkpoints carry no prototype bank
        data = np.load(out / "seed_0" / "checkpoint.npz")
        assert "bank.prototypes" not in data

    def test_gen_data_then_eval(self, mini_config, tmp_path):
        csv_path = tmp_path / "ds.csv"
        assert (
            cli.main(
                [
                    "gen-data",
                    str(csv_path),
                    "--num-classes", "3",
                    "--num-domains", "3",
                    "--signal-dim", "4",
                    "--noise-dim", "4",
                    "--samples-per-class", "24",
                    "--class-sep", "3.0",
                ]
            )
            == 0
        )
        loaded = dat.load_csv(csv_path)
        assert loaded.num_classes == 3 and len(loaded) == 3 * 3 * 24

        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), "--seeds", "0"]) == 0
        code = cli.main(
            ["eval", str(out / "seed_0" / "checkpoint.npz"), str(csv_path),
             "--target-domain", "0"]
        )
        assert code == 0

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_dump_flags(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert (
            cli.main(
                ["train", str(mini_config), "--seeds", "0", "--dump-sar",
                 "--dump-modulator", "--dump-pseudo-labels"]
            )
            == 0
        )
        assert (out / "seed_0" / "modulator_epoch2.csv").is_file()
        assert (out / "seed_0" / "similarity_epoch1.csv").is_file()
        assert (out / "seed_0" / "pseudo_labels.csv").is_file()


class TestCrossFieldValidation:
    @pytest.mark.parametrize(
        "override",
        ["--feature_dim=10", "--target_domain=3", "--target_domain=-1",
         "--per_domain_labeled=0", "--per_domain_unlabeled=0"],
    )
    def test_synthetic_mismatch_exits_2(self, mini_config, tmp_path, capsys, override):
        assert cli.main(["train", str(mini_config), "--seeds", "0", override]) == 2
        err = capsys.readouterr().err
        key = override[2:].split("=")[0]
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_hidden_layers_free_feature_dim(self, mini_config):
        config = load_config(mini_config, {"feature_dim": "5", "hidden_dims": "6"})
        assert config.model.feature_dim == 5

    @pytest.fixture
    def csv_config(self, tmp_path):
        dataset = dat.generate_synthetic(
            num_classes=3, num_domains=3, signal_dim=4, noise_dim=4,
            samples_per_class_per_domain=24, class_sep=3.0, domain_shift=4.0, seed=0,
        )
        dat.save_csv(dataset, tmp_path / "ds.csv")
        text = MINI_CONFIG.format(out=tmp_path / "out").replace(
            "kind = synthetic", f"kind = csv\npath = {tmp_path / 'ds.csv'}"
        )
        path = tmp_path / "csv.ini"
        path.write_text(text)
        return path

    def test_csv_data_trains(self, csv_config, tmp_path):
        assert cli.main(["train", str(csv_config), "--epochs=1"]) == 0
        assert (tmp_path / "out" / "seed_1" / "metrics.csv").is_file()

    @pytest.mark.parametrize(
        "override,key",
        [("--feature_dim=9", "feature_dim"), ("--target_domain=3", "target_domain"),
         ("--data.path=missing.csv", "missing.csv")],
    )
    def test_csv_mismatch_exits_2(self, csv_config, tmp_path, capsys, override, key):
        # The config's own [data] sizes do not describe a CSV; its width and
        # domain count are checked once it is loaded.
        assert cli.main(["train", str(csv_config), "--num_domains=9", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestCheckpointErrors:
    @pytest.mark.parametrize("key", ["meta.version", "param.classifier.weight"])
    def test_missing_key(self, mini_config, tmp_path, capsys, key):
        from modfeat.checkpoint import CheckpointError, load_checkpoint

        assert cli.main(["train", str(mini_config), "--seeds", "0", "--epochs=1"]) == 0
        path = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        arrays = dict(np.load(path))
        del arrays[key]
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        with pytest.raises(CheckpointError, match=f"{broken}.*{key}"):
            load_checkpoint(broken)
        csv_path = tmp_path / "ds.csv"
        assert cli.main(["gen-data", str(csv_path), "--num-classes", "3",
                         "--num-domains", "3", "--signal-dim", "4",
                         "--noise-dim", "4", "--samples-per-class", "4"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(broken), str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err
