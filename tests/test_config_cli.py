import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfeat import cli
from modfeat import data as dat
from modfeat.config import _SCHEMA, ConfigError, DataSpec, load_config

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


# One epoch of a few dozen samples: runs in tens of milliseconds.
TINY_CONFIG = """
[data]
num_classes = 3
num_domains = 3
signal_dim = 2
noise_dim = 2
samples_per_class_per_domain = 8
class_sep = 2.0
domain_shift = 4.0
target_domain = 0
labels_per_class = 2

[model]
feature_dim = 4

[train]
epochs = 1
per_domain_labeled = 2
per_domain_unlabeled = 4
mc_samples = 2
seeds = 0
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

    def test_run_seeds_measures_the_gap_where_defined(self, mini_config, tmp_path):
        runs = cli.run_seeds(load_config(mini_config, {"epochs": "1"}))
        assert [run.seed for run in runs] == [0, 1]
        assert all(isinstance(run.modulator_gap, float) for run in runs)
        assert not (tmp_path / "out").exists()  # no out_dir, no files
        hidden = {"epochs": "1", "seeds": "0", "hidden_dims": "6"}
        assert cli.run_seeds(load_config(mini_config, hidden))[0].modulator_gap is None

    def test_no_gap_without_noise_dims(self, mini_config):
        # No noise columns to compare: the gap is undefined, not a nan mean.
        overrides = {"epochs": "1", "seeds": "0", "noise_dim": "0", "feature_dim": "4"}
        assert cli.run_seeds(load_config(mini_config, overrides))[0].modulator_gap is None

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
         "--momentum=1", "--labels_per_class=0", "--hidden_dims=0", "--hidden_dims=6,-1",
         "--beta=-1", "--gamma=-1", "--bias_jitter=-0.5", "--data_seed=-1",
         "--seeds=-1"],
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

    def test_eval_names_the_baseline_mode(self, mini_config, tmp_path, capsys):
        csv_path = tmp_path / "ds.csv"
        assert cli.main(["gen-data", str(csv_path), "--num-classes", "3",
                         "--num-domains", "3", "--signal-dim", "4",
                         "--noise-dim", "4", "--samples-per-class", "4"]) == 0
        for mode in ("fm", "fixmatch-baseline"):
            args = ["train", str(mini_config), "--seeds", "0", "--epochs=1", "--mode", mode]
            assert cli.main(args) == 0
            capsys.readouterr()
            checkpoint = tmp_path / "out" / "seed_0" / "checkpoint.npz"
            assert cli.main(["eval", str(checkpoint), str(csv_path)]) == 0
            assert f"({mode} inference)" in capsys.readouterr().out

    def test_gen_data_defaults_are_the_data_spec(self, tmp_path):
        assert cli.main(["gen-data", str(tmp_path / "cli.csv")]) == 0
        spec = DataSpec()
        dat.save_csv(
            dat.generate_synthetic(
                spec.num_classes, spec.num_domains, spec.signal_dim, spec.noise_dim,
                spec.samples_per_class_per_domain, spec.class_sep, spec.domain_shift,
                0, bias_jitter=spec.bias_jitter,
            ),
            tmp_path / "spec.csv",
        )
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()

    def _abort(self, tmp_path, capsys, *overrides):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG)
        args = ["train", str(config), *overrides, "--out", str(tmp_path / "out")]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed 0: ") and "Traceback" not in err
        dump = (tmp_path / "out" / "seed_0" / "abort_diagnostics.json").read_text()
        return err, json.loads(dump)

    def test_non_finite_prototypes_abort_with_exit_1(self, tmp_path, capsys):
        # This learning rate blows the hidden features up within one epoch.
        err, dump = self._abort(tmp_path, capsys, "--hidden_dims=4,5", "--lr_main=1.0")
        assert err.startswith("error: seed 0: non-finite")
        assert dump["epoch"] == 1

    def test_overflow_aborts_where_it_starts(self, tmp_path, capsys):
        # Far-apart classes overflow the diagonal gap within a few steps; the
        # run stops at that op, before numpy warns (warnings fail the suite).
        err, dump = self._abort(tmp_path, capsys, "--class_sep=100")
        assert err.startswith("error: seed 0: non-finite value at epoch 1 step ")
        assert "overflow" in dump["error"] and dump["step"] >= 0

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # Dead ReLU features leave an all-zero prototype.
            (["--hidden_dims=1"], "prototype 0 has zero norm"),
            # Eight classes do not fit 2.0 apart on one signal dimension.
            (["--num_classes=8", "--signal_dim=1", "--noise_dim=3"], "could not draw"),
        ],
    )
    def test_every_abort_names_the_seed_and_writes_diagnostics(
        self, tmp_path, capsys, overrides, message
    ):
        _, dump = self._abort(tmp_path, capsys, *overrides)
        assert message in dump["message"]

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

    @pytest.mark.parametrize(
        "overrides",
        [["--labels_per_class=25"], ["--samples_per_class_per_domain=1"],
         ["--num_domains=1"], ["--num_domains=2", "--labels_per_class=1"]],
    )
    def test_labels_must_fit_the_source_cells(
        self, mini_config, tmp_path, capsys, overrides
    ):
        assert cli.main(["train", str(mini_config), "--seeds", "0", *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [data] ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_one_label_per_class_is_enough_for_the_baseline(self, mini_config):
        overrides = {"num_domains": "2", "labels_per_class": "1"}
        with pytest.raises(ConfigError, match="fm mode"):
            load_config(mini_config, overrides)
        config = load_config(mini_config, {**overrides, "mode": "fixmatch-baseline"})
        assert config.data.labels_per_class == 1

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
         ("--data.path=missing.csv", "missing.csv"),
         ("--labels_per_class=25", "labels_per_class")],
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


# Per-key values for the override fuzz: small ranges that cross each
# bound, capped so that no draw asks for a large allocation or a long run.
_INT_RANGES = {
    "num_classes": (-1, 8), "num_domains": (-1, 5), "signal_dim": (-1, 8),
    "noise_dim": (-2, 8), "samples_per_class_per_domain": (-1, 12),
    "target_domain": (-1, 4), "labels_per_class": (-1, 12), "data_seed": (-1, 5),
    "feature_dim": (-1, 8), "epochs": (-1, 2), "mc_samples": (-1, 8),
    "per_domain_labeled": (-1, 8), "per_domain_unlabeled": (-1, 8),
}
_CHOICES = {
    "kind": ["synthetic", "csv", "other"],
    "path": ["", "missing.csv"],
    "mode": ["fm", "fixmatch-baseline", "baseline"],
    "seeds": ["0", "1,0", "-1", "x"],
}


def _value(key):
    if key in _INT_RANGES:
        return st.integers(*_INT_RANGES[key]).map(str)
    if key in _CHOICES:
        return st.sampled_from(_CHOICES[key])
    if key == "hidden_dims":
        return st.lists(st.integers(-1, 6), max_size=2).map(
            lambda dims: ",".join(map(str, dims))
        )
    return st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, 1.0, 100.0])).map(repr)


_FUZZ_KEYS = [
    f"{section}.{key}" for section in ("data", "model", "train") for key in _SCHEMA[section]
]
_overrides = st.lists(
    st.sampled_from(_FUZZ_KEYS).flatmap(lambda k: st.tuples(st.just(k), _value(k.split(".")[1]))),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_overrides)
def test_train_overrides_fuzz(overrides):
    """Any override ends in exit 0, 1 or 2 with no traceback; 2 writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "tiny.ini"
        config.write_text(TINY_CONFIG)
        out = Path(tmp) / "out"
        argv = ["train", str(config), "--out", str(out)]
        argv += [f"--{key}={value}" for key, value in overrides]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert not out.exists()
