import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfeat import cli
from modfeat import data as dat
from modfeat import pseudolabel
from modfeat import trainer as trn
from modfeat.config import _SCHEMA, ConfigError, DataSpec, load_config
from tests import refops as ref

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "synthetic.ini"

MINI_CONFIG = """
[data]
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

    def test_unset_seeds_default_to_zero(self, tmp_path, monkeypatch):
        # Seeds come from the seeds key only; the environment is not read.
        path = tmp_path / "c.ini"
        path.write_text("[train]\nepochs = 1\n")
        monkeypatch.setenv("MODFEAT_SEED", "42")
        assert load_config(path).seeds == (0,)

    # Deleted keys: one optimizer steps every weight at lr_main, and a
    # config reads a CSV iff it sets data.path.
    @pytest.mark.parametrize("section,key,value", [("data", "kind", "csv"),
                                                   ("train", "lr_modulator", "0.03")])
    @pytest.mark.parametrize("where", ["file", "override", "bare-override"])
    def test_deleted_keys_exit_2(self, mini_config, tmp_path, capsys, section, key,
                                 value, where):
        argv = ["train", mini_config, "--seeds=0", "--epochs=1"]
        if where == "file":
            text = mini_config.read_text()
            mini_config.write_text(text.replace(f"[{section}]\n",
                                                f"[{section}]\n{key} = {value}\n"))
        else:
            argv.append(f"--{section + '.' if where == 'override' else ''}{key}={value}")
        err = _fails_cleanly(argv, capsys, 2)
        assert f"key {key!r}" in err
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_train_end_to_end(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), "--seeds=0"]) == 0
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
        # The baseline has no modulator, only an all-ones placeholder.
        baseline = {"epochs": "1", "seeds": "0", "mode": "fixmatch-baseline"}
        assert cli.run_seeds(load_config(mini_config, baseline))[0].modulator_gap is None

    def test_run_seeds_loads_a_csv_once(self, mini_config, tmp_path, monkeypatch):
        csv_path = tmp_path / "ds.csv"
        dat.save_csv(dat.generate_synthetic(3, 3, 4, 4, 24, 3.0, 4.0, 0, 0.2), csv_path)
        calls = []

        def counting_load_csv(path):
            calls.append(path)
            return load_csv(path)

        load_csv = dat.load_csv
        monkeypatch.setattr(dat, "load_csv", counting_load_csv)
        overrides = {"epochs": "1", "seeds": "0,1,2", "data.path": str(csv_path)}
        runs = cli.run_seeds(load_config(mini_config, overrides))
        assert [run.seed for run in runs] == [0, 1, 2]
        assert len(calls) == 1
        # The config gives no dimension roles to a CSV's columns.
        assert all(run.modulator_gap is None for run in runs)

    def test_no_gap_without_noise_dims(self, mini_config):
        # No noise columns to compare: the gap is undefined, not a nan mean.
        overrides = {"epochs": "1", "seeds": "0", "noise_dim": "0", "feature_dim": "4"}
        assert cli.run_seeds(load_config(mini_config, overrides))[0].modulator_gap is None

    def test_resolved_config_reproduces_run(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), "--seeds=0"]) == 0
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
        ["--mc_samples=1", "--mc_samples=100000000", "--dropout_p=1.5", "--dropout_p=-0.1", "--momentum=-3",
         "--momentum=1", "--labels_per_class=0", "--hidden_dims=0", "--hidden_dims=6,-1",
         "--beta=-1", "--gamma=-1", "--bias_jitter=-0.5", "--data_seed=-1",
         "--seeds=-1", "--lr_main=nan", "--lr_main=inf", "--beta=nan", "--beta=inf",
         "--gamma=nan", "--gamma=inf"],
    )
    def test_out_of_range_training_value_exits_2(
        self, mini_config, tmp_path, capsys, override
    ):
        assert cli.main(["train", str(mini_config), "--seeds=0", override]) == 2
        err = capsys.readouterr().err
        key = override[2:].split("=")[0]
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_exits_2(self, mini_config, tmp_path, capsys):
        with pytest.raises(ConfigError, match="seed 1 twice"):
            load_config(mini_config, {"seeds": "1,0,1"})
        err = _fails_cleanly(["train", mini_config, "--seeds=0,0"], capsys, 2)
        assert "seed 0" in err
        assert not (tmp_path / "out").exists()

    def test_mode_override_runs_baseline(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["train", str(mini_config), "--seeds=0", "--mode=fixmatch-baseline"]
        assert cli.main(argv) == 0
        resolved = (out / "config.resolved.ini").read_text()
        assert "mode = fixmatch-baseline" in resolved
        # baseline checkpoints carry no prototype bank
        data = np.load(out / "seed_0" / "checkpoint.npz")
        assert "bank.prototypes" not in data
        # ... and no modulator: its gap cell is empty and has no aggregate row.
        assert (out / "summary.csv").read_text().splitlines()[1].endswith(",")
        assert "modulator_gap" not in (out / "aggregate.csv").read_text()
        assert "modulator_gap" not in capsys.readouterr().out

    def test_eval_names_the_baseline_mode(self, mini_config, tmp_path, capsys):
        csv_path = _gen_data(mini_config, tmp_path)
        for mode in ("fm", "fixmatch-baseline"):
            assert cli.main(["train", str(mini_config), "--seeds=0", "--epochs=1",
                             f"--mode={mode}"]) == 0
            capsys.readouterr()
            checkpoint = tmp_path / "out" / "seed_0" / "checkpoint.npz"
            assert cli.main(["eval", str(checkpoint), str(csv_path)]) == 0
            assert f"({mode} inference)" in capsys.readouterr().out

    @pytest.mark.parametrize("config", ["", CONFIG], ids=["empty", "synthetic.ini"])
    def test_gen_data_defaults_are_the_data_spec(self, tmp_path, config):
        if not config:
            config = tmp_path / "empty.ini"
            config.write_text("")
        assert cli.main(["gen-data", str(config), str(tmp_path / "cli.csv")]) == 0
        spec = DataSpec()
        # The csv.writer form: the bulk writer repeats it byte for byte.
        ref.save_csv(
            dat.generate_synthetic(
                spec.num_classes, spec.num_domains, spec.signal_dim, spec.noise_dim,
                spec.samples_per_class_per_domain, spec.class_sep, spec.domain_shift,
                0, bias_jitter=spec.bias_jitter,
            ),
            tmp_path / "spec.csv",
        )
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()

    # Each sets the keys that make the config fit its data: an identity
    # extractor as wide as the input, a held-out domain that exists, and
    # labels_per_class within a cell.
    @pytest.mark.parametrize(
        "args,generate",
        [
            (["--num_classes=3", "--num_domains=2", "--noise_dim=0",
              "--samples_per_class_per_domain=40", "--seeds=7",
              "--target_domain=1", "--feature_dim=16"],
             (3, 2, 16, 0, 40, 2.0, 6.0, 7, 1.0)),
            (["--num_classes=12", "--num_domains=11", "--signal_dim=8",
              "--noise_dim=5", "--samples_per_class_per_domain=3", "--class_sep=0.5",
              "--domain_shift=1e6", "--bias_jitter=3", "--seeds=3,1",
              "--labels_per_class=3", "--feature_dim=13"],
             (12, 11, 8, 5, 3, 0.5, 1e6, 3, 3.0)),
            # The first seed draws the data, as in modfeat train; data_seed,
            # where set, draws it instead.
            (["--seeds=3"], (7, 4, 16, 16, 150, 2.0, 6.0, 3, 1.0)),
            (["--seeds=3", "--data_seed=5"], (7, 4, 16, 16, 150, 2.0, 6.0, 5, 1.0)),
        ],
        ids=["no-noise", "many-domains", "first-seed", "data-seed"],
    )
    def test_gen_data_writes_the_csv_writer_bytes(self, tmp_path, args, generate):
        assert cli.main(["gen-data", str(CONFIG), str(tmp_path / "cli.csv"), *args]) == 0
        *head, seed, jitter = generate
        ref.save_csv(
            dat.generate_synthetic(*head, seed, bias_jitter=jitter), tmp_path / "ref.csv"
        )
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def _abort(self, tmp_path, capsys, *overrides):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG)
        args = ["train", str(config), *overrides, f"--output.dir={tmp_path / 'out'}"]
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

    # Each asks for petabytes, which no allocator grants, so it fails at once.
    # The domain count passes validation, which allocates nothing per cell,
    # and fails at the data's first per-domain array.
    @pytest.mark.parametrize(
        "override", ["--hidden_dims=1000000000000000",
                     "--samples_per_class_per_domain=1000000000000000",
                     "--num_domains=100000000000000000"],
    )
    def test_out_of_memory_aborts_the_seed(self, tmp_path, capsys, override):
        err, dump = self._abort(tmp_path, capsys, override)
        assert len(err.splitlines()) == 1
        assert "Unable to allocate" in dump["message"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gen_data_then_eval(self, mini_config, tmp_path, capsys, seed):
        # gen-data --seeds=s writes the data that training seed s draws, so
        # eval of seed s's checkpoint at the held-out domain repeats its
        # summary's target accuracy.
        csv_path = _gen_data(mini_config, tmp_path, f"--seeds={seed}")
        loaded = dat.load_csv(csv_path)
        assert loaded.num_classes == 3 and len(loaded) == 3 * 3 * 24

        out = tmp_path / "out"
        assert cli.main(["train", str(mini_config), f"--seeds={seed}"]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        target_acc = float(summary[1].split(",")[1])
        capsys.readouterr()
        code = cli.main(
            ["eval", str(out / f"seed_{seed}" / "checkpoint.npz"), str(csv_path),
             "--target-domain", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            f"accuracy {target_acc:.6f} on {3 * 24} samples (fm inference)\n"
        )

    def test_eval_reads_a_csv_with_a_byte_order_mark(self, mini_config, tmp_path, capsys):
        # Spreadsheet "CSV UTF-8" exports start the file with a U+FEFF mark.
        plain, marked = _gen_data(mini_config, tmp_path), tmp_path / "ds_bom.csv"
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert cli.main(["train", str(mini_config), "--seeds=0"]) == 0
        checkpoint = str(tmp_path / "out" / "seed_0" / "checkpoint.npz")
        lines = []
        for path in (plain, marked):
            capsys.readouterr()
            assert cli.main(["eval", checkpoint, str(path), "--target-domain", "0"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] and lines[0].startswith("accuracy ")

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_dump_keys(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert (
            cli.main(
                ["train", str(mini_config), "--seeds=0", "--dump_sar=true",
                 "--dump_modulator=true", "--dump_pseudo_labels=true"]
            )
            == 0
        )
        assert (out / "seed_0" / "modulator_epoch2.csv").is_file()
        assert (out / "seed_0" / "similarity_epoch1.csv").is_file()
        assert (out / "seed_0" / "pseudo_labels.csv").is_file()


def _bash_lines() -> list:
    """The lines of README's bash blocks."""
    lines, in_bash = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash:
            lines.append(line)
    return lines


def _readme_commands() -> list:
    """Every ``modfeat ...`` line of README's bash blocks, as argv lists."""
    return [shlex.split(line, comments=True)[1:]
            for line in _bash_lines() if line.startswith("modfeat ")]


def _fingerprint_commands() -> list:
    """The arguments of every ``scripts/fingerprint.py`` line of README's
    bash blocks and of FINGERPRINTS.txt's header, where ``$S`` is the
    header's seed list."""
    header = [line.lstrip("# ") for line in
              (ROOT / "FINGERPRINTS.txt").read_text().splitlines() if line.startswith("#")]
    (seeds,) = [line[2:] for line in header if line.startswith("S=")]
    commands = []
    for line in _bash_lines() + header:
        if "scripts/fingerprint.py " in line:
            words = shlex.split(line.replace("$S", seeds), comments=True)
            commands.append(words[words.index("scripts/fingerprint.py") + 1:])
    return commands


def _fingerprint_script():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "scripts" / "fingerprint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_commands_parse(monkeypatch):
    """README's command lines parse, and their configs load with their
    overrides from the repo root; eval and gradcheck take none. So do the
    fingerprint lines of README and FINGERPRINTS.txt, whose configs are
    configs/synthetic.ini: no doc keeps a deleted key."""
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"train", "gen-data", "eval", "gradcheck"}
    monkeypatch.chdir(ROOT)
    for argv in commands:
        args, extras = cli.build_parser().parse_known_args(argv)
        if args.func in (cli.cmd_train, cli.cmd_gen_data):
            load_config(args.config, cli._split_overrides(extras))
        else:
            assert extras == [], argv
    fingerprint = _fingerprint_script()
    commands = _fingerprint_commands()
    assert len(commands) == 7
    for argv in commands:
        assert "--config" not in argv, argv  # the default, configs/synthetic.ini
        assert fingerprint.load_configs(argv), argv


class TestRunFilesMatchTheOracles:
    """Every CSV of a tiny run, with every dump on, has the bytes of the
    earlier writers in ``refops``. Of seeds 2 and 3, seed 3 keeps no
    pseudo-label in its final epoch, so its pl_acc cell is empty."""

    @pytest.mark.parametrize("mode,epochs", [("fm", 2), ("fixmatch-baseline", 1)])
    def test_every_csv(self, tmp_path, monkeypatch, mode, epochs):
        seed_runs, labeled, evaluated, epoch_steps = [], [], [], []

        def keep_results(owner, name, results):
            f = getattr(owner, name)

            def wrapper(*args, **kwargs):
                results.append(f(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(owner, name, wrapper)

        def evaluated_by(model, modulation, bank, x, y, mode, f=trn.evaluate):
            # An epoch dumps the modulation and bank it evaluates.
            evaluated.append((modulation.values.copy(), bank))
            return f(model, modulation, bank, x, y, mode=mode)

        def epoch(self, augmenter, rng, f=dat.BatchIterator.epoch):
            epoch_steps.append([])
            for batch in f(self, augmenter, rng):
                epoch_steps[-1].append((self.split, batch.unlabeled_idx))
                yield batch

        keep_results(cli, "run_seeds", seed_runs)
        keep_results(pseudolabel, "pseudo_label_batch", labeled)
        keep_results(pseudolabel, "baseline_pseudo_label_batch", labeled)
        monkeypatch.setattr(trn, "evaluate", evaluated_by)
        monkeypatch.setattr(dat.BatchIterator, "epoch", epoch)
        out = tmp_path / "out"
        assert cli.main([
            "train", str(CONFIG), f"--mode={mode}", "--seeds=2,3", f"--output.dir={out}",
            "--dump_sar=true", "--dump_modulator=true", "--dump_pseudo_labels=true",
            f"--epochs={epochs}", "--samples_per_class_per_domain=6",
            "--labels_per_class=2", "--tau=0.9",
        ]) == 0
        [runs] = seed_runs
        assert [run.result.reports[-1].pl_accuracy is None for run in runs] == [
            False, True
        ]

        want = tmp_path / "want"
        want.mkdir()
        ref.write_summary(want / "summary.csv", runs)
        ref.write_aggregate(want / "aggregate.csv", runs)
        labels = iter(labeled)
        for k, run in enumerate(runs):
            seed_dir = want / f"seed_{run.seed}"
            seed_dir.mkdir()
            metrics = ["epoch,l_s,l_u,l_d,l_ud,total,keep_rate,pl_acc,target_acc,lr"]
            metrics += [
                ",".join("" if v is None else repr(v) for v in dataclasses.astuple(r))
                for r in run.result.reports
            ]
            (seed_dir / "metrics.csv").write_text("\n".join(metrics) + "\n")
            log = ["epoch,sample_idx,label,p_max,sigma,keep,l_scale,true_class"]
            for epoch in range(1, epochs + 1):
                values, bank = evaluated[k * epochs + epoch - 1]
                ref.dump_matrix(seed_dir / f"modulator_epoch{epoch}.csv", values)
                if bank is not None:
                    for name in ("prototypes", "similarity", "blended"):
                        ref.dump_matrix(
                            seed_dir / f"{name}_epoch{epoch}.csv", getattr(bank, name)
                        )
                for split, idx in epoch_steps[k * epochs + epoch - 1]:
                    log += [
                        ref.pl_log_row(epoch, i, record, split.unlabeled_truth[i])
                        for i, record in zip(idx, next(labels))
                    ]
            (seed_dir / "pseudo_labels.csv").write_text("\n".join(log) + "\n")

        written = sorted(p.relative_to(out) for p in out.rglob("*.csv"))
        assert written == sorted(p.relative_to(want) for p in want.rglob("*.csv"))
        for name in written:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name


class TestCrossFieldValidation:
    @pytest.mark.parametrize(
        "override",
        ["--feature_dim=10", "--target_domain=3", "--target_domain=-1",
         "--per_domain_labeled=0", "--per_domain_unlabeled=0"],
    )
    def test_synthetic_mismatch_exits_2(self, mini_config, tmp_path, capsys, override):
        assert cli.main(["train", str(mini_config), "--seeds=0", override]) == 2
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
        assert cli.main(["train", str(mini_config), "--seeds=0", *overrides]) == 2
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
            bias_jitter=0.2,
        )
        dat.save_csv(dataset, tmp_path / "ds.csv")
        text = MINI_CONFIG.format(out=tmp_path / "out").replace(
            "[data]\n", f"[data]\npath = {tmp_path / 'ds.csv'}\n"
        )
        path = tmp_path / "csv.ini"
        path.write_text(text)
        return path

    def test_csv_data_trains(self, csv_config, mini_config, tmp_path):
        # data.path alone selects the CSV: each seed trains as a synthetic
        # run on the draw the CSV holds does, bit for bit.
        assert cli.main(["train", str(csv_config), "--epochs=1"]) == 0
        drawn = tmp_path / "drawn"
        argv = ["train", str(mini_config), "--epochs=1", "--bias_jitter=0.2",
                "--data_seed=0", f"--output.dir={drawn}"]
        assert cli.main(argv) == 0
        for seed in (0, 1):
            metrics = f"seed_{seed}/metrics.csv"
            assert (tmp_path / "out" / metrics).read_bytes() == (
                drawn / metrics).read_bytes()

    def test_path_alone_selects_a_csv(self, mini_config, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        err = _fails_cleanly(["train", mini_config, f"--data.path={missing}"], capsys, 2)
        assert str(missing) in err
        assert not (tmp_path / "out").exists()

    def test_csv_domain_id_past_its_rows_exits_2(self, csv_config, tmp_path, capsys):
        # 10**17 domains of 3 classes outnumber the rows, so a source cell
        # is empty; a count per cell would take exabytes.
        data = tmp_path / "ds.csv"
        row = data.read_text().splitlines()[1].split(",")
        with open(data, "a") as fh:
            fh.write(",".join(["100000000000000000", *row[1:]]) + "\n")
        err = _fails_cleanly(["train", csv_config], capsys, 2)
        assert err.startswith(f"error: {data}: [data] labels_per_class = 4 exceeds")
        assert "cell, 0 samples" in err
        assert not (tmp_path / "out").exists()

    def test_csv_without_rows_in_the_held_out_domain_exits_2(self, tmp_path, capsys):
        # 3 classes and 4 domains of 20 rows a cell, domain 1 dropped: the
        # ids count 4 domains, and the held-out one has nothing to test on.
        ds = dat.generate_synthetic(3, 4, 4, 4, 20, class_sep=3.0, domain_shift=4.0,
                                    seed=0, bias_jitter=0.2)
        kept = ds.domain_ids != 1
        data = tmp_path / "gap.csv"
        dat.save_csv(
            dat.DomainDataset(ds.features[kept], ds.class_ids[kept], ds.domain_ids[kept]),
            data,
        )
        config = tmp_path / "gap.ini"
        config.write_text(MINI_CONFIG.format(out=tmp_path / "out").replace(
            "[data]\n", f"[data]\npath = {data}\n"
        ))
        argv = ["train", config, "--target_domain=1", "--labels_per_class=2"]
        err = _fails_cleanly(argv, capsys, 2)
        assert err == f"error: {data}: [data] target_domain 1 has no rows\n"
        assert not (tmp_path / "out").exists()

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


def _npy_bytes(a: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, a)
    return buffer.getvalue()


def _gen_data(config, tmp_path, *args):
    """Run ``modfeat gen-data config tmp_path/ds.csv *args``; the CSV's path."""
    csv_path = tmp_path / "ds.csv"
    assert cli.main(["gen-data", str(config), str(csv_path), *args]) == 0
    return csv_path


def _fails_cleanly(argv, capsys, code):
    """``modfeat argv`` exits ``code`` with one ``error:`` line, no traceback."""
    capsys.readouterr()
    assert cli.main([*map(str, argv)]) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err and out == ""
    return err


class TestUsageErrors:
    # gen-data checks its values as train does: config._build, exit 2.
    @pytest.mark.parametrize(
        "args",
        [
            ["--num_classes=0"],
            ["--class_sep=0"],
            ["--samples_per_class_per_domain=0"],
            ["--seeds=-1"],
            ["--bias_jitter=nan"],
            ["--feature_dim=9"],
            ["--no_such_key=1"],
        ],
    )
    def test_gen_data_bad_settings_exit_2(self, mini_config, tmp_path, capsys, args):
        argv = ["gen-data", mini_config, tmp_path / "g.csv", *args]
        err = _fails_cleanly(argv, capsys, 2)
        assert not (tmp_path / "g.csv").exists()
        assert args[0][2:].split("=")[0] in err

    # Flags that once spelled a config key: the key is its one spelling now.
    @pytest.mark.parametrize(
        "command,flag",
        [*(("train", flag) for flag in ("--mode", "--seeds", "--out", "--dump-sar",
                                        "--dump-modulator", "--dump-pseudo-labels")),
         *(("gen-data", flag) for flag in (
             "--num-classes", "--num-domains", "--signal-dim", "--noise-dim",
             "--samples-per-class", "--class-sep", "--domain-shift", "--bias-jitter",
             "--seed"))],
    )
    def test_removed_flags_exit_2(self, mini_config, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        outputs = [out] if command == "gen-data" else []
        err = _fails_cleanly([command, mini_config, *outputs, flag, "3"], capsys, 2)
        assert err == (f"error: unrecognized argument {flag!r} "
                       "(overrides look like --key=value)\n")
        assert not out.exists()

    # argparse's own usage errors leave through the same one-line boundary.
    @pytest.mark.parametrize(
        "argv,needle",
        [(["eval", "a.npz"], "modfeat eval: the following arguments are required: data"),
         (["gradcheck", "--seed", "x"], "modfeat gradcheck: argument --seed: invalid int"),
         (["gen-data", "x.csv"], "modfeat gen-data: the following arguments are required"),
         ([], "modfeat: the following arguments are required: command"),
         (["fit"], "modfeat: argument command: invalid choice: 'fit'")],
        ids=["eval-without-data", "gradcheck-bad-seed", "gen-data-without-out",
             "no-command", "unknown-command"],
    )
    def test_argparse_errors_exit_2(self, tmp_path, capsys, monkeypatch, argv, needle):
        monkeypatch.chdir(tmp_path)
        assert needle in _fails_cleanly(argv, capsys, 2)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: modfeat")

    @pytest.mark.parametrize(
        "args", [["eval", "c.npz", "d.csv", "--mode=fm"], ["gradcheck", "--epochs=1"]]
    )
    def test_overrides_only_for_commands_that_read_a_config(self, capsys, args):
        assert "unexpected arguments" in _fails_cleanly(args, capsys, 2)

    @pytest.mark.parametrize(
        "argv,target",
        [(["gen-data", "{config}", "{target}"], "no/such/dir/g.csv"),
         (["train", "{config}", "--seeds=0", "--epochs=1", "--output.dir={target}"],
          "file/out")],
        ids=["gen-data-missing-directory", "train-out-under-a-file"],
    )
    def test_output_that_cannot_be_made_exits_2(
        self, mini_config, tmp_path, capsys, argv, target
    ):
        (tmp_path / "file").write_text("a regular file\n")
        target = tmp_path / target
        argv = [a.format(config=mini_config, target=target) for a in argv]
        assert str(target) in _fails_cleanly(argv, capsys, 2)
        assert not target.exists()

    def test_gen_data_generation_failure_exits_1(self, mini_config, tmp_path, capsys):
        args = ["--num_classes=40", "--class_sep=50", "--signal_dim=1", "--feature_dim=5"]
        argv = ["gen-data", mini_config, tmp_path / "g.csv", *args]
        err = _fails_cleanly(argv, capsys, 1)
        assert "class means" in err

    def test_gen_data_out_of_memory_exits_1(self, mini_config, tmp_path, capsys):
        # Petabytes of features: the allocation fails at once.
        args = ["--samples_per_class_per_domain=1000000000000"]
        argv = ["gen-data", mini_config, tmp_path / "g.csv", *args]
        err = _fails_cleanly(argv, capsys, 1)
        assert "Unable to allocate" in err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--seed", "-1"], "got -1 and"),
            (["--tolerance", "nan"], "and nan"),
            (["--tolerance", "-1"], "and -1.0"),
        ],
    )
    def test_gradcheck_bad_arguments_exit_2(self, capsys, flags, needle):
        assert needle in _fails_cleanly(["gradcheck", *flags], capsys, 2)


class TestCheckpointErrors:
    @pytest.mark.parametrize("key", ["meta.version", "param.classifier.weight"])
    def test_missing_key(self, mini_config, tmp_path, capsys, key):
        from modfeat.checkpoint import CheckpointError, load_checkpoint

        assert cli.main(["train", str(mini_config), "--seeds=0", "--epochs=1"]) == 0
        path = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        arrays = dict(np.load(path))
        del arrays[key]
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        with pytest.raises(CheckpointError, match=f"{broken}.*{key}"):
            load_checkpoint(broken)
        csv_path = _gen_data(mini_config, tmp_path)
        capsys.readouterr()
        assert cli.main(["eval", str(broken), str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    @staticmethod
    def _eval_fails(args, capsys, *needles):
        err = _fails_cleanly(["eval", *args], capsys, 2)
        assert all(needle in err for needle in needles)

    @pytest.mark.parametrize(
        "flags,key,edit,needle",
        [
            ([], "param.classifier.weight", lambda a: a[:4], "shape"),
            ([], "bank.blended", lambda a: a[:, :4], "shape"),
            ([], "param.modulator.weights", lambda a: a[:2], "shape"),
            ([], "bank.blended", lambda a: np.where(np.eye(*a.shape), np.nan, a), "finite"),
            ([], "param.classifier.bias", lambda a: a.astype("U8"),
             "holds <U8, not floats"),
            (["--model.hidden_dims=6"], "param.extractor.1.bias", None, "missing key"),
            (["--model.hidden_dims=6"], "param.extractor.0.weight", lambda a: a[:, :5],
             "shape"),
        ],
        ids=["classifier-rows", "blended-columns", "modulator-rows", "blended-nan",
             "text-bias", "hidden-missing-bias", "hidden-weight-columns"],
    )
    def test_inconsistent_arrays(
        self, mini_config, tmp_path, capsys, flags, key, edit, needle
    ):
        """``edit`` None deletes the key."""
        from modfeat.checkpoint import CheckpointError, load_checkpoint

        argv = ["train", mini_config, "--seeds=0", "--epochs=1", *flags]
        assert cli.main([*map(str, argv)]) == 0
        arrays = dict(np.load(tmp_path / "out" / "seed_0" / "checkpoint.npz"))
        if edit is None:
            del arrays[key]
        else:
            arrays[key] = edit(arrays[key])
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        with pytest.raises(CheckpointError, match=f"{broken}.*{key}"):
            load_checkpoint(broken)
        csv_path = _gen_data(mini_config, tmp_path)
        self._eval_fails([broken, csv_path], capsys, str(broken), key, needle)

    def test_metadata_naming_huge_layers(self, mini_config, tmp_path, capsys):
        """Metadata that names layers far wider than the file's arrays is
        rejected at the first array, before any layer is allocated."""
        import tracemalloc

        from modfeat.checkpoint import CheckpointError, load_checkpoint

        argv = ["train", mini_config, "--seeds=0", "--epochs=1", "--model.hidden_dims=6"]
        assert cli.main([*map(str, argv)]) == 0
        arrays = dict(np.load(tmp_path / "out" / "seed_0" / "checkpoint.npz"))
        arrays["meta.hidden_dims"] = np.array([10**6, 10**6])
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        key = "param.extractor.0.weight"
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=f"{broken}.*{key}.*1000000"):
                load_checkpoint(broken)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        csv_path = _gen_data(mini_config, tmp_path)
        self._eval_fails([broken, csv_path], capsys, str(broken), key, "shape")

    @pytest.mark.parametrize(
        "name,make",
        [("broken.npz", lambda whole: b""),
         ("broken.npz", lambda whole: whole[: len(whole) // 2]),
         ("array.npy", lambda whole: _npy_bytes(np.zeros((2, 3)))),
         ("text.npz", lambda whole: b"seed,target_acc\n0,0.5\n")],
        ids=["empty", "truncated", "npy-array", "text"],
    )
    def test_not_an_archive(self, mini_config, tmp_path, capsys, name, make):
        from modfeat.checkpoint import CheckpointError, load_checkpoint

        assert cli.main(["train", str(mini_config), "--seeds=0", "--epochs=1"]) == 0
        whole = (tmp_path / "out" / "seed_0" / "checkpoint.npz").read_bytes()
        broken = tmp_path / name
        broken.write_bytes(make(whole))
        with pytest.raises(CheckpointError, match=f"{broken}: not a checkpoint archive"):
            load_checkpoint(broken)
        csv_path = _gen_data(mini_config, tmp_path)
        self._eval_fails([broken, csv_path], capsys, str(broken))

    @pytest.mark.parametrize(
        "key", ["param.classifier.weight", "meta.hidden_dims", "bank.similarity"]
    )
    def test_corrupt_member(self, mini_config, tmp_path, capsys, key):
        """A member whose stored bytes changed fails its CRC-32 when read."""
        from modfeat.checkpoint import CheckpointError, load_checkpoint

        assert cli.main(["train", str(mini_config), "--seeds=0", "--epochs=1"]) == 0
        path = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        whole = bytearray(path.read_bytes())
        raw = _npy_bytes(np.load(path)[key])
        assert whole.count(raw) == 1
        at = whole.find(raw) + len(raw) - 3  # the array's last bytes, or its header's
        whole[at] ^= 0x5A
        broken = tmp_path / "broken.npz"
        broken.write_bytes(bytes(whole))
        with pytest.raises(CheckpointError, match=f"{broken}: cannot read '{key}'.*CRC"):
            load_checkpoint(broken)
        csv_path = _gen_data(mini_config, tmp_path)
        self._eval_fails([broken, csv_path], capsys, str(broken), key, "CRC")

    @pytest.mark.parametrize(
        "mode,old,new",
        [("fm", "bank.prototypes.npy", "bank.prototypes.n\u0393y"),
         ("fm", "bank.epoch.npy", "bank.epoch"),
         ("fixmatch-baseline", "param.modulator.weights.npy", "param.modulator.weight.npy")],
        ids=["renamed-bank-member", "bank-member-without-suffix", "renamed-modulator"],
    )
    def test_member_the_loader_does_not_read(
        self, mini_config, tmp_path, capsys, mode, old, new
    ):
        """A renamed member is rejected, not skipped: a renamed bank array
        would otherwise evaluate the fm checkpoint as the baseline."""
        import zipfile

        from modfeat.checkpoint import CheckpointError, load_checkpoint

        argv = ["train", mini_config, "--seeds=0", "--epochs=1", f"--mode={mode}"]
        assert cli.main([*map(str, argv)]) == 0
        path = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        broken = tmp_path / "broken.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
            for info in src.infolist():
                name = new if info.filename == old else info.filename
                dst.writestr(name, src.read(info))
        assert new in zipfile.ZipFile(broken).namelist()
        with pytest.raises(CheckpointError, match=f"{broken}: .*"):
            load_checkpoint(broken)
        csv_path = _gen_data(mini_config, tmp_path)
        err = _fails_cleanly(["eval", broken, csv_path], capsys, 2)
        assert str(broken) in err and new in err

    @pytest.mark.parametrize(
        "overrides,extra,error,needles",
        [
            (["--signal_dim=2", "--feature_dim=6"], [], dat.SchemaError,
             ["6 feature columns"]),
            ([], ["--target-domain", "5"], ConfigError, ["selects no rows"]),
            (["--num_classes=5"], [], dat.SchemaError, ["5 classes", "predicts 3"]),
        ],
    )
    def test_data_that_does_not_fit(
        self, mini_config, tmp_path, capsys, overrides, extra, error, needles
    ):
        # The checkpoint reads 8 columns and predicts 3 classes; by default
        # the CSV has 8 columns, 3 classes and domains 0-2.
        assert cli.main(["train", str(mini_config), "--seeds=0", "--epochs=1"]) == 0
        checkpoint = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        csv_path = _gen_data(mini_config, tmp_path, *overrides)
        args = cli.build_parser().parse_args(["eval", str(checkpoint), str(csv_path),
                                              *extra])
        with pytest.raises(error):
            cli.cmd_eval(args, {})
        self._eval_fails([checkpoint, csv_path, *extra], capsys, str(csv_path), *needles)


# Per-key values for the override fuzz: small ranges that cross each
# bound, capped so that no draw asks for a large allocation or a long run.
# The fuzz's examples and test_mc_samples_bound try mc_samples at its bound.
_INT_RANGES = {
    "num_classes": (-1, 8), "num_domains": (-1, 5), "signal_dim": (-1, 8),
    "noise_dim": (-2, 8), "samples_per_class_per_domain": (-1, 12),
    "target_domain": (-1, 4), "labels_per_class": (-1, 12), "data_seed": (-1, 5),
    "feature_dim": (-1, 8), "epochs": (-1, 2), "mc_samples": (-1, 8),
    "per_domain_labeled": (-1, 8), "per_domain_unlabeled": (-1, 8),
}
_CHOICES = {
    "path": ["", "missing.csv"],
    "mode": ["fm", "fixmatch-baseline", "baseline"],
    "seeds": ["0", "1,0", "-1", "x", "0,0"],
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
    return st.one_of(
        st.floats(-1.0, 2.0), st.sampled_from([0.0, 1.0, 100.0, math.nan, math.inf])
    ).map(repr)


_FUZZ_KEYS = [
    f"{section}.{key}" for section in ("data", "model", "train") for key in _SCHEMA[section]
]
_overrides = st.lists(
    st.sampled_from(_FUZZ_KEYS).flatmap(lambda k: st.tuples(st.just(k), _value(k.split(".")[1]))),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_overrides)
@example([("data.bias_jitter", "-0.0")])
@example([("data.bias_jitter", "nan")])
@example([("train.lr_main", "nan")])
@example([("train.beta", "nan")])
@example([("train.gamma", "inf")])
@example([("train.seeds", "0,0")])
@example([("train.mc_samples", "1000")])
@example([("train.mc_samples", "1001")])
def test_train_overrides_fuzz(overrides):
    """Any override ends in exit 0, 1 or 2 with no traceback; 2 writes nothing."""
    code = _train_tiny(overrides)
    assert code in (0, 1, 2)


def _train_tiny(overrides) -> int:
    """Exit code of ``modfeat train`` on TINY_CONFIG with ``overrides``.

    Checks what every exit shares: no traceback, and an exit 2 that
    starts its message with "error: " and writes nothing.
    """
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "tiny.ini"
        config.write_text(TINY_CONFIG)
        out = Path(tmp) / "out"
        argv = ["train", str(config), f"--output.dir={out}"]
        argv += [f"--{key}={value}" for key, value in overrides]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wrote = out.exists()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert not wrote
    return code


@pytest.mark.parametrize("k,code", [(1000, 0), (1001, 2)])
def test_mc_samples_bound(k, code):
    # 1000 MC passes of a tiny config take well under a second.
    assert _train_tiny([("train.mc_samples", str(k))]) == code
