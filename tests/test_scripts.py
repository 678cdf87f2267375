import csv
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """
[data]
num_classes = 3
num_domains = 3
signal_dim = 4
noise_dim = 4
samples_per_class_per_domain = 24
class_sep = 3.0
domain_shift = 4.0
target_domain = 0
labels_per_class = 4

[model]
feature_dim = 8

[train]
per_domain_labeled = 4
per_domain_unlabeled = 6
mc_samples = 3
"""


def _fingerprint(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_fingerprint_repeats_exactly(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    args = ("--config", str(config), "--seeds", "0,1", "--epochs", "1")
    first, second = _fingerprint(*args), _fingerprint(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["fm", "0"], ["fm", "1"], ["fixmatch-baseline", "0"], ["fixmatch-baseline", "1"]
    ]
    for line in lines:
        _, _, acc, digest = line.split()
        assert 0.0 <= float(acc) <= 1.0
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert len({line.split()[3] for line in lines}) == 4


def test_fingerprint_rejects_bad_config(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    result = _fingerprint("--config", str(config), "--hidden-dims", "x")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")


def test_fingerprint_accuracy_matches_modfeat_train(tmp_path):
    """Both entry points go through one seed loop: same final accuracy."""
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    printed = _fingerprint("--config", str(config), "--seeds", "0", "--epochs", "2")
    assert printed.returncode == 0, printed.stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for line in printed.stdout.splitlines():
        mode, seed, acc, _ = line.split()
        out = tmp_path / mode
        trained = subprocess.run(
            [sys.executable, "-m", "modfeat", "train", str(config), "--mode", mode,
             "--seeds", seed, "--epochs=2", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert trained.returncode == 0, trained.stderr
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["target_acc"] == acc
