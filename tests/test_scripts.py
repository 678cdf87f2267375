import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    args = ("--config", str(config), "--seeds", "0,1", "--epochs=1")
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


@pytest.mark.parametrize(
    "bad,needle,code",
    [(["--hidden_dims=x"], "hidden_dims", 2), (["--epochs", "1"], "unrecognized", 2),
     (["--no_such_key=1"], "no_such_key", 2),
     # Its cells hold 2 samples, fewer than labels_per_class = 4.
     (["--data.path={csv}"], "{csv}: [data] labels_per_class = 4", 2),
     (["--data.path={csv}.missing"], "{csv}.missing", 2),
     # argparse's own usage error, through modfeat's one-line boundary.
     (["--seeds"], "argument --seeds: expected one argument", 2),
     # Means this far apart overflow the logits within the first epoch.
     (["--class_sep=100", "--epochs=1", "--modes", "fm"], "seed 0: non-finite value", 1)],
    ids=["bad-value", "bare-flag", "unknown-key", "csv-that-does-not-fit", "missing-csv",
         "flag-without-value", "aborted-run"],
)
def test_fingerprint_rejects_bad_config(tmp_path, bad, needle, code):
    from modfeat import data

    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    csv_path = tmp_path / "small.csv"
    data.save_csv(data.generate_synthetic(3, 3, 4, 4, 2, 3.0, 4.0, 0, 0.2), csv_path)
    result = _fingerprint("--config", str(config), *(b.format(csv=csv_path) for b in bad))
    assert result.returncode == code
    assert result.stderr.startswith("error: ") and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert needle.format(csv=csv_path) in result.stderr


def test_fingerprint_overrides_are_modfeat_train_overrides(tmp_path):
    """A bare key and its section.key form override the same value."""
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    base = ("--config", str(config), "--modes", "fm", "--epochs=1")
    bare = _fingerprint(*base, "--num_classes=4", "--hidden_dims=6")
    full = _fingerprint(*base, "--data.num_classes=4", "--model.hidden_dims=6")
    plain = _fingerprint(*base)
    assert bare.returncode == 0, bare.stderr
    assert bare.stdout == full.stdout != plain.stdout


def test_fingerprint_accuracy_matches_modfeat_train(tmp_path):
    """Both entry points go through one seed loop: same final accuracy."""
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    printed = _fingerprint("--config", str(config), "--seeds", "0", "--epochs=2")
    assert printed.returncode == 0, printed.stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for line in printed.stdout.splitlines():
        mode, seed, acc, _ = line.split()
        out = tmp_path / mode
        trained = subprocess.run(
            [sys.executable, "-m", "modfeat", "train", str(config), f"--mode={mode}",
             f"--seeds={seed}", "--epochs=2", f"--output.dir={out}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert trained.returncode == 0, trained.stderr
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["target_acc"] == acc


def _reference_fingerprints() -> tuple:
    """``FINGERPRINTS.txt``: its numpy version and machine, and its lines
    by section: the overrides they were printed with."""
    header, sections, lines = {}, {}, None
    for line in (ROOT / "FINGERPRINTS.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            lines = sections.setdefault(line.strip("[]"), [])
        elif lines is None:
            key, value = line.split()
            header[key] = value
        else:
            lines.append(line)
    return header, sections


def test_fingerprints_match_the_checked_in_reference():
    """Training repeats ``FINGERPRINTS.txt`` bit for bit: seeds 0 and 1 in
    both modes, and seed 0 with a hidden layer and with 8 classes, where
    the loss and the confidences add each row's classes left to right and
    numpy's own row sums would not, and in fm with 30 Monte Carlo passes,
    which span two scoring blocks."""
    import platform

    import numpy

    header, sections = _reference_fingerprints()
    assert [len(lines) for lines in sections.values()] == [40, 40, 40, 20]
    built_on = (header["numpy"], header["machine"])
    if built_on != (numpy.__version__, platform.machine()):
        pytest.skip(f"FINGERPRINTS.txt holds the bits of numpy {built_on[0]} "
                    f"on {built_on[1]}")
    config = ("--config", str(ROOT / "configs" / "synthetic.ini"))
    for section, seeds, modes in (
        ("defaults", ("0", "1"), ()), ("--hidden_dims=64", ("0",), ()),
        ("--num_classes=8", ("0",), ()), ("--mc_samples=30", ("0",), ("--modes", "fm")),
    ):
        overrides = [] if section == "defaults" else [section]
        printed = _fingerprint(*config, "--seeds", ",".join(seeds), *modes, *overrides)
        assert printed.returncode == 0, printed.stderr
        want = [line for line in sections[section] if line.split()[1] in seeds]
        assert printed.stdout.splitlines() == want


def _ab_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ab_run(pair, side, work, rss=50.0, acc=0.5, failed=0):
    metrics = {"setup_s": 0.03, "work_per_s": work, "peak_rss_mb": rss, "target_acc": acc}
    line = {"correct": True, "attempted": 9, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
    return json.dumps({"workload": "train-fm", "side": side, "seed": 100 + pair,
                       "pair": pair, "trace": 0, "final_line": line})


def _ab_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_ab_pairs_summary_on_canned_runs():
    ab = _ab_pairs()
    parent = [900, 910, 890, 905, 895, 920, 880, 900, 915, 885]
    lines = []
    for i, p in enumerate(parent):
        change = p + 100 if i else p - 1  # pair 0 is a loss
        lines += [_ab_run(i, "change", change, rss=60.0 if i == 3 else 50.0),
                  _ab_run(i, "parent", p)]
    summary = ab.summarize([json.loads(line) for line in lines], _ab_spec())
    assert summary["pairs"] == 10 and summary["failed"] == {"parent": 0, "change": 0}
    work = summary["metrics"]["work_per_s"]
    assert work["wins"] == 9 and work["gain"] and not work["worse"]
    assert work["parent"]["median"] == 900.0
    assert (work["parent"]["q1"], work["parent"]["q3"]) == (891.25, 908.75)
    assert work["change"]["median"] == 997.5
    acc = summary["metrics"]["target_acc"]
    assert acc["wins"] == 0 and not acc["gain"] and not acc["worse"]  # ties count for neither
    rss = summary["metrics"]["peak_rss_mb"]  # lower is better; one pair is 20% worse
    assert rss["wins"] == 0 and not rss["worse"]


def test_ab_pairs_gain_rules():
    ab = _ab_pairs()

    def work_verdict(parent, change):
        runs = [json.loads(_ab_run(i, side, w))
                for i, (p, c) in enumerate(zip(parent, change))
                for side, w in (("parent", p), ("change", c))]
        return ab.summarize(runs, _ab_spec())["metrics"]["work_per_s"]

    parent = [900.0 + 10 * i for i in range(10)]
    assert not work_verdict(parent[:9], [p + 200 for p in parent[:9]])["gain"]  # < 10 pairs
    assert not work_verdict(parent, [p + 20 for p in parent])["gain"]  # within the spread
    eight = [p + 200 if i < 8 else p - 1 for i, p in enumerate(parent)]
    assert not work_verdict(parent, eight)["gain"]  # 8/10 wins
    assert work_verdict(parent, [p * 0.7 for p in parent])["worse"]  # 30% > bound 25%
    with pytest.raises(ValueError):
        ab.summarize([json.loads(_ab_run(0, "parent", 900.0))], _ab_spec())


def test_ab_pairs_summarize_file(tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("\n".join(_ab_run(i, s, 900.0 + i) for i in range(3)
                              for s in ("parent", "change")) + "\n")
    printed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_pairs.py"), "--summarize", str(runs)],
        capture_output=True, text=True, timeout=60,
    )
    assert printed.returncode == 0, printed.stderr
    assert printed.stdout.startswith("3 pairs; failed operations: parent 0, change 0")
    assert "change wins 0/3, gain no, worse than bound no" in printed.stdout


def _ledger():
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ledger.py")],
        capture_output=True, text=True, timeout=120,
    )


def _eval_peaks(stdout: str) -> tuple:
    """The ledger without its ``[eval]`` peak lines, and those peaks."""
    head, small, large = re.fullmatch(
        r"(.*\n\[mc\] 1000 passes over 48 rows: tracemalloc peak \d+ B\n"
        r"\[eval\] fm checkpoint\n)"
        r"  4200 rows: tracemalloc peak (\d+) B\n"
        r"  42000 rows: tracemalloc peak (\d+) B\n",
        stdout, re.S,
    ).groups()
    return head, (int(small), int(large))


def test_ledger_repeats_exactly():
    first, second = _ledger(), _ledger()
    assert first.returncode == 0, first.stderr
    (head, peaks), (head2, peaks2) = _eval_peaks(first.stdout), _eval_peaks(second.stdout)
    assert head == head2
    # argparse's conflict-handler names ("_handle_conflict_error", 71 B
    # each) stay alive while CPython's attribute cache, indexed by their
    # addresses, holds them: a few of them more or less from process to
    # process.
    for peak, peak2 in zip(peaks, peaks2):
        assert abs(peak - peak2) <= 1024
    assert re.findall(r"^\[(\S+)\] (\d+) steps$", first.stdout, re.M) == [
        ("fm", "132"), ("fixmatch-baseline", "132")
    ]
    assert first.stdout.count("tracemalloc peak") == 5
    for name in ("autodiff.as_matrix_bytes", "modulator.modulate_calls"):
        assert first.stdout.count(name) == 2
