#!/usr/bin/env python3
"""Print the deterministic cost ledger of a short training run per mode.

Wall time on a shared machine is noisy; what a training step does is not.
For each mode this trains the benchmark config (``configs/synthetic.ini``)
for 2 epochs at seed 0, three times on the same data:

- under cProfile: the calls the profiler sees (Python functions and the
  C functions they call) per step, in total and for the functions called
  most, by file and name;
- under ``perfbench.spans.Tracer``: every ``spans.EXACT_COUNTS`` value,
  as a total and per step;
- under ``tracemalloc``: the peak of traced memory.

Then, under ``tracemalloc``, it labels one 48-row batch (one unlabeled
batch of the benchmark config) with ``trainer.MAX_MC_SAMPLES`` Monte
Carlo passes through an fm run's head, and prints the peak: the (K, n,
C) confidences and one scoring block. And it runs ``modfeat eval``
in-process on the fm run's checkpoint, once over the CSV of the seed-0 data (4,200 rows)
and once over a seed-0 draw ten times its size (42,000 rows, 1,500
samples per class and domain), and prints each peak: the CSV parse and
one scoring pass.

Per-step figures divide a run's totals, its per-epoch evaluations and
bank refreshes included, by its SGD steps. Everything printed, the
tracemalloc peaks included, repeats exactly from run to run on one Python
and numpy build, so two source trees can be compared line by line: a
change in what a step does shows up here even where a timing cannot
resolve it. The one exception is the ``[eval]`` peaks, which move by a
few hundred bytes from process to process: ``modfeat eval`` builds its
argument parser, whose conflict-handler names (71 bytes each) stay
alive while CPython's attribute cache holds them, and that cache is
indexed by their addresses.

    python scripts/ledger.py
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import os
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

from modfeat import cli, config, data, pseudolabel, trainer  # noqa: E402
from perfbench import spans  # noqa: E402

EPOCHS = 2
SEED = 0
TOP = 15  # functions listed per mode
MC_ROWS = 48  # one unlabeled batch of the benchmark config
EVAL_LARGE_CELL = 1500  # samples per class and domain of the large eval CSV
# A built-in's profile name can hold an object address, which differs
# from process to process.
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def _train(cfg, dataset, out_dir=None):
    ((_, result, _),) = cli.run_seeds(cfg, dataset, out_dir)
    return result


def profiled_calls(cfg, dataset) -> Counter:
    """cProfile call counts of one run, keyed by "file:function".

    Read from the profiler's own entries, one per code object: ``pstats``
    keys them by (file, line, name), under which different code objects
    can collide (every namedtuple's ``__new__`` is ``<string>:1``).
    """
    profiler = cProfile.Profile()
    profiler.runcall(_train, cfg, dataset)
    calls: Counter = Counter()
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in
            key = f"~:{_ADDRESS.sub('', code)}"
        else:
            key = f"{os.path.basename(code.co_filename)}:{code.co_name}"
        calls[key] += entry.callcount
    return calls


def exact_counts(cfg, dataset) -> dict:
    tracer = spans.Tracer()
    with tracer.installed():
        _train(cfg, dataset)
    metrics = tracer.layer_metrics(0.0)
    return {name: metrics[name] for name in spans.EXACT_COUNTS}


def traced_peak(cfg, dataset) -> int:
    tracemalloc.start()
    try:
        _train(cfg, dataset)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _config(mode: str, **overrides):
    return config.load_config(
        ROOT / "configs" / "synthetic.ini",
        {"train.mode": mode, "train.epochs": str(EPOCHS), "train.seeds": str(SEED),
         **overrides},
    )


def ledger(mode: str) -> list:
    cfg = _config(mode)
    dataset = cli._build_dataset(cfg, SEED)
    counts = exact_counts(cfg, dataset)
    steps = counts["autodiff.backward_calls"]
    calls = profiled_calls(cfg, dataset)
    peak = traced_peak(cfg, dataset)
    total = sum(calls.values())
    lines = [
        f"[{mode}] {steps} steps",
        f"  calls/step {total / steps:12.1f}   total {total}",
        f"  top {TOP} functions by calls/step:",
    ]
    ranked = sorted(calls.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]
    lines += [f"    {n / steps:10.2f}  {name}" for name, n in ranked]
    lines.append("  exact counts (per step, total):")
    lines += [
        f"    {name:<28}{value / steps:16.1f}  {value}" for name, value in counts.items()
    ]
    lines.append(f"  tracemalloc peak {peak} B")
    return lines


def mc_ledger() -> list:
    """The traced peak of one ``pseudo_label_batch`` of
    ``trainer.MAX_MC_SAMPLES`` passes over the first ``MC_ROWS`` rows of
    the seed-0 data, through the head of the fm run, after one untraced
    call."""
    cfg = _config("fm")
    dataset = cli._build_dataset(cfg, SEED)
    result = _train(cfg, dataset)
    model, k = result.model, trainer.MAX_MC_SAMPLES
    head = model.fm_head(result.modulation, result.bank)
    batch = dataset.features[:MC_ROWS]

    def label():
        rng = np.random.default_rng(SEED)
        pseudolabel.pseudo_label_batch(batch, model, head, k, cfg.train.tau, rng)

    label()
    tracemalloc.start()
    try:
        label()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [f"[mc] {k} passes over {MC_ROWS} rows: tracemalloc peak {peak} B"]


def eval_peak(argv) -> int:
    """The traced peak of ``modfeat eval`` with ``argv``, after one
    untraced call."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if code != 0:
        raise RuntimeError(f"modfeat eval exited with {code}")
    return peak


def eval_ledger() -> list:
    """The traced peak of ``modfeat eval`` of the fm checkpoint over every
    row of the seed-0 data, and over every row of a seed-0 draw of
    ``EVAL_LARGE_CELL`` samples per class and domain."""
    cfg = _config("fm")
    dataset = cli._build_dataset(cfg, SEED)
    large = cli._build_dataset(
        _config("fm", **{"data.samples_per_class_per_domain": str(EVAL_LARGE_CELL)}),
        SEED,
    )
    lines = ["[eval] fm checkpoint"]
    with tempfile.TemporaryDirectory() as tmp:
        _train(cfg, dataset, tmp)
        ckpt = str(Path(tmp) / f"seed_{SEED}" / "checkpoint.npz")
        for rows in (dataset, large):
            csv = Path(tmp) / "data.csv"
            data.save_csv(rows, csv)
            peak = eval_peak(["eval", ckpt, str(csv)])
            lines.append(f"  {len(rows)} rows: tracemalloc peak {peak} B")
    return lines


def main() -> int:
    print(f"# cost ledger: configs/synthetic.ini, {EPOCHS} epochs, seed {SEED}")
    for mode in trainer.MODES:
        print("\n".join(ledger(mode)), flush=True)
    print("\n".join(mc_ledger()), flush=True)
    print("\n".join(eval_ledger()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
