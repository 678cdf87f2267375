"""The benchmark's workloads: set-up, one operation, and its output checks.

Every parameter comes from ``configs/synthetic.ini`` through
``config.load_config``; a workload only adds overrides (the baseline
mode). Operation ``i`` of a run at seed ``s`` uses the program seed
``s * STRIDE + i % fixed_ops`` for data, split and training, the way
``modfeat train --seeds`` does, so the same seed gives the same inputs,
and ``train-fm`` and ``train-baseline`` share data and splits.

- ``train-fm`` / ``train-baseline``: one operation is one 20-epoch
  ``trainer.train`` call with a run directory, as ``modfeat train`` makes
  it. Its work is the number of SGD steps.
- ``eval-full``: set-up generates the dataset and writes its CSV; the
  checkpoint comes from one training run per benchmark run, outside the
  timed set-up (``train-fm`` times training). One operation is
  ``modfeat eval <checkpoint> <csv>`` over every row, started with
  modfeat's in-process caches cleared, as in a fresh CLI process. Its
  work is the number of rows evaluated. The expected predictions come
  from the in-memory model in a forked child, so that this process's
  peak RSS is that of the set-up and the operations alone.

An operation fails when it raises or when a check on its output fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modfeat import cli, config, data, trainer

CONFIG = Path("configs") / "synthetic.ini"
# At least the largest fixed_ops, so runs at different seeds share no inputs.
STRIDE = 16
_EVAL_LINE = re.compile(r"accuracy (\S+) on (\d+) samples")


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Outcome:
    seconds: float
    work: int  # SGD steps, or rows evaluated
    accuracy: float
    fingerprint: bytes  # exact outputs, compared across traced and untraced calls


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.digest()


def _train(cfg, dataset, seed: int, run_dir: Path) -> trainer.TrainResult:
    return trainer.train(
        dataset,
        _plan(cfg, seed),
        cfg.train_config_for_seed(seed),
        hidden_dims=cfg.model.hidden_dims,
        feature_dim=cfg.model.feature_dim,
        run_dir=run_dir,
        dump_sar=cfg.output.dump_sar,
        dump_modulator=cfg.output.dump_modulator,
        dump_pseudo_labels=cfg.output.dump_pseudo_labels,
    )


def check_training(cfg, result: trainer.TrainResult, run_dir: Path) -> None:
    """Finite losses and in-range rates on every epoch; the run files exist."""
    check(len(result.reports) == cfg.train.epochs, "wrong number of epoch reports")
    for rep in result.reports:
        losses = (rep.l_s, rep.l_u, rep.l_d, rep.l_ud, rep.total)
        check(all(math.isfinite(v) for v in losses), f"epoch {rep.epoch}: loss {losses}")
        check(0.0 <= rep.target_accuracy <= 1.0, f"target_acc {rep.target_accuracy}")
        check(0.0 <= rep.keep_rate <= 1.0, f"keep rate {rep.keep_rate}")
    for name in ("metrics.csv", "checkpoint.npz"):
        check((run_dir / name).is_file(), f"{name} missing from the run directory")


def _plan(cfg, seed: int) -> data.SplitPlan:
    return data.SplitPlan(
        target_domain=cfg.data.target_domain,
        labels_per_class=cfg.data.labels_per_class,
        seed=seed,
    )


class TrainWorkload:
    kind = "train"

    def __init__(self, root: Path, workdir: Path, seed: int, overrides: dict,
                 fixed_ops: int):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.overrides = overrides
        self.seeds = [seed * STRIDE + i for i in range(fixed_ops)]
        self.fixed_ops = fixed_ops

    def setup_data(self) -> None:
        self.cfg = config.load_config(self.root / CONFIG, self.overrides)
        self.datasets = [cli._build_dataset(self.cfg, s) for s in self.seeds]

    def setup_model(self) -> None:
        """Training workloads need no model before their first operation."""

    def prepare_checks(self) -> None:
        """Training outputs are checked on their own."""

    def _batches_per_epoch(self, k: int) -> int:
        split = data.split(self.datasets[k], _plan(self.cfg, self.seeds[k]))
        t = self.cfg.train
        return data.BatchIterator(
            split, t.per_domain_labeled, t.per_domain_unlabeled, seed=0
        ).batches_per_epoch

    def op(self, i: int) -> Outcome:
        k = i % self.fixed_ops
        run_dir = self.workdir / f"op{i}"
        try:
            start = time.perf_counter()
            result = _train(self.cfg, self.datasets[k], self.seeds[k], run_dir)
            seconds = time.perf_counter() - start
            check_training(self.cfg, result, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        params = [p.value.tobytes() for p in result.model.params()]
        return Outcome(
            seconds=seconds,
            work=len(result.reports) * self._batches_per_epoch(k),
            accuracy=result.reports[-1].target_accuracy,
            fingerprint=_digest(*(r.csv_row() for r in result.reports),
                                result.modulation.values.tobytes(), *params),
        )


def clear_program_caches() -> None:
    """Empty every ``functools`` cache in modfeat's modules."""
    for name, module in list(sys.modules.items()):
        if name == "modfeat" or name.startswith("modfeat."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@contextlib.contextmanager
def capture_predictions(sink: list):
    """Record what ``trainer.predict`` returns while the block runs."""
    original = trainer.predict

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    trainer.predict = recording
    try:
        yield
    finally:
        trainer.predict = original


class EvalWorkload:
    kind = "eval"

    def __init__(self, root: Path, workdir: Path, seed: int, overrides: dict,
                 fixed_ops: int):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.overrides = overrides
        self.seed = seed * STRIDE
        self.csv = self.workdir / "data.csv"
        self.run_dir = self.workdir / "model"

    def setup_data(self) -> None:
        self.cfg = config.load_config(self.root / CONFIG, self.overrides)
        self.dataset = cli._build_dataset(self.cfg, self.seed)
        data.save_csv(self.dataset, self.csv)

    def setup_model(self) -> None:
        self.result = _train(self.cfg, self.dataset, self.seed, self.run_dir)
        check_training(self.cfg, self.result, self.run_dir)

    def prepare_checks(self) -> None:
        """Predict with the in-memory model that wrote the checkpoint.

        The prediction runs in a forked child that writes it to the work
        directory, so its memory does not count in this process's peak.
        """
        r, path = self.result, self.workdir / "expected.npy"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                np.save(path, trainer.predict(
                    r.model, r.modulation, r.bank, self.dataset.features, r.config.mode
                ))
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        check(os.waitstatus_to_exitcode(status) == 0, "expected predictions failed")
        self.expected = np.load(path)

    def op(self, i: int) -> Outcome:
        clear_program_caches()
        out, preds = io.StringIO(), []
        argv = ["eval", str(self.run_dir / "checkpoint.npz"), str(self.csv)]
        with contextlib.redirect_stdout(out), capture_predictions(preds):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        check(code == 0, f"modfeat eval exited with {code}")
        check(len(preds) == 1, f"expected one predict call, saw {len(preds)}")
        got = preds[0]
        check(got.dtype == self.expected.dtype and np.array_equal(got, self.expected),
              "reloaded checkpoint predicts differently from the in-memory model")
        acc = float((got == self.dataset.class_ids).mean())
        match = _EVAL_LINE.search(out.getvalue())
        check(match is not None, f"unexpected eval output {out.getvalue()!r}")
        check(match.group(1) == f"{acc:.6f}", f"printed accuracy {match.group(1)}")
        check(int(match.group(2)) == len(self.dataset), "wrong sample count")
        check(0.0 <= acc <= 1.0, f"accuracy {acc}")
        return Outcome(seconds=seconds, work=len(got), accuracy=acc,
                       fingerprint=_digest(got.tobytes()))


@dataclass(frozen=True)
class Spec:
    """A workload: its class, its config overrides, the operations whose
    inputs the seed fixes (their accuracy is reported), and the leading
    operations that are checked but not timed."""

    factory: type
    overrides: dict
    fixed_ops: int
    untimed_ops: int = 0


WORKLOADS = {
    "train-fm": Spec(TrainWorkload, {}, fixed_ops=6),
    "train-baseline": Spec(TrainWorkload, {"train.mode": "fixmatch-baseline"}, fixed_ops=16),
    # The process's first evaluation faults in ~1 GB of fresh pages.
    "eval-full": Spec(EvalWorkload, {}, fixed_ops=3, untimed_ops=1),
}
# Set-up is short and noisy; a run times it this many times (setup_s is the median).
SETUP_REPEATS = 15


def make(name: str, root: Path, workdir: Path, seed: int, overrides: dict = None):
    spec = WORKLOADS[name]
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return spec.factory(root, workdir, seed, {**spec.overrides, **(overrides or {})},
                        spec.fixed_ops)
