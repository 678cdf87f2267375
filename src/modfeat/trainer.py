"""Training orchestration: per-epoch prototype refresh, batch loop with
pseudo-labeling, SGD with cosine-annealed learning rates, evaluation and
checkpointing. Also runs the fixed-threshold baseline mode: the same
pipeline's unmodulated R = 1 view (``network.score_graph``), so the
modulator and the diagonal losses drop out, and pseudo-labels come from
a single deterministic pass at threshold 0.95.

Reported numbers always come from the final epoch; the best-epoch
checkpoint is written as a diagnostic only (selecting on target accuracy
would leak the target domain into model selection).
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import metrics as met
from . import network as net
from . import objective, pseudolabel
from .checkpoint import save_checkpoint
from .data import Augmenter, BatchIterator, DomainDataset, SplitPlan, split
from .modulator import ModulationMatrix, variance_init
from .network import MODES, ExtractorConfig, Model
from .prototypes import PrototypeBank, build_bank

METRICS_HEADER = (
    "epoch,l_s,l_u,l_d,l_ud,total,keep_rate,pl_acc,target_acc,lr"
)


class TrainingAborted(RuntimeError):
    """Raised when a numpy op overflows or yields an invalid value, a step
    produces a non-finite loss, or an epoch ends with non-finite
    parameters or prototypes."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr_main: float = 0.03
    lr_modulator: float = 0.03
    momentum: float = 0.9
    tau: float = 0.75
    mc_samples: int = 5
    beta: float = 1.0
    gamma: float = 0.5
    per_domain_labeled: int = 16
    per_domain_unlabeled: int = 16
    dropout_p: float = 0.05
    seed: int = 0
    mode: str = "fm"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if min(self.lr_main, self.lr_modulator) <= 0:
            raise ValueError("learning rates must be > 0")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if self.mc_samples < 2:
            raise ValueError(f"mc_samples must be >= 2, got {self.mc_samples}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if min(self.beta, self.gamma) < 0:
            raise ValueError(
                f"beta and gamma must be >= 0, got {self.beta} and {self.gamma}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("per_domain_labeled", "per_domain_unlabeled"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    l_s: float
    l_u: float
    l_d: float
    l_ud: float
    total: float
    keep_rate: float
    pl_accuracy: Optional[float]
    target_accuracy: float
    lr: float

    def csv_row(self) -> str:
        """The fields in METRICS_HEADER order; an absent pl_accuracy is empty."""
        return ",".join("" if v is None else repr(v) for v in astuple(self))


@dataclass
class TrainResult:
    model: Model
    modulation: ModulationMatrix
    bank: Optional[PrototypeBank]
    reports: list
    config: TrainConfig


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 toward 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


class SGD:
    """SGD with momentum: v <- momentum * v + g; theta <- theta - lr * v."""

    def __init__(self, params: Sequence, momentum: float = 0.9):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {sorted(names)}")
        self.params = list(params)
        self.momentum = momentum
        self._velocity = {p.name: np.zeros_like(p.value) for p in self.params}

    def zero_grads(self) -> None:
        for p in self.params:
            p.node.zero_grad()

    def step(self, lr: float) -> None:
        for p in self.params:
            v = self._velocity[p.name]
            v *= self.momentum
            v += p.node.grad
            p.node.value -= lr * v


def _eval_features(model: Model, x: np.ndarray) -> np.ndarray:
    with ad.no_grad():
        return model.extractor.forward(x, "eval").value


def predict(
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    x: np.ndarray,
    mode: str = "fm",
) -> np.ndarray:
    """Predicted class per row; ties break toward the smaller class id.

    ``mode`` is one of ``MODES``; the baseline ignores ``modulation``
    and ``bank``. Records no graph (``autodiff.no_grad``).
    """
    x = np.atleast_2d(x)
    probs = pseudolabel.predict_matrices(
        x, model, modulation, net.view_bank(mode, bank)
    )
    c = model.num_classes
    return net.class_confidence(probs.reshape(-1, c), x.shape[0], c).argmax(axis=1)


def evaluate(
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    x: np.ndarray,
    y: np.ndarray,
    mode: str = "fm",
) -> float:
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty set")
    return float((predict(model, modulation, bank, x, mode) == np.asarray(y)).mean())


@contextmanager
def _float_errors_abort(where):
    """Raise numpy's overflow, invalid and divide errors inside the block,
    each as ``TrainingAborted`` at ``where()``, the (epoch, step) reached."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            yield
        except FloatingPointError as err:
            epoch, step = where()
            raise TrainingAborted(
                f"non-finite value at epoch {epoch} step {step}: {err}",
                {"epoch": epoch, "step": step, "error": str(err)},
            ) from None


def _dump_matrix(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def train(
    dataset: DomainDataset,
    plan: SplitPlan,
    config: TrainConfig,
    hidden_dims: tuple = (64, 64),
    feature_dim: int = 32,
    run_dir=None,
    dump_sar: bool = False,
    dump_modulator: bool = False,
    dump_pseudo_labels: bool = False,
) -> TrainResult:
    """Run the full training protocol and return the final artifacts.

    Each epoch: (1) the prototype bank from the previous epoch boundary
    is used unchanged for every batch; (2) per batch, unlabeled weak
    views are pseudo-labeled from the current model, the four-term loss
    is built on weak labeled plus strong unlabeled views, and SGD steps
    with cosine-annealed rates; (3) the bank is refreshed from the
    updated model and target metrics are recorded. Any numpy overflow,
    invalid or divide error on the way aborts the run (``TrainingAborted``).
    """
    baseline = config.mode == "fixmatch-baseline"
    run_dir = Path(run_dir) if run_dir is not None else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)

    epoch = step = 0
    with _float_errors_abort(lambda: (epoch, step)):
        ss = np.random.SeedSequence(config.seed)
        init_rng, batch_seed_rng, aug_rng, mc_rng, drop_rng = (
            np.random.default_rng(child) for child in ss.spawn(5)
        )

        split_data = split(dataset, plan)
        augmenter = Augmenter.fit(split_data.unlabeled_x)
        extractor_cfg = ExtractorConfig(
            input_dim=dataset.input_dim,
            hidden_dims=tuple(hidden_dims),
            feature_dim=feature_dim,
            dropout_p=config.dropout_p,
        )
        model = Model.init(extractor_cfg, dataset.num_classes, init_rng)

        if baseline:
            modulation = ModulationMatrix.ones(dataset.num_classes, feature_dim)
            bank = None
        else:
            labeled_feats = _eval_features(model, split_data.labeled_x)
            modulation = ModulationMatrix.from_values(
                variance_init(labeled_feats, split_data.labeled_y, dataset.num_classes)
            )
            bank = build_bank(
                labeled_feats, split_data.labeled_y, dataset.num_classes, epoch=0
            )

        iterator = BatchIterator(
            split_data,
            config.per_domain_labeled,
            config.per_domain_unlabeled,
            seed=int(batch_seed_rng.integers(2**63)),
        )
        total_steps = config.epochs * iterator.batches_per_epoch
        opt_main = SGD(model.params(), config.momentum)
        opt_mod = None if baseline else SGD([modulation.param], config.momentum)

        reports: list[EpochReport] = []
        pl_log_rows: list[str] = []
        best_acc = -1.0
        for epoch in range(1, config.epochs + 1):
            sums = dict.fromkeys(("l_s", "l_u", "l_d", "l_ud", "total"), 0.0)
            epoch_records: list[pseudolabel.PseudoLabelRecord] = []
            epoch_truths: list[int] = []
            lr_now = cosine_lr(config.lr_main, step, total_steps)
            for batch in iterator.epoch():
                weak_labeled = augmenter.weak(batch.labeled_x, aug_rng)
                weak_unlabeled = augmenter.weak(batch.unlabeled_x, aug_rng)
                strong_unlabeled = augmenter.strong(batch.unlabeled_x, aug_rng)
                if baseline:
                    records = pseudolabel.baseline_pseudo_label_batch(
                        weak_unlabeled, model
                    )
                else:
                    records = pseudolabel.pseudo_label_batch(
                        weak_unlabeled,
                        model,
                        modulation,
                        bank,
                        config.mc_samples,
                        config.tau,
                        mc_rng,
                    )
                breakdown = objective.total_loss(
                    weak_labeled,
                    batch.labeled_y,
                    strong_unlabeled,
                    records,
                    model,
                    modulation,
                    bank,
                    beta=config.beta,
                    gamma=config.gamma,
                    rng=drop_rng,
                    mode=config.mode,
                )
                values = breakdown.values()
                if not all(math.isfinite(v) for v in values.values()):
                    raise TrainingAborted(
                        f"non-finite loss at epoch {epoch} step {step}",
                        {"epoch": epoch, "step": step, **values},
                    )
                opt_main.zero_grads()
                if opt_mod is not None:
                    opt_mod.zero_grads()
                ad.backward(breakdown.total)
                lr_now = cosine_lr(config.lr_main, step, total_steps)
                opt_main.step(lr_now)
                if opt_mod is not None:
                    opt_mod.step(cosine_lr(config.lr_modulator, step, total_steps))
                step += 1
                for key in sums:
                    sums[key] += values[key]
                epoch_records.extend(records)
                epoch_truths.extend(batch.unlabeled_truth.tolist())
                if dump_pseudo_labels:
                    for idx, rec, truth in zip(
                        batch.unlabeled_idx, records, batch.unlabeled_truth
                    ):
                        pl_log_rows.append(
                            f"{epoch},{idx},{rec.label},{rec.p_max!r},{rec.sigma!r},"
                            f"{int(rec.keep)},{rec.l_scale!r},{truth}"
                        )

            if not baseline:
                bank = build_bank(
                    _eval_features(model, split_data.labeled_x),
                    split_data.labeled_y,
                    dataset.num_classes,
                    epoch=epoch,
                )
            # A last step can leave weights, or prototypes, that are not finite
            # and that no loss has seen yet.
            arrays = [p.value for p in model.params()] + [modulation.values]
            if bank is not None:
                arrays.append(bank.blended)
            if not all(np.isfinite(a).all() for a in arrays):
                raise TrainingAborted(
                    f"non-finite parameters or prototypes after epoch {epoch}",
                    {"epoch": epoch, "step": step},
                )
            target_acc = evaluate(
                model,
                modulation,
                bank,
                split_data.test_x,
                split_data.test_y,
                mode=config.mode,
            )
            n_batches = iterator.batches_per_epoch
            reports.append(
                EpochReport(
                    epoch=epoch,
                    l_s=sums["l_s"] / n_batches,
                    l_u=sums["l_u"] / n_batches,
                    l_d=sums["l_d"] / n_batches,
                    l_ud=sums["l_ud"] / n_batches,
                    total=sums["total"] / n_batches,
                    keep_rate=met.keep_rate(epoch_records),
                    pl_accuracy=met.pl_accuracy(epoch_records, epoch_truths),
                    target_accuracy=target_acc,
                    lr=lr_now,
                )
            )
            if run_dir is not None:
                if target_acc > best_acc:
                    best_acc = target_acc
                    save_checkpoint(
                        run_dir / "checkpoint_best.npz", model, modulation, bank
                    )
                if dump_sar and bank is not None:
                    _dump_matrix(run_dir / f"prototypes_epoch{epoch}.csv", bank.prototypes)
                    _dump_matrix(run_dir / f"similarity_epoch{epoch}.csv", bank.similarity)
                    _dump_matrix(run_dir / f"blended_epoch{epoch}.csv", bank.blended)
                if dump_modulator:
                    _dump_matrix(
                        run_dir / f"modulator_epoch{epoch}.csv", modulation.values
                    )

    if run_dir is not None:
        with open(run_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write(METRICS_HEADER + "\n")
            for report in reports:
                fh.write(report.csv_row() + "\n")
        save_checkpoint(run_dir / "checkpoint.npz", model, modulation, bank)
        if dump_pseudo_labels:
            with open(run_dir / "pseudo_labels.csv", "w", newline="", encoding="utf-8") as fh:
                fh.write("epoch,sample_idx,label,p_max,sigma,keep,l_scale,true_class\n")
                for row in pl_log_rows:
                    fh.write(row + "\n")
    return TrainResult(
        model=model, modulation=modulation, bank=bank, reports=reports, config=config
    )
