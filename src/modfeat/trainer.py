"""Training orchestration: per-epoch prototype refresh, batch loop with
pseudo-labeling, SGD with a cosine-annealed learning rate, evaluation and
checkpointing. Also runs the fixed-threshold baseline mode: the same
pipeline's unmodulated R = 1 view (``network.score_graph``), so the
modulator and the diagonal losses drop out, and pseudo-labels come from
a single deterministic pass at threshold 0.95. Only this module names
the modes (``MODES``); below it a pass is modulated iff it gets a fused
head, which an fm step builds once (``Model.fm_head``) and shares
between its Monte Carlo passes and its loss forward, and a pass drops
units iff it gets a dropout generator: the MC passes get ``mc_rng``, the
loss forward ``drop_rng``, and evaluation and the bank refresh none.

Reported numbers and the checkpoint always come from the final epoch:
selecting an epoch on target accuracy would leak the target domain into
model selection (``metrics.csv`` records every epoch's). An epoch keeps
one record of its pseudo-labels: its steps' ``PSEUDO_LABELS`` arrays and
pool positions, concatenated once when it ends, which the keep rate,
the pseudo-label accuracy and the pseudo-label log all read. Ground
truth of the unlabeled pool never enters a step: each epoch reads it
once, at those pool positions. Every run CSV goes through
``metrics.write_csv``.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import metrics as met
from . import objective, pseudolabel
from .checkpoint import save_checkpoint
from .data import Augmenter, BatchIterator, DomainDataset, SplitPlan, split
from .modulator import ModulationMatrix, variance_init
from .network import ExtractorConfig, Model
from .prototypes import PrototypeBank, build_bank

# Training modes: the modulated pipeline and the fixed-threshold baseline.
MODES = ("fm", "fixmatch-baseline")

# Sanity bound only: the K MC passes over a batch are scored one block at
# a time, and the cap keeps their K*n*C confidences sane (2.7 MB for a
# 48-row batch at 7 classes).
MAX_MC_SAMPLES = 1000

METRICS_HEADER = (
    "epoch", "l_s", "l_u", "l_d", "l_ud", "total", "keep_rate", "pl_acc",
    "target_acc", "lr",
)
PSEUDO_LABELS_HEADER = (
    "epoch", "sample_idx", "label", "p_max", "sigma", "keep", "l_scale", "true_class",
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
        # Written so that nan fails every bound.
        if not 0 < self.lr_main < math.inf:
            raise ValueError(f"lr_main must be finite and > 0, got {self.lr_main}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if not 2 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ValueError(
                f"mc_samples must be in [2, {MAX_MC_SAMPLES}], got {self.mc_samples}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not (0 <= self.beta < math.inf and 0 <= self.gamma < math.inf):
            raise ValueError(
                f"beta and gamma must be finite and >= 0, got {self.beta} and {self.gamma}"
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
        """The fields in METRICS_HEADER order, each a ``metrics.cell``; an
        absent pl_accuracy is empty."""
        return ",".join(map(met.cell, astuple(self)))


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
    """SGD with momentum: v <- momentum * v + g; theta <- theta - lr * v.

    ``params`` are named leaf nodes; ``step`` takes the gradients that
    ``autodiff.backward`` returns for them, and a parameter the loss does
    not reach steps with gradient zero.
    """

    def __init__(self, params: Sequence, momentum: float = 0.9):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {sorted(names, key=str)}")
        self.params = list(params)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self, grads: dict, lr: float) -> None:
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v += grads[p] if p in grads else 0.0
            p.value -= lr * v


def _eval_features(model: Model, x: np.ndarray) -> np.ndarray:
    with ad.no_grad():
        return model.extractor.forward(x).value


def predict(
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    x: np.ndarray,
    mode: str = "fm",
) -> np.ndarray:
    """Predicted class per row; ties break toward the smaller class id.

    ``mode`` is one of ``MODES``; ``"fm"`` needs a bank, the baseline
    ignores ``modulation`` and ``bank``. Records no graph.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "fm" and bank is None:
        raise ValueError("mode 'fm' needs a prototype bank")
    with ad.no_grad():
        head = model.fm_head(modulation, bank) if mode == "fm" else None
    return pseudolabel.predict_matrices(x, model, head).argmax(axis=1)


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


def _pseudo_label_rows(epoch, idx, pseudo, truth):
    """One epoch's pseudo_labels.csv rows, in PSEUDO_LABELS_HEADER order."""
    for i, (label, p_max, sigma, keep, weight), t in zip(
        idx.tolist(), pseudo.tolist(), truth.tolist()
    ):
        yield epoch, i, label, p_max, sigma, int(keep), weight, t


def train(
    dataset: DomainDataset,
    plan: SplitPlan,
    config: TrainConfig,
    hidden_dims: tuple,
    feature_dim: int,
    run_dir=None,
    dump_sar: bool = False,
    dump_modulator: bool = False,
    dump_pseudo_labels: bool = False,
) -> TrainResult:
    """Run the full training protocol and return the final artifacts.

    Each epoch: (1) the prototype bank from the previous epoch boundary
    is used unchanged for every batch; (2) per batch, unlabeled weak
    views are pseudo-labeled from the current model, the four-term loss
    is built on weak labeled plus strong unlabeled views, and one SGD
    steps every trained weight at a cosine-annealed rate; (3) the bank is
    refreshed from the updated model, and target accuracy and the
    pseudo-labels' keep rate and accuracy (against the truth at the
    epoch's pool positions) are recorded. Any numpy overflow, invalid or
    divide error on the way aborts the run (``TrainingAborted``).
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

        # One optimizer steps every trained weight: the baseline's all-ones
        # placeholder gets no gradient, so only fm adds the modulator.
        params = model.params()
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
            params.append(modulation.param)

        iterator = BatchIterator(
            split_data,
            config.per_domain_labeled,
            config.per_domain_unlabeled,
            seed=int(batch_seed_rng.integers(2**63)),
        )
        total_steps = config.epochs * iterator.batches_per_epoch
        opt = SGD(params, config.momentum)

        reports: list[EpochReport] = []
        # Per epoch: its number, pool positions, pseudo-labels and truths.
        pl_log: list[tuple] = []
        for epoch in range(1, config.epochs + 1):
            sums = [0.0] * 5  # l_s, l_u, l_d, l_ud and total, summed over steps
            epoch_pseudo, epoch_idx = [], []  # each step's labels and positions
            for batch in iterator.epoch(augmenter, aug_rng):
                # One head per step: the MC passes and the loss read it.
                head = model.fm_head(modulation, bank)
                if baseline:
                    pseudo = pseudolabel.baseline_pseudo_label_batch(
                        batch.weak_unlabeled, model
                    )
                else:
                    pseudo = pseudolabel.pseudo_label_batch(
                        batch.weak_unlabeled,
                        model,
                        head,
                        config.mc_samples,
                        config.tau,
                        mc_rng,
                    )
                breakdown = objective.total_loss(
                    batch.weak_labeled,
                    batch.labeled_y,
                    batch.strong_unlabeled,
                    pseudo,
                    model,
                    head,
                    beta=config.beta,
                    gamma=config.gamma,
                    rng=drop_rng,
                )
                total = float(breakdown.total.value[0, 0])
                # Finite iff every term is: beta and gamma are finite, and a
                # non-finite term times 0 is nan.
                if not math.isfinite(total):
                    raise TrainingAborted(
                        f"non-finite loss at epoch {epoch} step {step}",
                        {"epoch": epoch, "step": step, **breakdown.values()},
                    )
                lr_now = cosine_lr(config.lr_main, step, total_steps)
                opt.step(ad.backward(breakdown.total), lr_now)
                step += 1
                terms = breakdown.l_s, breakdown.l_u, breakdown.l_d, breakdown.l_ud
                sums = [s + t for s, t in zip(sums, (*terms, total))]
                epoch_pseudo.append(pseudo)
                epoch_idx.append(batch.unlabeled_idx)

            # A last step can leave weights that are not finite and that no
            # loss has seen yet. The bank checks its own anchors.
            if not all(np.isfinite(p.value).all() for p in params):
                raise TrainingAborted(
                    f"non-finite parameters after epoch {epoch}",
                    {"epoch": epoch, "step": step},
                )
            if not baseline:
                bank = build_bank(
                    _eval_features(model, split_data.labeled_x),
                    split_data.labeled_y,
                    dataset.num_classes,
                    epoch=epoch,
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
            # The epoch's one pseudo-label record, read by its metrics and log.
            # Naming the dtype skips numpy's per-input structured promotion.
            pseudo_labels = np.concatenate(epoch_pseudo, dtype=pseudolabel.PSEUDO_LABELS)
            keep = pseudo_labels["keep"]
            idx = np.concatenate(epoch_idx)
            # Ground truth is read here, for metrics, and nowhere in the steps.
            truth = split_data.unlabeled_truth[idx]
            reports.append(
                EpochReport(
                    epoch,
                    *[s / n_batches for s in sums],
                    keep_rate=met.keep_rate(keep),
                    pl_accuracy=met.pl_accuracy(pseudo_labels["label"], keep, truth),
                    target_accuracy=target_acc,
                    lr=lr_now,
                )
            )
            if dump_pseudo_labels:
                pl_log.append((epoch, idx, pseudo_labels, truth))
            # Carry no pool-sized array through the next epoch's steps.
            del pseudo_labels, keep, idx, truth
            if run_dir is not None:
                dumps = {}
                if dump_sar and bank is not None:
                    dumps.update(prototypes=bank.prototypes,
                                 similarity=bank.similarity, blended=bank.blended)
                if dump_modulator:
                    dumps["modulator"] = modulation.values
                for name, matrix in dumps.items():
                    met.write_csv(run_dir / f"{name}_epoch{epoch}.csv", matrix.tolist())

    if run_dir is not None:
        met.write_csv(run_dir / "metrics.csv", [METRICS_HEADER, *map(astuple, reports)])
        save_checkpoint(run_dir / "checkpoint.npz", model, modulation, bank)
        if dump_pseudo_labels:
            epochs = itertools.starmap(_pseudo_label_rows, pl_log)
            met.write_csv(
                run_dir / "pseudo_labels.csv",
                itertools.chain([PSEUDO_LABELS_HEADER], *epochs),
            )
    return TrainResult(
        model=model, modulation=modulation, bank=bank, reports=reports, config=config
    )
