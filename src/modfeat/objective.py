"""The four-term training loss.

Per sample, the modulated pipeline yields a square log-score matrix: one
log-softmax row per candidate class the features were modulated toward.
Four terms are built from it:

  l_s   negative log-score of the true class, averaged over all C
        modulation rows of the weak labeled view: blending features
        toward another class's anchor must not change the label, so
        every row carries the sample's own class as its target
  l_u   the same with the pseudo-label on the strong view, times the
        record's confidence weight
  l_d   mean squared gap between the diagonal and the per-column maximum
        (the column max is a gradient-stopped target: the diagonal is
        pulled up, the max is not pulled down)
  l_ud  the same gap on the strong unlabeled view, confidence-weighted

total = l_s + l_u + beta * l_d + gamma * l_ud. Labeled terms average
over labeled slots; unlabeled terms average over all unlabeled slots,
kept or not, so discarded samples dilute the unsupervised terms toward
zero. In baseline mode the pipeline is unmodulated and the diagonal
terms are identically zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import network as net
from .autodiff import Node
from .modulator import ModulationMatrix
from .network import Model
from .prototypes import PrototypeBank
from .pseudolabel import PseudoLabelRecord


@dataclass
class LossBreakdown:
    l_s: Node
    l_u: Node
    l_d: Node
    l_ud: Node
    total: Node
    beta: float
    gamma: float
    # Gradient-stopped targets actually used for the diagonal-gap terms,
    # keyed "labeled"/"unlabeled". A finite-difference check of the loss
    # must re-feed these, otherwise the difference quotient sees the
    # targets move while the analytic gradient (correctly) does not.
    diag_targets: dict = None

    def values(self) -> dict:
        return {
            "l_s": float(self.l_s.value[0, 0]),
            "l_u": float(self.l_u.value[0, 0]),
            "l_d": float(self.l_d.value[0, 0]),
            "l_ud": float(self.l_ud.value[0, 0]),
            "total": float(self.total.value[0, 0]),
        }


def _zero() -> Node:
    return Node(np.zeros((1, 1)))


@functools.lru_cache(maxsize=32)
def _block_diag_mask(n: int, num_classes: int) -> np.ndarray:
    """(n*C x C) stack of C x C identities; cached, so read-only."""
    mask = np.tile(np.eye(num_classes), (n, 1))
    mask.setflags(write=False)
    return mask


def _label_mask(n: int, num_classes: int, picks, weights=None) -> np.ndarray:
    """Mask selecting column picks[i] in all C rows of sample i.

    Each row gets weight w_i / C, so masked-sum equals the per-sample
    mean over modulation rows of the picked class's log-score, weighted.
    """
    mask = np.zeros((n * num_classes, num_classes))
    rows = np.arange(n * num_classes)
    cols = np.repeat(np.asarray(picks, dtype=np.int64), num_classes)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    mask[rows, cols] = np.repeat(w / num_classes, num_classes)
    return mask


def _diag_targets(slog_value: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """Per-sample column maxima placed at the diagonal positions.

    Evaluated from the current values and embedded as a constant, so no
    gradient flows through the target side of the gap. The maxima come
    from a (C, n, C) copy reduced along its outer axis, like
    ``autodiff.row_max``; entry (i*C + c, c) is every (C+1)-th entry of
    sample i's C*C block, so they are written through a strided view.
    """
    cube = slog_value.reshape(n, num_classes, num_classes).transpose(1, 0, 2)
    colmax = np.ascontiguousarray(cube).max(axis=0)
    target = np.zeros((n * num_classes, num_classes))
    target.reshape(n, num_classes * num_classes)[:, :: num_classes + 1] = colmax
    return target


def _diag_gap_node(
    slog: Node, n: int, num_classes: int, weights=None, target=None
) -> Node:
    """sum over samples of (optional weight) * MSE(diagonal, column max)."""
    if target is None:
        target = _diag_targets(slog.value, n, num_classes)
    gap = ad.mul(
        ad.sub(slog, Node(target)),
        Node(_block_diag_mask(n, num_classes)),
    )
    sq = ad.mul(gap, gap)
    if weights is None:
        return ad.scale(ad.sum_all(sq), 1.0 / num_classes)
    w = np.repeat(np.asarray(weights, dtype=np.float64), num_classes)
    return ad.masked_sum(
        sq, _block_diag_mask(n, num_classes) * w[:, None], 1.0 / num_classes
    )


def modulated_log_scores(
    model: Model,
    modulation: ModulationMatrix,
    bank: PrototypeBank,
    x,
    mode: str = "train",
    rng: Optional[np.random.Generator] = None,
) -> Node:
    """(n*C x C) log-softmax scores of the modulated pipeline."""
    return ad.row_log_softmax(
        net.class_score_graph(model, modulation.node, bank.blended, x, mode, rng)
    )


def supervised_loss(
    x,
    y: int,
    model: Model,
    modulation: ModulationMatrix,
    bank: PrototypeBank,
    rng: Optional[np.random.Generator] = None,
    mode: str = "train",
):
    """Single-sample supervised term; returns (loss node, log-score node).

    The loss is the negative log-score of the true class averaged over
    all C modulation rows (modulation never changes the label).
    """
    slog = modulated_log_scores(model, modulation, bank, np.atleast_2d(x), mode, rng)
    c = model.num_classes
    return ad.masked_sum(slog, _label_mask(1, c, [int(y)]), -1.0), slog


def diag_max_loss(slog: Node) -> Node:
    """MSE between the diagonal and the (constant) per-column maximum."""
    rows, c = slog.shape
    if rows != c:
        raise ad.DimensionError(f"expected a square log-score matrix, got {slog.shape}")
    return _diag_gap_node(slog, 1, c)


def unsupervised_loss(
    u,
    record: PseudoLabelRecord,
    model: Model,
    modulation: ModulationMatrix,
    bank: PrototypeBank,
    rng: Optional[np.random.Generator] = None,
    mode: str = "train",
):
    """Single-sample unsupervised terms on the strong view.

    Discarded records contribute exact zeros and build no graph.
    """
    if not record.keep:
        return _zero(), _zero()
    slog = modulated_log_scores(model, modulation, bank, np.atleast_2d(u), mode, rng)
    c = model.num_classes
    l_u = ad.masked_sum(slog, _label_mask(1, c, [record.label]), -record.l_scale)
    l_ud = ad.scale(diag_max_loss(slog), record.l_scale)
    return l_u, l_ud


def total_loss(
    labeled_weak: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_strong: np.ndarray,
    records: Sequence[PseudoLabelRecord],
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    beta: float = 1.0,
    gamma: float = 0.5,
    rng: Optional[np.random.Generator] = None,
    mode: str = "fm",
    frozen_targets: Optional[dict] = None,
) -> LossBreakdown:
    """Batch loss; one graph for the labeled view, one for kept strong views."""
    labeled_weak = np.atleast_2d(labeled_weak)
    n_l = labeled_weak.shape[0]
    if n_l == 0:
        raise ValueError("empty batch")
    n_u = len(records)
    c = model.num_classes
    labeled_y = np.asarray(labeled_y, dtype=np.int64)
    frozen = frozen_targets or {}
    used_targets = {"labeled": None, "unlabeled": None}

    if mode == "fm":
        slog = modulated_log_scores(model, modulation, bank, labeled_weak, "train", rng)
        l_s = ad.masked_sum(slog, _label_mask(n_l, c, labeled_y), -1.0 / n_l)
        used_targets["labeled"] = (
            frozen.get("labeled")
            if frozen.get("labeled") is not None
            else _diag_targets(slog.value, n_l, c)
        )
        l_d = ad.scale(
            _diag_gap_node(slog, n_l, c, target=used_targets["labeled"]), 1.0 / n_l
        )
    elif mode == "baseline":
        logits = net.plain_score_graph(model, labeled_weak, "train", rng)
        slog_plain = ad.row_log_softmax(logits)
        mask = np.zeros((n_l, c))
        mask[np.arange(n_l), labeled_y] = 1.0
        l_s = ad.masked_sum(slog_plain, mask, -1.0 / n_l)
        l_d = _zero()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    kept = [i for i, r in enumerate(records) if r.keep]
    if n_u == 0 or not kept:
        l_u, l_ud = _zero(), _zero()
    else:
        strong = np.atleast_2d(unlabeled_strong)[kept]
        labels = [records[i].label for i in kept]
        weights = np.array([records[i].l_scale for i in kept])
        m = len(kept)
        if mode == "fm":
            slog_u = modulated_log_scores(model, modulation, bank, strong, "train", rng)
            l_u = ad.masked_sum(
                slog_u, _label_mask(m, c, labels, weights=weights), -1.0 / n_u
            )
            used_targets["unlabeled"] = (
                frozen.get("unlabeled")
                if frozen.get("unlabeled") is not None
                else _diag_targets(slog_u.value, m, c)
            )
            l_ud = ad.scale(
                _diag_gap_node(
                    slog_u, m, c, weights=weights, target=used_targets["unlabeled"]
                ),
                1.0 / n_u,
            )
        else:
            logits = net.plain_score_graph(model, strong, "train", rng)
            slog_b = ad.row_log_softmax(logits)
            mask = np.zeros((m, c))
            mask[np.arange(m), labels] = weights
            l_u = ad.masked_sum(slog_b, mask, -1.0 / n_u)
            l_ud = _zero()

    total = ad.add(ad.add(l_s, l_u), ad.add(ad.scale(l_d, beta), ad.scale(l_ud, gamma)))
    return LossBreakdown(l_s, l_u, l_d, l_ud, total, beta, gamma, used_targets)
