"""The four-term training loss.

Per sample, the modulated pipeline yields a square log-score matrix: one
log-softmax row per candidate class the features were modulated toward
(R = C rows; see ``network.score_graph``). Four terms are built from it:

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
zero. The fixed-threshold baseline is the same loss on the unmodulated
R = 1 view: one log-score row per sample, so l_s and l_u are plain
negative log-likelihoods and the diagonal terms do not exist (zero).
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


def _label_mask(
    n: int, rows_per_sample: int, num_classes: int, picks, weights=None
) -> np.ndarray:
    """Mask selecting column picks[i] in all R rows of sample i.

    Each row gets weight w_i / R, so masked-sum equals the per-sample
    mean over score rows of the picked class's log-score, weighted.
    """
    r = rows_per_sample
    w = 1.0 if weights is None else np.asarray(weights, dtype=np.float64)[:, None]
    mask = np.zeros((n, r, num_classes))
    mask[np.arange(n), :, np.asarray(picks, dtype=np.int64)] = w / r
    return mask.reshape(n * r, num_classes)


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


def _view_terms(
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    x: np.ndarray,
    picks,
    weights,
    denom: int,
    rng: Optional[np.random.Generator],
    target: Optional[np.ndarray],
):
    """Label and diagonal-gap terms of one view, each divided by denom.

    Returns (label term, gap term, gap target). The label term is the
    weighted mean over each sample's R score rows of the picked class's
    negative log-score; the gap term and its target exist only when the
    view is modulated (R = C), and ``target`` re-feeds a frozen one.
    """
    n = x.shape[0]
    slog = ad.row_log_softmax(net.score_graph(model, modulation, bank, x, "train", rng))
    rows, c = slog.value.shape
    r = rows // n
    label = ad.masked_sum(slog, _label_mask(n, r, c, picks, weights), -1.0 / denom)
    if bank is None:
        return label, _zero(), None
    if target is None:
        target = _diag_targets(slog.value, n, c)
    gap = _diag_gap_node(slog, n, c, weights=weights, target=target)
    return label, ad.scale(gap, 1.0 / denom), target


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
    """Batch loss; one graph for the labeled view, one for kept strong views.

    ``mode`` is one of ``network.MODES``: ``"fm"`` scores the modulated
    view through ``bank``, ``"fixmatch-baseline"`` the unmodulated one.
    """
    bank = net.view_bank(mode, bank)
    labeled_weak = np.atleast_2d(labeled_weak)
    n_l = labeled_weak.shape[0]
    if n_l == 0:
        raise ValueError("empty batch")
    n_u = len(records)
    frozen = frozen_targets or {}
    used_targets = {}

    l_s, l_d, used_targets["labeled"] = _view_terms(
        model, modulation, bank, labeled_weak, np.asarray(labeled_y, dtype=np.int64),
        None, n_l, rng, frozen.get("labeled"),
    )
    kept = [i for i, r in enumerate(records) if r.keep]
    if n_u == 0 or not kept:
        l_u, l_ud, used_targets["unlabeled"] = _zero(), _zero(), None
    else:
        l_u, l_ud, used_targets["unlabeled"] = _view_terms(
            model, modulation, bank, np.atleast_2d(unlabeled_strong)[kept],
            [records[i].label for i in kept],
            np.array([records[i].l_scale for i in kept]),
            n_u, rng, frozen.get("unlabeled"),
        )

    total = ad.add(ad.add(l_s, l_u), ad.add(ad.scale(l_d, beta), ad.scale(l_ud, gamma)))
    return LossBreakdown(l_s, l_u, l_d, l_ud, total, beta, gamma, used_targets)
