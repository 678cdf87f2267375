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

Each view's terms are two graph nodes on its log-scores, each with a
hand-written vjp that reads and writes only the entries it uses: the
picked entries (label term) and the n*C diagonal entries (gap term).
"""

from __future__ import annotations

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
    # Gradient-stopped targets actually used for the diagonal-gap terms:
    # (n, C) column maxima, keyed "labeled"/"unlabeled" (None where a view
    # has no gap term). A finite-difference check of the loss
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


def _label_node(slog: Node, n: int, picks, weights, denom: int) -> Node:
    """-(1/denom) * sum_i (w_i / R) * sum_r slog[i*R + r, pick_i].

    Reads only the n*R picked entries. ``weights`` None means w_i = 1.
    The vjp writes (g * -1/denom) * (w_i / R) into them: the products of
    the dense-mask formulation, so adjoints match it bit for bit.
    """
    rows, c = slog.value.shape
    r = rows // n
    at = (np.arange(n), slice(None), np.asarray(picks, dtype=np.int64))
    w = (1.0 if weights is None else np.asarray(weights, float)[:, None]) / r
    scale = -1.0 / denom

    def vjp(g):
        out = np.zeros((rows, c))
        out.reshape(n, r, c)[at] = (g * scale)[0, 0] * w
        return (out,)

    picked = slog.value.reshape(n, r, c)[at]
    return Node(np.array([[(picked * w).sum() * scale]]), (slog,), vjp)


def _diag_targets(slog_value: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """(n, C) column maxima of each sample's C x C log-score block.

    Taken from the current values and held as a constant, so no gradient
    flows through the target side of the gap. The maxima come from a
    (C, n, C) copy reduced along its outer axis, like ``autodiff.row_max``.
    """
    cube = slog_value.reshape(n, num_classes, num_classes).transpose(1, 0, 2)
    return np.ascontiguousarray(cube).max(axis=0)


def _gap_node(slog: Node, n: int, weights, denom: int, target: np.ndarray) -> Node:
    """(1/denom) * sum_i w_i * mean_c (slog[i*C + c, c] - target[i, c])**2.

    Reads only the n*C diagonal entries; ``target`` is gradient-stopped.
    With d = diagonal - target and k = ((g / denom) / C), the vjp writes
    2 * ((k * w_i) * d) into the diagonal, as the dense formulation does.
    """
    rows, c = slog.value.shape
    diag = (slice(None), slice(None, None, c + 1))  # of the (n, C*C) reshape
    d = slog.value.reshape(n, c * c)[diag] - target
    w = 1.0 if weights is None else np.asarray(weights, float)[:, None]

    def vjp(g):
        kd = (((g * (1.0 / denom)) * (1.0 / c))[0, 0] * w) * d
        out = np.zeros((rows, c))
        out.reshape(n, c * c)[diag] = kd + kd
        return (out,)

    value = (w * (d * d)).sum() * (1.0 / c) * (1.0 / denom)
    return Node(np.array([[value]]), (slog,), vjp)


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
    negative log-score; the gap term and its (n, C) target exist only
    when the view is modulated (R = C), and ``target`` re-feeds a frozen
    one.
    """
    n = x.shape[0]
    slog = ad.row_log_softmax(net.score_graph(model, modulation, bank, x, "train", rng))
    label = _label_node(slog, n, picks, weights, denom)
    if bank is None:
        return label, _zero(), None
    if target is None:
        target = _diag_targets(slog.value, n, slog.value.shape[1])
    return label, _gap_node(slog, n, weights, denom, target), target


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
    if not kept:
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
