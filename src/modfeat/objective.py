"""The four-term training loss.

Per sample, the modulated pipeline yields a square log-score matrix: one
log-softmax row per candidate class the features were modulated toward
(R = C rows; see ``network.score_graph``). Four terms are built from it:

  l_s   negative log-score of the true class, averaged over all C
        modulation rows of the weak labeled view: blending features
        toward another class's anchor must not change the label, so
        every row carries the sample's own class as its target
  l_u   the same with the pseudo-label on the strong view, times its
        confidence weight (the ``weight`` of its pseudo-label row)
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
``total_loss`` scores the modulated view if and only if it is given a
fused head, as ``network.score_graph`` does; a training step passes the
head its Monte Carlo passes scored through. Its forward drops units iff
it is given a generator, which a training step always passes.

A step scores the labeled weak view and the kept rows of the strong
view as one stacked batch: one forward pass, one log-softmax, and one
loss node whose hand-written vjp reads and writes only the entries the
terms use: the picked entries (label terms) and the n*C diagonal
entries (gap terms). In the modulated mode the forward ends in the
fused head (``modulator.modulate``): the n*C log-score rows come from
one (n x F) @ (F x C*C) product of the features with a mixing matrix
built from the modulation weights and the classifier, so a step's graph
is the extractor, three head nodes, the log-softmax and the loss node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import network as net
from .autodiff import Node
from .modulator import FusedHead
from .network import Model


@dataclass
class LossBreakdown:
    total: Node
    l_s: float
    l_u: float
    l_d: float
    l_ud: float
    # Gradient-stopped targets actually used for the diagonal-gap terms:
    # the (n_labeled + n_kept, C) column maxima, None without a gap term.
    # A finite-difference check of the loss must re-feed these, otherwise
    # the difference quotient sees the targets move while the analytic
    # gradient (correctly) does not.
    diag_targets: Optional[np.ndarray] = None

    def values(self) -> dict:
        return {
            "l_s": self.l_s,
            "l_u": self.l_u,
            "l_d": self.l_d,
            "l_ud": self.l_ud,
            "total": float(self.total.value[0, 0]),
        }


def _diag_targets(slog_value: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """(n, C) column maxima of each sample's C x C log-score block.

    Taken from the current values and held as a constant, so no gradient
    flows through the target side of the gap. The maxima come from a
    (C, n, C) copy reduced along its outer axis.
    """
    cube = slog_value.reshape(n, num_classes, num_classes).transpose(1, 0, 2)
    return np.maximum.reduce(np.ascontiguousarray(cube), axis=0)


def _loss_node(slog, n_l, picks, weights, n_u, beta, gamma, target):
    """The batch loss as one node over stacked log-scores, and its terms.

    ``slog`` holds R rows per sample: ``n_l`` labeled samples, then the
    kept unlabeled ones with confidence ``weights``; ``picks`` is each
    sample's target class. Labeled terms divide by n_l, unlabeled ones by
    ``n_u``. The gap terms exist when ``target`` (the gradient-stopped
    (n, C) column maxima) is given, which needs R = C.

    Returns (node, {"l_s", "l_u", "l_d", "l_ud"}). The node's value is
    (l_s + l_u) + (l_d * beta + l_ud * gamma). Its vjp writes
    (g * -1/denom) * (w_i / R) into the picked entries and, with
    d = diagonal - target and k = ((g * gain) * (1/denom)) * (1/C),
    2 * ((k * w_i) * d) into the diagonal: the products of the per-view
    chain of scaled and added term nodes, so adjoints match it bit for bit.
    """
    rows, c = slog.value.shape
    n = len(picks)
    r = rows // n
    views = (slice(None, n_l), slice(n_l, None))
    # n_u is 0 only when there are no unlabeled rows to divide.
    inv = (1.0 / n_l, 1.0 / max(n_u, 1))
    inv_row = np.empty((n, 1))
    inv_row[:n_l], inv_row[n_l:] = inv
    w = np.empty((n, 1))
    w[:n_l] = 1.0
    w[n_l:, 0] = weights
    lw = w / r
    at = (np.arange(n), slice(None), np.asarray(picks, dtype=np.int64))
    label = slog.value.reshape(n, r, c)[at] * lw
    terms = {"l_d": 0.0, "l_ud": 0.0}
    for key, v, s in zip(("l_s", "l_u"), views, inv):
        terms[key] = float(np.add.reduce(label[v], axis=None) * -s)
    if target is not None:
        diag = (slice(None), slice(None, None, c + 1))  # of the (n, C*C) reshape
        d = slog.value.reshape(n, c * c)[diag] - target
        gap = w * (d * d)
        for key, v, s in zip(("l_d", "l_ud"), views, inv):
            terms[key] = float(np.add.reduce(gap[v], axis=None) * (1.0 / c) * s)
        gain_row = np.empty((n, 1))
        gain_row[:n_l], gain_row[n_l:] = beta, gamma

    def vjp(g):
        g = g[0, 0]
        out = np.zeros((rows, c))
        out.reshape(n, r, c)[at] = (g * -inv_row) * lw
        if target is not None:
            kd = ((((g * gain_row) * inv_row) * (1.0 / c)) * w) * d
            out.reshape(n, c * c)[diag] += kd + kd
        return (out,)

    value = (terms["l_s"] + terms["l_u"]) + (terms["l_d"] * beta + terms["l_ud"] * gamma)
    return Node(np.array([[value]]), (slog,), vjp), terms


def total_loss(
    labeled_weak: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_strong: np.ndarray,
    pseudo: np.ndarray,
    model: Model,
    head: Optional[FusedHead],
    rng: Optional[np.random.Generator],
    beta: float = 1.0,
    gamma: float = 0.5,
    frozen_targets: Optional[np.ndarray] = None,
) -> LossBreakdown:
    """Batch loss; one graph over the labeled and the kept strong rows.

    ``pseudo`` holds the strong rows' pseudo-labels, a
    ``pseudolabel.PSEUDO_LABELS`` array. With a ``head``
    (``Model.fm_head``) it scores the modulated view and adds the gap
    terms; without one, the unmodulated view. The forward drops units
    iff it is given ``rng``, the step's dropout generator.
    ``frozen_targets`` re-feeds the ``diag_targets`` of an earlier call.
    """
    labeled_weak = np.atleast_2d(labeled_weak)
    n_l = labeled_weak.shape[0]
    if n_l == 0:
        raise ValueError("empty batch")
    keep = pseudo["keep"]
    x = np.concatenate([labeled_weak, np.atleast_2d(unlabeled_strong)[keep]])
    slog = ad.row_log_softmax(net.score_graph(model, head, x, rng))
    target = frozen_targets
    if head is not None and target is None:
        target = _diag_targets(slog.value, x.shape[0], slog.value.shape[1])
    picks = np.concatenate([labeled_y, pseudo["label"][keep]])
    total, terms = _loss_node(
        slog, n_l, picks, pseudo["weight"][keep], len(pseudo), beta, gamma, target
    )
    return LossBreakdown(total, **terms, diag_targets=target)
