"""Learnable feature modulation, fused with the shared linear head.

A (num_classes x feature_dim) weight matrix blends instance features with
blended prototype anchors, one row per candidate class, before the
shared classifier (weight W, bias b) scores them:

    modulated[c] = weights[c] * z + (1 - weights[c]) * anchors[c]
    logits[c]    = modulated[c] @ W + b

The logits are linear in z, so the blended features are never built:
logits[c] = z @ M_c + k_c with M_c = diag(weights[c]) @ W and
k_c = ((1 - weights[c]) * anchors[c]) @ W + b. A ``FusedHead`` lays the
M_c side by side as one (F x C*K) mixing matrix next to the k_c, and
``modulate`` scores every candidate class with one product of the
features with it (see its docstring). Neither M nor k depends on the
features, so a training step builds its head once and shares it: the
Monte Carlo passes of the pseudo-label gate and the loss forward read
the same head.

Weights are initialized from per-class feature variance so coordinates
that vary a lot inside a class (domain-carrying coordinates) start close
to 0 and get mostly replaced by the anchor value, while stable
coordinates pass through. Entries are unconstrained during training; the
variance structure is an initialization, not a projection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node


class VarianceUndefinedError(ValueError):
    """A class has fewer than two labeled features, so variance is undefined."""


def variance_init(
    features: np.ndarray, class_ids: np.ndarray, num_classes: int
) -> np.ndarray:
    """Initial modulation weights from per-class population variance.

    The matrix is 1 minus the min-max rescaled variance (global scalar
    min/max over all classes and coordinates): the globally most variable
    coordinate starts at 0, the least variable at 1. A constant-variance
    matrix degenerates to all-ones with a warning.
    """
    features = np.asarray(features, dtype=np.float64)
    variances = np.empty((num_classes, features.shape[1]))
    for c in range(num_classes):
        rows = features[class_ids == c]
        if len(rows) < 2:
            raise VarianceUndefinedError(
                f"class {c} has {len(rows)} labeled features, need >= 2"
            )
        variances[c] = rows.var(axis=0)
    lo, hi = variances.min(), variances.max()
    if hi == lo:
        warnings.warn(
            "all per-class feature variances are equal; "
            "modulation weights initialized to ones"
        )
        return np.ones_like(variances)
    return 1.0 - (variances - lo) / (hi - lo)


@dataclass
class ModulationMatrix:
    """The learnable modulation weights: ``param``, a named leaf node the
    optimizer steps."""

    param: Node

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ModulationMatrix":
        return cls(ad.leaf(values, "modulator.weights"))

    @classmethod
    def ones(cls, num_classes: int, feature_dim: int) -> "ModulationMatrix":
        return cls.from_values(np.ones((num_classes, feature_dim)))

    @property
    def values(self) -> np.ndarray:
        return self.param.value


class FusedHead:
    """The part of the fused head that does not depend on the features.

    Holds the anchors, the shift ``(1 - weights) * anchors``, the
    (F x C*K) mixing node M with M[f, c*K + j] = weights[c, f] * W[f, j],
    and the row k, with k[c*K + j] = (shift[c] @ W)[j] + b[j]. Its values
    are taken from the parameters when it is built, so one head serves
    every ``modulate`` call until the parameters next change: a training
    step shares it between the Monte Carlo passes and the loss forward.
    The mixing node records its graph when built outside ``no_grad()``,
    so build the head in the grad mode of the pass that backpropagates.
    """

    __slots__ = ("weights", "head_weight", "head_bias", "anchors", "shift", "mix", "k")

    def __init__(
        self, anchors: np.ndarray, weights: Node, head_weight: Node, head_bias: Node
    ):
        """``weights`` and ``anchors`` are (C x F), ``head_weight`` (F x K)
        and ``head_bias`` (1 x K). The anchors are a bank's blended
        prototypes, which ``prototypes.build_bank`` and checkpoint loading
        have checked to be finite."""
        w, hw, hb = weights.value, head_weight.value, head_bias.value
        (num_classes, feat), cols = w.shape, hw.shape[1]
        if (
            np.shape(anchors) != (num_classes, feat)
            or hw.shape[0] != feat
            or hb.shape != (1, cols)
        ):
            raise ad.DimensionError(
                f"fused head: weights {w.shape}, anchors {np.shape(anchors)}, "
                f"head {hw.shape} + {hb.shape} are inconsistent"
            )
        shift = (1.0 - w) * anchors

        def mix_vjp(gm):
            g3 = gm.reshape(feat, num_classes, cols)
            gw = np.einsum("fcj,fj->cf", g3, hw) if weights.requires_grad else None
            ghw = np.einsum("fcj,cf->fj", g3, w) if head_weight.requires_grad else None
            return gw, ghw

        self.weights, self.head_weight, self.head_bias = weights, head_weight, head_bias
        self.anchors, self.shift = anchors, shift
        self.mix = Node(
            (w.T[:, :, None] * hw[:, None, :]).reshape(feat, num_classes * cols),
            (weights, head_weight),
            mix_vjp,
        )
        self.k = (shift @ hw + hb).reshape(1, num_classes * cols)


def modulate(features: Node, head: FusedHead) -> Node:
    """Logits of each instance row blended toward every class anchor.

    ``features`` is (n x F) and ``head`` a ``FusedHead`` over C classes
    and K outputs. The result is (n*C x K) with rows grouped per sample:
    row i*C + c scores sample i modulated toward class c, the value of
    ``(weights[c] * z_i + (1 - weights[c]) * anchors[c]) @ W + b`` up to
    rounding. Anchors are a per-step constant; gradients flow to every
    other operand that requires one.

    Two nodes per call, no (n, C, F) tensor: the engine product
    ``z @ M`` with the head's mixing node, and the head node, which adds
    the head's row k into that product in place and regroups it to
    (n*C x K). (The product's vjp reads only its operands, so its value
    is free to reuse.) The product's vjp gives ``gz = G @ M.T`` and
    ``gM = z.T @ G`` for the (n x C*K) adjoint G; the mixing and head
    nodes turn ``gM`` and the column sums of G into the adjoints of
    weights, W and b.
    """
    weights, head_weight, head_bias = head.weights, head.head_weight, head.head_bias
    a, shift, hw = head.anchors, head.shift, head_weight.value
    (n, feat), (num_classes, width), cols = features.value.shape, a.shape, hw.shape[1]
    if feat != width:
        raise ad.DimensionError(
            f"modulate: features {features.value.shape} do not fit a head over "
            f"{width} features"
        )
    prod = ad.matmul(features, head.mix)
    out = prod.value
    out += head.k

    def head_vjp(g):
        g2 = g.reshape(n, num_classes * cols)
        gk = np.add.reduce(g2, axis=0).reshape(num_classes, cols)
        gw = (gk @ hw.T) * -a if weights.requires_grad else None
        ghw = shift.T @ gk if head_weight.requires_grad else None
        gb = np.add.reduce(gk, 0, keepdims=True) if head_bias.requires_grad else None
        return g2, gw, ghw, gb

    parents = (prod, weights, head_weight, head_bias)
    return Node(out.reshape(n * num_classes, cols), parents, head_vjp)
