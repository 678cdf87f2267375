"""Learnable feature modulation, fused with the shared linear head.

A (num_classes x feature_dim) weight matrix blends instance features with
blended prototype anchors, one row per candidate class, before the
shared classifier (weight W, bias b) scores them:

    modulated[c] = weights[c] * z + (1 - weights[c]) * anchors[c]
    logits[c]    = modulated[c] @ W + b

The logits are linear in z, so the blended features are never built:
logits[c] = z @ M_c + k_c with M_c = diag(weights[c]) @ W and
k_c = ((1 - weights[c]) * anchors[c]) @ W + b. ``modulate`` lays the
M_c side by side as one (F x C*K) mixing matrix and scores every
candidate class with one product (see its docstring).

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
from .autodiff import DualParam, Node


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
    """The learnable modulation weights as an optimizer-visible parameter."""

    param: DualParam

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ModulationMatrix":
        return cls(DualParam.create("modulator.weights", values))

    @classmethod
    def ones(cls, num_classes: int, feature_dim: int) -> "ModulationMatrix":
        return cls(DualParam.create("modulator.weights", np.ones((num_classes, feature_dim))))

    @property
    def node(self) -> Node:
        return self.param.node

    @property
    def values(self) -> np.ndarray:
        return self.param.value


def modulate(
    features: Node,
    anchors: np.ndarray,
    weights: Node,
    head_weight: Node,
    head_bias: Node,
) -> Node:
    """Logits of each instance row blended toward every class anchor.

    ``features`` is (n x F), ``weights`` and ``anchors`` (C x F), and the
    head is ``head_weight`` (F x K) with ``head_bias`` (1 x K). The
    result is (n*C x K) with rows grouped per sample: row i*C + c scores
    sample i modulated toward class c, the value of
    ``(weights[c] * z_i + (1 - weights[c]) * anchors[c]) @ W + b`` up to
    rounding. Anchors are a per-step constant; gradients flow to every
    other operand that requires one.

    Three nodes, no (n, C, F) tensor: the (F x C*K) mixing matrix M,
    with M[f, c*K + j] = weights[c, f] * W[f, j]; the engine product
    ``z @ M``; and the head node, which adds the row k, with
    k[c*K + j] = (((1 - weights[c]) * anchors[c]) @ W)[j] + b[j], into
    that product in place and regroups it to (n*C x K). (The product's
    vjp reads only its operands, so its value is free to reuse.) The
    product's vjp gives ``gz = G @ M.T`` and ``gM = z.T @ G`` for the
    (n x C*K) adjoint G; the mixing and head nodes turn ``gM`` and the
    column sums of G into the adjoints of weights, W and b.
    """
    n, feat = features.shape
    num_classes, feat_w = weights.shape
    cols = head_weight.shape[1]
    if (
        anchors.shape != (num_classes, feat)
        or feat_w != feat
        or head_weight.shape[0] != feat
        or head_bias.shape != (1, cols)
    ):
        raise ad.DimensionError(
            f"modulate: features {features.shape}, weights {weights.shape}, "
            f"anchors {anchors.shape}, head {head_weight.shape} + "
            f"{head_bias.shape} are inconsistent"
        )
    a = ad.as_matrix(anchors)
    w, hw = weights.value, head_weight.value
    shift = (1.0 - w) * a

    def mix_vjp(gm):
        g3 = gm.reshape(feat, num_classes, cols)
        gw = np.einsum("fcj,fj->cf", g3, hw) if weights.requires_grad else None
        ghw = np.einsum("fcj,cf->fj", g3, w) if head_weight.requires_grad else None
        return gw, ghw

    mix = Node(
        (w.T[:, :, None] * hw[:, None, :]).reshape(feat, num_classes * cols),
        (weights, head_weight),
        mix_vjp,
    )
    prod = ad.matmul(features, mix)
    out = prod.value
    out += (shift @ hw + head_bias.value).reshape(1, num_classes * cols)

    def head_vjp(g):
        g2 = g.reshape(n, num_classes * cols)
        gk = g2.sum(axis=0).reshape(num_classes, cols)
        gw = (gk @ hw.T) * -a if weights.requires_grad else None
        ghw = shift.T @ gk if head_weight.requires_grad else None
        gb = gk.sum(axis=0, keepdims=True) if head_bias.requires_grad else None
        return g2, gw, ghw, gb

    parents = (prod, weights, head_weight, head_bias)
    return Node(out.reshape(n * num_classes, cols), parents, head_vjp)
