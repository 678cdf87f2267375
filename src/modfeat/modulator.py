"""Learnable feature modulation.

A (num_classes x feature_dim) weight matrix blends instance features with
blended prototype anchors, one row per candidate class:

    modulated[c] = weights[c] * z + (1 - weights[c]) * anchors[c]

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
    def from_variance(
        cls, features: np.ndarray, class_ids: np.ndarray, num_classes: int
    ) -> "ModulationMatrix":
        return cls(DualParam.create("modulator.weights", variance_init(features, class_ids, num_classes)))

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

    @property
    def shape(self) -> tuple:
        return self.param.value.shape


def modulate(features: Node, anchors: np.ndarray, weights: Node) -> Node:
    """Blend each instance feature row toward every class anchor.

    ``features`` is (n x F); the result is (n*C x F) with rows grouped
    per sample: row i*C + c modulates sample i toward class c. With a
    single input row this is exactly the per-sample contract. Anchors
    are a per-step constant; gradients flow to whichever of features and
    weights requires one (the vjp skips the other's adjoint).

    The blend is one broadcast graph node over an (n, C, F) view, so
    time and memory are O(n*C*F); its vjp sums the output adjoint over
    the class axis for ``features`` and over the sample axis for
    ``weights``. The forward writes the anchor term into the product
    ``w * z`` in place, and the weights adjoint subtracts ``g * a`` from
    ``g * z`` in place: every element gets the same two products and one
    sum or difference as the plain expressions, with one (n, C, F)
    temporary fewer.
    """
    n, feat = features.shape
    num_classes, feat_w = weights.shape
    if anchors.shape != (num_classes, feat) or feat_w != feat:
        raise ad.DimensionError(
            f"modulate: features {features.shape}, weights {weights.shape}, "
            f"anchors {anchors.shape} are inconsistent"
        )
    a = ad.as_matrix(anchors)[None]
    z, w = features.value[:, None, :], weights.value
    out = w[None] * z
    out += (1.0 - w)[None] * a

    def vjp(g):
        g3 = g.reshape(n, num_classes, feat)
        gz = gw = None
        if features.requires_grad:
            gz = g3 * w[None]
            # BLAS sums a one-row product in its own order; keep that order so
            # single-row batches round as the dense (n*C x n) formulation did.
            gz = np.ones((1, num_classes)) @ gz[0] if n == 1 else gz.sum(axis=1)
        if weights.requires_grad:
            t = g3 * z
            t -= g3 * a
            gw = t.sum(axis=0)
        return gz, gw

    return Node(out.reshape(n * num_classes, feat), (features, weights), vjp)
