"""Class prototypes and their similarity-weighted blends.

A prototype is the mean feature vector of a class pooled over all source
domains; blending averages all prototypes, weighted by clamped cosine
similarity to the anchor class. Blended prototypes are the anchors the
feature modulator shifts instance features toward. Everything here is
no-gradient: the bank is recomputed from labeled features once per epoch
and treated as a constant in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EPS = 1e-12


class MissingClassError(ValueError):
    """A class has no labeled features to average."""


class DegeneratePrototypeError(ValueError):
    """A prototype has (numerically) zero norm, so cosine is undefined."""


@dataclass(frozen=True)
class PrototypeBank:
    """Per-epoch snapshot: prototypes, similarity matrix, blended anchors."""

    prototypes: np.ndarray  # (C, F)
    similarity: np.ndarray  # (C, C), symmetric, clamped at 0
    blended: np.ndarray  # (C, F), convex combinations of prototypes
    epoch: int = 0


def compute_prototypes(
    features: np.ndarray, class_ids: np.ndarray, num_classes: int
) -> np.ndarray:
    """Mean feature vector per class, pooled over all domains."""
    features = np.asarray(features, dtype=np.float64)
    out = np.empty((num_classes, features.shape[1]))
    for c in range(num_classes):
        rows = features[class_ids == c]
        if len(rows) == 0:
            raise MissingClassError(f"class {c} has no labeled features")
        out[c] = rows.mean(axis=0)
    return out


def cosine_similarity(prototypes: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, clamped below at 0.

    Negative similarities are clamped so blending weights stay
    nonnegative and the normalizer cannot vanish or flip sign.
    """
    norms = np.linalg.norm(prototypes, axis=1)
    if np.any(norms <= NORM_EPS):
        bad = int(np.argmin(norms))
        raise DegeneratePrototypeError(f"prototype {bad} has zero norm")
    sim = (prototypes @ prototypes.T) / np.outer(norms, norms)
    return np.maximum(sim, 0.0)


def blend_prototypes(prototypes: np.ndarray, similarity: np.ndarray) -> np.ndarray:
    """Similarity-weighted average of all prototypes per anchor class."""
    weights = similarity.sum(axis=1, keepdims=True)
    if np.any(weights <= 0):
        raise DegeneratePrototypeError("a similarity row sums to zero")
    return (similarity @ prototypes) / weights


def build_bank(
    features: np.ndarray, class_ids: np.ndarray, num_classes: int, epoch: int = 0
) -> PrototypeBank:
    """The bank of ``features``; its blended anchors must be finite, since
    every modulated pass reads them until the next bank."""
    prototypes = compute_prototypes(features, class_ids, num_classes)
    similarity = cosine_similarity(prototypes)
    blended = blend_prototypes(prototypes, similarity)
    if not np.isfinite(blended).all():
        raise DegeneratePrototypeError(
            f"epoch {epoch}: blended prototypes are not finite"
        )
    return PrototypeBank(prototypes, similarity, blended, epoch)
