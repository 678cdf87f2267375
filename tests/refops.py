"""Ops that only the tests' dense reference chains use.

Training never runs them, so they live here rather than in the engine.
The graph ops follow the engine's conventions: a fresh ``Node`` per
call, the graph recorded only when an operand requires a gradient, and
no adjoint computed for an operand that does not. ``row_softmax`` is
the full softmax whose read entries ``pseudolabel.predict_matrices``
computes. ``weak_augment``/``strong_augment`` are ``data.Augmenter``'s
draws in their ``rng.normal(size=...)`` form, which its
``rng.standard_normal`` draws must repeat bit for bit.
"""

import numpy as np

from modfeat.autodiff import DimensionError, Node, row_max


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}"
        )


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")

    def vjp(g):
        return g, g

    return Node(a.value + b.value, (a, b), vjp)


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")
    av, bv = a.value, b.value

    def vjp(g):
        return (
            g * bv if a.requires_grad else None,
            g * av if b.requires_grad else None,
        )

    return Node(av * bv, (a, b), vjp)


def scale(a: Node, c: float) -> Node:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return Node(a.value * c, (a,), vjp)


def row_softmax(a: np.ndarray) -> np.ndarray:
    """No-gradient per-row softmax on a 2-D float array, stabilized."""
    shifted = a - row_max(a)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def weak_augment(aug, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if aug.weak_scale == 0.0:
        return x.copy()
    return x + rng.normal(size=x.shape) * (aug.weak_scale * aug.feature_std)


def strong_augment(aug, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = x + rng.normal(size=x.shape) * (aug.strong_scale * aug.feature_std)
    n, dim = out.shape
    n_mask = int(aug.mask_fraction * dim)
    if n_mask > 0:
        cols = np.argsort(rng.random((n, dim)), axis=1)[:, :n_mask]
        out[np.arange(n)[:, None], cols] = 0.0
    return out
