"""Ops that only the tests' dense reference chains use.

Training never runs them, so they live here rather than in the engine.
The graph ops follow the engine's conventions: a fresh ``Node`` per
call, the graph recorded only when an operand requires a gradient, and
no adjoint computed for an operand that does not. ``row_softmax`` is
the full softmax whose read entries ``pseudolabel.predict_matrices``
computes.
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
