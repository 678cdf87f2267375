"""Minimal dense-matrix reverse-mode autodiff engine.

Values are 2-D float64 numpy arrays (row-major). Graphs are built
define-by-run: every op returns a fresh ``Node`` holding the result value
and a vector-Jacobian closure. Leaf nodes (parameters, constants) persist
across steps; interior nodes are rebuilt each step.

Only nodes that lead back to a gradient-requiring leaf (``leaf``, which
parameters use) record a graph: an op on no-grad operands alone (built
from ``constant`` or a plain ``Node``) keeps no parents and no vjp.
Inside a ``no_grad()`` block no op records a graph at all, even on
parameters, so passes that only read values (scoring, evaluation) keep
neither parents nor vjp closures alive. Vjps skip the adjoints of
no-grad operands where that saves work, and ``backward`` stores adjoints
only for nodes that require a gradient. It writes ``.grad`` only on
leaves: an interior node's adjoint lives in a per-call map only until it
has been passed to the node's parents.

The engine holds only the generic ops; the loss terms are nodes of their
own with hand-written vjps (``objective``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ParameterError(ValueError):
    """An op argument is outside its valid range."""


class ContractError(ValueError):
    """An op was called in a way that violates its contract."""


class DeterminismError(RuntimeError):
    """A loss builder produced different values on repeated evaluation."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, validating finiteness."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix contains non-finite entries")
    return a


# False inside ``no_grad()``. Process-wide, like the rest of the engine:
# graphs are built by one thread at a time.
_recording = True


@contextmanager
def no_grad():
    """Build no graph inside the block: op nodes keep no parents or vjp.

    ``leaf`` still makes gradient-requiring leaves. The previous state
    comes back on exit, also after an exception, so blocks nest.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Node:
    """One vertex of the computation graph.

    ``requires_grad`` is set on gradient-requiring leaves and, for an op
    node, whenever any parent has it, except inside ``no_grad()``, where
    an op node never has it. A node without it is a value only: it keeps
    no parents and no vjp, whatever it was built from, so the graph
    behind it is not kept and ``backward`` never reaches it.

    ``grad`` is allocated lazily so no-gradient evaluation passes pay
    nothing for it. ``backward`` accumulates into it on gradient-requiring
    leaves only; interior and no-grad nodes keep ``grad`` unset.
    ``_vjp(g)`` returns one entry per parent: an adjoint array, or None
    for a parent that does not require a gradient.
    """

    __slots__ = ("value", "parents", "_vjp", "_grad", "requires_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: Sequence["Node"] = (),
        vjp: Optional[Callable[[np.ndarray], tuple]] = None,
        requires_grad: bool = False,
    ):
        self.value = value
        self._grad: Optional[np.ndarray] = None
        if _recording and not requires_grad:
            for parent in parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        if requires_grad:
            self.parents = tuple(parents)
            self._vjp = vjp
        else:
            self.parents = ()
            self._vjp = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise DimensionError("grad shape must match value shape")
        self._grad = g

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


def constant(values) -> Node:
    """Validated no-grad leaf: ops on it record no graph and it gets no grad."""
    return Node(as_matrix(values))


def leaf(values) -> Node:
    """Validated gradient-requiring leaf; ``backward`` accumulates its grad."""
    return Node(as_matrix(values), requires_grad=True)


@dataclass
class DualParam:
    """A named learnable parameter: persistent value plus accumulated grad."""

    name: str
    node: Node

    @classmethod
    def create(cls, name: str, values) -> "DualParam":
        return cls(name=name, node=leaf(values))

    @property
    def value(self) -> np.ndarray:
        return self.node.value

    @property
    def grad(self) -> np.ndarray:
        return self.node.grad


def _binary_shapes(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}"
        )


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dims differ {a.value.shape} x {b.value.shape}"
        )
    av, bv = a.value, b.value

    def vjp(g):
        return (
            g @ bv.T if a.requires_grad else None,
            av.T @ g if b.requires_grad else None,
        )

    return Node(av @ bv, (a, b), vjp)


def add_row(a: Node, b: Node) -> Node:
    """Add the (1 x m) row ``b`` to every row of the (n x m) node ``a``.

    The adjoint of ``b`` is the column sum of ``g``, taken as the matmul
    ``ones((n, 1)).T @ g`` so it rounds like the ones-column product
    ``ones((n, 1)) @ b`` this op replaces.
    """
    n, m = a.value.shape
    if b.value.shape != (1, m):
        raise DimensionError(
            f"add_row: cannot add {b.value.shape} to rows of {a.value.shape}"
        )

    def vjp(g):
        return g, np.ones((n, 1)).T @ g

    return Node(a.value + b.value, (a, b), vjp)


def add(a: Node, b: Node) -> Node:
    _binary_shapes(a, b, "add")

    def vjp(g):
        return g, g

    return Node(a.value + b.value, (a, b), vjp)


def mul(a: Node, b: Node) -> Node:
    _binary_shapes(a, b, "mul")
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


def relu(a: Node) -> Node:
    mask = a.value > 0.0

    def vjp(g):
        return (g * mask,)

    return Node(np.where(mask, a.value, 0.0), (a,), vjp)


def sum_all(a: Node) -> Node:
    """Reduce all entries to a 1x1 scalar node."""
    rows, cols = a.value.shape

    def vjp(g):
        return (np.full((rows, cols), g[0, 0]),)

    return Node(np.array([[a.value.sum()]]), (a,), vjp)


def row_max(a: np.ndarray) -> np.ndarray:
    """(n x 1) row maxima of an (n x m) array.

    Reduces a transposed copy along its outer axis: for narrow rows this
    is several times faster than ``a.max(axis=1)``, which pays a per-row
    overhead. Max involves no rounding, so every value is the same as
    ``a.max(axis=1, keepdims=True)`` (nan included); the one exception is
    a row whose maximum is a tie between +0.0 and -0.0, where the sign
    of the zero returned depends on the order of comparison. The
    softmaxes below give the same bits either way: exp(+0) == exp(-0),
    and a tie means two entries of exp 1, so log_z is never 0.
    """
    return np.ascontiguousarray(a.T).max(axis=0)[:, None]


def row_log_softmax(a: Node) -> Node:
    """Per-row log-softmax, stabilized by subtracting the row max."""
    shifted = a.value - row_max(a.value)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - log_z
    probs = np.exp(out)

    def vjp(g):
        return (g - probs * g.sum(axis=1, keepdims=True),)

    return Node(out, (a,), vjp)


def row_softmax(a: np.ndarray) -> np.ndarray:
    """No-gradient per-row softmax on a 2-D float array, stabilized."""
    shifted = a - row_max(a)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def dropout(a: Node, p: float, rng: np.random.Generator, enabled: bool = True) -> Node:
    """Inverted dropout: zero entries w.p. ``p``, scale survivors by 1/(1-p).

    Disabled mode is the exact identity (the input node is returned).
    The mask is captured by the vjp closure for the backward pass.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if not enabled:
        return a
    keep = rng.random(a.value.shape) >= p
    factor = keep / (1.0 - p)

    def vjp(g):
        return (g * factor,)

    return Node(a.value * factor, (a,), vjp)


def _topo_order(root: Node) -> list:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Reverse sweep from a 1x1 loss node, accumulating into leaf ``.grad``.

    Adjoints are collected in a per-call map; an interior node's entry
    is dropped once it has been passed to its parents. At the end each
    reached leaf's adjoint is added to its grad, so repeated calls
    accumulate (callers reset grads between optimizer steps); interior
    nodes get no grad. Adjoints of no-grad parents are skipped, so
    constants get no grad either, and a no-grad loss is a no-op.
    """
    if loss.value.shape != (1, 1):
        raise ContractError(
            f"backward requires a 1x1 loss node, got shape {loss.value.shape}"
        )
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        if not node.parents:
            continue
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        for parent, contrib in zip(node.parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + contrib
            else:
                adjoint[key] = contrib
    for node in order:
        g = adjoint.get(id(node))
        if g is not None:
            node.grad = node.grad + g


@dataclass
class GradCheckReport:
    """Comparison of analytic gradients against central differences."""

    max_rel_error: float
    worst_param: str
    per_param: dict = field(default_factory=dict)
    passed: bool = True
    tolerance: float = 1e-4


def grad_check(
    build_fn: Callable[[], Node],
    params: Sequence[DualParam],
    step: float = 1e-5,
    tolerance: float = 1e-4,
    rel_floor: float = 1e-6,
) -> GradCheckReport:
    """Check every parameter entry of a deterministic scalar loss.

    ``build_fn`` must rebuild the same loss from the current parameter
    values on every call (dropout disabled, or its masks frozen by
    reseeding inside the builder). Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, rel_floor).
    """
    base = build_fn().value[0, 0]
    recheck = build_fn().value[0, 0]
    if base != recheck:
        raise DeterminismError(
            f"build_fn is not deterministic: {base!r} != {recheck!r}"
        )
    if not params:
        return GradCheckReport(0.0, "", {}, True, tolerance)

    for p in params:
        p.node.zero_grad()
    backward(build_fn())
    analytic = {p.name: p.node.grad.copy() for p in params}

    per_param: dict[str, float] = {}
    worst = (0.0, params[0].name)
    for p in params:
        theta = p.node.value
        worst_here = 0.0
        it = np.nditer(theta, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = theta[idx]
            theta[idx] = saved + step
            f_plus = build_fn().value[0, 0]
            theta[idx] = saved - step
            f_minus = build_fn().value[0, 0]
            theta[idx] = saved
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[p.name][idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
            if rel > worst_here:
                worst_here = rel
        per_param[p.name] = worst_here
        if worst_here > worst[0]:
            worst = (worst_here, p.name)
    return GradCheckReport(
        max_rel_error=worst[0],
        worst_param=worst[1],
        per_param=per_param,
        passed=worst[0] < tolerance,
        tolerance=tolerance,
    )
