"""Minimal dense-matrix reverse-mode autodiff engine.

Values are 2-D float64 numpy arrays (row-major). Graphs are built
define-by-run: every op returns a fresh ``Node`` holding the result value
and a vector-Jacobian closure. Leaf nodes (parameters, constants) persist
across steps; interior nodes are rebuilt each step.

Only nodes that lead back to a gradient-requiring leaf (``leaf``, which
parameters are) record a graph: an op on no-grad operands alone (built
from ``constant`` or a plain ``Node``) keeps no parents and no vjp.
Inside a ``no_grad()`` block no op records a graph at all, even on
parameters, so passes that only read values (scoring, evaluation) keep
neither parents nor vjp closures alive. Vjps skip the adjoints of
no-grad operands where that saves work, and ``backward`` visits only
nodes that require a gradient: it runs their vjps, and no other. It
returns the gradients of the leaves it reaches, and nodes store none:
an interior node's adjoint lives in a per-call map only until it has
been passed to the node's parents.

The engine holds only the generic ops; the training loss is a node of
its own with a hand-written vjp (``objective``). ``dropout`` is the only
random op, and it is random only when given a generator: a pass drops
units iff its caller hands it one.
"""

from __future__ import annotations

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
    if not np.isfinite(a).all():
        raise ParameterError("matrix contains non-finite entries")
    return a


# False inside ``no_grad()``. Process-wide, like the rest of the engine:
# graphs are built by one thread at a time.
_recording = True


class no_grad:
    """Build no graph inside the block: op nodes keep no parents or vjp.

    ``leaf`` still makes gradient-requiring leaves. The previous state
    comes back on exit, also after an exception, so blocks nest.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> None:
        global _recording
        self._previous, _recording = _recording, False

    def __exit__(self, *exc) -> None:
        global _recording
        _recording = self._previous


class Node:
    """One vertex of the computation graph.

    ``requires_grad`` is set on gradient-requiring leaves and, for an op
    node, whenever any parent has it, except inside ``no_grad()``, where
    an op node never has it. A node without it is a value only: it keeps
    no parents and no vjp, whatever it was built from, so the graph
    behind it is not kept and ``backward`` never reaches it.

    A node holds no gradient: ``backward`` returns them. ``name`` labels
    a parameter (a leaf made by ``leaf``); it is None elsewhere.
    ``_vjp(g)`` returns one entry per parent: an adjoint array, or None
    for a parent that does not require a gradient.
    """

    __slots__ = ("value", "parents", "_vjp", "name", "requires_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: Sequence["Node"] = (),
        vjp: Optional[Callable[[np.ndarray], tuple]] = None,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ):
        self.value = value
        self.name = name
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
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


def constant(values) -> Node:
    """Validated no-grad leaf: ops on it record no graph and it gets no gradient."""
    return Node(as_matrix(values))


def leaf(values, name: Optional[str] = None) -> Node:
    """Validated gradient-requiring leaf: ``backward`` returns its gradient.
    A parameter carries its ``name``."""
    return Node(as_matrix(values), requires_grad=True, name=name)


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


def row_log_softmax(a: Node) -> Node:
    """Per-row log-softmax, stabilized by subtracting the row max.

    Rows are narrow (one entry per class), and numpy's row reductions pay
    a per-row overhead there. So the row maxima and both row sums, the
    normalizer and the vjp's, reduce class-major copies along their outer
    axis, which adds each row's classes left to right at any class count:
    the order of ``pseudolabel``'s confidences. A one-row input is the
    exception: its copy is one contiguous column, which numpy sums as it
    does ``a.sum(axis=1)``, in blocks from 8 classes on.
    """
    v = a.value
    out = v - np.maximum.reduce(np.ascontiguousarray(v.T), axis=0)[:, None]
    out -= np.log(np.add.reduce(np.ascontiguousarray(np.exp(out).T), axis=0)[:, None])
    probs = np.exp(out)

    def vjp(g):
        return (g - probs * np.add.reduce(np.ascontiguousarray(g.T), axis=0)[:, None],)

    return Node(out, (a,), vjp)


def dropout(a: Node, p: float, rng: Optional[np.random.Generator]) -> Node:
    """Inverted dropout: zero entries w.p. ``p``, scale survivors by 1/(1-p).

    A pass drops units iff it is given a generator: without one, or at
    ``p == 0``, the input node is returned and nothing is drawn.
    The factor (0 or 1/(1-p) per entry) is captured by the vjp closure
    for the backward pass. It is the boolean mask times the scalar
    1/(1-p): the bits of dividing the mask by 1 - p (1/(1-p) and 0/(1-p)
    per entry), without numpy's casting division of a bool array.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return a
    keep = rng.random(a.value.shape) >= p
    factor = np.multiply(keep, 1.0 / (1.0 - p))

    def vjp(g):
        return (g * factor,)

    return Node(a.value * factor, (a,), vjp)


def backward(loss: Node) -> dict:
    """Reverse sweep from a 1x1 loss node: each leaf it reaches -> its gradient.

    It visits only nodes that require a gradient, in the reverse of a
    depth-first post-order that pushes each node's parents in order, and
    adds each node's adjoint contributions in that order. Adjoints live
    in a per-call map keyed by node until passed on to the parents; a
    leaf's is complete when the sweep reaches it and goes into the
    returned map. Each call returns fresh arrays and keeps nothing, so
    calls are independent. Constants and interior nodes get no entry,
    and a no-grad loss gives an empty map.
    """
    if loss.value.shape != (1, 1):
        raise ContractError(
            f"backward requires a 1x1 loss node, got shape {loss.value.shape}"
        )
    grads: dict = {}
    if not loss.requires_grad:
        return grads
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for parent in node.parents:
                if parent.requires_grad and parent not in seen:
                    stack.append((parent, False))
    adjoint = {loss: np.ones((1, 1))}
    for node in reversed(order):
        g = adjoint.pop(node, None)
        if g is None:
            continue
        if not node.parents:
            # Returned as g + 0.0: the bits of zeros + g (-0.0 becomes
            # +0.0) without allocating the zeros, in an array of its own.
            grads[node] = g + 0.0
            continue
        for parent, contrib in zip(node.parents, node._vjp(g)):
            if parent.requires_grad:
                prev = adjoint.get(parent)
                adjoint[parent] = contrib if prev is None else prev + contrib
    return grads


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
    params: Sequence[Node],
    step: float = 1e-5,
    tolerance: float = 1e-4,
    rel_floor: float = 1e-6,
) -> GradCheckReport:
    """Check every parameter entry of a deterministic scalar loss.

    ``build_fn`` must rebuild the same loss from the current parameter
    values on every call (no dropout generator, or one reseeded inside
    the builder, which freezes its masks). Relative error per entry is
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

    grads = backward(build_fn())

    per_param: dict[str, float] = {}
    worst = (0.0, params[0].name)
    for p in params:
        theta = p.value
        analytic = grads.get(p, np.zeros_like(theta))
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
            a = analytic[idx]
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
