"""Ops that only the tests' dense reference chains use.

Training never runs them, so they live here rather than in the engine.
The graph ops follow the engine's conventions: a fresh ``Node`` per
call, the graph recorded only when an operand requires a gradient, and
no adjoint computed for an operand that does not. ``topo_backward`` is
``autodiff.backward`` in its earlier form: a sweep over the full
depth-first order of ``topo_order``, constants included, with adjoints
keyed by ``id``; the engine's sweep must add adjoints in its order, bit
for bit. ``row_softmax`` is the full softmax whose read entries
``pseudolabel.predict_matrices`` computes below 8 classes;
``left_to_right_softmax`` is the one whose entries it computes, in both
modes, at any class count, and ``left_to_right_log_softmax`` is
``autodiff.row_log_softmax``'s value and vjp in the same order.
``one_copy_confidences`` is ``predict_matrices``'s softmax in its earlier
form, on one class-major copy of all the logits; its blocks must repeat
it bit for bit.
``weak_augment``/``strong_augment`` are ``data.Augmenter``'s views
drawn one call at a time, in their ``rng.normal(size=...)`` form,
and ``per_step_batches`` is ``data.BatchIterator.epoch`` one step at a
time: the block path must repeat both bit for bit. ``save_csv`` is
``data.save_csv`` in its ``csv.writer`` form, which the bulk writer must
repeat byte for byte. ``write_summary``, ``write_aggregate``,
``dump_matrix`` and ``pl_log_row`` are the run files' earlier writers
(``csv.writer`` rows, a per-metric ``aggregate`` and an f-string per
pseudo-label row); ``metrics.write_csv`` must repeat their bytes.
"""

import csv

import numpy as np

from modfeat import data
from modfeat.autodiff import DimensionError, Node
from modfeat.data import _ShuffledCycler


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


def topo_order(root: Node) -> list:
    """Every node reachable from ``root``, each after its parents."""
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


def topo_backward(loss: Node) -> dict:
    """``autodiff.backward`` as a reverse sweep over ``topo_order``: the
    same map from each reached leaf to its gradient."""
    if not loss.requires_grad:
        return {}
    order = topo_order(loss)
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
    return {node: adjoint[id(node)] + 0.0 for node in order if id(node) in adjoint}


def row_max(a: np.ndarray) -> np.ndarray:
    """(n x 1) row maxima."""
    return a.max(axis=1, keepdims=True)


def left_to_right_sum(a: np.ndarray) -> np.ndarray:
    """(n x 1) row sums, each taken one column at a time, left to right
    from +0.0 (so a row of -0.0 sums to +0.0): the order of
    numpy's column sums of a class-major copy, and of
    ``autodiff.one_column_sum`` of a one-row one, at any width."""
    total = np.zeros(len(a))
    for j in range(a.shape[1]):
        total += a[:, j]
    return total[:, None]


def row_softmax(a: np.ndarray) -> np.ndarray:
    """No-gradient per-row softmax on a 2-D float array, stabilized."""
    shifted = a - row_max(a)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def left_to_right_softmax(a: np.ndarray) -> np.ndarray:
    """``row_softmax`` with ``left_to_right_sum`` row sums."""
    e = np.exp(a - row_max(a))
    return e / left_to_right_sum(e)


def left_to_right_log_softmax(a: np.ndarray, g: np.ndarray) -> tuple:
    """The log-softmax of ``a`` and its vjp of the adjoint ``g``, with
    ``left_to_right_sum`` row sums."""
    out = a - row_max(a)
    out = out - np.log(left_to_right_sum(np.exp(out)))
    return out, g - np.exp(out) * left_to_right_sum(g)


def one_copy_confidences(logits: np.ndarray, modulated: bool) -> np.ndarray:
    """(n x C) confidences from a pass's (n*C x C) logits when
    ``modulated``, else its (n x C) ones, with the softmax on one
    class-major copy of them all, each row's classes added left to right."""
    c = logits.shape[1]
    logits = np.ascontiguousarray(logits.T)
    logits -= np.maximum.reduce(logits, axis=0)
    np.exp(logits, out=logits)
    total = left_to_right_sum(logits.T)[:, 0]
    if not modulated:
        logits /= total
        return np.ascontiguousarray(logits.T)
    diagonal = logits.reshape(c, -1, c).diagonal(axis1=0, axis2=2)
    return diagonal / total.reshape(-1, c)


def weak_augment(aug, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return x + rng.normal(size=x.shape) * (data.WEAK_SCALE * aug.feature_std)


def strong_augment(aug, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = x + rng.normal(size=x.shape) * (data.STRONG_SCALE * aug.feature_std)
    n, dim = out.shape
    n_mask = int(data.MASK_FRACTION * dim)
    if n_mask > 0:
        cols = np.argsort(rng.random((n, dim)), axis=1)[:, :n_mask]
        out[np.arange(n)[:, None], cols] = 0.0
    return out


def per_step_batches(split, per_domain_labeled, per_domain_unlabeled, seed,
                     aug, aug_rng, epochs):
    """``epochs`` epochs of ``BatchIterator(split, ..., seed)`` drawn a step
    at a time: per step, one labeled take per source domain and one
    unlabeled take, then the weak labeled, weak unlabeled and strong
    views in that order from ``aug_rng``.

    Returns each step's (weak labeled, labels, weak unlabeled, strong
    unlabeled, truths, pool positions) and the cyclers, labeled ones in
    source-domain order and the unlabeled one last.
    """
    rng = np.random.default_rng(seed)
    labeled = []
    for d in split.source_domains:
        idx = np.flatnonzero(split.labeled_domains == d)
        cycler = _ShuffledCycler(len(idx), np.random.default_rng(rng.integers(2**63)))
        labeled.append((idx, cycler))
    pool = _ShuffledCycler(
        len(split.unlabeled_x), np.random.default_rng(rng.integers(2**63))
    )
    per_batch = len(split.source_domains) * per_domain_unlabeled
    steps = -(-len(split.unlabeled_x) // per_batch)
    out = []
    for _ in range(epochs * steps):
        lab = np.concatenate(
            [idx[cycler.take(per_domain_labeled)] for idx, cycler in labeled]
        )
        unl = pool.take(per_batch)
        x_u = split.unlabeled_x[unl]
        weak_l = weak_augment(aug, split.labeled_x[lab], aug_rng)
        weak_u = weak_augment(aug, x_u, aug_rng)
        strong_u = strong_augment(aug, x_u, aug_rng)
        out.append((weak_l, split.labeled_y[lab], weak_u, strong_u,
                    split.unlabeled_truth[unl], unl))
    return out, [cycler for _, cycler in labeled] + [pool]


def save_csv(dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["domain_id", "class_id"] + [f"f{j}" for j in range(dataset.input_dim)]
        )
        for i in range(len(dataset)):
            writer.writerow(
                [int(dataset.domain_ids[i]), int(dataset.class_ids[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def write_summary(path, runs) -> None:
    """summary.csv from ``cli.SeedRun``s."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "target_acc", "keep_rate", "pl_acc", "modulator_gap"])
        for seed, result, gap in runs:
            final = result.reports[-1]
            row = (final.target_accuracy, final.keep_rate, final.pl_accuracy, gap)
            writer.writerow([seed, *("" if v is None else repr(v) for v in row)])


def aggregate(runs) -> list:
    """(metric, mean, std, n_seeds) of the final epochs' values; pl_acc
    over the seeds that kept labels, and a metric with no values has no
    row."""
    finals = [run.result.reports[-1] for run in runs]
    columns = {
        "target_acc": [r.target_accuracy for r in finals],
        "keep_rate": [r.keep_rate for r in finals],
        "pl_acc": [r.pl_accuracy for r in finals if r.pl_accuracy is not None],
        "modulator_gap": [
            run.modulator_gap for run in runs if run.modulator_gap is not None
        ],
    }
    rows = []
    for name, values in columns.items():
        if values:
            a = np.asarray(values, dtype=np.float64)
            rows.append((name, float(a.mean()), float(a.std()), len(a)))
    return rows


def write_aggregate(path, runs) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "mean", "std", "n_seeds"])
        for name, mean, std, n in aggregate(runs):
            writer.writerow([name, repr(mean), repr(std), n])


def dump_matrix(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def pl_log_row(epoch, idx, record, truth) -> str:
    """One pseudo_labels.csv line (no newline): a pseudo-label array row
    at pool position ``idx`` whose true class is ``truth``."""
    label, p_max, sigma, keep, weight = record.tolist()
    return (
        f"{epoch},{idx},{label},{p_max!r},{sigma!r},"
        f"{int(keep)},{weight!r},{truth}"
    )
