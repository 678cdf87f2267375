"""Run metrics: keep rate, pseudo-label accuracy, the modulator gap and
per-column statistics across seeds, as pure functions over immutable
inputs; and ``write_csv``, the one writer of every run CSV. Hidden
ground truth reaches these functions only as an argument: the trainer
reads ``Split.unlabeled_truth`` once per epoch, at the pool positions
its batches drew, for ``pl_accuracy`` and the pseudo-label log, and no
training step reads it. Which feature columns carry signal is the
caller's to say: ``modulator_gap`` takes their count."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def keep_rate(keep) -> float:
    """Fraction of pseudo-labels kept, from their ``keep`` flags."""
    keep = np.asarray(keep, dtype=bool)
    if keep.size == 0:
        raise ValueError("keep_rate of an empty keep array is undefined")
    return int(np.count_nonzero(keep)) / keep.size


def pl_accuracy(labels, keep, true_classes) -> Optional[float]:
    """Accuracy of kept pseudo-labels against hidden truth; the three
    arrays are aligned, one entry per pseudo-labeled sample.

    Returns None (absent) when nothing was kept; early epochs can keep
    nothing and a hard 0 would distort averages.
    """
    labels, truth = np.asarray(labels), np.asarray(true_classes)
    keep = np.asarray(keep, dtype=bool)
    if not labels.shape == keep.shape == truth.shape:
        raise ValueError("labels, keep and truth lengths differ")
    kept = int(np.count_nonzero(keep))
    if not kept:
        return None
    return int(np.count_nonzero(labels[keep] == truth[keep])) / kept


def modulator_gap(weights: np.ndarray, signal_dim: int) -> float:
    """Mean modulation weight on the first ``signal_dim`` columns (signal)
    minus the rest (noise).

    Positive means class-carrying coordinates pass through more than
    domain-carrying ones. Only meaningful when the feature columns are
    the input's, signal first (synthetic data, identity extractor), and
    both blocks are non-empty. The columns are taken by index arrays, not
    slices: the means of their copies carry the bits of ``summary.csv``.
    """
    weights = np.asarray(weights)
    cols = np.arange(weights.shape[1])
    return float(
        weights[:, cols[:signal_dim]].mean() - weights[:, cols[signal_dim:]].mean()
    )


def cell(v) -> str:
    """One CSV cell: empty for None, else ``str(v)``. On a Python float
    (as ``tolist()`` gives) that is its ``repr``, the shortest text that
    reads back to the same float64."""
    return "" if v is None else str(v)


def write_csv(path, rows) -> None:
    """Write ``rows`` (the header first) as comma-joined cells, LF endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def column_stats(names: Sequence[str], rows: Sequence[Sequence]) -> list:
    """(name, mean, population std, count) of each column's non-None
    values, in ``names`` order; a column with no values has no entry."""
    stats = []
    for name, column in zip(names, zip(*rows)):
        values = [v for v in column if v is not None]
        if values:
            a = np.asarray(values, dtype=np.float64)
            stats.append((name, float(a.mean()), float(a.std()), len(values)))
    return stats
