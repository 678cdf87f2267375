"""Run metrics: keep rate, pseudo-label accuracy, modulation diagnostics,
and cross-seed aggregation. Pure functions over immutable inputs; this is
the only module (besides data generation) allowed to look at hidden
ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np


class UnsupportedDiagnosticError(ValueError):
    """The diagnostic needs dimension roles that this dataset lacks."""


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


def modulator_gap(
    weights: np.ndarray, signal_dims, noise_dims
) -> float:
    """Mean modulation weight on signal columns minus noise columns.

    Positive means class-carrying coordinates pass through more than
    domain-carrying ones. Only meaningful when the feature columns
    correspond to known input roles (synthetic data, coordinate-
    preserving extractor).
    """
    if not signal_dims or not noise_dims:
        raise UnsupportedDiagnosticError(
            "dimension roles unknown or empty; the gap needs signal and noise dims"
        )
    weights = np.asarray(weights)
    return float(
        weights[:, list(signal_dims)].mean() - weights[:, list(noise_dims)].mean()
    )


class Stat(NamedTuple):
    """Mean and population std of ``n`` per-seed values."""

    mean: float
    std: float
    n: int


def _stat(values: Sequence[float]) -> Optional[Stat]:
    """The values' Stat; None when there are none."""
    if len(values) == 0:
        return None
    a = np.asarray(values, dtype=np.float64)
    return Stat(float(a.mean()), float(a.std()), len(a))


@dataclass(frozen=True)
class RunSummary:
    seeds: tuple
    target_acc: Stat
    keep_rate: Stat
    pl_acc: Optional[Stat]  # over the seeds whose final epoch kept labels
    modulator_gap: Optional[Stat] = None

    def rows(self) -> list:
        """(metric, mean, std, n_seeds) rows for the aggregate CSV; n_seeds
        counts the values averaged, and absent metrics have no row."""
        names = ("target_acc", "keep_rate", "pl_acc", "modulator_gap")
        return [
            (name, *stat) for name in names if (stat := getattr(self, name)) is not None
        ]


def aggregate(
    seeds: Sequence[int],
    report_series: Sequence[Sequence],
    modulator_gaps: Sequence[float] = (),
) -> RunSummary:
    """Mean and population std of final-epoch metrics across seeds."""
    if not report_series:
        raise ValueError("no report series to aggregate")
    lengths = {len(s) for s in report_series}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent series lengths: {sorted(lengths)}")
    finals = [series[-1] for series in report_series]
    return RunSummary(
        seeds=tuple(seeds),
        target_acc=_stat([r.target_accuracy for r in finals]),
        keep_rate=_stat([r.keep_rate for r in finals]),
        pl_acc=_stat([r.pl_accuracy for r in finals if r.pl_accuracy is not None]),
        modulator_gap=_stat(modulator_gaps),
    )
