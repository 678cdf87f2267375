"""Run metrics: keep rate, pseudo-label accuracy, modulation diagnostics,
and cross-seed aggregation. Pure functions over immutable inputs; this is
the only module (besides data generation) allowed to look at hidden
ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class UnsupportedDiagnosticError(ValueError):
    """The diagnostic needs dimension roles that this dataset lacks."""


def keep_rate(records: Sequence) -> float:
    if not records:
        raise ValueError("keep_rate of an empty record list is undefined")
    return sum(1 for r in records if r.keep) / len(records)


def pl_accuracy(records: Sequence, true_classes: Sequence) -> Optional[float]:
    """Accuracy of kept pseudo-labels against hidden truth.

    Returns None (absent) when nothing was kept; early epochs can keep
    nothing and a hard 0 would distort averages.
    """
    if len(records) != len(true_classes):
        raise ValueError("records and truth lengths differ")
    kept = [(r.label, int(t)) for r, t in zip(records, true_classes) if r.keep]
    if not kept:
        return None
    return sum(1 for label, t in kept if label == t) / len(kept)


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


@dataclass(frozen=True)
class RunSummary:
    seeds: tuple
    target_acc_mean: float
    target_acc_std: float
    keep_rate_mean: float
    keep_rate_std: float
    pl_acc_mean: Optional[float]
    pl_acc_std: Optional[float]
    modulator_gap_mean: Optional[float] = None

    def rows(self) -> list:
        """(metric, mean, std, n_seeds) rows for the aggregate CSV."""
        n = len(self.seeds)
        out = [
            ("target_acc", self.target_acc_mean, self.target_acc_std, n),
            ("keep_rate", self.keep_rate_mean, self.keep_rate_std, n),
        ]
        if self.pl_acc_mean is not None:
            out.append(("pl_acc", self.pl_acc_mean, self.pl_acc_std, n))
        if self.modulator_gap_mean is not None:
            out.append(("modulator_gap", self.modulator_gap_mean, 0.0, n))
        return out


def aggregate(
    seeds: Sequence[int],
    report_series: Sequence[Sequence],
    modulator_gaps: Optional[Sequence[float]] = None,
) -> RunSummary:
    """Mean and population std of final-epoch metrics across seeds."""
    if not report_series:
        raise ValueError("no report series to aggregate")
    lengths = {len(s) for s in report_series}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent series lengths: {sorted(lengths)}")
    finals = [series[-1] for series in report_series]
    accs = np.array([r.target_accuracy for r in finals])
    keeps = np.array([r.keep_rate for r in finals])
    pls = [r.pl_accuracy for r in finals if r.pl_accuracy is not None]
    return RunSummary(
        seeds=tuple(seeds),
        target_acc_mean=float(accs.mean()),
        target_acc_std=float(accs.std()),
        keep_rate_mean=float(keeps.mean()),
        keep_rate_std=float(keeps.std()),
        pl_acc_mean=float(np.mean(pls)) if pls else None,
        pl_acc_std=float(np.std(pls)) if pls else None,
        modulator_gap_mean=(
            float(np.mean(modulator_gaps)) if modulator_gaps is not None else None
        ),
    )
