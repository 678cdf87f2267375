"""Multi-domain datasets: synthetic generation, CSV I/O, splits, batching.

Synthetic data places class means on dedicated signal coordinates and a
per-domain bias (plus a small per-domain-per-class jitter) on dedicated
noise coordinates, so the noise block carries domain information that is
spuriously class-correlated inside each source domain but useless on an
unseen domain.

Domain ids of unlabeled samples are deliberately absent from split
outputs: training consumes the unlabeled pool without domain identity.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np


class GenerationError(RuntimeError):
    """Rejection sampling could not satisfy the class separation."""


class ParseError(ValueError):
    """A CSV row could not be parsed; message names the line."""


class SchemaError(ValueError):
    """The CSV file does not follow the expected schema."""


class SplitError(ValueError):
    """The requested split cannot be satisfied by the dataset."""


@dataclass
class DomainDataset:
    features: np.ndarray  # (n, input_dim) float64
    class_ids: np.ndarray  # (n,) int
    domain_ids: np.ndarray  # (n,) int
    num_classes: int
    num_domains: int
    signal_dims: Optional[tuple] = None  # known only for synthetic data
    noise_dims: Optional[tuple] = None

    def __post_init__(self):
        n = len(self.features)
        if len(self.class_ids) != n or len(self.domain_ids) != n:
            raise SchemaError("features and id arrays must have equal length")

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.features)

    def cell_counts(self) -> np.ndarray:
        """(num_domains x num_classes) sample count of each cell."""
        cells = self.domain_ids * self.num_classes + self.class_ids
        return np.bincount(
            cells, minlength=self.num_domains * self.num_classes
        ).reshape(self.num_domains, self.num_classes)


@dataclass(frozen=True)
class SplitPlan:
    target_domain: int
    labels_per_class: int
    seed: int = 0


@dataclass
class Split:
    """Leave-one-domain-out split.

    The unlabeled pool is the union of all source samples (labels
    stripped); ``unlabeled_truth`` exists solely for metric computation.
    Unlabeled domain ids are not exposed at all.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    labeled_domains: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_truth: np.ndarray  # metrics only, never a training input
    test_x: np.ndarray
    test_y: np.ndarray
    source_domains: tuple


def check_synthetic(
    num_classes: int,
    num_domains: int,
    signal_dim: int,
    noise_dim: int,
    samples_per_class_per_domain: int,
    class_sep: float,
    domain_shift: float,
    bias_jitter: float,
) -> None:
    """Raise ValueError unless ``generate_synthetic`` can use these settings."""
    if min(num_classes, num_domains, signal_dim, samples_per_class_per_domain) < 1:
        raise ValueError(
            "num_classes, num_domains, signal_dim and "
            "samples_per_class_per_domain must be >= 1"
        )
    if noise_dim < 0:
        raise ValueError("noise_dim must be >= 0")
    if class_sep <= 0 or domain_shift < 0 or bias_jitter < 0:
        raise ValueError("class_sep must be > 0, domain_shift and bias_jitter >= 0")


def generate_synthetic(
    num_classes: int,
    num_domains: int,
    signal_dim: int,
    noise_dim: int,
    samples_per_class_per_domain: int,
    class_sep: float,
    domain_shift: float,
    seed: int,
    bias_jitter: float = 0.2,
    max_attempts: int = 10_000,
) -> DomainDataset:
    """Gaussian multi-domain classification data with known dimension roles.

    Class means live on the first ``signal_dim`` coordinates, drawn once
    with pairwise distance >= ``class_sep`` enforced by rejection. Each
    domain adds a bias of norm ``domain_shift`` on the noise coordinates,
    jittered at scale ``bias_jitter * domain_shift`` both per
    (domain, class) cell and per sample: the cell offsets make the noise
    block spuriously class-informative inside each domain (the trap an
    unseen domain springs), the per-sample part makes it an unreliable
    high-variance channel. Unit Gaussian noise is added on all
    coordinates. Class frequencies are identical in every domain.
    """
    check_synthetic(
        num_classes, num_domains, signal_dim, noise_dim,
        samples_per_class_per_domain, class_sep, domain_shift, bias_jitter,
    )
    rng = np.random.default_rng(seed)

    # Mean scale keeps typical pairwise distances near 1.5 * class_sep so
    # the rejection bound stays binding rather than vacuous.
    mean_scale = 1.5 * class_sep / np.sqrt(2.0 * signal_dim)
    for _ in range(max_attempts):
        means = rng.normal(0.0, mean_scale, size=(num_classes, signal_dim))
        diffs = means[:, None, :] - means[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= class_sep:
            break
    else:
        raise GenerationError(
            f"could not draw {num_classes} class means with pairwise "
            f"distance >= {class_sep} in {max_attempts} attempts"
        )

    input_dim = signal_dim + noise_dim
    domain_bias = np.zeros((num_domains, noise_dim))
    cell_jitter = np.zeros((num_domains, num_classes, noise_dim))
    jitter_sd = 0.0
    if noise_dim > 0 and domain_shift > 0:
        raw = rng.normal(size=(num_domains, noise_dim))
        domain_bias = raw / np.linalg.norm(raw, axis=1, keepdims=True) * domain_shift
        jitter_sd = bias_jitter * domain_shift / np.sqrt(noise_dim)
        cell_jitter = rng.normal(
            0.0, jitter_sd, size=(num_domains, num_classes, noise_dim)
        )

    per_cell = samples_per_class_per_domain
    n_total = num_classes * num_domains * per_cell
    features = np.empty((n_total, input_dim))
    class_ids = np.empty(n_total, dtype=np.int64)
    domain_ids = np.empty(n_total, dtype=np.int64)
    row = 0
    for d in range(num_domains):
        for c in range(num_classes):
            block = slice(row, row + per_cell)
            features[block, :signal_dim] = means[c]
            if noise_dim > 0:
                features[block, signal_dim:] = (
                    domain_bias[d]
                    + cell_jitter[d, c]
                    + rng.normal(0.0, jitter_sd, size=(per_cell, noise_dim))
                )
            features[block] += rng.normal(size=(per_cell, input_dim))
            class_ids[block] = c
            domain_ids[block] = d
            row += per_cell
    return DomainDataset(
        features=features,
        class_ids=class_ids,
        domain_ids=domain_ids,
        num_classes=num_classes,
        num_domains=num_domains,
        signal_dims=tuple(range(signal_dim)),
        noise_dims=tuple(range(signal_dim, input_dim)),
    )


CSV_HEADER_PREFIX = ("domain_id", "class_id")


def save_csv(dataset: DomainDataset, path) -> None:
    """Write the `domain_id,class_id,f0,...` schema with LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(CSV_HEADER_PREFIX) + [
            f"f{j}" for j in range(dataset.input_dim)
        ]
        writer.writerow(header)
        for i in range(len(dataset)):
            writer.writerow(
                [int(dataset.domain_ids[i]), int(dataset.class_ids[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def load_csv(path) -> DomainDataset:
    """Parse the CSV schema; class/domain counts are inferred from the ids.

    Blank lines are skipped. The data lines are parsed in one
    ``np.loadtxt`` call (ids as integers, features as float64); only when
    that fails are they parsed again one at a time, to name the line at
    fault. Every feature must be finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise SchemaError(f"{path}: empty file")
    lines = text.split("\n")
    header = lines[0].split(",")
    if len(header) < 3 or tuple(header[:2]) != CSV_HEADER_PREFIX:
        raise SchemaError(
            f"{path}: header must start with 'domain_id,class_id,f0,...'"
        )
    width = len(header)
    numbered = [(i, line) for i, line in enumerate(lines[1:], start=2) if line]
    if not numbered:
        raise SchemaError(f"{path}: no data rows")
    row_type = np.dtype(
        [("domain", np.int64), ("class", np.int64), ("features", np.float64, (width - 2,))]
    )
    try:
        rows = _parse_rows([line for _, line in numbered], row_type)
    except ValueError as err:
        _raise_at_bad_line(path, numbered, width, row_type)
        raise ParseError(f"{path}: {err}") from None
    features = np.ascontiguousarray(rows["features"])
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = numbered[int(np.argmin(finite))][0]
        raise ParseError(f"{path}:{lineno}: features must be finite")
    class_ids, domain_ids = rows["class"].copy(), rows["domain"].copy()
    if class_ids.min() < 0 or domain_ids.min() < 0:
        raise SchemaError(f"{path}: ids must be non-negative")
    return DomainDataset(
        features=features,
        class_ids=class_ids,
        domain_ids=domain_ids,
        num_classes=int(class_ids.max()) + 1,
        num_domains=int(domain_ids.max()) + 1,
    )


def _parse_rows(lines: list, row_type: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=row_type, delimiter=",", comments=None, ndmin=1)


def _raise_at_bad_line(path, numbered: list, width: int, row_type: np.dtype) -> None:
    """Raise the error of the first data line that does not parse alone."""
    for lineno, line in numbered:
        fields = line.count(",") + 1
        if fields != width:
            raise SchemaError(
                f"{path}:{lineno}: expected {width} fields, got {fields}"
            )
        try:
            _parse_rows([line], row_type)
        except ValueError as err:
            # The parser locates the fault within the one-line input.
            reason = re.sub(r" at row 0, column (\d+)\.?$", r" (field \1)", str(err))
            raise ParseError(f"{path}:{lineno}: {reason}") from None


def split(dataset: DomainDataset, plan: SplitPlan) -> Split:
    """n-labels-per-class leave-one-domain-out split.

    Every source sample lands in the unlabeled pool (including the
    labeled ones, with labels hidden); target-domain samples form the
    test set and never appear in any training pool.
    """
    if not 0 <= plan.target_domain < dataset.num_domains:
        raise SplitError(f"target domain {plan.target_domain} does not exist")
    rng = np.random.default_rng(plan.seed)
    source_domains = tuple(
        d for d in range(dataset.num_domains) if d != plan.target_domain
    )
    labeled_idx: list[int] = []
    for d in source_domains:
        for c in range(dataset.num_classes):
            cell = np.flatnonzero(
                (dataset.domain_ids == d) & (dataset.class_ids == c)
            )
            if len(cell) < plan.labels_per_class:
                raise SplitError(
                    f"domain {d} class {c} has {len(cell)} samples, "
                    f"need {plan.labels_per_class} labels"
                )
            labeled_idx.extend(rng.choice(cell, plan.labels_per_class, replace=False))
    labeled_idx = np.asarray(sorted(labeled_idx))
    source_mask = dataset.domain_ids != plan.target_domain
    source_idx = np.flatnonzero(source_mask)
    target_idx = np.flatnonzero(~source_mask)
    return Split(
        labeled_x=dataset.features[labeled_idx].copy(),
        labeled_y=dataset.class_ids[labeled_idx].copy(),
        labeled_domains=dataset.domain_ids[labeled_idx].copy(),
        unlabeled_x=dataset.features[source_idx].copy(),
        unlabeled_truth=dataset.class_ids[source_idx].copy(),
        test_x=dataset.features[target_idx].copy(),
        test_y=dataset.class_ids[target_idx].copy(),
        source_domains=source_domains,
    )


@dataclass
class Augmenter:
    """Feature-space weak/strong augmentation.

    Weak adds Gaussian noise at ``weak_scale`` times the per-dimension
    training std; strong uses ``strong_scale`` and then zeroes a fixed
    fraction of coordinates per sample. Neither reads labels.
    """

    feature_std: np.ndarray
    weak_scale: float = 0.05
    strong_scale: float = 0.25
    mask_fraction: float = 0.15

    @classmethod
    def fit(cls, train_features: np.ndarray, **kwargs) -> "Augmenter":
        return cls(feature_std=train_features.std(axis=0), **kwargs)

    def weak(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.weak_scale == 0.0:
            return x.copy()
        return x + rng.normal(size=x.shape) * (self.weak_scale * self.feature_std)

    def strong(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = x + rng.normal(size=x.shape) * (self.strong_scale * self.feature_std)
        n, dim = out.shape
        n_mask = int(self.mask_fraction * dim)
        if n_mask > 0:
            cols = np.argsort(rng.random((n, dim)), axis=1)[:, :n_mask]
            out[np.arange(n)[:, None], cols] = 0.0
        return out


@dataclass
class Batch:
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_truth: np.ndarray  # metrics only
    unlabeled_idx: np.ndarray  # positions in the unlabeled pool (logging)


class _ShuffledCycler:
    """Walks a shuffled index range, reshuffling whenever it runs out."""

    def __init__(self, n: int, rng: np.random.Generator):
        self._n = n
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            avail = self._n - self._pos
            if avail == 0:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
                avail = self._n
            chunk = min(avail, k - filled)
            out[filled : filled + chunk] = self._order[
                self._pos : self._pos + chunk
            ]
            self._pos += chunk
            filled += chunk
        return out


class BatchIterator:
    """Yields fixed-size batches: labeled draws stratified per source
    domain (domain ids are available for labeled data), unlabeled draws
    taken from the pooled unlabeled set without any domain identity.

    One epoch is ceil(|unlabeled| / (num_source_domains *
    per_domain_unlabeled)) batches.
    """

    def __init__(
        self,
        split_data: Split,
        per_domain_labeled: int,
        per_domain_unlabeled: int,
        seed: int,
    ):
        if per_domain_labeled < 1 or per_domain_unlabeled < 1:
            raise ValueError("per-domain batch sizes must be >= 1")
        self.split = split_data
        self.per_domain_labeled = per_domain_labeled
        self.per_domain_unlabeled = per_domain_unlabeled
        rng = np.random.default_rng(seed)
        self._labeled_cyclers = {}
        for d in split_data.source_domains:
            idx = np.flatnonzero(split_data.labeled_domains == d)
            pool_rng = np.random.default_rng(rng.integers(2**63))
            self._labeled_cyclers[d] = (idx, _ShuffledCycler(len(idx), pool_rng))
        self._unlabeled_cycler = _ShuffledCycler(
            len(split_data.unlabeled_x), np.random.default_rng(rng.integers(2**63))
        )
        n_u = len(split_data.unlabeled_x)
        self.unlabeled_per_batch = len(split_data.source_domains) * per_domain_unlabeled
        self.batches_per_epoch = -(-n_u // self.unlabeled_per_batch)

    def epoch(self) -> Iterator[Batch]:
        s = self.split
        for _ in range(self.batches_per_epoch):
            lab_parts = []
            for d in s.source_domains:
                idx, cycler = self._labeled_cyclers[d]
                lab_parts.append(idx[cycler.take(self.per_domain_labeled)])
            lab = np.concatenate(lab_parts)
            unl = self._unlabeled_cycler.take(self.unlabeled_per_batch)
            yield Batch(
                labeled_x=s.labeled_x[lab],
                labeled_y=s.labeled_y[lab],
                unlabeled_x=s.unlabeled_x[unl],
                unlabeled_truth=s.unlabeled_truth[unl],
                unlabeled_idx=unl,
            )
