"""Multi-domain datasets: synthetic generation, CSV I/O, splits, batching
and augmentation.

A dataset is its three arrays: features, class ids and domain ids. Its
class and domain counts are read from the ids, and the roles of its
feature columns, where known, from the config. Synthetic data places
class means on the first ``signal_dim`` coordinates and a per-domain
bias (plus a small per-domain-per-class jitter) on the ``noise_dim``
after them, so the noise block carries domain information that is
spuriously class-correlated inside each source domain but useless on an
unseen domain.

Domain ids of unlabeled samples are deliberately absent from split
outputs: training consumes the unlabeled pool without domain identity.

The data layer works in bulk: ``save_csv`` writes a row per call, and
``BatchIterator.epoch`` gathers the rows and draws the augmented views
of a block of whole steps at once, with the draws and bits that one
step at a time would give. ``load_csv`` streams the file into its one
parse and returns views of it, so a load holds the parsed rows once, not
the text.
"""

from __future__ import annotations

import math
import re
import warnings
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
    """Rows of features with their class and domain ids.

    ``num_classes`` and ``num_domains`` are the largest class and domain
    id + 1 (0 without rows), counted once when the dataset is built, so
    every id is below its count. An id below the largest need not occur.
    """

    features: np.ndarray  # (n, input_dim) float64
    class_ids: np.ndarray  # (n,) int
    domain_ids: np.ndarray  # (n,) int

    def __post_init__(self):
        n = len(self.features)
        if len(self.class_ids) != n or len(self.domain_ids) != n:
            raise SchemaError("features and id arrays must have equal length")
        self.num_classes = int(self.class_ids.max(initial=-1)) + 1
        self.num_domains = int(self.domain_ids.max(initial=-1)) + 1

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.features)

    def smallest_cell(self, skip_domain: int) -> int:
        """Fewest samples in a (domain, class) cell of a domain other than
        ``skip_domain``, 0 if one is empty. Cells that outnumber their rows
        leave one empty, so no count is kept for more cells than rows."""
        rows = self.domain_ids != skip_domain
        domains = self.domain_ids[rows]
        cells = (self.num_domains - (0 <= skip_domain < self.num_domains)) * self.num_classes
        if not 0 < cells <= len(domains):
            return 0
        domains -= (domains > skip_domain) & (skip_domain >= 0)  # number them 0, 1, ...
        cell_of_row = domains * self.num_classes + self.class_ids[rows]
        return int(np.bincount(cell_of_row, minlength=cells).min())


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
    # Written so that nan fails every bound; -0.0 passes as 0.
    if not (0 < class_sep < math.inf and 0 <= domain_shift < math.inf
            and 0 <= bias_jitter < math.inf):
        raise ValueError(
            "class_sep must be finite and > 0, domain_shift and bias_jitter "
            f"finite and >= 0, got {class_sep}, {domain_shift} and {bias_jitter}"
        )


def generate_synthetic(
    num_classes: int,
    num_domains: int,
    signal_dim: int,
    noise_dim: int,
    samples_per_class_per_domain: int,
    class_sep: float,
    domain_shift: float,
    seed: int,
    bias_jitter: float,
    max_attempts: int = 10_000,
) -> DomainDataset:
    """Gaussian multi-domain classification data with known dimension roles.

    Class means live on the first ``signal_dim`` coordinates, drawn once
    with every two at distance >= ``class_sep``, enforced by rejection. Each
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

    # Mean scale keeps typical distances between means near 1.5 * class_sep so
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
            f"could not draw {num_classes} class means at mutual "
            f"distance >= {class_sep} in {max_attempts} attempts"
        )

    input_dim = signal_dim + noise_dim
    domain_bias = np.zeros((num_domains, noise_dim))
    cell_jitter = np.zeros((num_domains, num_classes, noise_dim))
    jitter_sd = 0.0
    if noise_dim > 0 and domain_shift > 0:
        raw = rng.normal(size=(num_domains, noise_dim))
        domain_bias = raw / np.linalg.norm(raw, axis=1, keepdims=True) * domain_shift
        # abs: a bias_jitter of -0.0 gives a scale of -0.0, which
        # rng.normal rejects as negative.
        jitter_sd = abs(bias_jitter) * domain_shift / np.sqrt(noise_dim)
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
    return DomainDataset(features, class_ids, domain_ids)


CSV_HEADER_PREFIX = ("domain_id", "class_id")


def save_csv(dataset: DomainDataset, path) -> None:
    """Write the `domain_id,class_id,f0,...` schema with LF line endings.

    Each feature is written as ``repr`` of its Python float, the shortest
    text that reads back to the same float64. Each row is one write of
    its ids (from one ``tolist()`` per id array) and its ``tolist()``.
    """
    header = list(CSV_HEADER_PREFIX) + [f"f{j}" for j in range(dataset.input_dim)]
    rows = zip(
        dataset.domain_ids.tolist(), dataset.class_ids.tolist(), dataset.features
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for d, c, features in rows:
            fh.write(f"{d},{c}," + ",".join(map(repr, features.tolist())) + "\n")


def load_csv(path) -> DomainDataset:
    """Parse the CSV schema into a dataset (its counts are read from the ids).

    One leading UTF-8 byte-order mark, which spreadsheet exports write, is
    skipped. Blank lines are skipped. The header is read alone, and the
    open file then goes to one ``np.loadtxt`` call (ids as integers,
    features as float64), which reads it line by line: the text is never
    held whole. The dataset's three arrays are views of that one parse,
    not copies: the features are not C-contiguous (a pass that scores
    them copies the rows it reads). Every feature must be finite. Only
    when the parse fails or a feature is not finite is the file read
    again, to name the line at fault.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        header = first.removesuffix("\n").split(",")
        if len(header) < 3 or tuple(header[:2]) != CSV_HEADER_PREFIX:
            raise SchemaError(
                f"{path}: header must start with 'domain_id,class_id,f0,...'"
            )
        width = len(header)
        row_type = np.dtype([
            ("domain", np.int64), ("class", np.int64), ("features", np.float64, (width - 2,)),
        ])
        try:
            with warnings.catch_warnings():
                # Blank lines alone parse to no rows, reported below.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = _parse_rows(fh, row_type)
        except ValueError as err:  # a UnicodeDecodeError too
            _raise_at_bad_line(path, width, row_type)
            raise ParseError(f"{path}: {err}") from None
    if not len(rows):
        raise SchemaError(f"{path}: no data rows")
    features, class_ids, domain_ids = rows["features"], rows["class"], rows["domain"]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = _numbered_lines(path)[int(np.argmin(finite))][0]
        raise ParseError(f"{path}:{lineno}: features must be finite")
    if class_ids.min() < 0 or domain_ids.min() < 0:
        raise SchemaError(f"{path}: ids must be non-negative")
    return DomainDataset(features, class_ids, domain_ids)


def _parse_rows(lines, row_type: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=row_type, delimiter=",", comments=None, ndmin=1)


def _numbered_lines(path) -> list:
    """The non-blank lines after the header, each with its line number:
    the rows ``load_csv``'s parse reads, in its order. Reads the whole
    text, so an undecodable byte raises here with its offset in the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    return [(i, line) for i, line in enumerate(lines[1:], start=2) if line]


def _raise_at_bad_line(path, width: int, row_type: np.dtype) -> None:
    """Raise the error of the first data line that does not parse alone."""
    for lineno, line in _numbered_lines(path):
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
    test set and never appear in any training pool. The target domain
    must exist and hold rows, and some row must lie outside it.
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
    if not len(target_idx):
        raise SplitError(f"target domain {plan.target_domain} has no rows")
    if not len(source_idx):
        raise SplitError(
            f"no source domain: every row is in target domain {plan.target_domain}"
        )
    # Fancy indexing copies: no array of the split shares the dataset's memory.
    return Split(
        labeled_x=dataset.features[labeled_idx],
        labeled_y=dataset.class_ids[labeled_idx],
        labeled_domains=dataset.domain_ids[labeled_idx],
        unlabeled_x=dataset.features[source_idx],
        unlabeled_truth=dataset.class_ids[source_idx],
        test_x=dataset.features[target_idx],
        test_y=dataset.class_ids[target_idx],
        source_domains=source_domains,
    )


# Bytes of the float64 arrays one step's views are built from: its
# gathered labeled and unlabeled rows, its three noise draws and its mask
# keys. ``BatchIterator.epoch`` builds blocks of whole steps within it,
# at least one step per block.
BLOCK_BUDGET_BYTES = 2**20


# Augmentation scales, in units of the per-dimension training std, and
# the fraction of coordinates the strong view zeroes in each row.
WEAK_SCALE = 0.05
STRONG_SCALE = 0.25
MASK_FRACTION = 0.15


@dataclass
class Augmenter:
    """Feature-space weak/strong augmentation.

    Weak adds Gaussian noise at ``WEAK_SCALE`` times the per-dimension
    training std; strong at ``STRONG_SCALE``, then zeroes ``mask_count``
    coordinates per sample. Neither reads labels. Both take their draws
    as arrays of ``x``'s shape, overwrite the noise with the view and
    return it: the caller draws them (see ``BatchIterator.epoch``). Any
    leading axes are rows.
    """

    feature_std: np.ndarray

    @classmethod
    def fit(cls, train_features: np.ndarray) -> "Augmenter":
        return cls(feature_std=train_features.std(axis=0))

    @staticmethod
    def mask_count(dim: int) -> int:
        """Coordinates that ``strong`` zeroes in each row of width ``dim``."""
        return int(MASK_FRACTION * dim)

    def weak(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """``x + noise * (WEAK_SCALE * std)``, in ``noise``'s memory."""
        noise *= WEAK_SCALE * self.feature_std
        noise += x
        return noise

    def strong(
        self, x: np.ndarray, noise: np.ndarray, keys: Optional[np.ndarray]
    ) -> np.ndarray:
        """``x + noise * (STRONG_SCALE * std)`` in ``noise``'s memory, with
        each row's ``mask_count`` coordinates of smallest key set to 0.

        ``keys`` are uniform draws of ``x``'s shape, None when no
        coordinate is masked (below 7 features).
        """
        noise *= STRONG_SCALE * self.feature_std
        noise += x
        if keys is not None:
            cols = np.argsort(keys, axis=-1)[..., : self.mask_count(x.shape[-1])]
            np.put_along_axis(noise, cols, 0.0, axis=-1)
        return noise


@dataclass
class Batch:
    """One step's augmented views, labels and pool positions.

    It carries no ground truth of the unlabeled rows: metrics read it
    from ``Split.unlabeled_truth`` at ``unlabeled_idx``.
    """

    weak_labeled: np.ndarray
    labeled_y: np.ndarray
    weak_unlabeled: np.ndarray
    strong_unlabeled: np.ndarray
    unlabeled_idx: np.ndarray  # positions in the unlabeled pool


class _ShuffledCycler:
    """Walks a shuffled index range, reshuffling whenever it runs out.

    It reshuffles only when a take needs a position past the end, so one
    ``take(k * t)`` returns what ``t`` calls of ``take(k)`` would.
    """

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
    per_domain_unlabeled)) batches. Every source domain needs labeled
    rows and the pool needs rows, or there is no batch to draw.
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
        n_u = len(split_data.unlabeled_x)
        if n_u == 0:
            raise ValueError("the unlabeled pool is empty")
        self.split = split_data
        self.per_domain_labeled = per_domain_labeled
        self.per_domain_unlabeled = per_domain_unlabeled
        rng = np.random.default_rng(seed)
        self._labeled_cyclers = []
        for d in split_data.source_domains:
            idx = np.flatnonzero(split_data.labeled_domains == d)
            if len(idx) == 0:
                raise ValueError(f"source domain {d} has no labeled rows")
            pool_rng = np.random.default_rng(rng.integers(2**63))
            self._labeled_cyclers.append((idx, _ShuffledCycler(len(idx), pool_rng)))
        self._unlabeled_cycler = _ShuffledCycler(
            n_u, np.random.default_rng(rng.integers(2**63))
        )
        self.unlabeled_per_batch = len(split_data.source_domains) * per_domain_unlabeled
        self.batches_per_epoch = -(-n_u // self.unlabeled_per_batch)

    def epoch(
        self, augmenter: Augmenter, rng: np.random.Generator
    ) -> Iterator[Batch]:
        """One epoch of batches, their views drawn from ``rng``.

        Views are built for blocks of whole steps that fit
        ``BLOCK_BUDGET_BYTES``. Within a block, each step draws in turn
        its weak labeled, weak unlabeled and strong noise and its mask
        keys, so every step sees the draws, and every view the bits, that
        augmenting one step at a time would give.
        """
        n_l = len(self._labeled_cyclers) * self.per_domain_labeled
        row_bytes = self.split.unlabeled_x.shape[1] * 8
        step_bytes = (2 * n_l + 4 * self.unlabeled_per_batch) * row_bytes
        per_block = max(1, BLOCK_BUDGET_BYTES // step_bytes)
        for start in range(0, self.batches_per_epoch, per_block):
            yield from self._block(
                min(per_block, self.batches_per_epoch - start), augmenter, rng
            )

    def _block(
        self, steps: int, augmenter: Augmenter, rng: np.random.Generator
    ) -> Iterator[Batch]:
        s, k = self.split, self.per_domain_labeled
        # Step-major: each step's rows are its domains' draws in order.
        lab = np.stack(
            [idx[cycler.take(k * steps)].reshape(steps, k)
             for idx, cycler in self._labeled_cyclers],
            axis=1,
        ).reshape(steps, -1)
        unl = self._unlabeled_cycler.take(
            self.unlabeled_per_batch * steps
        ).reshape(steps, -1)
        x_l, x_u = s.labeled_x[lab], s.unlabeled_x[unl]
        noise_l, noise_u = np.empty_like(x_l), np.empty_like(x_u)
        noise_s = np.empty_like(x_u)
        keys = np.empty_like(x_u) if augmenter.mask_count(x_u.shape[-1]) > 0 else None
        for t in range(steps):
            rng.standard_normal(out=noise_l[t])
            rng.standard_normal(out=noise_u[t])
            rng.standard_normal(out=noise_s[t])
            if keys is not None:
                rng.random(out=keys[t])
        weak_l = augmenter.weak(x_l, noise_l)
        weak_u = augmenter.weak(x_u, noise_u)
        strong_u = augmenter.strong(x_u, noise_s, keys)
        y = s.labeled_y[lab]
        for t in range(steps):
            yield Batch(weak_l[t], y[t], weak_u[t], strong_u[t], unl[t])
