"""Feature extractor and domain-shared linear classifier.

The extractor is an affine+ReLU stack with one dropout stage after the
last hidden activation; the same dropout stage drives Monte Carlo
uncertainty sampling. An empty hidden stack means the extractor is the
identity (features are the raw inputs, dropout still applies), which
keeps input coordinates interpretable in diagnostics.

Both training modes score through one pipeline, ``score_graph``, which
yields R rows of class logits per sample. In ``"fm"`` mode features are
modulated toward each class's blended anchor, so R = C; the
fixed-threshold baseline (FixMatch, Sohn et al. 2020) is the same
pipeline without modulation, R = 1. ``class_confidence`` reads the
per-class confidence from either view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import modulator as fm
from .autodiff import DualParam, Node

# Training modes: the modulated pipeline and the fixed-threshold baseline.
MODES = ("fm", "fixmatch-baseline")
# Forward passes: dropout is active in "train" and "mc", off in "eval".
PASS_MODES = ("train", "eval", "mc")


@dataclass(frozen=True)
class ExtractorConfig:
    input_dim: int
    hidden_dims: tuple = (64, 64)
    feature_dim: int = 32
    dropout_p: float = 0.05

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims entries must be >= 1, got {self.hidden_dims}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not self.hidden_dims and self.feature_dim != self.input_dim:
            raise ValueError(
                "identity extractor (no hidden layers) requires "
                f"feature_dim == input_dim, got feature_dim={self.feature_dim} "
                f"and input_dim={self.input_dim}"
            )


def _dropout_enabled(mode: str) -> bool:
    if mode not in PASS_MODES:
        raise ValueError(f"mode must be one of {PASS_MODES}, got {mode!r}")
    return mode != "eval"


@dataclass
class Extractor:
    config: ExtractorConfig
    weights: list = field(default_factory=list)  # DualParam per affine layer
    biases: list = field(default_factory=list)

    @classmethod
    def init(cls, config: ExtractorConfig, rng: np.random.Generator) -> "Extractor":
        dims = [config.input_dim, *config.hidden_dims, config.feature_dim]
        weights, biases = [], []
        if config.hidden_dims:
            for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
                # He scaling for the ReLU stack, LeCun for the linear output.
                std = np.sqrt((2.0 if i < len(dims) - 2 else 1.0) / fan_in)
                weights.append(
                    DualParam.create(
                        f"extractor.{i}.weight",
                        rng.normal(0.0, std, size=(fan_in, fan_out)),
                    )
                )
                biases.append(
                    DualParam.create(f"extractor.{i}.bias", np.zeros((1, fan_out)))
                )
        return cls(config=config, weights=weights, biases=biases)

    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x, mode: str, rng: Optional[np.random.Generator] = None) -> Node:
        """Feature graph for a batch; dropout active in train and mc modes."""
        enabled = _dropout_enabled(mode) and self.config.dropout_p > 0.0
        if enabled and rng is None:
            raise ValueError(f"mode {mode!r} needs an rng for dropout")
        h = x if isinstance(x, Node) else ad.constant(x)
        if h.shape[1] != self.config.input_dim:
            raise ad.DimensionError(
                f"expected {self.config.input_dim} input columns, got {h.shape[1]}"
            )
        if not self.weights:
            return ad.dropout(h, self.config.dropout_p, rng, enabled)
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add_row(ad.matmul(h, w.node), b.node)
            if i < n_layers - 1:
                h = ad.relu(h)
                if i == n_layers - 2:
                    h = ad.dropout(h, self.config.dropout_p, rng, enabled)
        return h


@dataclass
class Classifier:
    """Single linear head shared by all modulation rows and domains."""

    weight: DualParam  # (feature_dim, num_classes)
    bias: DualParam  # (1, num_classes)

    @classmethod
    def init(
        cls, feature_dim: int, num_classes: int, rng: np.random.Generator
    ) -> "Classifier":
        return cls(
            weight=DualParam.create(
                "classifier.weight",
                rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, num_classes)),
            ),
            bias=DualParam.create("classifier.bias", np.zeros((1, num_classes))),
        )

    @property
    def num_classes(self) -> int:
        return self.weight.value.shape[1]

    def params(self) -> list:
        return [self.weight, self.bias]

    def forward(self, z: Node) -> Node:
        return ad.add_row(ad.matmul(z, self.weight.node), self.bias.node)


@dataclass
class Model:
    extractor: Extractor
    classifier: Classifier

    @classmethod
    def init(
        cls, config: ExtractorConfig, num_classes: int, rng: np.random.Generator
    ) -> "Model":
        return cls(
            extractor=Extractor.init(config, rng),
            classifier=Classifier.init(config.feature_dim, num_classes, rng),
        )

    @property
    def num_classes(self) -> int:
        return self.classifier.num_classes

    @property
    def feature_dim(self) -> int:
        return self.extractor.config.feature_dim

    def params(self) -> list:
        return self.extractor.params() + self.classifier.params()


def view_bank(mode: str, bank):
    """The prototype bank the pipeline modulates toward in ``mode``.

    ``"fm"`` needs a bank and scores R = C rows per sample; the baseline
    scores the unmodulated R = 1 view, so it gets none.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "fm" and bank is None:
        raise ValueError("mode 'fm' needs a prototype bank")
    return bank if mode == "fm" else None


def score_graph(
    model: Model,
    modulation,
    bank,
    x,
    mode: str,
    rng: Optional[np.random.Generator] = None,
) -> Node:
    """Class logits for a batch, R rows per sample.

    With a bank (a ``PrototypeBank``) the result is (n*C x C): row
    i*C + c holds the logits after modulating sample i toward class c's
    blended anchor by ``modulation`` (a ``ModulationMatrix``). Without
    one it is the unmodulated (n x C) and ``modulation`` is not read.
    ``mode`` is the forward pass ("train", "eval" or "mc").
    """
    feats = model.extractor.forward(x, mode, rng)
    if bank is not None:
        feats = fm.modulate(feats, bank.blended, modulation.node)
    return model.classifier.forward(feats)


def class_confidence(probs: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """(n x C) confidence of each sample in each class.

    ``probs`` holds R rows of class probabilities per sample (R = C or
    R = 1); entry (i, c) is taken from row i*R + (c mod R): the diagonal
    of each sample's C x C block when modulated, the row itself when not.
    """
    r = probs.shape[0] // n
    if r * n != probs.shape[0] or r not in (1, num_classes):
        raise ad.DimensionError(
            f"expected {n} or {n * num_classes} rows of probabilities, "
            f"got {probs.shape[0]}"
        )
    if r == 1:
        return probs
    return np.diagonal(probs.reshape(n, r, num_classes), axis1=1, axis2=2)
