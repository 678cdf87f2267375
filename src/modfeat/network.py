"""Feature extractor and domain-shared linear classifier.

The extractor is an affine+ReLU stack with one dropout stage after the
last hidden activation; the same dropout stage drives Monte Carlo
uncertainty sampling. An empty hidden stack means the extractor is the
identity (features are the raw inputs, dropout still applies), which
keeps input coordinates interpretable in diagnostics.

A pass drops units iff it is given a dropout generator. ``Model.build``
is the one description of the layers; ``Model.init`` draws their
parameters through it and ``checkpoint.load_checkpoint`` reads them.

Both training modes score through one pipeline, ``score_graph``, which
yields R rows of class logits per sample. In the modulated mode features
are modulated toward each class's blended anchor, so R = C. The
classifier is linear, so that mode scores with ``modulator.modulate``,
which folds the blend into the classifier's weight and bias: one
(n x F) @ (F x C*C) product gives all n*C rows, and
``Classifier.forward`` is not called. The fixed-threshold baseline
(FixMatch, Sohn et al. 2020) is the same pipeline without modulation,
R = 1, scored by ``Classifier.forward``. Whether a pass is modulated is
decided by the head alone: ``score_graph`` modulates if and only if it
is given one (``Model.fm_head``, built from the modulation weights, the
prototype bank and the classifier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import modulator
from .autodiff import Node
from .prototypes import PrototypeBank


@dataclass(frozen=True)
class ExtractorConfig:
    input_dim: int
    hidden_dims: tuple
    feature_dim: int
    dropout_p: float

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


@dataclass
class Extractor:
    config: ExtractorConfig
    weights: list = field(default_factory=list)  # a parameter node per affine layer
    biases: list = field(default_factory=list)

    @classmethod
    def build(cls, config: ExtractorConfig, make) -> "Extractor":
        """The layers of ``config``, each parameter ``make(name, shape, std)``."""
        dims = [config.input_dim, *config.hidden_dims, config.feature_dim]
        weights, biases = [], []
        if config.hidden_dims:
            for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
                # He scaling for the ReLU stack, LeCun for the linear output.
                std = np.sqrt((2.0 if i < len(dims) - 2 else 1.0) / fan_in)
                weights.append(make(f"extractor.{i}.weight", (fan_in, fan_out), std))
                biases.append(make(f"extractor.{i}.bias", (1, fan_out), 0.0))
        return cls(config=config, weights=weights, biases=biases)

    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x, rng: Optional[np.random.Generator] = None) -> Node:
        """Feature graph for a batch; units drop iff ``rng`` is given."""
        h = x if isinstance(x, Node) else ad.constant(x)
        if h.value.shape[1] != self.config.input_dim:
            raise ad.DimensionError(
                f"expected {self.config.input_dim} input columns, got {h.value.shape[1]}"
            )
        if not self.weights:
            return ad.dropout(h, self.config.dropout_p, rng)
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add_row(ad.matmul(h, w), b)
            if i < n_layers - 1:
                h = ad.relu(h)
                if i == n_layers - 2:
                    h = ad.dropout(h, self.config.dropout_p, rng)
        return h


@dataclass
class Classifier:
    """Single linear head shared by all modulation rows and domains."""

    weight: Node  # (feature_dim, num_classes)
    bias: Node  # (1, num_classes)

    @classmethod
    def build(cls, feature_dim: int, num_classes: int, make) -> "Classifier":
        std = 1.0 / np.sqrt(feature_dim)
        return cls(
            weight=make("classifier.weight", (feature_dim, num_classes), std),
            bias=make("classifier.bias", (1, num_classes), 0.0),
        )

    @property
    def num_classes(self) -> int:
        return self.weight.value.shape[1]

    def params(self) -> list:
        return [self.weight, self.bias]

    def forward(self, z: Node) -> Node:
        return ad.add_row(ad.matmul(z, self.weight), self.bias)


@dataclass
class Model:
    extractor: Extractor
    classifier: Classifier

    @classmethod
    def init(
        cls, config: ExtractorConfig, num_classes: int, rng: np.random.Generator
    ) -> "Model":
        """Weights drawn from N(0, std^2) in layer order; zero biases."""
        def draw(name, shape, std):
            value = rng.normal(0.0, std, size=shape) if std else np.zeros(shape)
            return ad.leaf(value, name)

        return cls.build(config, num_classes, draw)

    @classmethod
    def build(cls, config: ExtractorConfig, num_classes: int, make) -> "Model":
        """The model of ``config``; ``make(name, shape, std)`` returns each
        parameter, a named leaf node (``std``: initial scale, 0 for a bias)."""
        return cls(
            extractor=Extractor.build(config, make),
            classifier=Classifier.build(config.feature_dim, num_classes, make),
        )

    @property
    def num_classes(self) -> int:
        return self.classifier.num_classes

    def params(self) -> list:
        return self.extractor.params() + self.classifier.params()

    def fm_head(
        self, modulation: modulator.ModulationMatrix, bank: Optional[PrototypeBank]
    ) -> Optional[modulator.FusedHead]:
        """The fused head that modulates by ``modulation`` toward
        ``bank``'s blended anchors through the classifier; None without
        a bank."""
        if bank is None:
            return None
        return modulator.FusedHead(
            bank.blended, modulation.param, self.classifier.weight,
            self.classifier.bias,
        )


def score_graph(
    model: Model,
    head: Optional[modulator.FusedHead],
    x,
    rng: Optional[np.random.Generator] = None,
) -> Node:
    """Class logits for a batch, R rows per sample.

    With a head (``Model.fm_head``) the result is (n*C x C): row i*C + c
    holds the logits after modulating sample i toward class c's blended
    anchor, computed by ``modulator.modulate``. Without one it is the
    unmodulated (n x C) from ``Classifier.forward``. Units drop iff
    ``rng`` is given.
    """
    feats = model.extractor.forward(x, rng)
    if head is None:
        return model.classifier.forward(feats)
    return modulator.modulate(feats, head)
