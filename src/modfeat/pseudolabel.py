"""Uncertainty-gated pseudo-labeling over modulated class scores.

For each unlabeled sample the class-probability matrix (R = C rows, one
per class the features are modulated toward; see
``network.score_graph``) is evaluated K times with dropout enabled
(Monte Carlo sampling). The K passes over a batch run as one stacked
forward of K copies of the batch; dropout draws its masks from the
generator's stream in order, so pass k sees the masks the k-th of K
separate calls would have drawn (a one-sample batch runs its K passes
one at a time: see ``pseudo_label_batch``). The per-run diagonal holds the
confidence for each candidate class when features are modulated toward
that class. The label is the argmax of the K-run mean diagonal; sigma
is the K-run population standard deviation of the predicted class's
diagonal probability. A label is kept when mean_confidence - sigma
clears the threshold, and kept labels get a confidence-dependent loss
weight exp(p^3 - 1).

The fixed-threshold baseline scores the same pipeline's unmodulated
R = 1 view in a single deterministic pass (K = 1, sigma 0) and gives
an all-or-nothing weight.

Scoring passes run under ``autodiff.no_grad()``: they only read values,
so they record no graph. Each gate rule is defined once, on arrays, and
applied to a whole batch (``gate_batch``, ``baseline_gate_batch``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import network as net
from .autodiff import ParameterError, no_grad, row_softmax
from .modulator import ModulationMatrix
from .network import Model
from .prototypes import PrototypeBank

BASELINE_THRESHOLD = 0.95


class PseudoLabelRecord(NamedTuple):
    label: int
    p_max: float
    sigma: float
    keep: bool
    l_scale: float


def confidence_scale(p: float) -> float:
    """Loss weight exp(p^3 - 1); strictly increasing from 1/e to 1."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"confidence must be in [0, 1], got {p}")
    return math.exp(p**3 - 1.0)


def gate_batch(labels, p_max, sigma, tau: float) -> list:
    """Apply the uncertainty gate to arrays of per-sample values: keep iff
    p_max - sigma strictly clears tau; kept labels get the
    confidence-scaled weight, discarded get 0."""
    p_max = np.asarray(p_max, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    keep = (p_max - sigma > tau).tolist()
    p_list = p_max.tolist()
    return list(
        map(
            PseudoLabelRecord,
            np.asarray(labels, dtype=np.int64).tolist(),
            p_list,
            sigma.tolist(),
            keep,
            [confidence_scale(p) if k else 0.0 for p, k in zip(p_list, keep)],
        )
    )


def baseline_gate_batch(labels, p_max, tau_fixed: float) -> list:
    """Fixed-threshold gate over arrays: strict inequality, sigma 0 and an
    all-or-nothing weight."""
    p_max = np.asarray(p_max, dtype=np.float64)
    keep = (p_max > tau_fixed).tolist()
    return list(
        map(
            PseudoLabelRecord,
            np.asarray(labels, dtype=np.int64).tolist(),
            p_max.tolist(),
            [0.0] * len(keep),
            keep,
            [1.0 if k else 0.0 for k in keep],
        )
    )


def predict_matrices(
    u: np.ndarray,
    model: Model,
    modulation: Optional[ModulationMatrix],
    bank: Optional[PrototypeBank],
    dropout: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """(n, R, C) class-probability matrices for a batch of weak views.

    With a bank, entry [i, j, :] holds the class probabilities for
    sample i after modulating its features toward class j (R = C);
    without one, [i, 0, :] holds the unmodulated ones (R = 1). No
    gradients are recorded.
    """
    u = np.atleast_2d(u)
    mode = "mc" if dropout else "eval"
    with no_grad():
        logits = net.score_graph(model, modulation, bank, u, mode, rng)
    probs = row_softmax(logits.value)
    return probs.reshape(u.shape[0], -1, probs.shape[1])


def pseudo_label_batch(
    u: np.ndarray,
    model: Model,
    modulation: ModulationMatrix,
    bank: PrototypeBank,
    mc_samples: int = 5,
    tau: float = 0.75,
    rng: Optional[np.random.Generator] = None,
) -> list:
    """Monte Carlo pseudo-labels for a batch of weakly augmented samples."""
    if mc_samples < 2:
        raise ParameterError(f"mc_samples must be >= 2, got {mc_samples}")
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"tau must be in (0, 1), got {tau}")
    u = np.atleast_2d(u)
    n = u.shape[0]
    if n == 1:
        # BLAS multiplies a one-row batch with its vector routine, which
        # rounds differently from the matrix routine a K-row stack takes;
        # one pass at a time keeps a single sample's scores bit-identical.
        s = np.concatenate(
            [
                predict_matrices(u, model, modulation, bank, dropout=True, rng=rng)
                for _ in range(mc_samples)
            ]
        )
    else:
        s = predict_matrices(
            np.tile(u, (mc_samples, 1)), model, modulation, bank, dropout=True, rng=rng
        )
    c = s.shape[-1]
    conf = net.class_confidence(s.reshape(-1, c), mc_samples * n, c)
    conf = conf.reshape(mc_samples, n, c)
    mean_conf = conf.mean(axis=0)
    labels = mean_conf.argmax(axis=1)
    rows = np.arange(n)
    sigma = conf[:, rows, labels].std(axis=0)  # population std, divisor K
    return gate_batch(labels, mean_conf[rows, labels], sigma, tau)


def baseline_pseudo_label_batch(
    u: np.ndarray,
    model: Model,
    tau_fixed: float = BASELINE_THRESHOLD,
) -> list:
    """Fixed-threshold labels from one deterministic unmodulated pass."""
    s = predict_matrices(u, model, None, None)
    n, _, c = s.shape
    probs = net.class_confidence(s.reshape(n, c), n, c)
    labels = probs.argmax(axis=1)
    return baseline_gate_batch(labels, probs[np.arange(len(labels)), labels], tau_fixed)
