"""Uncertainty-gated pseudo-labeling over modulated class scores.

The gate reads one confidence per sample and class: the probability of
class c once the features are modulated toward c (see
``network.score_graph``), which ``predict_matrices`` returns as an
(n x C) array. It is evaluated K times, each pass given the Monte Carlo
generator so that it drops units. The K passes over a batch run as
stacked forwards of copies of the batch, in chunks of whole passes that
fit ``MC_BUDGET_BYTES``, so any K runs in bounded memory. Dropout draws
its masks from the generator's stream in order, so pass k sees the masks
the k-th of K separate calls would have drawn, whatever the chunking
(a one-sample batch runs its K passes one at a time: see
``pseudo_label_batch``). The label is the argmax of the K-run mean
confidence; sigma is the K-run population standard deviation of the
predicted class's confidence. A label is kept when mean_confidence -
sigma clears the threshold, and kept labels get a confidence-dependent
loss weight exp(p^3 - 1). The K passes of a training step score through
the step's one fused head (``Model.fm_head``), the head its loss forward
reads too.

A pass yields n*C rows of C logits (n rows unmodulated), and numpy's row
reductions pay a per-row overhead on rows that narrow. So
``predict_matrices`` takes the softmax on class-major (C x rows) copies
of the logits, in both modes and at any class count: the row maxima and
sums are column reductions of a copy, the shift and exp run in place in
it, and the returned entries are read from it. A pass scores its samples
in blocks of whole samples whose logits fit ``SOFTMAX_BLOCK_BYTES``: it
scores one block's rows, copies their logits class-major into one
buffer, drops them and takes the block's softmax before it scores the
next. So a pass holds its result and one block's input rows, logits and
copy, not all its logits. Dropout draws each block's masks in stream
order, so a pass that fits one block scores as one forward does. A
column reduction of a copy adds the C classes left to right, the order
of the loss's ``autodiff.row_log_softmax``, except in a one-row copy,
whose one column numpy sums as it does a row; so no block holds a single
sample unless the pass scores only one.

The fixed-threshold baseline reads the same pipeline's unmodulated
class probabilities in a single deterministic pass, given no generator,
and applies the same gate with K = 1, sigma 0 and a unit weight: all or
nothing.

Scoring passes run under ``autodiff.no_grad()``: they only read values,
so they record no graph. Both labelers return one ``PSEUDO_LABELS``
array per batch, a row per sample, from the one gate (``gate_batch``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import network as net
from .autodiff import ParameterError, no_grad
from .modulator import FusedHead
from .network import Model

BASELINE_THRESHOLD = 0.95
# Bytes the K Monte Carlo passes over one batch may hold at once: the
# (K, n, C) confidence table plus one chunk of stacked passes.
MC_BUDGET_BYTES = 64 * 2**20
# Bytes of the logits of one block that ``predict_matrices`` scores and
# normalizes before it scores the next: a block of whole samples within
# it, or of three samples, which exceed it only at over 147 classes. At
# 7 classes a block holds 1,337 modulated samples, so the 1,050-row
# held-out evaluation of the shipped config is one block.
SOFTMAX_BLOCK_BYTES = 2**19


# A batch's pseudo-labels, one row per sample: the gate's inputs, its
# decision and the kept rows' loss weight (0 on discarded rows). A plain
# ndarray whose rows are ``np.record``s, so a row also reads ``row.keep``.
PSEUDO_LABELS = np.dtype((np.record, [
    ("label", np.int64), ("p_max", np.float64), ("sigma", np.float64),
    ("keep", np.bool_), ("weight", np.float64),
]))


def confidence_scale(p: float) -> float:
    """Loss weight exp(p^3 - 1); strictly increasing from 1/e to 1."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"confidence must be in [0, 1], got {p}")
    return math.exp(p**3 - 1.0)


def gate_batch(labels, p_max, sigma, tau: float, unit_weight=False) -> np.ndarray:
    """The uncertainty gate over a batch, as a ``PSEUDO_LABELS`` array:
    keep iff p_max - sigma strictly clears tau (never on a NaN); kept rows
    weigh ``confidence_scale(p_max)``, or 1 with ``unit_weight``, and
    discarded rows weigh 0. Every kept p_max goes through
    ``confidence_scale`` on a Python float, so the first outside [0, 1]
    raises ``ParameterError`` in either case; numpy's ``exp`` and
    ``power`` would not always give its bits."""
    out = np.zeros(len(p_max), PSEUDO_LABELS)
    out["label"], out["p_max"], out["sigma"] = labels, p_max, sigma
    p = out["p_max"]
    keep = p - out["sigma"] > tau
    out["keep"] = keep
    weights = [confidence_scale(q) for q in p[keep].tolist()]
    out["weight"][keep] = 1.0 if unit_weight else weights
    return out


def predict_matrices(
    u: np.ndarray,
    model: Model,
    head: Optional[FusedHead],
    dropout: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """(n x C) confidence of each sample in each class.

    With a head (``Model.fm_head``), entry (i, c) is the probability of
    class c after modulating sample i toward class c, the diagonal of its
    C x C block of row softmaxes; without one, the unmodulated
    probability. Units drop iff ``dropout`` is set, drawn from ``rng``,
    which it then needs. Every row is normalized; only the returned
    entries are divided. No gradients are recorded. Blocks of whole
    samples are scored one at a time, and each block's softmax runs on a
    class-major copy of its logits (see the module docstring), written
    into the one returned array; ``u`` is only read.
    """
    if dropout and rng is None:
        raise ParameterError("a Monte Carlo pass needs a dropout generator")
    u = np.atleast_2d(u)
    pass_rng = rng if dropout else None
    n, c = len(u), model.classifier.weight.value.shape[1]
    rows = 1 if head is None else c  # score rows per sample
    blocks = _block_count(n, 8 * rows * c)
    out = np.empty((n, c))
    # Every block's class-major copy is made in this one buffer.
    buffer = np.empty(c * rows * -(-n // blocks))
    with no_grad():
        for i in range(blocks):
            start, stop = n * i // blocks, n * (i + 1) // blocks
            block = buffer[: c * rows * (stop - start)].reshape(c, rows * (stop - start))
            # No name holds the block's logits: they go once copied.
            np.copyto(
                block, net.score_graph(model, head, u[start:stop], pass_rng).value.T
            )
            block -= np.maximum.reduce(block, axis=0)
            np.exp(block, out=block)
            total = np.add.reduce(block, axis=0)
            if head is None:
                block /= total
                out[start:stop] = block.T
            else:
                diagonal = block.reshape(c, -1, c).diagonal(axis1=0, axis2=2)
                np.divide(diagonal, total.reshape(-1, c), out=out[start:stop])
    return out


def _block_count(n: int, sample_bytes: int) -> int:
    """The fewest near-equal blocks of ``n`` samples, block i holding
    samples ``n*i//blocks`` up to ``n*(i+1)//blocks``, that fit
    ``SOFTMAX_BLOCK_BYTES`` at ``sample_bytes`` a sample, or of at most
    three samples where it fits fewer. A block may take three samples, so
    none holds one when ``n`` >= 2.
    """
    per_block = max(3, SOFTMAX_BLOCK_BYTES // sample_bytes)
    return max(1, -(-n // per_block))


def _pass_bytes(model: Model, n: int) -> int:
    """Upper estimate of the bytes one MC pass over ``n`` rows holds at once.

    Per row: its input; 25 bytes per unit of every extractor layer, for a
    layer's input, output and dropout factor and the dropout mask (only
    one layer's are live at a time); the C x C logits and their
    class-major copy; and C row maxima, C row sums and the C confidences
    returned. ``predict_matrices`` holds one block's logits and copy at a
    time, so counting the whole pass's keeps this an upper bound.
    """
    cfg = model.extractor.config
    c = model.num_classes
    floats = cfg.input_dim + 2 * c * c + 3 * c
    return n * (8 * floats + 25 * (sum(cfg.hidden_dims) + cfg.feature_dim))


def pseudo_label_batch(
    u: np.ndarray,
    model: Model,
    head: FusedHead,
    mc_samples: int,
    tau: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo pseudo-labels for a batch of weakly augmented samples,
    scored through ``head`` (``Model.fm_head``), the K = ``mc_samples``
    passes drawing their dropout masks from ``rng``."""
    if mc_samples < 2:
        raise ParameterError(f"mc_samples must be >= 2, got {mc_samples}")
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"tau must be in (0, 1), got {tau}")
    u = np.atleast_2d(u)
    n, c = u.shape[0], model.num_classes
    conf = np.empty((mc_samples, n, c))
    # A one-row forward goes through BLAS's vector routine, which rounds
    # differently from the matrix routine a stack of passes takes; one
    # pass per forward keeps a single sample's scores bit-identical. An
    # empty batch takes its passes one at a time too: they hold nothing.
    room = MC_BUDGET_BYTES - conf.nbytes
    per_chunk = 1 if n <= 1 else max(1, room // _pass_bytes(model, n))
    for k0 in range(0, mc_samples, per_chunk):
        k = min(per_chunk, mc_samples - k0)
        stack = np.concatenate([u] * k)
        chunk = predict_matrices(stack, model, head, dropout=True, rng=rng)
        conf[k0 : k0 + k] = chunk.reshape(k, n, c)
    mean_conf = _pass_mean(conf)
    labels = mean_conf.argmax(axis=1)
    rows = np.arange(n)
    sigma = _pass_std(conf[:, rows, labels])
    return gate_batch(labels, mean_conf[rows, labels], sigma, tau)


# The K-pass statistics, computed as ``np.mean(a, axis=0)`` and
# ``np.std(a, axis=0)`` (population, divisor K) compute them, bit for bit,
# without the Python layers around their reductions.
def _pass_mean(a: np.ndarray) -> np.ndarray:
    return np.add.reduce(a, axis=0) / a.shape[0]


def _pass_std(a: np.ndarray) -> np.ndarray:
    dev = a - _pass_mean(a)
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=0) / a.shape[0])


def baseline_pseudo_label_batch(
    u: np.ndarray,
    model: Model,
    tau_fixed: float = BASELINE_THRESHOLD,
) -> np.ndarray:
    """Fixed-threshold labels from one deterministic unmodulated pass:
    the gate with sigma 0 and a unit weight."""
    probs = predict_matrices(u, model, None)
    labels = probs.argmax(axis=1)
    p_max = probs[np.arange(len(labels)), labels]
    return gate_batch(labels, p_max, 0.0, tau_fixed, unit_weight=True)
