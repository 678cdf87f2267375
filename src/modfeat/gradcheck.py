"""End-to-end gradient verification of the four-term loss.

Builds a miniature pipeline (2 classes, feature dim 4) and compares every
parameter's analytic gradient against central finite differences. All
per-step constants are frozen so the loss is a deterministic function of
the parameters alone: the dropout generator is reseeded on every build,
pseudo-labels are computed once at the base point, and the
diagonal-gap targets captured at the base point are re-fed on every
rebuild (they are gradient-stopped, so the difference quotient must not
see them move). The fused head is not frozen: each build makes its own,
so that it holds the perturbed weights.
"""

from __future__ import annotations

import numpy as np

from . import objective, pseudolabel
from .autodiff import GradCheckReport, grad_check
from .modulator import ModulationMatrix, variance_init
from .network import ExtractorConfig, Model
from .prototypes import build_bank


def full_loss_grad_check(
    seed: int = 3,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    dropout_p: float = 0.05,
) -> GradCheckReport:
    """Gradient-check the full training loss on a tiny two-class model."""
    rng = np.random.default_rng(seed)
    num_classes, feature_dim, input_dim = 2, 4, 3
    cfg = ExtractorConfig(
        input_dim=input_dim,
        hidden_dims=(5,),
        feature_dim=feature_dim,
        dropout_p=dropout_p,
    )
    model = Model.init(cfg, num_classes, rng)

    labeled_x = rng.normal(size=(4, input_dim))
    labeled_y = np.array([0, 0, 1, 1])
    unlabeled_x = rng.normal(size=(2, input_dim))

    feats = model.extractor.forward(labeled_x).value
    modulation = ModulationMatrix.from_values(
        variance_init(feats, labeled_y, num_classes)
    )
    bank = build_bank(feats, labeled_y, num_classes)

    mc_rng = np.random.default_rng(seed + 1)
    pseudo = pseudolabel.pseudo_label_batch(
        unlabeled_x, model, model.fm_head(modulation, bank), mc_samples=3,
        tau=0.1, rng=mc_rng,
    )

    drop_seed = seed + 2

    def build(frozen_targets=None):
        # A fresh head per build: it holds values of the perturbed weights.
        return objective.total_loss(
            labeled_x,
            labeled_y,
            unlabeled_x,
            pseudo,
            model,
            model.fm_head(modulation, bank),
            beta=1.0,
            gamma=0.5,
            rng=np.random.default_rng(drop_seed),
            frozen_targets=frozen_targets,
        )

    targets = build().diag_targets
    params = model.params() + [modulation.param]
    return grad_check(
        lambda: build(targets).total, params, step=step, tolerance=tolerance
    )
