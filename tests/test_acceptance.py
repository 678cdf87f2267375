"""Release acceptance suite.

Every criterion is asserted at its stated tolerance and prints one
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them). The comparison runs in a module-scoped fixture shared by the
criteria that need full training runs.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from modfeat import autodiff as ad
from modfeat import cli
from modfeat import data as dat
from modfeat import metrics as met
from modfeat import modulator as fm
from modfeat import objective, trainer
from modfeat.config import load_config
from modfeat.gradcheck import full_loss_grad_check
from modfeat.prototypes import build_bank
from modfeat.network import MODES
from modfeat.pseudolabel import confidence_scale, gate_batch, pseudo_label_batch
from tests.conftest import make_tiny_setup
from tests.test_objective import no_dropout_setup, oracle_total


def check(criterion, passed, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.ini"


class Comparison:
    """Both modes trained on the benchmark config, seed for seed."""

    def __init__(self):
        start = time.time()
        self.runs = {
            mode: cli.run_seeds(load_config(CONFIG, {"train.mode": mode}))
            for mode in MODES
        }
        self.elapsed = time.time() - start

    def final(self, mode, metric):
        return np.array([getattr(run.result.reports[-1], metric) for run in self.runs[mode]])

    @property
    def mean_improvement(self):
        return float(
            np.mean(
                self.final("fm", "target_accuracy")
                - self.final("fixmatch-baseline", "target_accuracy")
            )
        )

    @property
    def gaps(self):
        return np.array([run.modulator_gap for run in self.runs["fm"]])

    def keep_curves(self, mode):
        return np.array(
            [[rep.keep_rate for rep in run.result.reports] for run in self.runs[mode]]
        )


@pytest.fixture(scope="module")
def comparison():
    return Comparison()


def test_criterion_1_gradient_correctness():
    start = time.time()
    report = full_loss_grad_check(step=1e-5, tolerance=1e-4)
    elapsed = time.time() - start
    check(
        1,
        report.passed and elapsed < 10.0,
        f"full-loss gradcheck max rel error {report.max_rel_error:.2e} "
        f"(tol 1e-4) in {elapsed:.2f}s",
    )


def test_criterion_2_modulation_algebra():
    g = np.random.default_rng(0)
    z = g.normal(size=(1, 6))
    anchors = g.normal(size=(4, 6))
    rep = np.tile(z, (4, 1))
    out_one = fm.modulate(ad.constant(z), anchors, ad.constant(np.ones((4, 6)))).value
    out_zero = fm.modulate(ad.constant(z), anchors, ad.constant(np.zeros((4, 6)))).value
    out_half = fm.modulate(ad.constant(z), anchors, ad.constant(np.full((4, 6), 0.5))).value
    ok = (
        np.array_equal(out_one, rep)
        and np.array_equal(out_zero, anchors)
        and np.array_equal(out_half, (rep + anchors) / 2.0)
    )
    check(2, ok, "weights 1 / 0 / 0.5 reproduce input, anchors, exact midpoint")


def test_criterion_3_blend_limits():
    # orthogonal prototypes: clamped similarity is the identity
    feats = np.repeat(np.eye(3) * [[2.0], [3.0], [4.0]], 2, axis=0)
    classes = np.arange(3).repeat(2)
    bank = build_bank(feats, classes, 3)
    orthogonal_ok = np.abs(bank.blended - bank.prototypes).max() < 1e-12

    shared = np.tile([[1.0, 2.0, 3.0]], (6, 1))
    bank2 = build_bank(shared, classes, 3)
    identical_ok = np.abs(bank2.blended - shared[0]).max() < 1e-12
    check(
        3,
        orthogonal_ok and identical_ok,
        "orthogonal prototypes blend to themselves; identical prototypes share the blend",
    )


def test_criterion_4_variance_initialization():
    half = np.sqrt([[2.0, 0.0, 1.0]])
    feats = np.vstack([half, -half])
    weights = fm.variance_init(feats, np.array([0, 0]), 1)
    hand_ok = np.allclose(weights, [[0.0, 1.0, 0.5]], atol=1e-12)

    g = np.random.default_rng(1)
    rand_feats = g.normal(size=(40, 8)) * g.uniform(0.2, 3.0, size=8)
    rand_classes = np.arange(4).repeat(10)
    rand_weights = fm.variance_init(rand_feats, rand_classes, 4)
    variances = np.stack(
        [rand_feats[rand_classes == c].var(axis=0) for c in range(4)]
    )
    range_ok = np.all(rand_weights >= 0.0) and np.all(rand_weights <= 1.0)
    extremes_ok = (
        rand_weights.flat[variances.argmax()] == 0.0
        and rand_weights.flat[variances.argmin()] == 1.0
    )
    check(4, hand_ok and range_ok and extremes_ok,
          "variance [[2,0,1]] -> weights [[0,1,0.5]]; range [0,1]; extremes map to 0/1")


def test_criterion_5_loss_scaling():
    endpoint_ok = (
        abs(confidence_scale(1.0) - 1.0) < 1e-12
        and abs(confidence_scale(0.0) - math.exp(-1.0)) < 1e-12
    )
    grid = np.linspace(0.0, 1.0, 1001)
    values = [confidence_scale(p) for p in grid]
    increasing_ok = all(b > a for a, b in zip(values, values[1:]))

    model, modulation, bank, x, _ = make_tiny_setup(num_classes=2, n_per_class=8)
    records = pseudo_label_batch(
        x, model, modulation, bank, mc_samples=5, tau=0.5,
        rng=np.random.default_rng(0),
    )
    pairs = [(r.p_max, r.sigma) for r in records] + [
        (p, s) for p in np.linspace(0.05, 0.99, 21) for s in (0.0, 0.05, 0.2)
    ]
    labels, p_max, sigma = [0] * len(pairs), *zip(*pairs)
    kept_075 = sum(r.keep for r in gate_batch(labels, p_max, sigma, 0.75))
    kept_095 = sum(r.keep for r in gate_batch(labels, p_max, sigma, 0.95))
    monotone_ok = kept_075 >= kept_095
    check(
        5,
        endpoint_ok and increasing_ok and monotone_ok,
        f"Q endpoints exact, strictly increasing on 1001-grid, "
        f"kept@0.75 ({kept_075}) >= kept@0.95 ({kept_095})",
    )


def test_criterion_6_oracle_equivalence():
    model, modulation, bank, x, y = no_dropout_setup(seed=33)
    model.extractor.weights[0].node.value[:] = np.array(
        [[0.4, -0.2, 0.1, 0.3, -0.5],
         [0.0, 0.6, -0.1, 0.2, 0.1],
         [-0.3, 0.1, 0.5, -0.4, 0.2]]
    )
    model.extractor.biases[0].node.value[:] = np.array([[0.1, -0.1, 0.0, 0.05, 0.2]])
    model.classifier.weight.node.value[:] = np.array(
        [[0.7, -0.3], [-0.2, 0.5], [0.1, 0.1], [0.4, -0.6]]
    )
    model.classifier.bias.node.value[:] = np.array([[0.05, -0.05]])
    records = gate_batch([1, 0], [0.94, 0.88], [0.01, 0.02], 0.75)
    lx, ly, ux = x[:2], y[:2], x[2:4]
    breakdown = objective.total_loss(
        lx, ly, ux, records, model, modulation, bank, beta=1.0, gamma=0.5
    )
    got = breakdown.values()["total"]
    expected = oracle_total(model, modulation, bank, lx, ly, ux, records, 1.0, 0.5)[4]
    check(
        6,
        abs(got - expected) < 1e-10,
        f"graph total {got:.12f} vs straight-line oracle {expected:.12f} "
        f"(diff {abs(got - expected):.2e}, tol 1e-10)",
    )


def test_criterion_7_determinism(tmp_path):
    ds = dat.generate_synthetic(7, 4, 16, 16, 150, class_sep=2.0, domain_shift=6.0,
                                seed=0, bias_jitter=1.0)
    plan = dat.SplitPlan(target_domain=3, labels_per_class=10, seed=0)
    cfg = trainer.TrainConfig(epochs=3, seed=0, mode="fm")
    for name in ("run_a", "run_b"):
        trainer.train(ds, plan, cfg, hidden_dims=(), feature_dim=32,
                      run_dir=tmp_path / name)
    metrics_same = (tmp_path / "run_a" / "metrics.csv").read_bytes() == (
        tmp_path / "run_b" / "metrics.csv"
    ).read_bytes()
    ckpt_same = (tmp_path / "run_a" / "checkpoint.npz").read_bytes() == (
        tmp_path / "run_b" / "checkpoint.npz"
    ).read_bytes()
    check(7, metrics_same and ckpt_same,
          "identical config+seed -> bit-identical metrics CSV and checkpoint")


def test_criterion_8_direction_of_effect(comparison):
    fm_acc = comparison.final("fm", "target_accuracy")
    base_acc = comparison.final("fixmatch-baseline", "target_accuracy")
    improvement = comparison.mean_improvement
    acc_ok = fm_acc.mean() >= base_acc.mean() - 0.01 and improvement > 0.0

    fm_keep = comparison.final("fm", "keep_rate").mean()
    base_keep = comparison.final("fixmatch-baseline", "keep_rate").mean()
    keep_ok = fm_keep > base_keep

    gap_ok = np.all(comparison.gaps > 0.0)
    runtime_ok = comparison.elapsed < 600.0
    check(
        8,
        acc_ok and keep_ok and gap_ok and runtime_ok,
        f"acc fm {fm_acc.mean():.4f} vs base {base_acc.mean():.4f} "
        f"(improvement {improvement:+.4f}); keep {fm_keep:.3f} > {base_keep:.3f}; "
        f"gap min {comparison.gaps.min():+.3f}; {comparison.elapsed:.0f}s < 600s",
    )


def test_criterion_9_keep_rate_trend(comparison):
    curves = comparison.keep_curves("fm")[:, :10]
    rhos = [
        float(stats.spearmanr(np.arange(1, 11), curve).statistic) for curve in curves
    ]
    mean_rho = float(np.mean(rhos))
    check(
        9,
        mean_rho > 0.8,
        f"keep-rate/epoch Spearman over first 10 epochs: mean {mean_rho:.3f} "
        f"(per-seed {[round(r, 3) for r in rhos]})",
    )


def test_criterion_10_mc_uncertainty():
    model, modulation, bank, x, _ = make_tiny_setup()
    cfg = model.extractor.config
    model.extractor.config = type(cfg)(
        input_dim=cfg.input_dim, hidden_dims=cfg.hidden_dims,
        feature_dim=cfg.feature_dim, dropout_p=0.0,
    )
    recs_p0 = pseudo_label_batch(x, model, modulation, bank, mc_samples=5,
                                 tau=0.75, rng=np.random.default_rng(0))
    zero_ok = all(r.sigma == 0.0 for r in recs_p0)

    model.extractor.config = type(cfg)(
        input_dim=cfg.input_dim, hidden_dims=cfg.hidden_dims,
        feature_dim=cfg.feature_dim, dropout_p=0.05,
    )
    recs_p05 = pseudo_label_batch(x, model, modulation, bank, mc_samples=5,
                                  tau=0.75, rng=np.random.default_rng(0))
    mean_sigma = float(np.mean([r.sigma for r in recs_p05]))
    check(
        10,
        zero_ok and mean_sigma > 0.0,
        f"sigma == 0 without dropout; mean sigma {mean_sigma:.4f} > 0 at p=0.05, K=5",
    )
