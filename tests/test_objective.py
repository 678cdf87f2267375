import math

import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import objective as obj
from modfeat.pseudolabel import PseudoLabelRecord, gate_record
from tests.conftest import make_tiny_setup


def no_dropout_setup(num_classes=2, input_dim=3, feature_dim=4, seed=7):
    model, modulation, bank, x, y = make_tiny_setup(
        num_classes=num_classes, input_dim=input_dim, feature_dim=feature_dim, seed=seed
    )
    cfg = model.extractor.config
    model.extractor.config = type(cfg)(
        input_dim=cfg.input_dim,
        hidden_dims=cfg.hidden_dims,
        feature_dim=cfg.feature_dim,
        dropout_p=0.0,
    )
    return model, modulation, bank, x, y


def oracle_forward(model, modulation, bank, x):
    """Straight-line numpy mirror of the modulated log-score pipeline."""
    h = np.atleast_2d(x)
    n_layers = len(model.extractor.weights)
    for i, (w, b) in enumerate(zip(model.extractor.weights, model.extractor.biases)):
        h = h @ w.value + b.value
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    m = modulation.values
    r = bank.blended
    out = []
    for row in h:
        z = np.tile(row, (m.shape[0], 1))
        zm = m * z + (1.0 - m) * r
        logits = zm @ model.classifier.weight.value + model.classifier.bias.value
        shifted = logits - logits.max(axis=1, keepdims=True)
        slog = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        out.append(slog)
    return out


def oracle_total(model, modulation, bank, lx, ly, ux, records, beta, gamma):
    c = model.num_classes
    slogs = oracle_forward(model, modulation, bank, lx)
    l_s = float(np.mean([-slog[:, y].mean() for slog, y in zip(slogs, ly)]))
    l_d = float(
        np.mean(
            [
                ((np.diag(slog) - slog.max(axis=0)) ** 2).mean()
                for slog in slogs
            ]
        )
    )
    n_u = len(records)
    l_u = l_ud = 0.0
    for u_row, rec in zip(np.atleast_2d(ux), records):
        if not rec.keep:
            continue
        (slog,) = oracle_forward(model, modulation, bank, u_row[None])
        l_u += rec.l_scale * (-slog[:, rec.label].mean()) / n_u
        l_ud += rec.l_scale * ((np.diag(slog) - slog.max(axis=0)) ** 2).mean() / n_u
    return l_s, l_u, l_d, l_ud, l_s + l_u + beta * l_d + gamma * l_ud


class TestSupervisedLoss:
    def test_uniform_classifier_gives_log_c(self):
        for c in (2, 5):
            model, modulation, bank, x, _ = make_tiny_setup(num_classes=c)
            model.classifier.weight.node.value[:] = 0.0
            model.classifier.bias.node.value[:] = 0.0
            loss, _ = obj.supervised_loss(x[0], 0, model, modulation, bank, mode="eval")
            assert loss.value[0, 0] == pytest.approx(math.log(c), abs=1e-12)

    def test_saturated_prediction_drives_loss_to_zero(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        model.classifier.bias.node.value[:] = np.array([[500.0, -500.0]])
        model.classifier.weight.node.value[:] = 0.0
        loss, _ = obj.supervised_loss(x[0], 0, model, modulation, bank, mode="eval")
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_two_class_case(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        loss, slog = obj.supervised_loss(x[0], 1, model, modulation, bank, mode="eval")
        expected = -slog.value[:, 1].mean()
        assert loss.value[0, 0] == pytest.approx(expected, abs=1e-14)


class TestDiagMaxLoss:
    def test_zero_when_diagonal_is_column_max(self):
        slog = ad.constant([[-1.0, -3.0], [-2.0, -0.5]])
        assert obj.diag_max_loss(slog).value[0, 0] == 0.0

    def test_hand_case_half(self):
        slog = ad.constant([[-2.0, -1.0], [-1.0, -1.0]])
        assert obj.diag_max_loss(slog).value[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_column_shift_invariance_exact(self):
        base = np.array([[-2.0, -1.0, -4.0], [-1.0, -3.0, -2.0], [-5.0, -2.0, -1.0]])
        shifted = base.copy()
        shifted[:, 1] += 3.0  # integer-valued floats keep this exact
        a = obj.diag_max_loss(ad.constant(base)).value[0, 0]
        b = obj.diag_max_loss(ad.constant(shifted)).value[0, 0]
        assert a == b

    def test_non_square_rejected(self):
        with pytest.raises(ad.DimensionError):
            obj.diag_max_loss(ad.constant(np.zeros((2, 3))))

    def test_target_is_gradient_stopped(self):
        p = ad.DualParam.create("p", np.array([[-2.0, -1.0], [-1.0, -1.0]]))
        ad.backward(obj.diag_max_loss(p.node))
        # d/ds00 of ((s00 - colmax0)^2 + 0)/2 with colmax frozen at -1
        np.testing.assert_allclose(p.grad, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)


class TestUnsupervisedLoss:
    def test_discarded_record_builds_nothing(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        rec = PseudoLabelRecord(label=0, p_max=0.5, sigma=0.2, keep=False, l_scale=0.0)
        l_u, l_ud = obj.unsupervised_loss(x[0], rec, model, modulation, bank)
        assert l_u.value[0, 0] == 0.0 and l_ud.value[0, 0] == 0.0
        assert l_u.parents == () and l_ud.parents == ()

    def test_linear_in_scale(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        full = gate_record(1, 0.99, 0.0, 0.5)
        half = PseudoLabelRecord(1, 0.99, 0.0, True, full.l_scale / 2)
        lu_full, lud_full = obj.unsupervised_loss(x[0], full, model, modulation, bank, mode="eval")
        lu_half, lud_half = obj.unsupervised_loss(x[0], half, model, modulation, bank, mode="eval")
        assert lu_half.value[0, 0] == pytest.approx(lu_full.value[0, 0] / 2, rel=1e-12)
        assert lud_half.value[0, 0] == pytest.approx(lud_full.value[0, 0] / 2, rel=1e-12)


class TestTotalLoss:
    def _records(self, keeps):
        return [
            gate_record(i % 2, 0.9, 0.0, 0.5) if k
            else PseudoLabelRecord(i % 2, 0.5, 0.3, False, 0.0)
            for i, k in enumerate(keeps)
        ]

    def test_breakdown_sums_exactly(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, False, True])
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:5], records, model, modulation, bank, beta=1.0, gamma=0.5
        )
        v = breakdown.values()
        assert v["total"] == pytest.approx(
            v["l_s"] + v["l_u"] + 1.0 * v["l_d"] + 0.5 * v["l_ud"], abs=1e-12
        )

    def test_zero_kept_reduces_to_supervised_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([False, False])
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:4], records, model, modulation, bank, beta=1.0, gamma=0.5
        )
        v = breakdown.values()
        assert v["l_u"] == 0.0 and v["l_ud"] == 0.0
        assert v["total"] == pytest.approx(v["l_s"] + v["l_d"], abs=1e-14)

    def test_zero_weights_reduce_to_nll_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, True])
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:4], records, model, modulation, bank, beta=0.0, gamma=0.0
        )
        v = breakdown.values()
        assert v["total"] == pytest.approx(v["l_s"] + v["l_u"], abs=1e-14)

    def test_gating_blocks_all_unlabeled_gradient(self):
        model, modulation, bank, x, y = no_dropout_setup()
        params = model.params() + [modulation.param]

        def grads(records, with_unlabeled):
            for p in params:
                p.node.zero_grad()
            if with_unlabeled:
                breakdown = obj.total_loss(
                    x[:2], y[:2], x[2:6], records, model, modulation, bank
                )
            else:
                breakdown = obj.total_loss(
                    x[:2], y[:2], np.empty((0, 3)), [], model, modulation, bank
                )
            ad.backward(breakdown.total)
            return [p.node.grad.copy() for p in params]

        dropped = self._records([False, False, False, False])
        for a, b in zip(grads(dropped, True), grads([], False)):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_batch_rejected(self):
        model, modulation, bank, x, y = no_dropout_setup()
        with pytest.raises(ValueError):
            obj.total_loss(
                np.empty((0, 3)), [], x, self._records([True]), model, modulation, bank
            )

    def test_matches_straight_line_oracle(self):
        model, modulation, bank, x, y = no_dropout_setup(seed=21)
        records = [gate_record(1, 0.93, 0.01, 0.75), gate_record(0, 0.97, 0.02, 0.75)]
        lx, ly, ux = x[:2], y[:2], x[2:4]
        breakdown = obj.total_loss(
            lx, ly, ux, records, model, modulation, bank, beta=1.0, gamma=0.5
        )
        got = breakdown.values()
        l_s, l_u, l_d, l_ud, total = oracle_total(
            model, modulation, bank, lx, ly, ux, records, 1.0, 0.5
        )
        assert got["l_s"] == pytest.approx(l_s, abs=1e-10)
        assert got["l_u"] == pytest.approx(l_u, abs=1e-10)
        assert got["l_d"] == pytest.approx(l_d, abs=1e-10)
        assert got["l_ud"] == pytest.approx(l_ud, abs=1e-10)
        assert got["total"] == pytest.approx(total, abs=1e-10)

    def test_unlabeled_terms_average_over_all_slots(self):
        # discarded samples count in the denominator, diluting toward zero
        model, modulation, bank, x, y = no_dropout_setup()
        kept = [gate_record(1, 0.95, 0.0, 0.5)]
        padded = kept + [PseudoLabelRecord(0, 0.4, 0.3, False, 0.0)]
        lone = obj.total_loss(
            x[:2], y[:2], x[2:3], kept, model, modulation, bank
        ).values()
        diluted = obj.total_loss(
            x[:2], y[:2], x[2:4], padded, model, modulation, bank
        ).values()
        assert diluted["l_u"] == pytest.approx(lone["l_u"] / 2, rel=1e-12)
        assert diluted["l_ud"] == pytest.approx(lone["l_ud"] / 2, rel=1e-12)

    def test_baseline_mode_has_zero_diag_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, True])
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:4], records, model, None, None, mode="baseline"
        )
        v = breakdown.values()
        assert v["l_d"] == 0.0 and v["l_ud"] == 0.0
        assert v["l_s"] > 0.0 and v["l_u"] > 0.0

    def test_baseline_uniform_classifier(self):
        model, _, _, x, y = no_dropout_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        breakdown = obj.total_loss(
            x[:2], y[:2], np.empty((0, 3)), [], model, None, None, mode="baseline"
        )
        assert breakdown.values()["l_s"] == pytest.approx(math.log(2), abs=1e-12)

    def test_unknown_mode(self):
        model, modulation, bank, x, y = no_dropout_setup()
        with pytest.raises(ValueError):
            obj.total_loss(x[:2], y[:2], x[2:4], [], model, modulation, bank, mode="hybrid")

    def test_per_sample_ops_consistent_with_batch(self):
        model, modulation, bank, x, y = no_dropout_setup()
        breakdown = obj.total_loss(
            x[:1], y[:1], np.empty((0, 3)), [], model, modulation, bank
        )
        single, slog = obj.supervised_loss(x[0], y[0], model, modulation, bank, mode="train")
        assert breakdown.values()["l_s"] == pytest.approx(single.value[0, 0], abs=1e-14)
        assert breakdown.values()["l_d"] == pytest.approx(
            obj.diag_max_loss(slog).value[0, 0], abs=1e-14
        )


class TestDiagTargets:
    @pytest.mark.parametrize("n,c", [(1, 2), (5, 3), (48, 7)])
    def test_strided_write_matches_index_arrays(self, rng, n, c):
        slog = rng.normal(size=(n * c, c))
        colmax = slog.reshape(n, c, c).max(axis=1)
        want = np.zeros((n * c, c))
        want[np.arange(n * c), np.tile(np.arange(c), n)] = colmax.reshape(-1)
        got = obj._diag_targets(slog, n, c)
        assert got.tobytes() == want.tobytes()

    def test_block_diag_mask_is_cached_read_only(self):
        mask = obj._block_diag_mask(4, 3)
        np.testing.assert_array_equal(mask, np.tile(np.eye(3), (4, 1)))
        assert obj._block_diag_mask(4, 3) is mask
        assert not mask.flags.writeable
