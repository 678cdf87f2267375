import math

import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import network as net
from modfeat import objective as obj
from modfeat.pseudolabel import PseudoLabelRecord, gate_batch
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


def _diag_gap(slog):
    """Diagonal-gap term of one sample's C x C log-score matrix."""
    return obj._gap_node(slog, 1, None, 1, obj._diag_targets(slog.value, 1, slog.shape[1]))


class TestSupervisedLoss:
    def test_uniform_classifier_gives_log_c(self):
        for c in (2, 5):
            model, modulation, bank, x, _ = make_tiny_setup(num_classes=c)
            model.classifier.weight.node.value[:] = 0.0
            model.classifier.bias.node.value[:] = 0.0
            loss = obj.total_loss(
                x[:1], [0], np.empty((0, 3)), [], model, modulation, bank,
                rng=np.random.default_rng(0),
            ).l_s
            assert loss.value[0, 0] == pytest.approx(math.log(c), abs=1e-12)

    def test_saturated_prediction_drives_loss_to_zero(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        model.classifier.bias.node.value[:] = np.array([[500.0, -500.0]])
        model.classifier.weight.node.value[:] = 0.0
        loss = obj.total_loss(x[:1], [0], np.empty((0, 3)), [], model, modulation, bank).l_s
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_two_class_case(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        loss = obj.total_loss(x[:1], [1], np.empty((0, 3)), [], model, modulation, bank).l_s
        slog = ad.row_log_softmax(net.score_graph(model, modulation, bank, x[:1], "eval"))
        expected = -slog.value[:, 1].mean()
        assert loss.value[0, 0] == pytest.approx(expected, abs=1e-14)


class TestDiagMaxLoss:
    def test_zero_when_diagonal_is_column_max(self):
        slog = ad.constant([[-1.0, -3.0], [-2.0, -0.5]])
        assert _diag_gap(slog).value[0, 0] == 0.0

    def test_hand_case_half(self):
        slog = ad.constant([[-2.0, -1.0], [-1.0, -1.0]])
        assert _diag_gap(slog).value[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_column_shift_invariance_exact(self):
        base = np.array([[-2.0, -1.0, -4.0], [-1.0, -3.0, -2.0], [-5.0, -2.0, -1.0]])
        shifted = base.copy()
        shifted[:, 1] += 3.0  # integer-valued floats keep this exact
        a = _diag_gap(ad.constant(base)).value[0, 0]
        b = _diag_gap(ad.constant(shifted)).value[0, 0]
        assert a == b

    def test_target_is_gradient_stopped(self):
        p = ad.DualParam.create("p", np.array([[-2.0, -1.0], [-1.0, -1.0]]))
        ad.backward(_diag_gap(p.node))
        # d/ds00 of ((s00 - colmax0)^2 + 0)/2 with colmax frozen at -1
        np.testing.assert_allclose(p.grad, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)


class TestUnsupervisedLoss:
    def test_discarded_record_builds_nothing(self):
        model, modulation, bank, x, y = no_dropout_setup()
        rec = PseudoLabelRecord(label=0, p_max=0.5, sigma=0.2, keep=False, l_scale=0.0)
        breakdown = obj.total_loss(x[:1], y[:1], x[:1], [rec], model, modulation, bank)
        l_u, l_ud = breakdown.l_u, breakdown.l_ud
        assert l_u.value[0, 0] == 0.0 and l_ud.value[0, 0] == 0.0
        assert l_u.parents == () and l_ud.parents == ()

    def test_linear_in_scale(self):
        model, modulation, bank, x, y = no_dropout_setup()
        (full,) = gate_batch([1], [0.99], [0.0], 0.5)
        half = PseudoLabelRecord(1, 0.99, 0.0, True, full.l_scale / 2)

        def unlabeled_terms(rec):
            v = obj.total_loss(x[:1], y[:1], x[:1], [rec], model, modulation, bank).values()
            return v["l_u"], v["l_ud"]

        lu_full, lud_full = unlabeled_terms(full)
        lu_half, lud_half = unlabeled_terms(half)
        assert lu_half == pytest.approx(lu_full / 2, rel=1e-12)
        assert lud_half == pytest.approx(lud_full / 2, rel=1e-12)


class TestTotalLoss:
    def _records(self, keeps):
        (kept,) = gate_batch([0], [0.9], [0.0], 0.5)
        return [
            kept._replace(label=i % 2) if k
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
        records = gate_batch([1, 0], [0.93, 0.97], [0.01, 0.02], 0.75)
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
        kept = gate_batch([1], [0.95], [0.0], 0.5)
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
            x[:2], y[:2], x[2:4], records, model, None, None, mode="fixmatch-baseline"
        )
        v = breakdown.values()
        assert v["l_d"] == 0.0 and v["l_ud"] == 0.0
        assert v["l_s"] > 0.0 and v["l_u"] > 0.0

    def test_baseline_uniform_classifier(self):
        model, _, _, x, y = no_dropout_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        breakdown = obj.total_loss(
            x[:2], y[:2], np.empty((0, 3)), [], model, None, None,
            mode="fixmatch-baseline",
        )
        assert breakdown.values()["l_s"] == pytest.approx(math.log(2), abs=1e-12)

    def test_unknown_mode(self):
        model, modulation, bank, x, y = no_dropout_setup()
        with pytest.raises(ValueError):
            obj.total_loss(x[:2], y[:2], x[2:4], [], model, modulation, bank, mode="hybrid")

    @pytest.mark.parametrize("mode", ["typo", "baseline"])
    def test_only_the_shared_mode_names(self, mode):
        model, modulation, bank, x, y = no_dropout_setup()
        with pytest.raises(ValueError, match="mode must be one of"):
            obj.total_loss(x[:2], y[:2], x[2:4], [], model, modulation, bank, mode=mode)


class TestDiagTargets:
    @pytest.mark.parametrize("n,c", [(1, 2), (5, 3), (48, 7)])
    def test_strided_write_matches_index_arrays(self, rng, n, c):
        # (n, C) column maxima of each sample's C x C block
        slog = rng.normal(size=(n * c, c))
        want = np.array([slog[i * c:(i + 1) * c].max(axis=0) for i in range(n)])
        got = obj._diag_targets(slog, n, c)
        assert got.shape == (n, c) and got.tobytes() == want.tobytes()


class TestLabelMask:
    @pytest.mark.parametrize("n,r,c", [(1, 1, 2), (48, 1, 7), (5, 3, 3), (48, 7, 7)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_index_arrays(self, rng, n, r, c, weighted):
        # The label node's adjoint is (g * -1/denom) times the mask that gives
        # column picks[i] of all R rows of sample i the weight w_i / R.
        picks = rng.integers(0, c, n)
        weights = rng.uniform(size=n) if weighted else None
        w = np.ones(n) if weights is None else weights
        mask = np.zeros((n * r, c))
        mask[np.arange(n * r), np.repeat(picks, r)] = np.repeat(w / r, r)
        slog = ad.leaf(rng.normal(size=(n * r, c)))
        label = obj._label_node(slog, n, picks, weights, 3)
        ad.backward(ad.scale(label, 0.7))
        # Equal up to the sign of zeros: the dense product has -0.0 off the picks.
        np.testing.assert_array_equal(slog.grad, (0.7 * (-1.0 / 3)) * mask)
        assert label.value[0, 0] == pytest.approx(-(slog.value * mask).sum() / 3)


def _dense_view_terms(slog, n, picks, weights, denom, target):
    """The dense-mask chain the view nodes replace, from the ops that stay.

    Masked sums are scale(sum_all(mul(a, mask)), c); sub(a, b) is
    add(a, scale(b, -1.0)), which gives the same bits.
    """
    rows, c = slog.shape
    r = rows // n
    w = 1.0 if weights is None else np.asarray(weights)[:, None]
    label_mask = np.zeros((n, r, c))
    label_mask[np.arange(n), :, picks] = w / r
    label = ad.scale(
        ad.sum_all(ad.mul(slog, ad.Node(label_mask.reshape(rows, c)))), -1.0 / denom
    )
    if r == 1:
        return label, obj._zero()
    dense_target = np.zeros((rows, c))
    dense_target.reshape(n, c * c)[:, :: c + 1] = target
    block_diag = np.tile(np.eye(c), (n, 1))
    gap = ad.mul(ad.add(slog, ad.scale(ad.Node(dense_target), -1.0)), ad.Node(block_diag))
    sq = ad.mul(gap, gap)
    if weights is None:
        mean = ad.scale(ad.sum_all(sq), 1.0 / c)
    else:
        weighted = block_diag * np.repeat(weights, c)[:, None]
        mean = ad.scale(ad.sum_all(ad.mul(sq, ad.Node(weighted))), 1.0 / c)
    return label, ad.scale(mean, 1.0 / denom)


class TestViewNodes:
    """The two view nodes against the dense chain: adjoints bit for bit."""

    @pytest.mark.parametrize("beta,gamma", [(1.0, 0.5), (0.3, 1.7)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("per_class", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_adjoints_match_dense_chain_bitwise(
        self, rng, n, per_class, weighted, beta, gamma
    ):
        c = 7
        r = c if per_class else 1
        # Two views, as in total_loss: (l_s, l_d) over n slots, (l_u, l_ud)
        # over n + 3 slots.
        views = [
            (
                ad.leaf(rng.normal(size=(n * r, c))),
                rng.integers(0, c, n),
                rng.uniform(0.4, 1.0, n) if weighted else None,
                denom,
            )
            for denom in (n, n + 3)
        ]

        def run(terms):
            for leaf, *_ in views:
                leaf.zero_grad()
            parts = []
            for leaf, picks, weights, denom in views:
                slog = ad.row_log_softmax(leaf)
                target = obj._diag_targets(slog.value, n, c) if r == c else None
                parts.append(terms(slog, n, picks, weights, denom, target))
            (l_s, l_d), (l_u, l_ud) = parts
            total = ad.add(
                ad.add(l_s, l_u), ad.add(ad.scale(l_d, beta), ad.scale(l_ud, gamma))
            )
            ad.backward(total)
            return total.value[0, 0], [leaf.grad.copy() for leaf, *_ in views]

        def nodes(slog, n, picks, weights, denom, target):
            label = obj._label_node(slog, n, picks, weights, denom)
            if target is None:
                return label, obj._zero()
            return label, obj._gap_node(slog, n, weights, denom, target)

        got_total, got = run(nodes)
        want_total, want = run(_dense_view_terms)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert got_total == pytest.approx(want_total, rel=1e-14)
