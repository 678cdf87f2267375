import math

import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import network as net
from modfeat import objective as obj
from modfeat.pseudolabel import gate_batch
from tests import refops as ref
from tests.conftest import make_tiny_setup


# The pseudo-labels of a batch without unlabeled rows.
NO_PSEUDO = gate_batch([], [], [], 0.5)


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
        l_u += rec.weight * (-slog[:, rec.label].mean()) / n_u
        l_ud += rec.weight * ((np.diag(slog) - slog.max(axis=0)) ** 2).mean() / n_u
    return l_s, l_u, l_d, l_ud, l_s + l_u + beta * l_d + gamma * l_ud


def _gap_loss(slog, beta=1.0):
    """Loss node and terms of one labeled sample's C x C log-score matrix
    (class 0 picked), with its diagonal gap weighted by ``beta``."""
    target = obj._diag_targets(slog.value, 1, slog.shape[1])
    return obj._loss_node(slog, 1, [0], [], 0, beta, 0.0, target)


def _diag_gap(slog):
    """Diagonal-gap term of one sample's C x C log-score matrix."""
    return _gap_loss(slog)[1]["l_d"]


class TestSupervisedLoss:
    def test_uniform_classifier_gives_log_c(self):
        for c in (2, 5):
            model, modulation, bank, x, _ = make_tiny_setup(num_classes=c)
            model.classifier.weight.value[:] = 0.0
            model.classifier.bias.value[:] = 0.0
            loss = obj.total_loss(
                x[:1], [0], np.empty((0, 3)), NO_PSEUDO, model, model.fm_head(modulation, bank),
                rng=np.random.default_rng(0),
            ).l_s
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_saturated_prediction_drives_loss_to_zero(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        model.classifier.bias.value[:] = np.array([[500.0, -500.0]])
        model.classifier.weight.value[:] = 0.0
        head = model.fm_head(modulation, bank)
        loss = obj.total_loss(x[:1], [0], np.empty((0, 3)), NO_PSEUDO, model, head, None).l_s
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_two_class_case(self):
        model, modulation, bank, x, _ = no_dropout_setup()
        head = model.fm_head(modulation, bank)
        loss = obj.total_loss(x[:1], [1], np.empty((0, 3)), NO_PSEUDO, model, head, None).l_s
        slog = ad.row_log_softmax(net.score_graph(model, head, x[:1]))
        expected = -slog.value[:, 1].mean()
        assert loss == pytest.approx(expected, abs=1e-14)


class TestDiagMaxLoss:
    def test_zero_when_diagonal_is_column_max(self):
        slog = ad.constant([[-1.0, -3.0], [-2.0, -0.5]])
        assert _diag_gap(slog) == 0.0

    def test_hand_case_half(self):
        slog = ad.constant([[-2.0, -1.0], [-1.0, -1.0]])
        assert _diag_gap(slog) == pytest.approx(0.5, abs=1e-15)

    def test_column_shift_invariance_exact(self):
        base = np.array([[-2.0, -1.0, -4.0], [-1.0, -3.0, -2.0], [-5.0, -2.0, -1.0]])
        shifted = base.copy()
        shifted[:, 1] += 3.0  # integer-valued floats keep this exact
        a = _diag_gap(ad.constant(base))
        b = _diag_gap(ad.constant(shifted))
        assert a == b

    def test_target_is_gradient_stopped(self):
        p = ad.leaf(np.array([[-2.0, -1.0], [-1.0, -1.0]]), "p")
        grads = []
        for beta in (1.0, 0.0):  # the label term's share cancels in the difference
            grads.append(ad.backward(_gap_loss(p, beta)[0])[p])
        # d/ds00 of ((s00 - colmax0)^2 + 0)/2 with colmax frozen at -1
        np.testing.assert_allclose(
            grads[0] - grads[1], [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14
        )


class TestUnsupervisedLoss:
    def test_discarded_record_builds_nothing(self):
        model, modulation, bank, x, y = no_dropout_setup()
        dropped = gate_batch([0], [0.5], [0.2], 0.75)
        head = model.fm_head(modulation, bank)
        breakdown = obj.total_loss(x[:1], y[:1], x[:1], dropped, model, head, None)
        assert breakdown.l_u == 0.0 and breakdown.l_ud == 0.0
        # only the labeled sample's C rows are scored
        (slog,) = breakdown.total.parents
        assert slog.shape == (model.num_classes, model.num_classes)

    def test_linear_in_scale(self):
        model, modulation, bank, x, y = no_dropout_setup()
        full = gate_batch([1], [0.99], [0.0], 0.5)
        half = full.copy()
        half["weight"] /= 2

        head = model.fm_head(modulation, bank)

        def unlabeled_terms(pseudo):
            v = obj.total_loss(x[:1], y[:1], x[:1], pseudo, model, head, None).values()
            return v["l_u"], v["l_ud"]

        lu_full, lud_full = unlabeled_terms(full)
        lu_half, lud_half = unlabeled_terms(half)
        assert lu_half == pytest.approx(lu_full / 2, rel=1e-12)
        assert lud_half == pytest.approx(lud_full / 2, rel=1e-12)


class TestTotalLoss:
    def _records(self, keeps):
        """Labels alternating 0, 1; kept rows at p_max 0.9, dropped ones at
        p_max 0.5 and sigma 0.3."""
        return gate_batch(
            [i % 2 for i in range(len(keeps))],
            [0.9 if k else 0.5 for k in keeps],
            [0.0 if k else 0.3 for k in keeps],
            0.5,
        )

    def test_breakdown_sums_exactly(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, False, True])
        head = model.fm_head(modulation, bank)
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:5], records, model, head, None, beta=1.0, gamma=0.5
        )
        v = breakdown.values()
        assert v["total"] == pytest.approx(
            v["l_s"] + v["l_u"] + 1.0 * v["l_d"] + 0.5 * v["l_ud"], abs=1e-12
        )

    def test_one_forward_over_labeled_and_kept_rows(self, monkeypatch):
        model, modulation, bank, x, y = no_dropout_setup()
        real, batches = net.score_graph, []

        def counting(model, head, x, *args):
            batches.append(x.copy())
            return real(model, head, x, *args)

        monkeypatch.setattr(net, "score_graph", counting)
        records = self._records([True, False, True])
        obj.total_loss(
            x[:2], y[:2], x[2:5], records, model, model.fm_head(modulation, bank), None
        )
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], x[[0, 1, 2, 4]])

    def test_zero_kept_reduces_to_supervised_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([False, False])
        head = model.fm_head(modulation, bank)
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:4], records, model, head, None, beta=1.0, gamma=0.5
        )
        v = breakdown.values()
        assert v["l_u"] == 0.0 and v["l_ud"] == 0.0
        assert v["total"] == pytest.approx(v["l_s"] + v["l_d"], abs=1e-14)

    def test_zero_weights_reduce_to_nll_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, True])
        head = model.fm_head(modulation, bank)
        breakdown = obj.total_loss(
            x[:2], y[:2], x[2:4], records, model, head, None, beta=0.0, gamma=0.0
        )
        v = breakdown.values()
        assert v["total"] == pytest.approx(v["l_s"] + v["l_u"], abs=1e-14)

    def test_gating_blocks_all_unlabeled_gradient(self):
        model, modulation, bank, x, y = no_dropout_setup()
        params = model.params() + [modulation.param]

        def grads(unlabeled, pseudo):
            breakdown = obj.total_loss(
                x[:2], y[:2], unlabeled, pseudo, model, model.fm_head(modulation, bank), None
            )
            got = ad.backward(breakdown.total)
            return [got[p] for p in params]

        dropped = self._records([False, False, False, False])
        for a, b in zip(grads(x[2:6], dropped), grads(np.empty((0, 3)), NO_PSEUDO)):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_batch_rejected(self):
        model, modulation, bank, x, y = no_dropout_setup()
        head = model.fm_head(modulation, bank)
        with pytest.raises(ValueError):
            obj.total_loss(np.empty((0, 3)), [], x, self._records([True]), model, head, None)

    def test_matches_straight_line_oracle(self):
        model, modulation, bank, x, y = no_dropout_setup(seed=21)
        records = gate_batch([1, 0], [0.93, 0.97], [0.01, 0.02], 0.75)
        lx, ly, ux = x[:2], y[:2], x[2:4]
        breakdown = obj.total_loss(
            lx, ly, ux, records, model, model.fm_head(modulation, bank), None,
            beta=1.0, gamma=0.5,
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
        padded = gate_batch([1, 0], [0.95, 0.4], [0.0, 0.3], 0.5)
        lone = obj.total_loss(
            x[:2], y[:2], x[2:3], kept, model, model.fm_head(modulation, bank), None
        ).values()
        diluted = obj.total_loss(
            x[:2], y[:2], x[2:4], padded, model, model.fm_head(modulation, bank), None
        ).values()
        assert diluted["l_u"] == pytest.approx(lone["l_u"] / 2, rel=1e-12)
        assert diluted["l_ud"] == pytest.approx(lone["l_ud"] / 2, rel=1e-12)

    def test_baseline_mode_has_zero_diag_terms(self):
        model, modulation, bank, x, y = no_dropout_setup()
        records = self._records([True, True])
        breakdown = obj.total_loss(x[:2], y[:2], x[2:4], records, model, None, None)
        v = breakdown.values()
        assert v["l_d"] == 0.0 and v["l_ud"] == 0.0
        assert v["l_s"] > 0.0 and v["l_u"] > 0.0

    def test_baseline_uniform_classifier(self):
        model, _, _, x, y = no_dropout_setup()
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0
        breakdown = obj.total_loss(
            x[:2], y[:2], np.empty((0, 3)), NO_PSEUDO, model, None, None
        )
        assert breakdown.values()["l_s"] == pytest.approx(math.log(2), abs=1e-12)


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
        # The first n_l samples are labeled (w_i = 1, denom n_l), the rest
        # kept unlabeled ones (denom n_u). The label terms' adjoint is
        # (g * -1/denom) times the mask that gives column picks[i] of all R
        # rows of sample i the weight w_i / R.
        n_l = (n + 1) // 2
        n_k, n_u = n - n_l, n - n_l + 2
        picks = rng.integers(0, c, n)
        weights = rng.uniform(size=n_k) if weighted else np.ones(n_k)
        w = np.concatenate([np.ones(n_l), weights])
        mask = np.zeros((n * r, c))
        mask[np.arange(n * r), np.repeat(picks, r)] = np.repeat(w / r, r)
        denom = np.repeat([n_l, n_u], [n_l * r, n_k * r])[:, None]
        slog = ad.leaf(rng.normal(size=(n * r, c)))
        node, terms = obj._loss_node(slog, n_l, picks, weights, n_u, 1.0, 0.5, None)
        grad = ad.backward(ref.scale(node, 0.7))[slog]
        # Equal up to the sign of zeros: the dense product has -0.0 off the picks.
        np.testing.assert_array_equal(grad, (0.7 * (-1.0 / denom)) * mask)
        per_row = -(slog.value * mask / denom).sum(axis=1)
        assert terms["l_s"] == pytest.approx(per_row[: n_l * r].sum())
        assert terms["l_u"] == pytest.approx(per_row[n_l * r:].sum())
        assert terms["l_d"] == terms["l_ud"] == 0.0
        assert node.value[0, 0] == terms["l_s"] + terms["l_u"]


def _dense_view_terms(slog, n, picks, weights, denom, target):
    """One view's label and gap terms as a chain of the generic ops.

    Masked sums are scale(sum_all(mul(a, mask)), c); sub(a, b) is
    add(a, scale(b, -1.0)), which gives the same bits.
    """
    rows, c = slog.shape
    r = rows // n
    w = 1.0 if weights is None else np.asarray(weights)[:, None]
    label_mask = np.zeros((n, r, c))
    label_mask[np.arange(n), :, picks] = w / r
    label = ref.scale(
        ad.sum_all(ref.mul(slog, ad.Node(label_mask.reshape(rows, c)))), -1.0 / denom
    )
    if target is None:
        return label, ad.Node(np.zeros((1, 1)))
    dense_target = np.zeros((rows, c))
    dense_target.reshape(n, c * c)[:, :: c + 1] = target
    block_diag = np.tile(np.eye(c), (n, 1))
    gap = ref.mul(ref.add(slog, ref.scale(ad.Node(dense_target), -1.0)), ad.Node(block_diag))
    sq = ref.mul(gap, gap)
    if weights is None:
        mean = ref.scale(ad.sum_all(sq), 1.0 / c)
    else:
        weighted = block_diag * np.repeat(weights, c)[:, None]
        mean = ref.scale(ad.sum_all(ref.mul(sq, ad.Node(weighted))), 1.0 / c)
    return label, ref.scale(mean, 1.0 / denom)


class TestViewNodes:
    """The loss node on stacked views against a dense chain per view, the
    views' terms joined by add and scale nodes: adjoints bit for bit."""

    @pytest.mark.parametrize("beta,gamma", [(1.0, 0.5), (0.3, 1.7)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("per_class", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_adjoints_match_dense_chain_bitwise(
        self, rng, n, per_class, weighted, beta, gamma
    ):
        self._check(rng, n, per_class, weighted, True, beta, gamma)

    @pytest.mark.parametrize(
        "kept,beta,gamma",
        [
            (False, 1.0, 0.5), (False, 0.3, 1.7), (False, 0.0, 0.0),
            (True, 0.0, 0.0), (True, 1.7, 0.3),
        ],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("per_class", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_more_view_and_weight_cases_bitwise(
        self, rng, n, per_class, weighted, kept, beta, gamma
    ):
        self._check(rng, n, per_class, weighted, kept, beta, gamma)

    @staticmethod
    def _check(rng, n, per_class, weighted, kept, beta, gamma):
        c = 7
        r = c if per_class else 1
        # n labeled samples over n slots, then n_k kept ones over n + 3 slots
        n_k, n_u = (n if kept else 0), n + 3
        values = rng.normal(size=((n + n_k) * r, c))
        picks = rng.integers(0, c, n + n_k)
        weights = rng.uniform(0.4, 1.0, n_k) if weighted else None

        stacked = ad.leaf(values)
        slog = ad.row_log_softmax(stacked)
        target = obj._diag_targets(slog.value, n + n_k, c) if per_class else None
        node, terms = obj._loss_node(
            slog, n, picks, np.ones(n_k) if weights is None else weights,
            n_u, beta, gamma, target,
        )
        fused = ad.backward(node)

        views = [(slice(0, n), None, n)] + [(slice(n, n + n_k), weights, n_u)] * kept
        leaves, parts = [], []
        for v, w, denom in views:
            leaves.append(ad.leaf(values[v.start * r: v.stop * r]))
            view_slog = ad.row_log_softmax(leaves[-1])
            view_target = None if target is None else obj._diag_targets(
                view_slog.value, v.stop - v.start, c
            )
            parts.append(
                _dense_view_terms(view_slog, v.stop - v.start, picks[v], w, denom, view_target)
            )
        if not kept:
            parts.append((ad.Node(np.zeros((1, 1))), ad.Node(np.zeros((1, 1)))))
        (l_s, l_d), (l_u, l_ud) = parts
        total = ref.add(ref.add(l_s, l_u), ref.add(ref.scale(l_d, beta), ref.scale(l_ud, gamma)))
        dense = ad.backward(total)

        want = np.concatenate([dense[leaf] for leaf in leaves])
        assert fused[stacked].tobytes() == want.tobytes()
        for key, term in zip(("l_s", "l_u", "l_d", "l_ud"), (l_s, l_u, l_d, l_ud)):
            assert terms[key] == pytest.approx(term.value[0, 0], rel=1e-14)
        assert node.value[0, 0] == pytest.approx(total.value[0, 0], rel=1e-14)
