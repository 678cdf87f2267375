import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfeat import pseudolabel as pl
from modfeat.autodiff import ParameterError
from modfeat.modulator import ModulationMatrix, variance_init
from modfeat.prototypes import build_bank
from tests.conftest import make_tiny_model, make_tiny_setup


class TestConfidenceScale:
    def test_endpoints(self):
        assert pl.confidence_scale(1.0) == pytest.approx(1.0, abs=1e-15)
        assert pl.confidence_scale(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_high_precision_values(self):
        import mpmath

        mpmath.mp.dps = 40
        for p in (0.75, 0.9):
            expected = float(mpmath.exp(mpmath.mpf(p) ** 3 - 1))
            assert pl.confidence_scale(p) == pytest.approx(expected, abs=1e-14)
        assert pl.confidence_scale(0.75) == pytest.approx(0.5609492, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            pl.confidence_scale(1.1)
        with pytest.raises(ParameterError):
            pl.confidence_scale(-0.01)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        values = [pl.confidence_scale(p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.0, 1e-6)
    def test_monotone_pairs(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert pl.confidence_scale(lo) <= pl.confidence_scale(hi)
        # Resolution is lost in p**3 - 1, not in hi - lo: near 0 the cubes
        # differ by far less than one ulp of 1, so only a gap in the cubes
        # this large is guaranteed to survive as a strict increase.
        if hi**3 - lo**3 >= 1e-12:
            assert pl.confidence_scale(lo) < pl.confidence_scale(hi)


class TestGate:
    def test_keep_case(self):
        (rec,) = pl.gate_batch([2], p_max=[0.9], sigma=[0.05], tau=0.75)
        assert rec.keep
        assert rec.l_scale == pytest.approx(math.exp(0.9**3 - 1.0), abs=1e-15)
        assert rec.l_scale == pytest.approx(0.76262, abs=1e-4)

    def test_discard_case(self):
        (rec,) = pl.gate_batch([1], p_max=[0.76], sigma=[0.02], tau=0.75)
        assert not rec.keep
        assert rec.l_scale == 0.0

    def test_strict_inequality(self):
        (rec,) = pl.gate_batch([0], p_max=[0.80], sigma=[0.05], tau=0.75)
        assert not rec.keep  # 0.75 is not > 0.75

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3)), min_size=1, max_size=30
        ),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_lower_tau_never_keeps_fewer(self, pairs, tau_a, tau_b):
        lo, hi = min(tau_a, tau_b), max(tau_a, tau_b)
        labels, p_max, sigma = [0] * len(pairs), *zip(*pairs)
        kept_lo = sum(r.keep for r in pl.gate_batch(labels, p_max, sigma, lo))
        kept_hi = sum(r.keep for r in pl.gate_batch(labels, p_max, sigma, hi))
        assert kept_lo >= kept_hi

    def test_baseline_gate(self):
        above, tie = pl.baseline_gate_batch([0, 0], [0.96, 0.95], 0.95)
        assert above.keep
        assert above.l_scale == 1.0
        assert not tie.keep
        assert tie.l_scale == 0.0


class TestPredictMatrix:
    def test_zero_classifier_uniform(self, rng):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        s = pl.predict_matrices(x[:1], model, modulation, bank)[0]
        np.testing.assert_allclose(s, 0.5, atol=1e-15)

    def test_identity_modulation_equal_rows(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        s = pl.predict_matrices(x[:1], model, ones, bank)[0]
        np.testing.assert_allclose(s[0], s[1], atol=1e-12)

    def test_rows_sum_to_one(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        s = pl.predict_matrices(x, model, modulation, bank)
        np.testing.assert_allclose(s.sum(axis=2), 1.0, atol=1e-12)

    def test_shape(self):
        model, modulation, bank, x, _ = make_tiny_setup(num_classes=2)
        assert pl.predict_matrices(x[:1], model, modulation, bank).shape == (1, 2, 2)
        assert pl.predict_matrices(x[:3], model, modulation, bank).shape == (3, 2, 2)
        assert pl.predict_matrices(x[:3], model, None, None).shape == (3, 1, 2)


class TestPseudoLabel:
    def test_no_dropout_is_deterministic_with_zero_sigma(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.extractor.config = model.extractor.config.__class__(
            input_dim=3, hidden_dims=(5,), feature_dim=4, dropout_p=0.0
        )
        (rec,) = pl.pseudo_label_batch(
            x[:1], model, modulation, bank, mc_samples=4, tau=0.3,
            rng=np.random.default_rng(0),
        )
        assert rec.sigma == 0.0
        assert rec.keep == (rec.p_max > 0.3)

    def test_mc_sigma_positive_with_dropout(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        recs = pl.pseudo_label_batch(
            x, model, modulation, bank, mc_samples=5, tau=0.75,
            rng=np.random.default_rng(0),
        )
        assert np.mean([r.sigma for r in recs]) > 0.0

    def test_sigma_is_population_std_of_predicted_class(self):
        # reproduce the aggregation by hand from the same MC stream
        model, modulation, bank, x, _ = make_tiny_setup()
        seed, k = 42, 5
        recs = pl.pseudo_label_batch(
            x, model, modulation, bank, mc_samples=k, tau=0.75,
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        diags = np.empty((k, len(x), 2))
        for i in range(k):
            s = pl.predict_matrices(x, model, modulation, bank, dropout=True, rng=rng)
            diags[i] = np.diagonal(s, axis1=1, axis2=2)
        mean_diag = diags.mean(axis=0)
        for idx, rec in enumerate(recs):
            label = mean_diag[idx].argmax()
            assert rec.label == label
            assert rec.p_max == pytest.approx(mean_diag[idx, label], abs=1e-15)
            assert rec.sigma == pytest.approx(
                diags[:, idx, label].std(), abs=1e-15
            )

    def test_requires_two_mc_samples(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        with pytest.raises(ParameterError):
            pl.pseudo_label_batch(x[:1], model, modulation, bank, mc_samples=1)

    def test_tau_range_checked(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        with pytest.raises(ParameterError):
            pl.pseudo_label_batch(x[:1], model, modulation, bank, tau=1.5)


def _loop_oracle(u, model, modulation, bank, k, rng):
    """The K-call MC loop the stacked forward replaces."""
    n, c = len(u), model.num_classes
    diags = np.empty((k, n, c))
    for i in range(k):
        s = pl.predict_matrices(u, model, modulation, bank, dropout=True, rng=rng)
        diags[i] = np.diagonal(s, axis1=1, axis2=2)
    mean_diag = diags.mean(axis=0)
    labels = mean_diag.argmax(axis=1)
    rows = np.arange(n)
    return labels, mean_diag[rows, labels], diags[:, rows, labels].std(axis=0)


class TestStackedMonteCarlo:
    @pytest.mark.parametrize("hidden", [(), (64,)])
    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_k_call_loop_bitwise(self, hidden, n):
        num_classes, dim, k = 7, 32, 5
        model = make_tiny_model(
            num_classes=num_classes, input_dim=dim, hidden=hidden, feature_dim=dim
        )
        g = np.random.default_rng(3)
        y = np.repeat(np.arange(num_classes), 4)
        feats = model.extractor.forward(g.normal(size=(len(y), dim)), "eval").value
        modulation = ModulationMatrix.from_values(variance_init(feats, y, num_classes))
        bank = build_bank(feats, y, num_classes)
        u = g.normal(size=(n, dim))

        rng = np.random.default_rng(21)
        recs = pl.pseudo_label_batch(u, model, modulation, bank, k, 0.5, rng)
        oracle_rng = np.random.default_rng(21)
        labels, p_max, sigma = _loop_oracle(u, model, modulation, bank, k, oracle_rng)

        assert [r.label for r in recs] == labels.tolist()
        assert np.array([r.p_max for r in recs]).tobytes() == p_max.tobytes()
        assert np.array([r.sigma for r in recs]).tobytes() == sigma.tobytes()
        assert rng.random() == oracle_rng.random()


class TestBaselinePseudoLabel:
    def test_uniform_prediction_discarded(self):
        model, _, _, x, _ = make_tiny_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        (rec,) = pl.baseline_pseudo_label_batch(x[:1], model)
        assert not rec.keep and rec.l_scale == 0.0

    def test_deterministic_single_pass(self):
        model, _, _, x, _ = make_tiny_setup()
        a = pl.baseline_pseudo_label_batch(x, model)
        b = pl.baseline_pseudo_label_batch(x, model)
        assert a == b
        assert all(r.sigma == 0.0 for r in a)

    def test_weight_is_binary(self):
        model, _, _, x, _ = make_tiny_setup()
        model.classifier.weight.node.value[:] *= 50.0  # force saturation
        recs = pl.baseline_pseudo_label_batch(x, model)
        assert {r.l_scale for r in recs} <= {0.0, 1.0}
        assert any(r.keep for r in recs)


def _old_gate_record(label, p_max, sigma, tau):
    """The per-record uncertainty gate, kept as the oracle for ``gate_batch``."""
    keep = bool(p_max - sigma > tau)
    return pl.PseudoLabelRecord(
        label=int(label),
        p_max=float(p_max),
        sigma=float(sigma),
        keep=keep,
        l_scale=pl.confidence_scale(float(p_max)) if keep else 0.0,
    )


def _old_baseline_gate_record(label, p_max, tau_fixed):
    keep = bool(p_max > tau_fixed)
    return pl.PseudoLabelRecord(
        label=int(label),
        p_max=float(p_max),
        sigma=0.0,
        keep=keep,
        l_scale=1.0 if keep else 0.0,
    )


def _same_records(got, want):
    """Field by field, including types and float bits (repr round-trips)."""
    assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
    assert repr(got) == repr(want)


_unit = st.floats(0.0, 1.0)


class TestBatchGate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), _unit, st.floats(0.0, 0.5)), max_size=48),
        st.floats(0.01, 0.99),
    )
    @example([(3, 0.875, 0.125)], 0.75)  # p_max - sigma == tau exactly: dropped
    @example([(1, 0.9, 0.0), (2, 0.2, 0.1)], 0.5)
    def test_matches_per_record_gate(self, rows, tau):
        labels = np.array([r[0] for r in rows], dtype=np.int64)
        p_max = np.array([r[1] for r in rows], dtype=np.float64)
        sigma = np.array([r[2] for r in rows], dtype=np.float64)
        want = [
            _old_gate_record(label, p, s, tau)
            for label, p, s in zip(labels.tolist(), p_max.tolist(), sigma.tolist())
        ]
        _same_records(pl.gate_batch(labels, p_max, sigma, tau), want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), _unit), max_size=48),
        st.floats(0.01, 0.99),
    )
    @example([(0, 0.95), (1, 0.9500000000000001)], 0.95)  # tie is dropped
    def test_baseline_matches_per_record_gate(self, rows, tau_fixed):
        labels = np.array([r[0] for r in rows], dtype=np.int64)
        p_max = np.array([r[1] for r in rows], dtype=np.float64)
        want = [
            _old_baseline_gate_record(label, p, tau_fixed)
            for label, p in zip(labels.tolist(), p_max.tolist())
        ]
        _same_records(pl.baseline_gate_batch(labels, p_max, tau_fixed), want)

    def test_kept_confidence_above_one_rejected(self):
        with pytest.raises(ParameterError):
            pl.gate_batch(np.array([0, 1]), np.array([0.9, 1.5]), np.zeros(2), 0.75)
        # Dropped rows get no weight, so their confidence is not checked.
        (record,) = pl.gate_batch(np.array([0]), np.array([1.5]), np.array([1.0]), 0.75)
        assert not record.keep and record.l_scale == 0.0
