import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfeat import pseudolabel as pl
from modfeat.autodiff import ParameterError
from modfeat.modulator import ModulationMatrix
from tests.conftest import make_tiny_setup


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
        rec = pl.gate_record(2, p_max=0.9, sigma=0.05, tau=0.75)
        assert rec.keep
        assert rec.l_scale == pytest.approx(math.exp(0.9**3 - 1.0), abs=1e-15)
        assert rec.l_scale == pytest.approx(0.76262, abs=1e-4)

    def test_discard_case(self):
        rec = pl.gate_record(1, p_max=0.76, sigma=0.02, tau=0.75)
        assert not rec.keep
        assert rec.l_scale == 0.0

    def test_strict_inequality(self):
        rec = pl.gate_record(0, p_max=0.80, sigma=0.05, tau=0.75)
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
        kept_lo = sum(pl.gate_record(0, p, s, lo).keep for p, s in pairs)
        kept_hi = sum(pl.gate_record(0, p, s, hi).keep for p, s in pairs)
        assert kept_lo >= kept_hi

    def test_baseline_gate(self):
        assert pl.baseline_gate_record(0, 0.96, 0.95).keep
        assert pl.baseline_gate_record(0, 0.96, 0.95).l_scale == 1.0
        assert not pl.baseline_gate_record(0, 0.95, 0.95).keep
        assert pl.baseline_gate_record(0, 0.95, 0.95).l_scale == 0.0


class TestPredictMatrix:
    def test_zero_classifier_uniform(self, rng):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        s = pl.predict_matrix(x[0], model, modulation, bank)
        np.testing.assert_allclose(s, 0.5, atol=1e-15)

    def test_identity_modulation_equal_rows(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        s = pl.predict_matrix(x[0], model, ones, bank)
        np.testing.assert_allclose(s[0], s[1], atol=1e-12)

    def test_rows_sum_to_one(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        s = pl.predict_matrices(x, model, modulation, bank)
        np.testing.assert_allclose(s.sum(axis=2), 1.0, atol=1e-12)

    def test_shape(self):
        model, modulation, bank, x, _ = make_tiny_setup(num_classes=2)
        assert pl.predict_matrix(x[0], model, modulation, bank).shape == (2, 2)
        assert pl.predict_matrices(x[:3], model, modulation, bank).shape == (3, 2, 2)


class TestPseudoLabel:
    def test_no_dropout_is_deterministic_with_zero_sigma(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.extractor.config = model.extractor.config.__class__(
            input_dim=3, hidden_dims=(5,), feature_dim=4, dropout_p=0.0
        )
        rec = pl.pseudo_label(
            x[0], model, modulation, bank, mc_samples=4, tau=0.3,
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
            pl.pseudo_label(x[0], model, modulation, bank, mc_samples=1)

    def test_tau_range_checked(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        with pytest.raises(ParameterError):
            pl.pseudo_label(x[0], model, modulation, bank, tau=1.5)


class TestBaselinePseudoLabel:
    def test_uniform_prediction_discarded(self):
        model, _, _, x, _ = make_tiny_setup()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        rec = pl.baseline_pseudo_label(x[0], model)
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
