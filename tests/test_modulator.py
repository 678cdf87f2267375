import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modfeat import autodiff as ad
from modfeat import modulator as fm


def _features_with_variance(variances):
    """Two samples per class whose population variance is exactly v."""
    variances = np.asarray(variances, dtype=np.float64)
    num_classes, dim = variances.shape
    half = np.sqrt(variances)
    feats, classes = [], []
    for c in range(num_classes):
        feats.append(half[c])
        feats.append(-half[c])
        classes += [c, c]
    return np.array(feats), np.array(classes)


class TestVarianceInit:
    def test_hand_case(self):
        feats, classes = _features_with_variance([[2.0, 0.0, 1.0]])
        out = fm.variance_init(feats, classes, 1)
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.5]], atol=1e-12)

    def test_constant_variance_degenerates_to_ones(self):
        feats, classes = _features_with_variance([[1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(UserWarning):
            out = fm.variance_init(feats, classes, 2)
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_extremes_map_to_zero_and_one(self, rng):
        v = rng.uniform(0.5, 4.0, size=(3, 5))
        feats, classes = _features_with_variance(v)
        out = fm.variance_init(feats, classes, 3)
        assert out.flat[np.argmax(v)] == 0.0
        assert out.flat[np.argmin(v)] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            (2, 4),
            elements=st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_range_is_unit_interval(self, v):
        if v.max() == v.min():
            return
        feats, classes = _features_with_variance(v)
        out = fm.variance_init(feats, classes, 2)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_requires_two_samples_per_class(self):
        with pytest.raises(fm.VarianceUndefinedError):
            fm.variance_init(np.ones((1, 3)), np.array([0]), 1)

    def test_uses_population_variance(self):
        # population variance of {0, 2} is 1, sample variance would be 2
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
        classes = np.array([0, 0, 1, 1])
        out = fm.variance_init(feats, classes, 2)
        # var class0 = [1, 0], class1 = [4, 0]; global min 0, max 4
        np.testing.assert_allclose(out, [[0.75, 1.0], [0.0, 1.0]])


def _dense_modulate(features, anchors, weights):
    """Reference formulation: multiply by 0/1 replication matrices."""
    n, feat = features.shape
    num_classes = weights.shape[0]
    rep = np.kron(np.eye(n), np.ones((num_classes, 1)))
    tile = np.tile(np.eye(num_classes), (n, 1))
    replicated = ad.matmul(ad.constant(rep), features)
    tiled_weights = ad.matmul(ad.constant(tile), weights)
    tiled_anchors = ad.constant(np.tile(anchors, (n, 1)))
    ones = ad.constant(np.ones((n * num_classes, feat)))
    return ad.add(
        ad.mul(tiled_weights, replicated),
        ad.mul(ad.sub(ones, tiled_weights), tiled_anchors),
    )


class TestModulate:
    def setup_method(self):
        g = np.random.default_rng(3)
        self.z = g.normal(size=(1, 4))
        self.anchors = g.normal(size=(3, 4))

    def _modulate(self, weights):
        return fm.modulate(
            ad.constant(self.z), self.anchors, ad.constant(weights)
        ).value

    def test_all_ones_returns_replicated_input(self):
        out = self._modulate(np.ones((3, 4)))
        np.testing.assert_array_equal(out, np.tile(self.z, (3, 1)))

    def test_all_zeros_returns_anchors(self):
        out = self._modulate(np.zeros((3, 4)))
        np.testing.assert_array_equal(out, self.anchors)

    def test_half_returns_exact_midpoint(self):
        out = self._modulate(np.full((3, 4), 0.5))
        np.testing.assert_array_equal(out, (np.tile(self.z, (3, 1)) + self.anchors) / 2.0)

    def test_batched_rows_grouped_per_sample(self, rng):
        feats = rng.normal(size=(2, 4))
        weights = rng.uniform(size=(3, 4))
        out = fm.modulate(ad.constant(feats), self.anchors, ad.constant(weights)).value
        for i in range(2):
            single = fm.modulate(
                ad.constant(feats[i : i + 1]), self.anchors, ad.constant(weights)
            ).value
            np.testing.assert_array_equal(out[i * 3 : (i + 1) * 3], single)

    def test_anchor_row_fixed_point(self, rng):
        weights = rng.uniform(size=(3, 4))
        out = fm.modulate(
            ad.constant(self.anchors[1:2]), self.anchors, ad.constant(weights)
        ).value
        np.testing.assert_allclose(out[1], self.anchors[1], atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (2, 3),
            elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_output_on_segment_for_unit_weights(self, weights):
        g = np.random.default_rng(0)
        z = g.normal(size=(1, 3))
        anchors = g.normal(size=(2, 3))
        out = fm.modulate(ad.constant(z), anchors, ad.constant(weights)).value
        rep = np.tile(z, (2, 1))
        lo = np.minimum(rep, anchors) - 1e-12
        hi = np.maximum(rep, anchors) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_slope_in_input_equals_weights(self):
        weights = np.random.default_rng(1).uniform(size=(3, 4))
        p = ad.DualParam.create("z", self.z.copy())
        w_node = ad.constant(weights)
        mask_index = (2, 1)  # output row 2, coordinate 1

        def loss():
            out = fm.modulate(p.node, self.anchors, w_node)
            mask = np.zeros((3, 4))
            mask[mask_index] = 1.0
            return ad.sum_all(ad.mul(out, ad.constant(mask)))

        ad.backward(loss())
        expected = np.zeros((1, 4))
        expected[0, mask_index[1]] = weights[mask_index]
        np.testing.assert_allclose(p.grad, expected, atol=1e-12)
        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_gradient_flows_to_weights(self):
        w = ad.DualParam.create("w", np.random.default_rng(2).uniform(size=(3, 4)))

        def loss():
            out = fm.modulate(ad.constant(self.z), self.anchors, w.node)
            return ad.sum_all(ad.mul(out, out))

        report = ad.grad_check(loss, [w], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            fm.modulate(ad.constant(self.z), self.anchors[:, :2], ad.constant(np.ones((3, 4))))


class TestBroadcastModulate:
    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_dense_oracle_bitwise(self, rng, n):
        z = ad.DualParam.create("z", rng.normal(size=(n, 32)))
        w = ad.DualParam.create("w", rng.uniform(size=(7, 32)))
        anchors = rng.normal(size=(7, 32))
        g = ad.constant(rng.normal(size=(n * 7, 32)))
        results = []
        for build in (fm.modulate, _dense_modulate):
            z.node.zero_grad()
            w.node.zero_grad()
            out = build(z.node, anchors, w.node)
            ad.backward(ad.sum_all(ad.mul(out, g)))
            results.append((out.value, z.grad.copy(), w.grad.copy()))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_gradients_of_both_inputs(self, rng):
        z = ad.DualParam.create("z", rng.normal(size=(3, 4)))
        w = ad.DualParam.create("w", rng.uniform(size=(2, 4)))
        anchors = rng.normal(size=(2, 4))
        g = ad.constant(rng.normal(size=(6, 4)))

        def loss():
            out = fm.modulate(z.node, anchors, w.node)
            return ad.sum_all(ad.mul(ad.mul(out, out), g))

        report = ad.grad_check(loss, [z, w], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_no_grad_features_get_no_adjoint(self, rng):
        z = ad.constant(rng.normal(size=(3, 4)))
        w = ad.DualParam.create("w", rng.uniform(size=(2, 4)))
        anchors = rng.normal(size=(2, 4))
        out = fm.modulate(z, anchors, w.node)
        gz, gw = out._vjp(rng.normal(size=(6, 4)))
        assert gz is None
        assert gw.shape == (2, 4)
        ad.backward(ad.sum_all(out))
        assert z._grad is None and w.node._grad is not None

    def test_non_finite_anchors_rejected(self):
        anchors = np.zeros((2, 3))
        anchors[1, 2] = np.nan
        with pytest.raises(ad.ParameterError):
            fm.modulate(
                ad.constant(np.ones((1, 3))), anchors, ad.constant(np.ones((2, 3)))
            )

    def test_forward_memory_is_linear_in_rows(self, rng):
        n, num_classes, feat = 4096, 7, 32
        features = ad.constant(rng.normal(size=(n, feat)))
        weights = ad.constant(rng.uniform(size=(num_classes, feat)))
        anchors = rng.normal(size=(num_classes, feat))
        out_bytes = n * num_classes * feat * 8
        tracemalloc.start()
        try:
            out = fm.modulate(features, anchors, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n * num_classes, feat)
        # The dense formulation's (n*C x n) matrix alone is n/F = 128x this.
        assert peak < 3 * out_bytes


def _broadcast_modulate(features, anchors, weights):
    """The out-of-place broadcast blend, kept as the oracle for ``modulate``."""
    n, feat = features.shape
    num_classes = weights.shape[0]
    a = np.asarray(anchors, dtype=np.float64)[None]
    z, w = features.value[:, None, :], weights.value
    out = w[None] * z + (1.0 - w)[None] * a

    def vjp(g):
        g3 = g.reshape(n, num_classes, feat)
        gz = g3 * w[None]
        gz = np.ones((1, num_classes)) @ gz[0] if n == 1 else gz.sum(axis=1)
        return gz, (g3 * z - g3 * a).sum(axis=0)

    return ad.Node(out.reshape(n * num_classes, feat), (features, weights), vjp)


class TestInPlaceModulate:
    @pytest.mark.parametrize("n", [1, 48, 240])
    def test_matches_out_of_place_bitwise(self, rng, n):
        z = ad.DualParam.create("z", rng.normal(size=(n, 32)))
        w = ad.DualParam.create("w", rng.uniform(-0.5, 1.5, size=(7, 32)))
        anchors = rng.normal(size=(7, 32))
        g = ad.constant(rng.normal(size=(n * 7, 32)))
        results = []
        for build in (fm.modulate, _broadcast_modulate):
            z.node.zero_grad()
            w.node.zero_grad()
            out = build(z.node, anchors, w.node)
            ad.backward(ad.sum_all(ad.mul(out, g)))
            results.append((out.value, z.grad.copy(), w.grad.copy()))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)
