import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modfeat import autodiff as ad
from modfeat import modulator as fm
from tests import refops as ref


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


def identity_head(feat):
    """The head W = I_F, b = 0. Every product with it is with 0 or 1, so
    the fused head returns the blended features ``w * z + (1 - w) * a``
    themselves, rounded exactly as the blend rounds them."""
    return ad.constant(np.eye(feat)), ad.constant(np.zeros((1, feat)))


def fused(features, anchors, weights, head_weight, head_bias):
    """``modulate`` through a head built for this one call."""
    return fm.modulate(features, fm.FusedHead(anchors, weights, head_weight, head_bias))


def blend(features, anchors, weights):
    """The fused head through ``identity_head``: the blended features."""
    return fused(features, anchors, weights, *identity_head(features.shape[1]))


def _dense_modulate(features, anchors, weights):
    """Reference blend: multiply by 0/1 replication matrices."""
    n, feat = features.shape
    num_classes = weights.shape[0]
    rep = np.kron(np.eye(n), np.ones((num_classes, 1)))
    tile = np.tile(np.eye(num_classes), (n, 1))
    replicated = ad.matmul(ad.constant(rep), features)
    tiled_weights = ad.matmul(ad.constant(tile), weights)
    tiled_anchors = ad.constant(np.tile(anchors, (n, 1)))
    ones = ad.constant(np.ones((n * num_classes, feat)))
    return ref.add(
        ref.mul(tiled_weights, replicated),
        ref.mul(ref.add(ones, ref.scale(tiled_weights, -1.0)), tiled_anchors),
    )


def _broadcast_modulate(features, anchors, weights):
    """Reference blend as one broadcast node over an (n, C, F) view."""
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


def reference_head(features, anchors, weights, head_weight, head_bias):
    """The chain the fused head replaces: blend, classifier matmul, bias."""
    blended = _broadcast_modulate(features, anchors, weights)
    return ad.add_row(ad.matmul(blended, head_weight), head_bias)


def _operands(rng, n, num_classes=7, feat=32):
    """Features, weights, head weight and bias as parameters, plus anchors."""
    z = ad.leaf(rng.normal(size=(n, feat)), "z")
    w = ad.leaf(rng.uniform(-0.5, 1.5, size=(num_classes, feat)), "w")
    hw = ad.leaf(rng.normal(0.0, feat**-0.5, size=(feat, num_classes)), "W")
    hb = ad.leaf(rng.normal(size=(1, num_classes)), "b")
    return [z, w, hw, hb], rng.normal(size=(num_classes, feat))


def _value_and_adjoints(build, params, anchors, g):
    """Output of ``build`` and the adjoints of ``params`` under ``g``."""
    z, w, *head = params
    out = build(z, anchors, w, *head)
    grads = ad.backward(ad.sum_all(ref.mul(out, g)))
    return [out.value] + [grads[p] for p in params]


class TestModulate:
    def setup_method(self):
        g = np.random.default_rng(3)
        self.z = g.normal(size=(1, 4))
        self.anchors = g.normal(size=(3, 4))

    def _modulate(self, weights):
        return blend(ad.constant(self.z), self.anchors, ad.constant(weights)).value

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
        out = blend(ad.constant(feats), self.anchors, ad.constant(weights)).value
        for i in range(2):
            single = blend(
                ad.constant(feats[i : i + 1]), self.anchors, ad.constant(weights)
            ).value
            np.testing.assert_array_equal(out[i * 3 : (i + 1) * 3], single)

    def test_anchor_row_fixed_point(self, rng):
        weights = rng.uniform(size=(3, 4))
        anchor = ad.constant(self.anchors[1:2])
        out = blend(anchor, self.anchors, ad.constant(weights)).value
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
        out = blend(ad.constant(z), anchors, ad.constant(weights)).value
        rep = np.tile(z, (2, 1))
        lo = np.minimum(rep, anchors) - 1e-12
        hi = np.maximum(rep, anchors) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_slope_in_input_equals_weights(self):
        weights = np.random.default_rng(1).uniform(size=(3, 4))
        p = ad.leaf(self.z.copy(), "z")
        w_node = ad.constant(weights)
        mask_index = (2, 1)  # output row 2, coordinate 1

        def loss():
            out = blend(p, self.anchors, w_node)
            mask = np.zeros((3, 4))
            mask[mask_index] = 1.0
            return ad.sum_all(ref.mul(out, ad.constant(mask)))

        grads = ad.backward(loss())
        expected = np.zeros((1, 4))
        expected[0, mask_index[1]] = weights[mask_index]
        np.testing.assert_allclose(grads[p], expected, atol=1e-12)
        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_gradient_flows_to_weights(self):
        g = np.random.default_rng(2)
        w = ad.leaf(g.uniform(size=(3, 4)), "w")
        hw = ad.leaf(g.normal(size=(4, 3)), "W")
        hb = ad.leaf(g.normal(size=(1, 3)), "b")

        def loss():
            z = ad.constant(self.z)
            out = fused(z, self.anchors, w, hw, hb)
            return ad.sum_all(ref.mul(out, out))

        report = ad.grad_check(loss, [w, hw, hb], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_shape_mismatch(self):
        z, w = ad.constant(self.z), ad.constant(np.ones((3, 4)))
        head = identity_head(4)
        with pytest.raises(ad.DimensionError):
            fused(z, self.anchors[:, :2], w, *head)
        with pytest.raises(ad.DimensionError):
            fused(z, self.anchors, w, ad.constant(np.eye(3)), head[1])
        with pytest.raises(ad.DimensionError):
            fused(z, self.anchors, w, head[0], ad.constant(np.zeros((1, 3))))
        wide = ad.constant(np.ones((1, 5)))
        with pytest.raises(ad.DimensionError):
            fm.modulate(wide, fm.FusedHead(self.anchors, w, *head))


class TestBroadcastModulate:
    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_dense_oracle_bitwise(self, rng, n):
        # The reference blend the fused head is checked against is the
        # replication-matrix formulation, bit for bit in value and adjoints;
        # through the identity head the fused head's value is too.
        z = ad.leaf(rng.normal(size=(n, 32)), "z")
        w = ad.leaf(rng.uniform(size=(7, 32)), "w")
        anchors = rng.normal(size=(7, 32))
        g = ad.constant(rng.normal(size=(n * 7, 32)))
        results = []
        for build in (_broadcast_modulate, _dense_modulate):
            out = build(z, anchors, w)
            grads = ad.backward(ad.sum_all(ref.mul(out, g)))
            results.append((out.value, grads[z], grads[w]))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)
        fused = blend(z, anchors, w).value
        np.testing.assert_array_equal(fused, results[1][0])

    def test_gradients_of_both_inputs(self, rng):
        (z, w, hw, hb), anchors = _operands(rng, 3, num_classes=2, feat=4)
        g = ad.constant(rng.normal(size=(6, 2)))

        def loss():
            out = fused(z, anchors, w, hw, hb)
            return ad.sum_all(ref.mul(ref.mul(out, out), g))

        report = ad.grad_check(loss, [z, w], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_no_grad_features_get_no_adjoint(self, rng):
        z = ad.constant(rng.normal(size=(3, 4)))
        w = ad.leaf(rng.uniform(size=(2, 4)), "w")
        anchors = rng.normal(size=(2, 4))
        out = blend(z, anchors, w)
        product = out.parents[0]
        gz, gm = product._vjp(rng.normal(size=product.shape))
        assert gz is None
        assert gm.shape == (4, 2 * 4)
        assert list(ad.backward(ad.sum_all(out))) == [w]

    def test_forward_memory_is_linear_in_rows(self, rng):
        n, num_classes, feat = 4096, 7, 32
        features = ad.constant(rng.normal(size=(n, feat)))
        weights = ad.constant(rng.uniform(size=(num_classes, feat)))
        anchors = rng.normal(size=(num_classes, feat))
        out_bytes = n * num_classes * feat * 8
        tracemalloc.start()
        try:
            out = blend(features, anchors, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n * num_classes, feat)
        # The dense formulation's (n*C x n) matrix alone is n/F = 128x this.
        assert peak < 3 * out_bytes


def _out_of_place_head(features, anchors, weights, head_weight, head_bias):
    """The fused head with its bias row added out of place: the oracle for
    the in-place add, which reuses the product's buffer as the output."""
    n = features.shape[0]
    num_classes, k = weights.shape[0], head_weight.shape[1]
    w, hw = weights.value, head_weight.value
    shift = (1.0 - w) * anchors

    def mix_vjp(gm):
        g3 = gm.reshape(-1, num_classes, k)
        return np.einsum("fcj,fj->cf", g3, hw), np.einsum("fcj,cf->fj", g3, w)

    m = (w.T[:, :, None] * hw[:, None, :]).reshape(-1, num_classes * k)
    product = ad.matmul(features, ad.Node(m, (weights, head_weight), mix_vjp))
    out = product.value + (shift @ hw + head_bias.value).reshape(1, -1)

    def vjp(g):
        g2 = g.reshape(n, num_classes * k)
        gk = g2.sum(axis=0).reshape(num_classes, k)
        return g2, (gk @ hw.T) * -anchors, shift.T @ gk, gk.sum(axis=0, keepdims=True)

    parents = (product, weights, head_weight, head_bias)
    return ad.Node(out.reshape(n * num_classes, k), parents, vjp)


class TestInPlaceModulate:
    @pytest.mark.parametrize("n", [1, 48, 240])
    def test_matches_out_of_place_bitwise(self, rng, n):
        params, anchors = _operands(rng, n)
        g = ad.constant(rng.normal(size=(n * 7, 7)))
        got = _value_and_adjoints(fused, params, anchors, g)
        want = _value_and_adjoints(_out_of_place_head, params, anchors, g)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestFusedHead:
    @pytest.mark.parametrize("n", [1, 2, 48, 240, 1050])
    def test_matches_blend_matmul_bias_chain(self, rng, n):
        params, anchors = _operands(rng, n)
        g = ad.constant(rng.normal(size=(n * 7, 7)))
        got = _value_and_adjoints(fused, params, anchors, g)
        want = _value_and_adjoints(reference_head, params, anchors, g)
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
        # Adjoints sum over up to n*C rows; compare them at their own scale.
        for a, b in zip(got[1:], want[1:]):
            scale = max(1.0, np.abs(b).max())
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("n", [1, 48, 240])
    def test_head_built_once_matches_head_built_per_call_bitwise(self, rng, n):
        # A training step builds one head, scores its MC passes through it
        # without a graph, then its loss forward with one: the loss
        # forward's logits and parameter gradients are those of a head
        # built for that call alone.
        params, anchors = _operands(rng, n)
        z, w, hw, hb = params
        g = ad.constant(rng.normal(size=(n * 7, 7)))
        shared = fm.FusedHead(anchors, w, hw, hb)
        stack = ad.constant(rng.normal(size=(5 * n, 32)))
        with ad.no_grad():
            mc = fm.modulate(stack, shared)
        assert not mc.requires_grad
        np.testing.assert_array_equal(mc.value, fused(stack, anchors, w, hw, hb).value)

        def with_shared(z, anchors, w, hw, hb):
            return fm.modulate(z, shared)

        got = _value_and_adjoints(with_shared, params, anchors, g)
        want = _value_and_adjoints(fused, params, anchors, g)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_head_reads_parameters_when_built(self, rng):
        (z, w, hw, hb), anchors = _operands(rng, 3)
        head = fm.FusedHead(anchors, w, hw, hb)
        before = fm.modulate(z, head).value.copy()
        w.value += 0.5
        assert fm.modulate(z, head).value.tobytes() == before.tobytes()
        rebuilt = fm.FusedHead(anchors, w, hw, hb)
        assert fm.modulate(z, rebuilt).value.tobytes() != before.tobytes()

    def test_finite_differences_of_all_operands(self, rng):
        params, anchors = _operands(rng, 5, num_classes=3, feat=4)
        g = ad.constant(rng.normal(size=(15, 3)))

        def loss():
            z, w, hw, hb = params
            out = fused(z, anchors, w, hw, hb)
            return ad.sum_all(ref.mul(ref.mul(out, out), g))

        report = ad.grad_check(loss, params, step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_no_blended_feature_tensor(self, rng):
        n, num_classes, feat = 4096, 7, 32
        features = ad.constant(rng.normal(size=(n, feat)))
        weights = ad.constant(rng.uniform(size=(num_classes, feat)))
        head = ad.constant(rng.normal(size=(feat, num_classes)))
        bias = ad.constant(np.zeros((1, num_classes)))
        anchors = rng.normal(size=(num_classes, feat))
        out_bytes = n * num_classes * num_classes * 8
        tracemalloc.start()
        try:
            out = fused(features, anchors, weights, head, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n * num_classes, num_classes)
        # The (n, C, F) blend alone would be F/C ~ 4.6x the logits.
        assert peak < 1.5 * out_bytes
