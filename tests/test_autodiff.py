import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modfeat import autodiff as ad


def finite_matrices(rows, cols, lo=-5.0, hi=5.0):
    return arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


class TestMatmul:
    def test_identity(self, rng):
        x = rng.normal(size=(2, 3))
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
        np.testing.assert_array_equal(out.value, x)

    def test_hand_case(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        np.testing.assert_allclose(out.value, [[11.0]])

    def test_zero_matrix(self, rng):
        x = rng.normal(size=(3, 2))
        out = ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(x))
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_gradients(self, rng):
        a = ad.DualParam.create("a", rng.normal(size=(2, 3)))
        b = ad.DualParam.create("b", rng.normal(size=(3, 2)))
        report = ad.grad_check(
            lambda: ad.sum_all(ad.matmul(a.node, b.node)), [a, b], step=1e-6
        )
        assert report.max_rel_error < 1e-6


class TestElementwise:
    def test_mul_identity(self, rng):
        x = rng.normal(size=(2, 2))
        out = ad.mul(ad.constant(x), ad.constant(np.ones((2, 2))))
        np.testing.assert_array_equal(out.value, x)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.add(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 3))))

    @settings(max_examples=25, deadline=None)
    @given(finite_matrices(2, 3, -2.0, 2.0))
    def test_composed_gradient_matches_fd(self, values):
        p = ad.DualParam.create("p", values)

        def loss():
            h = ad.relu(ad.add(p.node, ad.constant(np.full((2, 3), 0.3))))
            return ad.sum_all(ad.mul(ad.row_log_softmax(ad.scale(h, 0.5)), h))

        # Entries near the ReLU kink make the difference quotient invalid.
        if np.any(np.abs(values + 0.3) < 1e-3):
            return
        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-5)
        assert report.passed, report


class TestAddRow:
    def _run(self, build, a, b, g):
        for p in (a, b):
            p.node.zero_grad()
        out = build(a.node, b.node)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        return out.value, a.grad.copy(), b.grad.copy()

    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_ones_column_matmul_bitwise(self, rng, n):
        a = ad.DualParam.create("a", rng.normal(size=(n, 7)))
        b = ad.DualParam.create("b", rng.normal(size=(1, 7)))
        g = rng.normal(size=(n, 7))

        def ones_column(an, bn):
            return ad.add(an, ad.matmul(ad.constant(np.ones((an.shape[0], 1))), bn))

        new = self._run(ad.add_row, a, b, g)
        old = self._run(ones_column, a, b, g)
        for got, want in zip(new, old):
            np.testing.assert_array_equal(got, want)

    def test_gradients(self, rng):
        a = ad.DualParam.create("a", rng.normal(size=(4, 3)))
        b = ad.DualParam.create("b", rng.normal(size=(1, 3)))
        g = ad.constant(rng.normal(size=(4, 3)))

        def loss():
            out = ad.add_row(a.node, b.node)
            return ad.sum_all(ad.mul(ad.mul(out, out), g))

        report = ad.grad_check(loss, [a, b], step=1e-6, tolerance=1e-7)
        assert report.passed, report

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.add_row(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
        with pytest.raises(ad.DimensionError):
            ad.add_row(ad.constant(np.ones((2, 3))), ad.constant(np.ones((1, 2))))


class TestRowSoftmax:
    def test_symmetric_rows(self):
        out = ad.row_log_softmax(ad.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[math.log(0.5)] * 2])

    def test_large_values_stable(self):
        out = ad.row_log_softmax(ad.constant([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert out.value[0, 1] == pytest.approx(-1000.0)

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        row = [1.0, 2.0, 3.0]
        exps = [mpmath.exp(v) for v in row]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        got = ad.row_softmax(np.array([row]))[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_uniform_row(self):
        out = ad.row_softmax(np.zeros((1, 3)))
        np.testing.assert_allclose(out, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_exp_log_softmax_equals_softmax(self, rng):
        x = rng.normal(size=(4, 5)) * 3
        log_version = np.exp(ad.row_log_softmax(ad.constant(x)).value)
        np.testing.assert_allclose(log_version, ad.row_softmax(x), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(finite_matrices(3, 4, -50.0, 50.0))
    def test_rows_sum_to_one(self, x):
        probs = ad.row_softmax(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_log_softmax_gradient(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(3, 4)))
        mask = ad.constant(rng.random((3, 4)))
        report = ad.grad_check(
            lambda: ad.sum_all(ad.mul(ad.row_log_softmax(p.node), mask)),
            [p],
            step=1e-6,
            tolerance=1e-6,
        )
        assert report.passed, report


def _signed_zero_tie(row) -> bool:
    """Row whose maximum is zero, reached by both +0.0 and -0.0."""
    zeros = row[row == 0.0]
    return (
        not np.isnan(row).any()
        and row.max() == 0.0
        and np.signbit(zeros).any()
        and not np.signbit(zeros).all()
    )


class TestRowMax:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
        )
    )
    def test_matches_axis_max_bitwise(self, a):
        got = ad.row_max(a)
        want = a.max(axis=1, keepdims=True)
        assert got.shape == want.shape
        for i, row in enumerate(a):
            if _signed_zero_tie(row):
                assert got[i, 0] == 0.0
            else:
                assert got[i].tobytes() == want[i].tobytes(), row

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 8)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0, allow_nan=False)
            ),
        )
    )
    @example(np.array([[0.0, 0.0, -40.0, -1.0, -0.0, -1.0]]))
    def test_softmaxes_match_axis_max_formulation_bitwise(self, a):
        # A signed-zero tie needs two zero entries, so log_z >= log 2 and
        # the sign of the subtracted zero cannot reach either output.
        shifted = a - a.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        log_z = np.log(e.sum(axis=1, keepdims=True))
        assert ad.row_softmax(a).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
        got = ad.row_log_softmax(ad.constant(a)).value
        assert got.tobytes() == (shifted - log_z).tobytes()


class TestDropout:
    def test_disabled_is_exact_identity(self, rng):
        x = ad.constant(rng.normal(size=(3, 3)))
        out = ad.dropout(x, 0.5, rng, enabled=False)
        assert out is x

    def test_p_zero_is_identity(self, rng):
        x = ad.constant(rng.normal(size=(3, 3)))
        out = ad.dropout(x, 0.0, rng, enabled=True)
        np.testing.assert_array_equal(out.value, x.value)

    def test_zeroed_fraction_concentrates(self):
        x = ad.constant(np.ones((1000, 1000)))
        out = ad.dropout(x, 0.05, np.random.default_rng(0), enabled=True)
        frac = np.mean(out.value == 0.0)
        assert abs(frac - 0.05) < 0.002

    def test_survivors_scaled(self):
        x = ad.constant(np.ones((100, 100)))
        out = ad.dropout(x, 0.2, np.random.default_rng(0), enabled=True)
        survivors = out.value[out.value != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.8)

    def test_invalid_p(self, rng):
        with pytest.raises(ad.ParameterError):
            ad.dropout(ad.constant([[1.0]]), 1.0, rng)
        with pytest.raises(ad.ParameterError):
            ad.dropout(ad.constant([[1.0]]), -0.1, rng)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_mask(self, seed):
        x = ad.constant(np.ones((8, 8)))
        a = ad.dropout(x, 0.3, np.random.default_rng(seed), enabled=True)
        b = ad.dropout(x, 0.3, np.random.default_rng(seed), enabled=True)
        np.testing.assert_array_equal(a.value, b.value)

    def test_gradient_flows_through_mask(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(4, 4)))

        def loss():
            dropped = ad.dropout(p.node, 0.4, np.random.default_rng(99), enabled=True)
            return ad.sum_all(ad.mul(dropped, dropped))

        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-6)
        assert report.passed, report


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(2, 3)))
        ad.backward(ad.sum_all(p.node))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(2, 2)))
        ad.backward(ad.sum_all(ad.mul(p.node, p.node)))
        np.testing.assert_allclose(p.grad, 2 * p.value, atol=1e-14)

    def test_repeated_backward_accumulates(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(2, 2)))
        loss = ad.sum_all(p.node)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(p.grad, 2 * np.ones((2, 2)))

    def test_non_scalar_loss_rejected(self, rng):
        with pytest.raises(ad.ContractError):
            ad.backward(ad.constant(np.ones((2, 2))))

    def test_only_leaves_keep_grad(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(2, 2)))
        c = ad.constant(rng.normal(size=(2, 2)))
        row = ad.constant(rng.normal(size=(1, 2)))
        hidden = ad.mul(ad.add_row(ad.matmul(p.node, c), row), p.node)
        loss = ad.sum_all(ad.relu(hidden))
        ad.backward(loss)
        interior = [n for n in ad._topo_order(loss) if n.parents]
        assert len(interior) == 5
        assert all(n._grad is None for n in interior)
        assert p.node._grad is not None
        assert c._grad is None and row._grad is None

    def test_ops_on_constants_record_no_graph(self, rng):
        c = ad.constant(rng.normal(size=(2, 2)))
        out = ad.sum_all(ad.relu(ad.matmul(ad.mul(c, c), c)))
        assert not out.requires_grad
        assert out.parents == () and out._vjp is None
        ad.backward(out)
        assert c._grad is None and out._grad is None

    def test_constants_get_no_grad_and_params_match_gradcheck(self, rng):
        p = ad.DualParam.create("p", rng.normal(size=(3, 2)))
        q = ad.DualParam.create("q", rng.normal(size=(1, 2)))
        x = ad.constant(rng.normal(size=(4, 3)))
        mask = ad.constant(rng.random((4, 2)))
        target = ad.constant(rng.normal(size=(4, 2)))

        def loss():
            h = ad.add(ad.add_row(ad.matmul(x, p.node), q.node), ad.scale(target, -1.0))
            return ad.sum_all(ad.mul(ad.mul(h, h), mask))

        ad.backward(loss())
        assert all(n._grad is None for n in (x, mask, target))
        grads = [p.grad.copy(), q.grad.copy()]
        report = ad.grad_check(loss, [p, q], step=1e-6, tolerance=1e-7)
        assert report.passed, report
        for param, g in zip((p, q), grads):
            np.testing.assert_array_equal(param.grad, g)

    def test_diamond_graph(self, rng):
        # p feeds two paths that rejoin; adjoints must add once per path.
        p = ad.DualParam.create("p", rng.normal(size=(2, 2)))
        left = ad.scale(p.node, 3.0)
        right = ad.mul(p.node, p.node)
        ad.backward(ad.sum_all(ad.add(left, right)))
        np.testing.assert_allclose(p.grad, 3.0 + 2 * p.value, atol=1e-14)


class TestGradCheck:
    def test_quadratic_tight_tolerance(self, rng):
        p = ad.DualParam.create("p", rng.uniform(0.5, 2.0, size=(3, 3)))
        report = ad.grad_check(
            lambda: ad.sum_all(ad.mul(p.node, p.node)), [p], step=1e-3
        )
        assert report.max_rel_error < 1e-8

    def test_zero_parameter_model(self):
        report = ad.grad_check(lambda: ad.constant([[2.0]]), [], step=1e-5)
        assert report.passed and report.max_rel_error == 0.0

    def test_nondeterministic_builder_detected(self, rng):
        p = ad.DualParam.create("p", np.ones((1, 1)))
        state = np.random.default_rng(0)

        def noisy():
            return ad.scale(p.node, 1.0 + state.random())

        with pytest.raises(ad.DeterminismError):
            ad.grad_check(noisy, [p])

    def test_full_pipeline(self):
        from modfeat.gradcheck import full_loss_grad_check

        report = full_loss_grad_check()
        assert report.passed, report
        assert report.max_rel_error < 1e-4


class TestInvariants:
    def test_finite_validation(self):
        with pytest.raises(ad.ParameterError):
            ad.constant([[np.nan]])
        with pytest.raises(ad.ParameterError):
            ad.constant([[np.inf]])

    def test_non_2d_rejected(self):
        with pytest.raises(ad.DimensionError):
            ad.constant([1.0, 2.0])

    def test_grad_shape_matches_value(self, rng):
        node = ad.constant(rng.normal(size=(3, 5)))
        assert node.grad.shape == node.value.shape


class TestNoGrad:
    @pytest.mark.parametrize(
        "op",
        [
            lambda p, q: ad.mul(p, q),
            lambda p, q: ad.matmul(p, q),
            lambda p, q: ad.add_row(p, ad.constant(np.ones((1, 3)))),
            lambda p, q: ad.sum_all(ad.add(p, q)),
            lambda p, q: ad.scale(p, -0.5),
            lambda p, q: ad.row_log_softmax(ad.relu(p)),
        ],
    )
    def test_ops_on_leaves_record_no_graph(self, rng, op):
        p = ad.DualParam.create("p", rng.normal(size=(3, 3)))
        q = ad.DualParam.create("q", rng.normal(size=(3, 3)))
        recorded = op(p.node, q.node)
        with ad.no_grad():
            out = op(p.node, q.node)
        assert out.parents == () and out._vjp is None
        assert not out.requires_grad
        assert recorded.parents and recorded.requires_grad
        np.testing.assert_array_equal(out.value, recorded.value)

    def test_leaf_inside_still_requires_grad(self, rng):
        with ad.no_grad():
            p = ad.leaf(rng.normal(size=(2, 2)))
        assert p.requires_grad
        ad.backward(ad.sum_all(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 2)))

    def test_flag_restored_after_exception(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert ad.mul(p, p).parents

    def test_nested_blocks(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)))
        with ad.no_grad():
            with ad.no_grad():
                assert ad.mul(p, p).parents == ()
            assert ad.mul(p, p).parents == ()
        assert ad.mul(p, p).parents

    def test_eval_logits_keep_no_graph(self):
        from modfeat import network as net
        from tests.conftest import make_tiny_setup

        model, modulation, bank, x, _ = make_tiny_setup()
        with ad.no_grad():
            logits = net.score_graph(model, modulation, bank, x, "eval")
        assert logits.parents == () and not logits.requires_grad

    def test_scoring_passes_record_no_graph(self, monkeypatch):
        from modfeat import network as net
        from modfeat import pseudolabel, trainer
        from tests.conftest import make_tiny_setup

        model, modulation, bank, x, _ = make_tiny_setup()
        built = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                built.append(out)
                return out

            return wrapper

        monkeypatch.setattr(net, "score_graph", recording(net.score_graph))
        monkeypatch.setattr(
            net.Extractor, "forward", recording(net.Extractor.forward)
        )
        rng = np.random.default_rng(0)
        pseudolabel.pseudo_label_batch(x, model, modulation, bank, 3, 0.5, rng)
        pseudolabel.baseline_pseudo_label_batch(x, model)
        trainer.predict(model, modulation, bank, x, "fm")
        trainer.predict(model, None, None, x, "fixmatch-baseline")
        trainer._eval_features(model, x)
        assert len(built) == 9
        assert all(node.parents == () for node in built)
