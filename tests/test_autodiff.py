import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modfeat import autodiff as ad
from tests import refops as ref


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
        a = ad.leaf(rng.normal(size=(2, 3)), "a")
        b = ad.leaf(rng.normal(size=(3, 2)), "b")
        report = ad.grad_check(
            lambda: ad.sum_all(ad.matmul(a, b)), [a, b], step=1e-6
        )
        assert report.max_rel_error < 1e-6


class TestElementwise:
    def test_mul_identity(self, rng):
        x = rng.normal(size=(2, 2))
        out = ref.mul(ad.constant(x), ad.constant(np.ones((2, 2))))
        np.testing.assert_array_equal(out.value, x)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ref.add(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 3))))

    @settings(max_examples=25, deadline=None)
    @given(finite_matrices(2, 3, -2.0, 2.0))
    def test_composed_gradient_matches_fd(self, values):
        p = ad.leaf(values, "p")

        def loss():
            h = ad.relu(ref.add(p, ad.constant(np.full((2, 3), 0.3))))
            return ad.sum_all(ref.mul(ad.row_log_softmax(ref.scale(h, 0.5)), h))

        # Entries near the ReLU kink make the difference quotient invalid.
        if np.any(np.abs(values + 0.3) < 1e-3):
            return
        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-5)
        assert report.passed, report


class TestAddRow:
    def _run(self, build, a, b, g):
        out = build(a, b)
        grads = ad.backward(ad.sum_all(ref.mul(out, ad.constant(g))))
        return out.value, grads[a], grads[b]

    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_ones_column_matmul_bitwise(self, rng, n):
        a = ad.leaf(rng.normal(size=(n, 7)), "a")
        b = ad.leaf(rng.normal(size=(1, 7)), "b")
        g = rng.normal(size=(n, 7))

        def ones_column(an, bn):
            return ref.add(an, ad.matmul(ad.constant(np.ones((an.shape[0], 1))), bn))

        new = self._run(ad.add_row, a, b, g)
        old = self._run(ones_column, a, b, g)
        for got, want in zip(new, old):
            np.testing.assert_array_equal(got, want)

    def test_gradients(self, rng):
        a = ad.leaf(rng.normal(size=(4, 3)), "a")
        b = ad.leaf(rng.normal(size=(1, 3)), "b")
        g = ad.constant(rng.normal(size=(4, 3)))

        def loss():
            out = ad.add_row(a, b)
            return ad.sum_all(ref.mul(ref.mul(out, out), g))

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
        got = ref.row_softmax(np.array([row]))[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_uniform_row(self):
        out = ref.row_softmax(np.zeros((1, 3)))
        np.testing.assert_allclose(out, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_exp_log_softmax_equals_softmax(self, rng):
        x = rng.normal(size=(4, 5)) * 3
        log_version = np.exp(ad.row_log_softmax(ad.constant(x)).value)
        np.testing.assert_allclose(log_version, ref.row_softmax(x), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(finite_matrices(3, 4, -50.0, 50.0))
    def test_rows_sum_to_one(self, x):
        probs = ref.row_softmax(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_log_softmax_gradient(self, rng):
        p = ad.leaf(rng.normal(size=(3, 4)), "p")
        mask = ad.constant(rng.random((3, 4)))
        report = ad.grad_check(
            lambda: ad.sum_all(ref.mul(ad.row_log_softmax(p), mask)),
            [p],
            step=1e-6,
            tolerance=1e-6,
        )
        assert report.passed, report


def _input_and_adjoint(max_width):
    """A (2, rows, width) stack: an input and an adjoint of its shape,
    with signed zeros among their entries."""
    return arrays(
        np.float64,
        st.tuples(st.just(2), st.integers(1, 12), st.integers(1, max_width)),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0, allow_nan=False)
        ),
    )


class TestRowMax:
    """The row maxima that stabilize the softmaxes, and the row sums
    that normalize them."""

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 12)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
        )
    )
    def test_matches_axis_max_bitwise(self, a):
        # The class-major maxima are a.max(axis=1)'s, infinities and nan
        # included. The sign of a +0.0/-0.0 tie cannot reach the output: a
        # tie means two entries of exp 1, so log_z >= log 2. The input is
        # built unvalidated, as an op's output would be.
        with np.errstate(invalid="ignore"):
            got = ad.row_log_softmax(ad.Node(a)).value
            want, _ = ref.left_to_right_log_softmax(a, np.zeros_like(a))
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_input_and_adjoint(8), _input_and_adjoint(12)))
    @example(np.array([[[0.0, 0.0, -40.0, -1.0, -0.0, -1.0]]] * 2))
    def test_softmaxes_match_axis_max_formulation_bitwise(self, pair):
        a, g = pair
        # A signed-zero tie needs two zero entries, so log_z >= log 2 and
        # the sign of the subtracted zero cannot reach either output.
        shifted = a - a.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        log_z = np.log(e.sum(axis=1, keepdims=True))
        assert ref.row_softmax(a).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
        out = ad.row_log_softmax(ad.leaf(a))
        (got_g,) = out._vjp(g)
        # numpy's own row sums add left to right below 8 columns. A
        # one-row input's class-major copy is one column, summed as a row.
        axis_order = shifted - log_z, g - np.exp(shifted - log_z) * g.sum(axis=1, keepdims=True)
        if len(a) > 1:
            want, want_g = ref.left_to_right_log_softmax(a, g)
            assert out.value.tobytes() == want.tobytes()
            assert got_g.tobytes() == want_g.tobytes()
        if len(a) == 1 or a.shape[1] < 8:
            assert out.value.tobytes() == axis_order[0].tobytes()
            assert got_g.tobytes() == axis_order[1].tobytes()

    @pytest.mark.parametrize("width", range(1, 13))
    def test_random_rows_sum_left_to_right_bitwise(self, width):
        # Adjoints spanning e^-30..e^30 round differently in every order.
        g = np.random.default_rng(width)
        a = g.normal(size=(2000, width)) * 5.0
        adj = g.normal(size=(2000, width)) * np.exp(g.uniform(-30, 30, (2000, width)))
        out = ad.row_log_softmax(ad.leaf(a))
        (got_g,) = out._vjp(adj)
        want, want_g = ref.left_to_right_log_softmax(a, adj)
        assert out.value.tobytes() == want.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        # numpy's own row sums: the same below 8 columns, not from 8 on.
        axis_g = adj - np.exp(out.value) * adj.sum(axis=1, keepdims=True)
        assert (got_g.tobytes() == axis_g.tobytes()) == (width < 8)


class TestDropout:
    def test_without_generator_is_exact_identity(self, rng):
        x = ad.constant(rng.normal(size=(3, 3)))
        assert ad.dropout(x, 0.5, None) is x

    def test_p_zero_is_identity_and_draws_nothing(self, rng):
        x = ad.constant(rng.normal(size=(3, 3)))
        state = rng.bit_generator.state
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_zeroed_fraction_concentrates(self):
        x = ad.constant(np.ones((1000, 1000)))
        out = ad.dropout(x, 0.05, np.random.default_rng(0))
        frac = np.mean(out.value == 0.0)
        assert abs(frac - 0.05) < 0.002

    def test_survivors_scaled(self):
        x = ad.constant(np.ones((100, 100)))
        out = ad.dropout(x, 0.2, np.random.default_rng(0))
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
        a = ad.dropout(x, 0.3, np.random.default_rng(seed))
        b = ad.dropout(x, 0.3, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.value, b.value)

    def test_gradient_flows_through_mask(self, rng):
        p = ad.leaf(rng.normal(size=(4, 4)), "p")

        def loss():
            dropped = ad.dropout(p, 0.4, np.random.default_rng(99))
            return ad.sum_all(ref.mul(dropped, dropped))

        report = ad.grad_check(loss, [p], step=1e-6, tolerance=1e-6)
        assert report.passed, report


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        p = ad.leaf(rng.normal(size=(2, 3)), "p")
        grads = ad.backward(ad.sum_all(p))
        assert list(grads) == [p]
        np.testing.assert_array_equal(grads[p], np.ones((2, 3)))

    def test_quadratic_gradient(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)), "p")
        grads = ad.backward(ad.sum_all(ref.mul(p, p)))
        np.testing.assert_allclose(grads[p], 2 * p.value, atol=1e-14)

    def test_repeated_calls_return_equal_independent_maps(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)), "p")
        q = ad.leaf(rng.normal(size=(2, 2)), "q")
        loss = ad.sum_all(ref.mul(ref.add(p, q), p))
        first = ad.backward(loss)
        second = ad.backward(loss)
        assert list(first) == list(second) and set(first) == {p, q}
        for leaf in (p, q):
            assert first[leaf].tobytes() == second[leaf].tobytes()
            assert not np.shares_memory(first[leaf], second[leaf])
            assert not np.shares_memory(first[leaf], leaf.value)
        # Nothing accumulates: the second call gives the gradient once.
        np.testing.assert_allclose(second[p], 2 * p.value + q.value, atol=1e-14)
        np.testing.assert_array_equal(second[q], p.value)
        first[p][:] = 7.0
        np.testing.assert_allclose(second[p], 2 * p.value + q.value, atol=1e-14)
        assert not any(hasattr(n, "grad") for n in ref.topo_order(loss))

    def test_first_adjoint_is_added_to_zeros_bitwise(self):
        # relu passes -1 * False = -0.0 to the entries it cuts; a gradient
        # added to zeros turns those into +0.0.
        x = np.array([[1.5, -2.0, 0.0, -0.0]])
        p = ad.leaf(x, "p")
        grad = ad.backward(ad.sum_all(ref.scale(ad.relu(p), -1.0)))[p]
        want = np.zeros_like(x) + np.where(x > 0.0, -1.0, -0.0)
        assert grad.tobytes() == want.tobytes()
        assert not np.signbit(grad[0, 1:]).any()

    def test_non_scalar_loss_rejected(self, rng):
        with pytest.raises(ad.ContractError):
            ad.backward(ad.constant(np.ones((2, 2))))

    def test_only_leaves_get_a_gradient(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)), "p")
        c = ad.constant(rng.normal(size=(2, 2)))
        row = ad.constant(rng.normal(size=(1, 2)))
        hidden = ref.mul(ad.add_row(ad.matmul(p, c), row), p)
        loss = ad.sum_all(ad.relu(hidden))
        grads = ad.backward(loss)
        interior = [n for n in ref.topo_order(loss) if n.parents]
        assert len(interior) == 5
        assert list(grads) == [p]

    def test_ops_on_constants_record_no_graph(self, rng):
        c = ad.constant(rng.normal(size=(2, 2)))
        out = ad.sum_all(ad.relu(ad.matmul(ref.mul(c, c), c)))
        assert not out.requires_grad
        assert out.parents == () and out._vjp is None
        assert ad.backward(out) == {}

    def test_constants_get_no_grad_and_params_match_gradcheck(self, rng):
        p = ad.leaf(rng.normal(size=(3, 2)), "p")
        q = ad.leaf(rng.normal(size=(1, 2)), "q")
        x = ad.constant(rng.normal(size=(4, 3)))
        mask = ad.constant(rng.random((4, 2)))
        target = ad.constant(rng.normal(size=(4, 2)))

        def loss():
            h = ref.add(ad.add_row(ad.matmul(x, p), q), ref.scale(target, -1.0))
            return ad.sum_all(ref.mul(ref.mul(h, h), mask))

        grads = ad.backward(loss())
        assert set(grads) == {p, q}
        kept = {n: g.copy() for n, g in grads.items()}
        report = ad.grad_check(loss, [p, q], step=1e-6, tolerance=1e-7)
        assert report.passed, report
        # The check restores the values and leaves returned maps alone.
        again = ad.backward(loss())
        for param in (p, q):
            np.testing.assert_array_equal(grads[param], kept[param])
            np.testing.assert_array_equal(again[param], kept[param])

    def test_diamond_graph(self, rng):
        # p feeds two paths that rejoin; adjoints must add once per path.
        p = ad.leaf(rng.normal(size=(2, 2)), "p")
        left = ref.scale(p, 3.0)
        right = ref.mul(p, p)
        grads = ad.backward(ad.sum_all(ref.add(left, right)))
        np.testing.assert_allclose(grads[p], 3.0 + 2 * p.value, atol=1e-14)

    def test_loss_leaf_gets_its_own_gradient(self):
        p = ad.leaf([[2.5]], "p")
        grads = ad.backward(p)
        assert list(grads) == [p]
        assert grads[p].tobytes() == np.ones((1, 1)).tobytes()


class TestSweepOrder:
    """``backward`` adds each node's adjoint contributions in the order of
    the earlier full depth-first sweep (``refops.topo_backward``), and runs
    the vjp of no node that needs no gradient."""

    @staticmethod
    def _graph(rng):
        p = ad.leaf(rng.normal(size=(3, 4)))
        q = ad.leaf(rng.normal(size=(3, 4)) * 1e3)
        c = ad.constant(rng.normal(size=(3, 4)) * 1e-3)
        w = ad.leaf(rng.normal(size=(4, 4)))
        shared = ref.mul(p, q)  # used three times below
        left = ref.scale(shared, 3.7)
        middle = ref.mul(shared, c)  # a constant parent in the middle
        right = ref.mul(ad.matmul(shared, w), p)
        diamond = ref.add(ref.add(left, middle), right)
        # p and the shared node each get three or more contributions.
        out = ref.add(diamond, ref.mul(ref.scale(p, 1e5), p))
        return ad.sum_all(ref.mul(out, out)), (p, q, w), (c,), shared

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_match_full_sweep_bitwise(self, seed):
        loss, leaves, constants, shared = self._graph(np.random.default_rng(seed))
        users = [n for n in ref.topo_order(loss) if any(p is shared for p in n.parents)]
        assert len(users) == 3
        got = ad.backward(loss)
        want = ref.topo_backward(loss)
        assert set(got) == set(want) == set(leaves)
        for p in leaves:
            assert got[p].tobytes() == want[p].tobytes()
        assert not any(c in got for c in constants)

    def test_runs_the_vjp_of_each_gradient_node_once(self, rng):
        loss, _, constants, _ = self._graph(rng)
        ran = []
        for node in ref.topo_order(loss):
            if node._vjp is not None:
                node._vjp = (lambda f, n: lambda g: ran.append(n) or f(g))(node._vjp, node)
        ad.backward(loss)
        interior = [n for n in ref.topo_order(loss) if n.parents]
        assert sorted(map(id, ran)) == sorted(map(id, interior))
        assert all(n.requires_grad for n in ran)
        assert all(not c.requires_grad and c._vjp is None for c in constants)


class TestGradCheck:
    def test_quadratic_tight_tolerance(self, rng):
        p = ad.leaf(rng.uniform(0.5, 2.0, size=(3, 3)), "p")
        report = ad.grad_check(
            lambda: ad.sum_all(ref.mul(p, p)), [p], step=1e-3
        )
        assert report.max_rel_error < 1e-8

    def test_unreached_parameter_has_zero_error(self, rng):
        p = ad.leaf(rng.uniform(0.5, 2.0, size=(2, 2)), "p")
        q = ad.leaf(rng.normal(size=(1, 3)), "q")
        report = ad.grad_check(lambda: ad.sum_all(ref.mul(p, p)), [p, q], step=1e-3)
        assert report.passed and report.per_param["q"] == 0.0

    def test_zero_parameter_model(self):
        report = ad.grad_check(lambda: ad.constant([[2.0]]), [], step=1e-5)
        assert report.passed and report.max_rel_error == 0.0

    def test_nondeterministic_builder_detected(self, rng):
        p = ad.leaf(np.ones((1, 1)), "p")
        state = np.random.default_rng(0)

        def noisy():
            return ref.scale(p, 1.0 + state.random())

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

    def test_gradients_have_their_leaves_shapes(self, rng):
        p = ad.leaf(rng.normal(size=(3, 5)))
        w = ad.leaf(rng.normal(size=(5, 2)))
        grads = ad.backward(ad.sum_all(ad.matmul(p, w)))
        assert set(grads) == {p, w}
        assert all(g.shape == n.value.shape for n, g in grads.items())

    def test_a_parameter_leaf_carries_its_name(self, rng):
        values = rng.normal(size=(2, 2))
        assert ad.leaf(values, "w").name == "w"
        assert ad.leaf(values).name is None and ad.constant(values).name is None
        assert ad.matmul(ad.leaf(values, "w"), ad.leaf(values, "v")).name is None


class TestNoGrad:
    @pytest.mark.parametrize(
        "op",
        [
            lambda p, q: ref.mul(p, q),
            lambda p, q: ad.matmul(p, q),
            lambda p, q: ad.add_row(p, ad.constant(np.ones((1, 3)))),
            lambda p, q: ad.sum_all(ref.add(p, q)),
            lambda p, q: ref.scale(p, -0.5),
            lambda p, q: ad.row_log_softmax(ad.relu(p)),
        ],
    )
    def test_ops_on_leaves_record_no_graph(self, rng, op):
        p = ad.leaf(rng.normal(size=(3, 3)), "p")
        q = ad.leaf(rng.normal(size=(3, 3)), "q")
        recorded = op(p, q)
        with ad.no_grad():
            out = op(p, q)
        assert out.parents == () and out._vjp is None
        assert not out.requires_grad
        assert recorded.parents and recorded.requires_grad
        np.testing.assert_array_equal(out.value, recorded.value)

    def test_leaf_inside_still_requires_grad(self, rng):
        with ad.no_grad():
            p = ad.leaf(rng.normal(size=(2, 2)))
        assert p.requires_grad
        grads = ad.backward(ad.sum_all(p))
        np.testing.assert_array_equal(grads[p], np.ones((2, 2)))

    def test_flag_restored_after_exception(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert ref.mul(p, p).parents

    def test_nested_blocks(self, rng):
        p = ad.leaf(rng.normal(size=(2, 2)))
        with ad.no_grad():
            with ad.no_grad():
                assert ref.mul(p, p).parents == ()
            assert ref.mul(p, p).parents == ()
        assert ref.mul(p, p).parents

    def test_eval_logits_keep_no_graph(self):
        from modfeat import network as net
        from tests.conftest import make_tiny_setup

        model, modulation, bank, x, _ = make_tiny_setup()
        with ad.no_grad():
            logits = net.score_graph(model, model.fm_head(modulation, bank), x)
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
        pseudolabel.pseudo_label_batch(x, model, model.fm_head(modulation, bank), 3, 0.5, rng)
        pseudolabel.baseline_pseudo_label_batch(x, model)
        trainer.predict(model, modulation, bank, x, "fm")
        trainer.predict(model, None, None, x, "fixmatch-baseline")
        trainer._eval_features(model, x)
        assert len(built) == 9
        assert all(node.parents == () for node in built)
