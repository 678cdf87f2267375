import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfeat import network as net
from modfeat import pseudolabel as pl
from modfeat.autodiff import ParameterError, no_grad
from modfeat.modulator import ModulationMatrix, variance_init
from modfeat.prototypes import build_bank
from perfbench import spans
from tests import refops as ref
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
        assert rec.weight == pytest.approx(math.exp(0.9**3 - 1.0), abs=1e-15)
        assert rec.weight == pytest.approx(0.76262, abs=1e-4)

    def test_discard_case(self):
        (rec,) = pl.gate_batch([1], p_max=[0.76], sigma=[0.02], tau=0.75)
        assert not rec.keep
        assert rec.weight == 0.0

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
        kept_lo = np.count_nonzero(pl.gate_batch(labels, p_max, sigma, lo)["keep"])
        kept_hi = np.count_nonzero(pl.gate_batch(labels, p_max, sigma, hi)["keep"])
        assert kept_lo >= kept_hi

    def test_baseline_gate(self):
        above, tie = pl.gate_batch([0, 0], [0.96, 0.95], 0.0, 0.95, unit_weight=True)
        assert above.keep
        assert above.weight == 1.0
        assert not tie.keep
        assert tie.weight == 0.0


class TestPredictMatrix:
    def test_zero_classifier_uniform(self, rng):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0
        s = pl.predict_matrices(x[:1], model, model.fm_head(modulation, bank))[0]
        np.testing.assert_allclose(s, 0.5, atol=1e-15)

    def test_identity_modulation_equal_rows(self):
        # Every modulated row is the unmodulated one, so the confidences
        # read off the diagonal are the plain class probabilities.
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        s = pl.predict_matrices(x[:1], model, model.fm_head(ones, bank))
        plain = pl.predict_matrices(x[:1], model, None)
        np.testing.assert_allclose(s, plain, atol=1e-12)

    def test_rows_sum_to_one(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        plain = pl.predict_matrices(x, model, None)
        np.testing.assert_allclose(plain.sum(axis=1), 1.0, atol=1e-12)
        ones = ModulationMatrix.ones(2, 4)
        s = pl.predict_matrices(x, model, model.fm_head(ones, bank))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        s = pl.predict_matrices(x, model, model.fm_head(modulation, bank))
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_shape(self):
        model, modulation, bank, x, _ = make_tiny_setup(num_classes=2)
        head = model.fm_head(modulation, bank)
        assert pl.predict_matrices(x[:1], model, head).shape == (1, 2)
        assert pl.predict_matrices(x[:3], model, head).shape == (3, 2)
        assert pl.predict_matrices(x[:3], model, None).shape == (3, 2)

    @pytest.mark.parametrize("modulated", [True, False])
    def test_monte_carlo_pass_needs_generator(self, modulated):
        model, modulation, bank, x, _ = make_tiny_setup()
        assert model.extractor.config.dropout_p > 0
        head = model.fm_head(modulation, bank) if modulated else None
        with pytest.raises(ParameterError, match="dropout generator"):
            pl.predict_matrices(x, model, head, dropout=True, rng=None)

    @pytest.mark.parametrize("hidden", [(), (64,)])
    @pytest.mark.parametrize("n", [1, 48, 1050])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("modulated", [True, False])
    # From 8 classes on numpy sums a row pairwise, not left to right.
    @pytest.mark.parametrize("num_classes", [7, 9])
    def test_matches_read_entries_of_full_softmax_bitwise(
        self, hidden, n, dropout, modulated, num_classes
    ):
        model, modulation, bank, u = _mc_setup(hidden, n, num_classes)
        head = model.fm_head(modulation, bank) if modulated else None
        c = model.num_classes
        before = u.tobytes()
        got_rng = np.random.default_rng(9)
        got = pl.predict_matrices(u, model, head, dropout, got_rng)
        assert u.tobytes() == before  # the in-place softmax works on its own logits

        want_rng = np.random.default_rng(9)
        with no_grad():
            logits = net.score_graph(model, head, u, want_rng if dropout else None).value
        probs = ref.row_softmax(logits)
        assert got.shape == (n, c)
        assert got_rng.random() == want_rng.random()
        # Both modes add each row's classes left to right, one-row copies
        # included, which is the row softmax's order only below 8 classes.
        class_major = ref.left_to_right_softmax(logits)
        if modulated:
            class_major, probs = _diagonals(class_major, c), _diagonals(probs, c)
        assert got.flags.c_contiguous
        assert got.tobytes() == class_major.tobytes()
        if num_classes < 8:
            assert got.tobytes() == probs.tobytes()
        np.testing.assert_allclose(got, probs, rtol=0, atol=1e-15)


    @pytest.mark.parametrize("num_classes", range(8, 13))
    def test_one_row_adds_classes_left_to_right(self, num_classes):
        """An unmodulated one-sample call adds its classes in the order of
        every row of a larger one, where numpy would add its one-column
        copy in blocks."""
        model, _, _, u = _mc_setup((), 300, num_classes)
        for row in u:
            got = pl.predict_matrices(row, model, None)
            with no_grad():
                logits = net.score_graph(model, None, row[None]).value
            assert got.tobytes() == ref.left_to_right_softmax(logits).tobytes()


def _diagonals(probs, c):
    """Each sample's C x C block's diagonal, from (n*C x C) rows."""
    return np.diagonal(probs.reshape(-1, c, c), axis1=1, axis2=2).copy()


class TestPseudoLabel:
    def test_no_dropout_is_deterministic_with_zero_sigma(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        model.extractor.config = model.extractor.config.__class__(
            input_dim=3, hidden_dims=(5,), feature_dim=4, dropout_p=0.0
        )
        (rec,) = pl.pseudo_label_batch(
            x[:1], model, model.fm_head(modulation, bank), mc_samples=4, tau=0.3,
            rng=np.random.default_rng(0),
        )
        assert rec.sigma == 0.0
        assert rec.keep == (rec.p_max > 0.3)

    def test_mc_sigma_positive_with_dropout(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        recs = pl.pseudo_label_batch(
            x, model, model.fm_head(modulation, bank), mc_samples=5, tau=0.75,
            rng=np.random.default_rng(0),
        )
        assert recs["sigma"].mean() > 0.0

    def test_sigma_is_population_std_of_predicted_class(self):
        # reproduce the aggregation by hand from the same MC stream
        model, modulation, bank, x, _ = make_tiny_setup()
        seed, k = 42, 5
        recs = pl.pseudo_label_batch(
            x, model, model.fm_head(modulation, bank), mc_samples=k, tau=0.75,
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        diags = np.empty((k, len(x), 2))
        for i in range(k):
            diags[i] = pl.predict_matrices(
                x, model, model.fm_head(modulation, bank), dropout=True, rng=rng
            )
        mean_diag = diags.mean(axis=0)
        for idx, rec in enumerate(recs):
            label = mean_diag[idx].argmax()
            assert rec.label == label
            assert rec.p_max == pytest.approx(mean_diag[idx, label], abs=1e-15)
            assert rec.sigma == pytest.approx(
                diags[:, idx, label].std(), abs=1e-15
            )

    def test_empty_batch_gives_no_labels(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        head = model.fm_head(modulation, bank)
        rng = np.random.default_rng(0)
        fm = pl.pseudo_label_batch(x[:0], model, head, 5, 0.75, rng)
        baseline = pl.baseline_pseudo_label_batch(x[:0], model)
        for out in (fm, baseline):
            assert out.dtype == pl.PSEUDO_LABELS and out.shape == (0,)

    def test_requires_two_mc_samples(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        with pytest.raises(ParameterError):
            pl.pseudo_label_batch(
                x[:1], model, model.fm_head(modulation, bank), 1, 0.75,
                np.random.default_rng(0),
            )

    def test_tau_range_checked(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        with pytest.raises(ParameterError):
            pl.pseudo_label_batch(
                x[:1], model, model.fm_head(modulation, bank), 5, 1.5,
                np.random.default_rng(0),
            )


def _loop_oracle(u, model, modulation, bank, k, rng):
    """The K-call MC loop that one call of K passes replaces."""
    n, c = len(u), model.num_classes
    diags = np.empty((k, n, c))
    head = model.fm_head(modulation, bank)
    for i in range(k):
        diags[i] = pl.predict_matrices(u, model, head, dropout=True, rng=rng)
    mean_diag = diags.mean(axis=0)
    labels = mean_diag.argmax(axis=1)
    rows = np.arange(n)
    return labels, mean_diag[rows, labels], diags[:, rows, labels].std(axis=0)


def _mc_setup(hidden, n, num_classes=7, dim=32):
    """A model, modulation and bank in the benchmark's shapes, and n rows."""
    model = make_tiny_model(
        num_classes=num_classes, input_dim=dim, hidden=hidden, feature_dim=dim
    )
    g = np.random.default_rng(3)
    y = np.repeat(np.arange(num_classes), 4)
    feats = model.extractor.forward(g.normal(size=(len(y), dim))).value
    modulation = ModulationMatrix.from_values(variance_init(feats, y, num_classes))
    bank = build_bank(feats, y, num_classes)
    return model, modulation, bank, g.normal(size=(n, dim))


def _counting(monkeypatch, owner, name, record):
    """Patch ``owner.name`` to append ``record(*args, **kwargs)`` of each
    call to the returned list."""
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _passes(u, *args, passes=1, **kwargs):
    """A ``predict_matrices`` call's rows and passes."""
    return len(u), passes


class TestStackedMonteCarlo:
    @pytest.mark.parametrize("hidden", [(), (64,)])
    @pytest.mark.parametrize("n", [1, 48])
    def test_matches_k_call_loop_bitwise(self, hidden, n):
        k = 5
        model, modulation, bank, u = _mc_setup(hidden, n)

        rng = np.random.default_rng(21)
        recs = pl.pseudo_label_batch(u, model, model.fm_head(modulation, bank), k, 0.5, rng)
        oracle_rng = np.random.default_rng(21)
        labels, p_max, sigma = _loop_oracle(u, model, modulation, bank, k, oracle_rng)

        assert recs["label"].tolist() == labels.tolist()
        assert recs["p_max"].tobytes() == p_max.tobytes()
        assert recs["sigma"].tobytes() == sigma.tobytes()
        assert rng.random() == oracle_rng.random()


class TestMonteCarloBlocks:
    @pytest.mark.parametrize("hidden", [(), (64,)])
    @pytest.mark.parametrize("n", [2, 48])
    def test_passes_across_blocks_match_k_call_loop_bitwise(self, monkeypatch, hidden, n):
        k = 5
        model, modulation, bank, u = _mc_setup(hidden, n)
        # Blocks of 7 samples: the K passes' blocks straddle pass bounds.
        monkeypatch.setattr(pl, "SOFTMAX_BLOCK_BYTES", 7 * 8 * 7 * 7)
        oracle_rng = np.random.default_rng(21)
        labels, p_max, sigma = _loop_oracle(u, model, modulation, bank, k, oracle_rng)

        calls = _counting(monkeypatch, pl, "predict_matrices", _passes)
        blocks = _counting(monkeypatch, net, "score_graph", lambda *args: len(args[2]))
        rng = np.random.default_rng(21)
        recs = pl.pseudo_label_batch(u, model, model.fm_head(modulation, bank), k, 0.5, rng)
        assert calls == [(n, k)]
        assert len(blocks) == -(-k * n // 7)
        assert any(end % n for end in np.cumsum(blocks))  # one straddles two passes

        assert recs["label"].tolist() == labels.tolist()
        assert recs["p_max"].tobytes() == p_max.tobytes()
        assert recs["sigma"].tobytes() == sigma.tobytes()
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("n", [2, 48, 1050])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("modulated", [True, False])
    def test_passes_score_pass_major_copies(self, n, dropout, modulated):
        k = 3
        model, modulation, bank, u = _mc_setup((), n)
        head = model.fm_head(modulation, bank) if modulated else None
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = pl.predict_matrices(u, model, head, dropout, got_rng, passes=k)
        want = pl.predict_matrices(np.concatenate([u] * k), model, head, dropout, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_large_k_is_one_call_under_budget(self, monkeypatch):
        n, k, budget = 16, 1000, 4 * 2**20
        model, modulation, bank, u = _mc_setup((), n)
        head = model.fm_head(modulation, bank)
        calls = _counting(monkeypatch, pl, "predict_matrices", _passes)
        # A stacked copy of all K passes' logits alone would hold 6.3 MB.
        assert 8 * k * n * 7 * 7 > budget
        tracemalloc.start()
        try:
            recs = pl.pseudo_label_batch(u, model, head, k, 0.5, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recs) == n
        assert calls == [(n, k)]
        assert peak < budget


def _block_samples(num_classes, modulated):
    """Samples in a full softmax block: B, at ``SOFTMAX_BLOCK_BYTES``."""
    rows = num_classes if modulated else 1
    return pl.SOFTMAX_BLOCK_BYTES // (8 * rows * num_classes)


class TestSoftmaxBlocks:
    @pytest.mark.parametrize("size", ["1", "2", "B-1", "B", "B+1", "2B+1"])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("modulated", [True, False])
    @pytest.mark.parametrize("num_classes", [7, 8])
    def test_matches_one_copy_softmax_bitwise(self, size, dropout, modulated, num_classes):
        b = _block_samples(num_classes, modulated)
        n = {"1": 1, "2": 2, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[size]
        model, modulation, bank, u = _mc_setup((), n, num_classes)
        head = model.fm_head(modulation, bank) if modulated else None
        got_rng = np.random.default_rng(9)
        got = pl.predict_matrices(u, model, head, dropout, got_rng)
        # Each block's rows scored on their own, in order, drawing their
        # masks from the one generator.
        want_rng = np.random.default_rng(9)
        blocks = pl._block_count(n, 8 * (num_classes if modulated else 1) * num_classes)
        want = []
        for i in range(blocks):
            rows = u[n * i // blocks : n * (i + 1) // blocks]
            with no_grad():
                logits = net.score_graph(model, head, rows, want_rng if dropout else None)
            want.append(ref.one_copy_confidences(logits.value, modulated))
        assert got_rng.random() == want_rng.random()
        assert got.shape == (n, num_classes) and got.flags.c_contiguous
        assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    @pytest.mark.parametrize("modulated", [True, False])
    def test_blocks_below_three_samples_keep_the_bits(self, monkeypatch, n, modulated):
        # A budget of one byte fits no sample: every block holds 2 or 3.
        monkeypatch.setattr(pl, "SOFTMAX_BLOCK_BYTES", 1)
        model, modulation, bank, u = _mc_setup((), n, num_classes=8)
        head = model.fm_head(modulation, bank) if modulated else None
        with no_grad():
            logits = net.score_graph(model, head, u).value
        got = pl.predict_matrices(u, model, head)
        assert got.tobytes() == ref.one_copy_confidences(logits, modulated).tobytes()

    @pytest.mark.parametrize("sample_bytes", [8, 392, 2**19, 2**19 + 1, 2**20, 2**30])
    def test_blocks_are_near_equal_and_never_one_sample(self, sample_bytes):
        # Samples a block may take: as many as fit the budget, or three.
        cap = max(3, pl.SOFTMAX_BLOCK_BYTES // sample_bytes)
        for n in [0, 1, 2, 3, 4, 5, 7, 2675, 5349, 40_000]:
            blocks = pl._block_count(n, sample_bytes)
            sizes = [n * (i + 1) // blocks - n * i // blocks for i in range(blocks)]
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
            if n >= 2:
                assert min(sizes) >= 2
            if blocks > 1:  # one block fewer would overfill one
                assert -(-n // (blocks - 1)) > cap

    @pytest.mark.parametrize("n", [4200, 42_000])
    def test_peak_holds_logits_and_one_block(self, n):
        """An fm pass holds its result and one block's logits and their
        class-major copy, not all of its logits."""
        c = 7
        model, modulation, bank, u = _mc_setup((), n, c)
        head = model.fm_head(modulation, bank)
        assert 8 * n * c * c > 3 * pl.SOFTMAX_BLOCK_BYTES  # more than three blocks
        pl.predict_matrices(u[:3], model, head)
        tracemalloc.start()
        try:
            out = pl.predict_matrices(u, model, head)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2.5 * pl.SOFTMAX_BLOCK_BYTES


class TestPassStatistics:
    @pytest.mark.parametrize("k", [2, 5, 1000])
    @pytest.mark.parametrize("n", [1, 48])
    def test_mean_and_sigma_match_numpy_bitwise(self, n, k):
        model, modulation, bank, u = _mc_setup((64,), n)
        head = model.fm_head(modulation, bank)
        recs = pl.pseudo_label_batch(u, model, head, k, 0.5, np.random.default_rng(k))
        conf = pl.predict_matrices(u, model, head, True, np.random.default_rng(k), k)
        conf = conf.reshape(k, n, -1)
        mean = np.mean(conf, axis=0)
        labels = mean.argmax(axis=1)
        rows = np.arange(n)
        # Two copies side by side: numpy adds each of their columns in
        # order, a lone one too.
        picked = np.tile(conf[:, rows, labels], 2)
        assert recs["label"].tolist() == labels.tolist()
        assert recs["p_max"].tobytes() == mean[rows, labels].tobytes()
        assert recs["sigma"].tobytes() == np.std(picked, axis=0)[:n].tobytes()
        assert (recs["sigma"] > 0).all()


class TestBaselinePseudoLabel:
    def test_uniform_prediction_discarded(self):
        model, _, _, x, _ = make_tiny_setup()
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0
        (rec,) = pl.baseline_pseudo_label_batch(x[:1], model)
        assert not rec.keep and rec.weight == 0.0

    def test_deterministic_single_pass(self):
        model, _, _, x, _ = make_tiny_setup()
        a = pl.baseline_pseudo_label_batch(x, model)
        b = pl.baseline_pseudo_label_batch(x, model)
        assert a.tobytes() == b.tobytes()
        assert (a["sigma"] == 0.0).all()

    def test_weight_is_binary(self):
        model, _, _, x, _ = make_tiny_setup()
        model.classifier.weight.value[:] *= 50.0  # force saturation
        recs = pl.baseline_pseudo_label_batch(x, model)
        assert set(recs["weight"].tolist()) <= {0.0, 1.0}
        assert recs["keep"].any()

    def test_matches_per_record_gate(self):
        model, _, _, x, _ = make_tiny_setup(n_per_class=20)
        model.classifier.weight.value[:] *= 20.0  # keep some, drop some
        got = pl.baseline_pseudo_label_batch(x, model)
        probs = pl.predict_matrices(x, model, None)
        labels = probs.argmax(axis=1)
        want = [
            _old_baseline_gate_record(label, probs[i, label], pl.BASELINE_THRESHOLD)
            for i, label in enumerate(labels.tolist())
        ]
        _same_records(got, want)
        assert 0 < np.count_nonzero(got["keep"]) < len(got)


def _old_gate_record(label, p_max, sigma, tau):
    """The per-record uncertainty gate, kept as the oracle for ``gate_batch``:
    one (label, p_max, sigma, keep, weight) tuple of Python scalars."""
    keep = bool(p_max - sigma > tau)
    weight = pl.confidence_scale(float(p_max)) if keep else 0.0
    return int(label), float(p_max), float(sigma), keep, weight


def _old_baseline_gate_record(label, p_max, tau_fixed):
    keep = bool(p_max > tau_fixed)
    return int(label), float(p_max), 0.0, keep, 1.0 if keep else 0.0


def _same_records(got, want):
    """A plain ndarray of ``PSEUDO_LABELS`` rows equal to the oracle's
    tuples field by field, including types and float bits (repr
    round-trips)."""
    assert type(got) is np.ndarray and got.dtype == pl.PSEUDO_LABELS
    assert all(isinstance(r, np.record) for r in got)
    rows = got.tolist()
    assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in want]
    assert repr(rows) == repr(want)


_prob = st.floats(0.0, 1.0)


class TestBatchGate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), _prob, st.floats(0.0, 0.5)), max_size=48),
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
        st.lists(st.tuples(st.integers(0, 6), _prob), max_size=48),
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
        # The baseline's call: sigma 0 and a unit weight.
        _same_records(pl.gate_batch(labels, p_max, 0.0, tau_fixed, unit_weight=True), want)

    def test_kept_confidence_above_one_rejected(self):
        with pytest.raises(ParameterError):
            pl.gate_batch(np.array([0, 1]), np.array([0.9, 1.5]), np.zeros(2), 0.75)
        # Dropped rows get no weight, so their confidence is not checked.
        (record,) = pl.gate_batch(np.array([0]), np.array([1.5]), np.array([1.0]), 0.75)
        assert not record.keep and record.weight == 0.0


class TestGateWeights:
    """The batch gate's weights are ``confidence_scale``'s, bit for bit, and
    its one range check rejects what ``confidence_scale`` rejects."""

    def test_weights_equal_confidence_scale_bitwise(self):
        g = np.random.default_rng(7)
        p_max = np.concatenate([[0.0, 1.0, 0.5], g.random(2000), 1.0 - g.random(500) ** 8])
        out = pl.gate_batch(np.zeros(len(p_max), np.int64), p_max, 0.0, -0.5)
        assert out["keep"].all()
        want = np.array([pl.confidence_scale(p) for p in p_max.tolist()])
        assert out["weight"].tobytes() == want.tobytes()

    def test_only_kept_rows_weigh(self):
        g = np.random.default_rng(8)
        p_max, sigma = g.random(500), g.random(500) * 0.3
        out = pl.gate_batch(np.zeros(500, np.int64), p_max, sigma, 0.6)
        keep = out["keep"]
        assert 0 < np.count_nonzero(keep) < 500
        want = [pl.confidence_scale(p) if k else 0.0 for p, k in zip(p_max, keep)]
        assert out["weight"].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [1.0 + 2**-52, 1.5, np.inf, -2**-1074, -0.25])
    def test_kept_confidence_out_of_range_rejected(self, bad):
        with pytest.raises(ParameterError):
            pl.confidence_scale(bad)
        p_max = np.array([0.5, bad, 0.75])
        with pytest.raises(ParameterError):
            pl.gate_batch(np.zeros(3, np.int64), p_max, 0.0, -0.5)
        with pytest.raises(ParameterError):
            pl.gate_batch(np.zeros(3, np.int64), p_max, 0.0, -0.5, unit_weight=True)

    def test_nan_confidence(self):
        with pytest.raises(ParameterError):
            pl.confidence_scale(math.nan)
        # NaN fails the strict comparison at any tau: discarded, never weighed.
        for tau in (-math.inf, -0.5, 0.5):
            (row,) = pl.gate_batch([0], np.array([math.nan]), 0.0, tau)
            assert not row.keep and row.weight == 0.0

    def test_unit_weight_is_exactly_one_or_zero(self):
        g = np.random.default_rng(9)
        p_max = np.concatenate([[0.95, 0.9500000000000001, 1.0], g.random(300)])
        out = pl.gate_batch(np.zeros(len(p_max), np.int64), p_max, 0.0, 0.95,
                            unit_weight=True)
        keep = out["keep"]
        assert keep.tolist() == (p_max > 0.95).tolist()
        assert (out["weight"][keep] == 1.0).all()
        assert (out["weight"][~keep] == 0.0).all()
        assert not np.signbit(out["weight"]).any()


class TestTracerContract:
    """``perfbench.spans`` counts the labelers' output as ``len(out)`` rows
    and ``sum(r.keep for r in out)`` kept labels, and patches both
    labelers by name."""

    def _check(self, out, n):
        assert len(out) == n
        assert sum(r.keep for r in out) == np.count_nonzero(out["keep"])
        tracer = spans.Tracer()
        tracer._count_labels((), {}, out)
        assert tracer.counts["pseudolabel.rows"] == n
        assert tracer.counts["pseudolabel.kept"] == np.count_nonzero(out["keep"])

    def test_fm_labeler(self):
        model, modulation, bank, u = _mc_setup((), 48)
        head = model.fm_head(modulation, bank)
        out = pl.pseudo_label_batch(u, model, head, 5, 0.3, np.random.default_rng(0))
        assert 0 < np.count_nonzero(out["keep"]) < 48
        self._check(out, 48)

    def test_baseline_labeler(self):
        model, _, _, x, _ = make_tiny_setup(n_per_class=20)
        model.classifier.weight.value[:] *= 20.0
        out = pl.baseline_pseudo_label_batch(x, model)
        assert 0 < np.count_nonzero(out["keep"]) < len(x)
        self._check(out, len(x))
