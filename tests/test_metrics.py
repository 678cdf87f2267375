import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfeat import metrics as met


class TestKeepRate:
    def test_all_and_none(self):
        assert met.keep_rate([True] * 4) == 1.0
        assert met.keep_rate(np.zeros(4, dtype=bool)) == 0.0

    def test_two_of_three(self):
        assert met.keep_rate([True, True, False]) == pytest.approx(2 / 3)

    def test_python_float(self):
        # metrics.csv writes repr(value), which a numpy scalar would change.
        assert type(met.keep_rate(np.array([True, False]))) is float

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            met.keep_rate([])


class TestPlAccuracy:
    def test_all_correct(self):
        assert met.pl_accuracy([1, 1, 1], [True] * 3, [1, 1, 1]) == 1.0

    def test_half_correct(self):
        assert met.pl_accuracy([0, 1], [True, True], [0, 0]) == 0.5

    def test_discarded_never_counted(self):
        assert met.pl_accuracy([0, 1], [True, False], [0, 0]) == 1.0

    def test_zero_kept_is_absent(self):
        assert met.pl_accuracy([0] * 3, [False] * 3, [0, 0, 0]) is None

    def test_python_float(self):
        acc = met.pl_accuracy(np.array([0, 1]), np.array([True, True]), np.array([0, 0]))
        assert type(acc) is float

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            met.pl_accuracy([0], [True], [0, 1])
        with pytest.raises(ValueError):
            met.pl_accuracy([0, 1], [True], [0, 1])

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_counting_invariant(self, triples):
        keep, labels, truths = (list(column) for column in zip(*triples))
        kept = sum(keep)
        correct_kept = sum(
            1 for k, label, t in triples if k and label == t
        )
        assert correct_kept <= kept <= len(triples)
        acc = met.pl_accuracy(labels, keep, truths)
        if kept:
            assert acc == pytest.approx(correct_kept / kept)
        else:
            assert acc is None


class TestModulatorGap:
    def test_constant_weights_give_zero(self):
        assert met.modulator_gap(np.full((3, 6), 0.4), 3) == 0.0

    def test_perfect_separation(self):
        weights = np.hstack([np.ones((2, 3)), np.zeros((2, 3))])
        assert met.modulator_gap(weights, 3) == 1.0
        assert met.modulator_gap(weights, 2) == 1.0 - 1.0 / 4

    def test_variance_init_on_shifted_synthetic_data(self):
        from modfeat import data as dat
        from modfeat.modulator import variance_init

        ds = dat.generate_synthetic(3, 3, 4, 4, 60, class_sep=3.0,
                                    domain_shift=8.0, seed=4, bias_jitter=0.2)
        weights = variance_init(ds.features, ds.class_ids, 3)
        assert met.modulator_gap(weights, 4) > 0.0

    def test_means_of_index_array_copies_bitwise(self):
        # summary.csv holds these bits: each block's mean is taken over the
        # (F-ordered) copy an index array makes, as the gap always took it.
        g = np.random.default_rng(5)
        for _ in range(200):
            w = g.random((7, 32))
            s = int(g.integers(1, 32))
            want = w[:, list(range(s))].mean() - w[:, list(range(s, 32))].mean()
            assert met.modulator_gap(w, s) == float(want)


def finals(accs=(0.5,), keeps=None, pls=None, gaps=None) -> list:
    """summary.csv value rows (target_acc, keep_rate, pl_acc, modulator_gap)."""
    n = len(accs)
    return list(zip(accs, keeps or [0.5] * n, pls or [0.9] * n, gaps or [None] * n))


NAMES = ("target_acc", "keep_rate", "pl_acc", "modulator_gap")


def stats(rows) -> dict:
    return {name: (mean, std, n) for name, mean, std, n in met.column_stats(NAMES, rows)}


class TestColumnStats:
    def test_single_seed_zero_std(self):
        assert stats(finals([0.6]))["target_acc"] == (0.6, 0.0, 1)

    def test_two_seed_hand_case(self):
        mean, std, n = stats(finals([0.6, 0.8]))["target_acc"]
        assert (mean, std, n) == (pytest.approx(0.7), pytest.approx(0.1), 2)

    def test_matches_spreadsheet_recount(self, rng):
        accs = rng.uniform(0.3, 0.9, size=6).tolist()
        mean, std, _ = stats(finals(accs, keeps=[a / 2 for a in accs]))["target_acc"]
        want = sum(accs) / 6
        assert mean == pytest.approx(want)
        assert std == pytest.approx((sum((a - want) ** 2 for a in accs) / 6) ** 0.5)

    def test_permutation_invariant(self):
        rows = finals([0.2, 0.5, 0.8])
        fwd, rev = stats(rows)["target_acc"], stats(rows[::-1])["target_acc"]
        assert fwd[0] == pytest.approx(rev[0]) and fwd[1] == pytest.approx(rev[1])

    def test_in_names_order(self):
        rows = finals([0.5], gaps=[0.3])
        assert [row[0] for row in met.column_stats(NAMES, rows)] == list(NAMES)

    def test_absent_values_skipped(self):
        rows = finals([0.5] * 4, pls=[0.6, None, 0.9, 0.7],
                      gaps=[0.226, 0.399, 0.3, 0.25])
        got = stats(rows)
        assert got["pl_acc"] == (pytest.approx(np.mean([0.6, 0.9, 0.7])),
                                 pytest.approx(np.std([0.6, 0.9, 0.7])), 3)
        assert got["modulator_gap"][1:] == (
            pytest.approx(np.std([0.226, 0.399, 0.3, 0.25])), 4
        )
        assert got["target_acc"][2] == 4

    def test_column_with_no_values_has_no_entry(self):
        rows = finals([0.5, 0.6], pls=[None, None])
        assert list(stats(rows)) == ["target_acc", "keep_rate"]


class TestWriteCsv:
    def test_cells(self, tmp_path):
        met.write_csv(tmp_path / "t.csv", [("a", "b", "c"), (1, None, 0.1 + 0.2)])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n1,,0.30000000000000004\n"

    def test_float_cells_read_back(self, rng):
        values = rng.normal(size=5).tolist()
        assert [float(met.cell(v)) for v in values] == values
