import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfeat import metrics as met
from modfeat.pseudolabel import PseudoLabelRecord
from modfeat.trainer import EpochReport


def rec(keep, label=0):
    return PseudoLabelRecord(label=label, p_max=0.9, sigma=0.0, keep=keep,
                             l_scale=1.0 if keep else 0.0)


def report(epoch=1, acc=0.5, keep=0.5, pl=0.9):
    return EpochReport(
        epoch=epoch, l_s=0.1, l_u=0.1, l_d=0.0, l_ud=0.0, total=0.2,
        keep_rate=keep, pl_accuracy=pl, target_accuracy=acc, lr=0.01,
    )


class TestKeepRate:
    def test_all_and_none(self):
        assert met.keep_rate([rec(True)] * 4) == 1.0
        assert met.keep_rate([rec(False)] * 4) == 0.0

    def test_two_of_three(self):
        assert met.keep_rate([rec(True), rec(True), rec(False)]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            met.keep_rate([])


class TestPlAccuracy:
    def test_all_correct(self):
        records = [rec(True, label=1)] * 3
        assert met.pl_accuracy(records, [1, 1, 1]) == 1.0

    def test_half_correct(self):
        records = [rec(True, 0), rec(True, 1)]
        assert met.pl_accuracy(records, [0, 0]) == 0.5

    def test_discarded_never_counted(self):
        records = [rec(True, 0), rec(False, 1)]
        assert met.pl_accuracy(records, [0, 0]) == 1.0

    def test_zero_kept_is_absent(self):
        assert met.pl_accuracy([rec(False)] * 3, [0, 0, 0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            met.pl_accuracy([rec(True)], [0, 1])

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_counting_invariant(self, triples):
        records = [rec(k, label) for k, label, _ in triples]
        truths = [t for _, _, t in triples]
        kept = sum(r.keep for r in records)
        correct_kept = sum(
            1 for r, t in zip(records, truths) if r.keep and r.label == t
        )
        assert correct_kept <= kept <= len(records)
        acc = met.pl_accuracy(records, truths)
        if kept:
            assert acc == pytest.approx(correct_kept / kept)
        else:
            assert acc is None


class TestModulatorGap:
    def test_constant_weights_give_zero(self):
        assert met.modulator_gap(np.full((3, 6), 0.4), (0, 1, 2), (3, 4, 5)) == 0.0

    def test_perfect_separation(self):
        weights = np.hstack([np.ones((2, 3)), np.zeros((2, 3))])
        assert met.modulator_gap(weights, (0, 1, 2), (3, 4, 5)) == 1.0

    def test_variance_init_on_shifted_synthetic_data(self):
        from modfeat import data as dat
        from modfeat.modulator import variance_init

        ds = dat.generate_synthetic(3, 3, 4, 4, 60, class_sep=3.0,
                                    domain_shift=8.0, seed=4)
        weights = variance_init(ds.features, ds.class_ids, 3)
        assert met.modulator_gap(weights, ds.signal_dims, ds.noise_dims) > 0.0

    def test_unknown_roles_rejected(self):
        with pytest.raises(met.UnsupportedDiagnosticError):
            met.modulator_gap(np.ones((2, 4)), None, None)

    def test_no_noise_dims_is_unsupported_not_nan(self):
        with pytest.raises(met.UnsupportedDiagnosticError):
            met.modulator_gap(np.ones((2, 4)), (0, 1, 2, 3), ())


class TestAggregate:
    def test_single_seed_zero_std(self):
        summary = met.aggregate([0], [[report(acc=0.6)]])
        assert summary.target_acc_mean == 0.6
        assert summary.target_acc_std == 0.0

    def test_two_seed_hand_case(self):
        summary = met.aggregate([0, 1], [[report(acc=0.6)], [report(acc=0.8)]])
        assert summary.target_acc_mean == pytest.approx(0.7)
        assert summary.target_acc_std == pytest.approx(0.1)

    def test_matches_spreadsheet_recount(self, rng):
        accs = rng.uniform(0.3, 0.9, size=6)
        series = [[report(acc=a, keep=a / 2)] for a in accs]
        summary = met.aggregate(range(6), series)
        mean = sum(accs) / 6
        std = (sum((a - mean) ** 2 for a in accs) / 6) ** 0.5
        assert summary.target_acc_mean == pytest.approx(mean)
        assert summary.target_acc_std == pytest.approx(std)

    def test_permutation_invariant(self):
        series = [[report(acc=a)] for a in (0.2, 0.5, 0.8)]
        fwd = met.aggregate([0, 1, 2], series)
        rev = met.aggregate([2, 1, 0], series[::-1])
        assert fwd.target_acc_mean == pytest.approx(rev.target_acc_mean)
        assert fwd.target_acc_std == pytest.approx(rev.target_acc_std)

    def test_absent_pl_accuracy_skipped(self):
        series = [[report(pl=None)], [report(pl=0.8)]]
        summary = met.aggregate([0, 1], series)
        assert summary.pl_acc_mean == pytest.approx(0.8)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            met.aggregate([0, 1], [[report()], [report(), report(epoch=2)]])

    def test_rows_for_csv(self):
        summary = met.aggregate([0], [[report()]], modulator_gaps=[0.3])
        names = [row[0] for row in summary.rows()]
        assert names == ["target_acc", "keep_rate", "pl_acc", "modulator_gap"]
