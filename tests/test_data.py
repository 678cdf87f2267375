import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from modfeat import data as dat
from tests import refops as ref


class TestDomainDataset:
    def test_three_arrays_are_the_whole_dataset(self):
        fields = [f.name for f in dataclasses.fields(dat.DomainDataset)]
        assert fields == ["features", "class_ids", "domain_ids"]

    def test_counts_are_the_largest_id_plus_one(self):
        # Class 1 and domains 0-4 have no row: a count is not a tally.
        ds = dat.DomainDataset(np.zeros((3, 2)), np.array([0, 2, 2]), np.array([5, 6, 5]))
        assert (ds.num_classes, ds.num_domains) == (3, 7)
        empty = dat.DomainDataset(
            np.zeros((0, 2)), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        assert (empty.num_classes, empty.num_domains) == (0, 0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(dat.SchemaError, match="equal length"):
            dat.DomainDataset(np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros(2, np.int64))


class TestGenerateSynthetic:
    def test_counts(self):
        ds = dat.generate_synthetic(3, 4, 4, 4, 100, class_sep=3.0, domain_shift=1.0, seed=0,
                                    bias_jitter=0.2)
        assert len(ds) == 1200
        assert ds.input_dim == 8
        assert (ds.num_classes, ds.num_domains) == (3, 4)

    def test_smallest_cell(self, small_dataset):
        # Three domains of three classes, 30 rows a cell.
        assert [small_dataset.smallest_cell(d) for d in (-1, 0, 2, 3)] == [30] * 4

    def test_uniform_class_distribution(self, small_dataset):
        for d in range(small_dataset.num_domains):
            counts = np.bincount(
                small_dataset.class_ids[small_dataset.domain_ids == d],
                minlength=small_dataset.num_classes,
            )
            assert len(set(counts)) == 1

    def test_zero_shift_means_identical_domains(self):
        ds = dat.generate_synthetic(2, 3, 4, 4, 400, class_sep=4.0, domain_shift=0.0, seed=1,
                                    bias_jitter=0.2)
        noise = ds.features[:, 4:]
        per_domain_means = [
            noise[ds.domain_ids == d].mean(axis=0) for d in range(3)
        ]
        for a in per_domain_means:
            for b in per_domain_means:
                # sample means of N(0,1) over 800 draws: SE ~ 0.035
                np.testing.assert_allclose(a, b, atol=0.2)

    def test_high_separation_nearest_mean_oracle(self):
        ds = dat.generate_synthetic(4, 3, 6, 6, 80, class_sep=10.0, domain_shift=2.0, seed=2,
                                    bias_jitter=0.2)
        sig = ds.features[:, :6]
        means = np.stack([sig[ds.class_ids == c].mean(axis=0) for c in range(4)])
        dists = ((sig[:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert (predictions == ds.class_ids).mean() > 0.99

    def test_domain_bias_magnitude(self):
        ds = dat.generate_synthetic(2, 4, 4, 8, 500, class_sep=4.0, domain_shift=5.0,
                                    seed=3, bias_jitter=0.0)
        for d in range(4):
            bias = ds.features[ds.domain_ids == d][:, 4:].mean(axis=0)
            assert np.linalg.norm(bias) == pytest.approx(5.0, abs=0.3)

    def test_separation_infeasible(self):
        with pytest.raises(dat.GenerationError):
            dat.generate_synthetic(
                50, 2, 1, 0, 1, class_sep=10.0, domain_shift=0.0, seed=0,
                bias_jitter=0.2, max_attempts=50,
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dat.generate_synthetic(0, 2, 2, 2, 10, 1.0, 1.0, 0, 0.2)
        with pytest.raises(ValueError):
            dat.generate_synthetic(2, 2, 2, 2, 10, -1.0, 1.0, 0, 0.2)

    @pytest.mark.parametrize(
        "settings",
        [
            {"class_sep": float("inf")},
            {"class_sep": float("nan")},
            {"domain_shift": float("nan")},
            {"domain_shift": float("inf")},
            {"bias_jitter": float("nan")},
            {"bias_jitter": float("inf")},
            {"bias_jitter": -1e-300},
        ],
    )
    def test_non_finite_or_negative_scales_rejected(self, settings):
        args = {"class_sep": 2.0, "domain_shift": 1.0, "bias_jitter": 0.5, **settings}
        with pytest.raises(ValueError, match="bias_jitter"):
            dat.generate_synthetic(2, 2, 2, 2, 10, seed=0, **args)

    def test_negative_zero_jitter_is_zero_jitter(self):
        # -0.0 passes the >= 0 check; rng.normal rejects it as a scale.
        def make(jitter):
            return dat.generate_synthetic(
                3, 2, 2, 3, 10, class_sep=2.0, domain_shift=1.0, seed=0,
                bias_jitter=jitter,
            )

        zero, negative_zero = make(0.0), make(-0.0)
        assert negative_zero.features.tobytes() == zero.features.tobytes()


class TestCsvRoundTrip:
    def test_save_load(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        dat.save_csv(small_dataset, path)
        loaded = dat.load_csv(path)
        assert loaded.features.tobytes() == small_dataset.features.tobytes()
        np.testing.assert_array_equal(loaded.class_ids, small_dataset.class_ids)
        np.testing.assert_array_equal(loaded.domain_ids, small_dataset.domain_ids)
        assert loaded.num_classes == small_dataset.num_classes
        assert loaded.num_domains == small_dataset.num_domains

    def _both_writers(self, ds, tmp_path) -> bytes:
        dat.save_csv(ds, tmp_path / "bulk.csv")
        ref.save_csv(ds, tmp_path / "ref.csv")
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "ref.csv").read_bytes()
        return bulk

    def test_bytes_match_csv_writer_at_edge_values(self, tmp_path):
        top = 1.7976931348623157e308
        features = np.array([
            [-0.0, 5e-324, 1e-05, 0.1],
            [1e16, top, -top, -5e-324],
            [1 / 3, -2.5, 0.0, 123456789.0],
        ])
        ds = dat.DomainDataset(
            features, class_ids=np.array([0, 12, 3]), domain_ids=np.array([10, 0, 123])
        )
        assert (ds.num_classes, ds.num_domains) == (13, 124)
        text = self._both_writers(ds, tmp_path).decode()
        assert text.splitlines()[1] == "10,0,-0.0,5e-324,1e-05,0.1"
        assert text.splitlines()[2].startswith("0,12,1e+16,1.7976931348623157e+308,")
        loaded = dat.load_csv(tmp_path / "bulk.csv")
        assert loaded.features.tobytes() == features.tobytes()

    def test_bytes_match_csv_writer_without_noise_dims(self, tmp_path):
        ds = dat.generate_synthetic(3, 2, 4, 0, 5, class_sep=2.0, domain_shift=1.0, seed=4,
                                    bias_jitter=0.2)
        assert ds.input_dim == 4
        self._both_writers(ds, tmp_path)

    def test_small_wellformed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("domain_id,class_id,f0,f1\n0,0,1.5,2.0\n0,1,0.5,-1.0\n1,0,3.0,4.0\n")
        ds = dat.load_csv(path)
        assert len(ds) == 3
        assert ds.input_dim == 2

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("domain_id,class_id,f0\n0,0,1.0\n0,1,oops\n")
        with pytest.raises(dat.ParseError, match=":3"):
            dat.load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"domain_id,class_id,f0,f1\n0,0,1.0,2.0\n\n0,1,{value},1.0\n")
        with pytest.raises(dat.ParseError, match=":4:"):
            dat.load_csv(path)

    def test_fractional_id_names_line(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("domain_id,class_id,f0\n0,0,1.0\n0,1.5,1.0\n")
        with pytest.raises(dat.ParseError, match=":3:"):
            dat.load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("domain_id,class_id,f0,f1\n\n0,0,1.5,2.0\n\n\n1,2,0.5,-1.0\n\n")
        ds = dat.load_csv(path)
        np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [0.5, -1.0]])
        np.testing.assert_array_equal(ds.class_ids, [0, 2])
        np.testing.assert_array_equal(ds.domain_ids, [0, 1])

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("domain_id,class_id,f0,f1\n0,0,1.0,2.0\n0,1,1.0\n")
        with pytest.raises(dat.SchemaError, match=":3:"):
            dat.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(dat.SchemaError):
            dat.load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("domain_id,class_id,f0\n")
        with pytest.raises(dat.SchemaError):
            dat.load_csv(path)

    def test_byte_order_mark_is_skipped(self, small_dataset, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        dat.save_csv(small_dataset, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = dat.load_csv(plain), dat.load_csv(marked)
        for field in ("features", "class_ids", "domain_ids"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.num_classes, a.num_domains) == (b.num_classes, b.num_domains)

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + b"domain_id,class_id,f0\n0,0,1.0\n")
        with pytest.raises(dat.SchemaError, match="header must start"):
            dat.load_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("class_id,domain_id,f0\n0,0,1.0\n")
        with pytest.raises(dat.SchemaError):
            dat.load_csv(path)


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    """The benchmark's 4,200-row CSV (configs/synthetic.ini, data seed 0)
    and its lines, header first, without their line ends."""
    ds = dat.generate_synthetic(7, 4, 16, 16, 150, class_sep=2.0, domain_shift=6.0,
                                seed=0, bias_jitter=1.0)
    path = tmp_path_factory.mktemp("bench") / "bench.csv"
    dat.save_csv(ds, path)
    return ds, path.read_bytes().split(b"\n")[:-1]


def _same_arrays(path, want):
    """``load_csv(path)`` gives ``want``'s arrays as views of its one
    parse, and peaks at little more than their bytes."""
    dat.load_csv(path)  # the first call's one-time allocations are not the load's
    tracemalloc.start()
    try:
        got = dat.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [got.features, got.class_ids, got.domain_ids]
    for a, b in zip(arrays, [want.features, want.class_ids, want.domain_ids]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # The fields of a row interleave, so the views share the parse's
    # buffer but no element: ``np.shares_memory`` is False between them.
    parse, returned = got.features.base, sum(a.nbytes for a in arrays)
    assert parse is not None and all(a.base is parse for a in arrays)
    assert parse.nbytes == returned
    assert peak <= 1.25 * returned
    assert (got.num_classes, got.num_domains) == (want.num_classes, want.num_domains)


class TestStreamingLoad:
    """``load_csv`` parses from the open file; the line of a fault is found
    by reading the file again. Each case gives what reading the whole text
    first gave."""

    def _write(self, tmp_path, lines):
        path = tmp_path / "case.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def test_bad_field_past_the_first_read_names_its_line(self, bench_csv, tmp_path):
        _, lines = bench_csv
        lines = list(lines)
        lines[2999] = b"0,1," + b",".join([b"1.0"] * 31 + [b"oops"])  # line 3000
        path = self._write(tmp_path, lines)
        with pytest.raises(dat.ParseError) as err:
            dat.load_csv(path)
        assert str(err.value) == (
            f"{path}:3000: could not convert string 'oops' to float64 (field 34)"
        )

    def test_short_line_past_the_first_read_names_its_line(self, bench_csv, tmp_path):
        _, lines = bench_csv
        lines = list(lines)
        lines[3999] = b"0,1,1.0"
        path = self._write(tmp_path, lines)
        with pytest.raises(dat.SchemaError) as err:
            dat.load_csv(path)
        assert str(err.value) == f"{path}:4000: expected 34 fields, got 3"

    @pytest.mark.parametrize("value", [b"nan", b"-inf"])
    def test_non_finite_feature_names_its_line(self, bench_csv, tmp_path, value):
        _, lines = bench_csv
        lines = list(lines)
        lines[3499] = b"0,1," + b",".join([value] + [b"1.0"] * 31)  # line 3500
        lines.insert(10, b"")  # a blank line above it moves it to 3501
        path = self._write(tmp_path, lines)
        with pytest.raises(dat.ParseError) as err:
            dat.load_csv(path)
        assert str(err.value) == f"{path}:3501: features must be finite"

    def test_whole_file(self, bench_csv, tmp_path):
        ds, lines = bench_csv
        _same_arrays(self._write(tmp_path, lines), ds)

    def test_byte_order_mark_and_crlf(self, bench_csv, tmp_path):
        ds, lines = bench_csv
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines) + b"\r\n")
        _same_arrays(path, ds)

    def test_blank_lines_in_the_middle_and_at_the_end(self, bench_csv, tmp_path):
        ds, lines = bench_csv
        lines = lines[:2] + [b""] + lines[2:2100] + [b"", b""] + lines[2100:] + [b"", b""]
        _same_arrays(self._write(tmp_path, lines), ds)

    @pytest.mark.parametrize("blank", [b" ", b"\t", b"   "])
    def test_whitespace_only_line_is_a_row(self, bench_csv, tmp_path, blank):
        _, lines = bench_csv
        lines = lines[:50] + [blank] + lines[50:]  # line 51
        path = self._write(tmp_path, lines)
        with pytest.raises(dat.SchemaError) as err:
            dat.load_csv(path)
        assert str(err.value) == f"{path}:51: expected 34 fields, got 1"

    @pytest.mark.parametrize("line", [3, 3000])
    def test_invalid_utf8_reports_its_offset_in_the_file(self, bench_csv, tmp_path, line):
        _, lines = bench_csv
        lines = list(lines)
        lines[line - 1] = lines[line - 1][:-1] + b"\xff"
        path = self._write(tmp_path, lines)
        offset = path.read_bytes().index(b"\xff")
        with pytest.raises(UnicodeDecodeError) as err:
            dat.load_csv(path)
        assert str(err.value) == (
            f"'utf-8' codec can't decode byte 0xff in position {offset}: "
            "invalid start byte"
        )

    @pytest.mark.parametrize("body", [b"", b"\n", b"\n\n\n"])
    def test_no_data_rows_warns_nothing(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_bytes(b"domain_id,class_id,f0" + b"\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dat.SchemaError) as err:
                dat.load_csv(path)
        assert str(err.value) == f"{path}: no data rows"

    def test_peak_is_within_three_times_the_arrays(self, bench_csv, tmp_path):
        """The text, its lines and a numbered copy of them are never held:
        reading them whole first peaked at 7.2x the returned arrays."""
        _, lines = bench_csv
        path = self._write(tmp_path, lines)
        dat.load_csv(path)
        tracemalloc.start()
        try:
            ds = dat.load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = ds.features.nbytes + ds.class_ids.nbytes + ds.domain_ids.nbytes
        assert peak <= 3 * returned


def _dense_smallest_cell(ds, skip_domain):
    counts = np.zeros((ds.num_domains, ds.num_classes), dtype=np.int64)
    np.add.at(counts, (ds.domain_ids, ds.class_ids), 1)
    if 0 <= skip_domain < ds.num_domains:
        counts = np.delete(counts, skip_domain, axis=0)
    return int(counts.min()) if counts.size else 0


def _ids_dataset(domain_ids, class_ids):
    domain_ids, class_ids = np.asarray(domain_ids), np.asarray(class_ids)
    return dat.DomainDataset(np.zeros((len(domain_ids), 1)), class_ids, domain_ids)


class TestSmallestCell:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_counts(self, seed):
        g = np.random.default_rng(seed)
        n, domains, classes = g.integers(1, 40), g.integers(1, 6), g.integers(1, 5)
        ds = _ids_dataset(g.integers(0, domains, n), g.integers(0, classes, n))
        for skip in range(-1, ds.num_domains + 1):
            assert ds.smallest_cell(skip) == _dense_smallest_cell(ds, skip)

    def test_empty_cell_of_the_skipped_domain_is_not_counted(self):
        # Domain 1 has no class 1 row; domain 0 has two of each class.
        ds = _ids_dataset([0, 0, 0, 0, 1], [0, 1, 0, 1, 0])
        assert ds.smallest_cell(1) == 2
        assert ds.smallest_cell(0) == 0

    def test_domain_id_far_past_the_rows_allocates_no_cell_array(self):
        # A count per cell would take 8 * 2 * 10**17 bytes.
        ds = _ids_dataset([0, 0, 10**17, 10**17], [0, 1, 0, 1])
        tracemalloc.start()
        try:
            assert ds.smallest_cell(0) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestSplit:
    def test_labeled_count(self):
        ds = dat.generate_synthetic(7, 4, 4, 4, 20, class_sep=4.0, domain_shift=1.0, seed=0,
                                    bias_jitter=0.2)
        result = dat.split(ds, dat.SplitPlan(target_domain=0, labels_per_class=5, seed=0))
        assert len(result.labeled_x) == 5 * 7 * 3

    def test_unlabeled_pool_is_all_source_samples(self, small_dataset, small_split):
        n_source = int((small_dataset.domain_ids != 0).sum())
        assert len(small_split.unlabeled_x) == n_source

    def test_target_disjoint_from_training(self, small_dataset, small_split):
        test_rows = {tuple(row) for row in small_split.test_x}
        for row in small_split.labeled_x:
            assert tuple(row) not in test_rows
        for row in small_split.unlabeled_x:
            assert tuple(row) not in test_rows
        n_target = int((small_dataset.domain_ids == 0).sum())
        assert len(small_split.test_x) == n_target

    def test_every_source_cell_labeled(self, small_split):
        for d in small_split.source_domains:
            mask = small_split.labeled_domains == d
            counts = np.bincount(small_split.labeled_y[mask], minlength=3)
            assert np.all(counts == 4)

    def test_arrays_are_contiguous_copies(self, small_dataset, small_split):
        for name, a in vars(small_split).items():
            if isinstance(a, np.ndarray):
                assert a.flags.c_contiguous and a.flags.owndata, name
                for source in ("features", "class_ids", "domain_ids"):
                    assert not np.shares_memory(a, getattr(small_dataset, source))

    def test_no_unlabeled_domain_ids_exposed(self, small_split):
        exposed = {name for name in vars(small_split) if "unlabeled" in name}
        assert exposed == {"unlabeled_x", "unlabeled_truth"}

    def test_insufficient_labels(self, small_dataset):
        with pytest.raises(dat.SplitError):
            dat.split(small_dataset, dat.SplitPlan(target_domain=0, labels_per_class=99, seed=0))

    def test_bad_target_domain(self, small_dataset):
        with pytest.raises(dat.SplitError):
            dat.split(small_dataset, dat.SplitPlan(target_domain=9, labels_per_class=2, seed=0))


def _weak(aug, x, rng):
    return aug.weak(x.copy(), rng.standard_normal(x.shape))


def _strong(aug, x, rng):
    noise = rng.standard_normal(x.shape)
    keys = rng.random(x.shape) if aug.mask_count(x.shape[-1]) > 0 else None
    return aug.strong(x.copy(), noise, keys)


class TestAugmenter:
    def test_weak_is_unbiased(self, rng):
        aug = dat.Augmenter(feature_std=np.full(3, 2.0))
        x = np.array([[1.0, -2.0, 0.5]])
        draws = np.stack([_weak(aug, x, rng)[0] for _ in range(10_000)])
        se = 0.05 * 2.0 / np.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0) - x[0]) < 3 * se)

    def test_strong_masks_exact_count(self, rng):
        dim = 20
        aug = dat.Augmenter(feature_std=np.zeros(dim))
        x = rng.normal(size=(7, dim)) + 10.0
        out = _strong(aug, x, rng)
        zero_counts = (out == 0.0).sum(axis=1)
        assert np.all(zero_counts == int(0.15 * dim))

    def test_strong_masks_each_row_of_a_block(self, rng):
        # Leading axes are rows: a (steps, rows, dim) block masks per row.
        dim = 20
        aug = dat.Augmenter(feature_std=np.zeros(dim))
        x = rng.normal(size=(3, 7, dim)) + 10.0
        out = _strong(aug, x, rng)
        assert np.all((out == 0.0).sum(axis=-1) == aug.mask_count(dim))

    def test_strong_noisier_than_weak(self, rng):
        aug = dat.Augmenter(feature_std=np.ones(6))
        x = np.zeros((200, 6))
        weak_spread = np.std(_weak(aug, x, rng))
        strong_spread = np.std(_strong(aug, x, rng) - 0.0)
        assert strong_spread > weak_spread

    @pytest.mark.parametrize("strong_scale", [dat.STRONG_SCALE, 0.3])
    @pytest.mark.parametrize("shape", [(1, 1), (42, 32), (48, 32), (7, 5)])
    def test_draws_match_normal_form_bitwise(self, monkeypatch, shape, strong_scale):
        # 0.3, unlike 0.25, is no power of two: a regrouped product of the
        # scales would round differently.
        monkeypatch.setattr(dat, "STRONG_SCALE", strong_scale)
        for seed in range(50):
            g = np.random.default_rng(seed)
            x = g.normal(size=shape) * 3.0
            aug = dat.Augmenter.fit(g.normal(size=(20, shape[1])))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for got, want in [
                (_weak(aug, x, got_rng), ref.weak_augment(aug, x, want_rng)),
                (_strong(aug, x, got_rng), ref.strong_augment(aug, x, want_rng)),
            ]:
                assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_views_leave_the_rows_unchanged(self, rng):
        aug = dat.Augmenter(feature_std=np.ones(5))
        x = rng.normal(size=(4, 5))
        before = x.copy()
        aug.weak(x, rng.standard_normal(x.shape))
        aug.strong(x, rng.standard_normal(x.shape), rng.random(x.shape))
        assert x.tobytes() == before.tobytes()

    def test_fit_uses_per_dim_std(self, rng):
        feats = rng.normal(size=(100, 3)) * np.array([1.0, 5.0, 0.1])
        aug = dat.Augmenter.fit(feats)
        np.testing.assert_allclose(aug.feature_std, feats.std(axis=0))


# Its weak views are the rows as they are.
IDENTITY = dat.Augmenter(feature_std=np.zeros(8))


def _epoch(it, aug=IDENTITY, seed=0):
    return it.epoch(aug, np.random.default_rng(seed))


class TestBatchIterator:
    def test_slot_counts(self, small_split):
        it = dat.BatchIterator(small_split, per_domain_labeled=4, per_domain_unlabeled=6, seed=0)
        batch = next(_epoch(it))
        assert len(batch.weak_labeled) == 4 * 2  # two source domains
        assert len(batch.labeled_y) == 4 * 2
        assert len(batch.weak_unlabeled) == 6 * 2
        assert len(batch.strong_unlabeled) == 6 * 2

    def test_no_ground_truth_in_a_batch(self):
        # Metrics read the pool's truth at ``unlabeled_idx`` from the split.
        names = {f.name for f in dataclasses.fields(dat.Batch)}
        assert not any("truth" in name for name in names)

    def test_epoch_length(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=0)
        n_u = len(small_split.unlabeled_x)
        expected = -(-n_u // (2 * 6))
        assert it.batches_per_epoch == expected
        assert len(list(_epoch(it))) == expected

    def test_same_seed_same_sequence(self, small_split):
        def collect(seed):
            it = dat.BatchIterator(small_split, 3, 5, seed=seed)
            return [b.unlabeled_idx.tolist() + b.labeled_y.tolist() for b in _epoch(it)]

        assert collect(123) == collect(123)
        assert collect(123) != collect(124)

    def test_labeled_slots_stratified_per_domain(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=0)
        # labeled slots are concatenated per source domain in order
        domains = np.asarray(small_split.source_domains)
        for batch in _epoch(it):
            # recover the drawing domain by position blocks
            for pos, d in enumerate(domains):
                block = batch.weak_labeled[pos * 4 : (pos + 1) * 4]
                for row in block:
                    matches = np.where((small_split.labeled_x == row).all(axis=1))[0]
                    assert small_split.labeled_domains[matches[0]] == d

    def test_unlabeled_coverage_two_epochs(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=7)
        seen = np.zeros(len(small_split.unlabeled_x))
        for _ in range(2):
            for batch in _epoch(it):
                seen[batch.unlabeled_idx] += 1
        assert seen.mean() >= 1.0
        assert seen.min() >= 1  # shuffled walk covers the pool each epoch

    def test_bad_sizes(self, small_split):
        with pytest.raises(ValueError):
            dat.BatchIterator(small_split, 0, 4, seed=0)

    def test_source_domain_without_labeled_rows(self, small_split):
        # Its cycler would walk an empty order forever.
        keep = small_split.labeled_domains != small_split.source_domains[1]
        no_labels = dataclasses.replace(
            small_split,
            labeled_x=small_split.labeled_x[keep],
            labeled_y=small_split.labeled_y[keep],
            labeled_domains=small_split.labeled_domains[keep],
        )
        with pytest.raises(ValueError, match="source domain 2 has no labeled rows"):
            dat.BatchIterator(no_labels, 4, 6, seed=0)

    def test_empty_unlabeled_pool(self, small_split):
        empty = dataclasses.replace(
            small_split,
            unlabeled_x=small_split.unlabeled_x[:0],
            unlabeled_truth=small_split.unlabeled_truth[:0],
        )
        with pytest.raises(ValueError, match="unlabeled pool is empty"):
            dat.BatchIterator(empty, 4, 6, seed=0)


class TestShuffledCycler:
    @pytest.mark.parametrize("n,k,steps", [(6, 3, 4), (6, 2, 3), (5, 3, 7), (4, 9, 2), (1, 1, 3)])
    def test_one_take_is_the_steps_takes(self, n, k, steps):
        # (6, 3, 4) and (6, 2, 3) end takes exactly at the end of an order.
        bulk = dat._ShuffledCycler(n, np.random.default_rng(n * 100 + k))
        each = dat._ShuffledCycler(n, np.random.default_rng(n * 100 + k))
        for _ in range(3):
            got = bulk.take(k * steps)
            want = np.concatenate([each.take(k) for _ in range(steps)])
            np.testing.assert_array_equal(got, want)
        assert bulk._rng.bit_generator.state == each._rng.bit_generator.state


class TestBlockViewsMatchPerStep:
    """The block path against the per-step oracle, bit for bit."""

    def _run(self, split, l, u, seed, aug, epochs, budget, monkeypatch):
        monkeypatch.setattr(dat, "BLOCK_BUDGET_BYTES", budget)
        blocks = []
        weak = dat.Augmenter.weak

        def counted_weak(self, x, noise):
            blocks.append(len(x))
            return weak(self, x, noise)

        monkeypatch.setattr(dat.Augmenter, "weak", counted_weak)
        it = dat.BatchIterator(split, l, u, seed)
        got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = [b for _ in range(epochs) for b in it.epoch(aug, got_rng)]
        want, cyclers = ref.per_step_batches(split, l, u, seed, aug, want_rng, epochs)
        assert len(got) == len(want) == epochs * it.batches_per_epoch
        for b, w in zip(got, want):
            fields = (b.weak_labeled, b.labeled_y, b.weak_unlabeled, b.strong_unlabeled,
                      split.unlabeled_truth[b.unlabeled_idx], b.unlabeled_idx)
            for g, v in zip(fields, w):
                assert g.shape == v.shape
                assert g.dtype == v.dtype
                assert g.tobytes() == v.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # The cyclers end where the per-step ones do.
        mine = [c for _, c in it._labeled_cyclers] + [it._unlabeled_cycler]
        for c, w in zip(mine, cyclers):
            np.testing.assert_array_equal(c.take(2 * c._n + 1), w.take(2 * w._n + 1))
        return blocks[::2]  # weak runs twice a block

    @pytest.mark.parametrize("steps_per_block,blocks", [(1, 15), (7, 3), (15, 1), (100, 1)])
    def test_block_sizes(self, small_split, monkeypatch, steps_per_block, blocks):
        # 180 pool rows at 12 a step: 15 steps an epoch, which 7 does not divide.
        monkeypatch.setattr(dat, "STRONG_SCALE", 0.3)
        aug = dat.Augmenter.fit(small_split.unlabeled_x)
        step_bytes = (2 * 8 + 4 * 12) * small_split.unlabeled_x.shape[1] * 8
        sizes = self._run(small_split, 4, 6, 3, aug, 1,
                          steps_per_block * step_bytes, monkeypatch)
        assert len(sizes) == blocks
        assert sum(sizes) == 15

    def test_two_epochs(self, small_split, monkeypatch):
        aug = dat.Augmenter.fit(small_split.unlabeled_x)
        sizes = self._run(small_split, 3, 5, 8, aug, 2, 2**20, monkeypatch)
        assert len(sizes) == 2

    def test_budget_below_one_step(self, small_split, monkeypatch):
        aug = dat.Augmenter.fit(small_split.unlabeled_x)
        sizes = self._run(small_split, 4, 6, 0, aug, 1, 1, monkeypatch)
        assert len(sizes) == 15

    def test_one_row_batches(self, small_dataset, monkeypatch):
        # Two domains leave one source domain: a step is one labeled and
        # one unlabeled row.
        two = dat.DomainDataset(
            small_dataset.features[small_dataset.domain_ids < 2],
            small_dataset.class_ids[small_dataset.domain_ids < 2],
            small_dataset.domain_ids[small_dataset.domain_ids < 2],
        )
        one_source = dat.split(two, dat.SplitPlan(target_domain=1, labels_per_class=2, seed=1))
        monkeypatch.setattr(dat, "STRONG_SCALE", 0.3)
        aug = dat.Augmenter.fit(one_source.unlabeled_x)
        self._run(one_source, 1, 1, 4, aug, 2, 5000, monkeypatch)

    @pytest.mark.parametrize("dim", [1, 6, 7])
    def test_rows_too_narrow_to_mask(self, monkeypatch, dim):
        # Below 7 features no coordinate is masked and no key is drawn.
        ds = dat.generate_synthetic(3, 3, 1, dim - 1, 30, class_sep=1.0,
                                    domain_shift=1.0, seed=dim, bias_jitter=0.2)
        narrow = dat.split(ds, dat.SplitPlan(target_domain=0, labels_per_class=2, seed=0))
        aug = dat.Augmenter.fit(narrow.unlabeled_x)
        assert (aug.mask_count(dim) > 0) == (dim == 7)
        self._run(narrow, 4, 6, 5, aug, 2, 40_000, monkeypatch)
