import numpy as np
import pytest

from modfeat import data as dat
from tests import refops as ref


class TestGenerateSynthetic:
    def test_counts(self):
        ds = dat.generate_synthetic(3, 4, 4, 4, 100, class_sep=3.0, domain_shift=1.0, seed=0)
        assert len(ds) == 1200
        assert ds.input_dim == 8
        assert set(ds.signal_dims) == {0, 1, 2, 3}
        assert set(ds.noise_dims) == {4, 5, 6, 7}

    def test_cell_counts(self, small_dataset):
        counts = small_dataset.cell_counts()
        assert counts.shape == (3, 3)
        assert (counts == 30).all()

    def test_uniform_class_distribution(self, small_dataset):
        for d in range(small_dataset.num_domains):
            counts = np.bincount(
                small_dataset.class_ids[small_dataset.domain_ids == d],
                minlength=small_dataset.num_classes,
            )
            assert len(set(counts)) == 1

    def test_zero_shift_means_identical_domains(self):
        ds = dat.generate_synthetic(2, 3, 4, 4, 400, class_sep=4.0, domain_shift=0.0, seed=1)
        noise = ds.features[:, list(ds.noise_dims)]
        per_domain_means = [
            noise[ds.domain_ids == d].mean(axis=0) for d in range(3)
        ]
        for a in per_domain_means:
            for b in per_domain_means:
                # sample means of N(0,1) over 800 draws: SE ~ 0.035
                np.testing.assert_allclose(a, b, atol=0.2)

    def test_high_separation_nearest_mean_oracle(self):
        ds = dat.generate_synthetic(4, 3, 6, 6, 80, class_sep=10.0, domain_shift=2.0, seed=2)
        sig = list(ds.signal_dims)
        means = np.stack(
            [ds.features[ds.class_ids == c][:, sig].mean(axis=0) for c in range(4)]
        )
        dists = ((ds.features[:, sig][:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert (predictions == ds.class_ids).mean() > 0.99

    def test_domain_bias_magnitude(self):
        ds = dat.generate_synthetic(2, 4, 4, 8, 500, class_sep=4.0, domain_shift=5.0,
                                    seed=3, bias_jitter=0.0)
        for d in range(4):
            bias = ds.features[ds.domain_ids == d][:, list(ds.noise_dims)].mean(axis=0)
            assert np.linalg.norm(bias) == pytest.approx(5.0, abs=0.3)

    def test_separation_infeasible(self):
        with pytest.raises(dat.GenerationError):
            dat.generate_synthetic(
                50, 2, 1, 0, 1, class_sep=10.0, domain_shift=0.0, seed=0,
                max_attempts=50,
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dat.generate_synthetic(0, 2, 2, 2, 10, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            dat.generate_synthetic(2, 2, 2, 2, 10, -1.0, 1.0, 0)

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

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("class_id,domain_id,f0\n0,0,1.0\n")
        with pytest.raises(dat.SchemaError):
            dat.load_csv(path)


class TestSplit:
    def test_labeled_count(self):
        ds = dat.generate_synthetic(7, 4, 4, 4, 20, class_sep=4.0, domain_shift=1.0, seed=0)
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

    def test_no_unlabeled_domain_ids_exposed(self, small_split):
        exposed = {name for name in vars(small_split) if "unlabeled" in name}
        assert exposed == {"unlabeled_x", "unlabeled_truth"}

    def test_insufficient_labels(self, small_dataset):
        with pytest.raises(dat.SplitError):
            dat.split(small_dataset, dat.SplitPlan(target_domain=0, labels_per_class=99, seed=0))

    def test_bad_target_domain(self, small_dataset):
        with pytest.raises(dat.SplitError):
            dat.split(small_dataset, dat.SplitPlan(target_domain=9, labels_per_class=2, seed=0))


class TestAugmenter:
    def test_weak_zero_scale_is_identity(self, rng):
        aug = dat.Augmenter(feature_std=np.ones(4), weak_scale=0.0)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(aug.weak(x, rng), x)

    def test_weak_is_unbiased(self, rng):
        aug = dat.Augmenter(feature_std=np.full(3, 2.0))
        x = np.array([[1.0, -2.0, 0.5]])
        draws = np.stack([aug.weak(x, rng)[0] for _ in range(10_000)])
        se = 0.05 * 2.0 / np.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0) - x[0]) < 3 * se)

    def test_strong_masks_exact_count(self, rng):
        dim = 20
        aug = dat.Augmenter(feature_std=np.zeros(dim), strong_scale=0.0)
        x = rng.normal(size=(7, dim)) + 10.0
        out = aug.strong(x, rng)
        zero_counts = (out == 0.0).sum(axis=1)
        assert np.all(zero_counts == int(0.15 * dim))

    def test_strong_noisier_than_weak(self, rng):
        aug = dat.Augmenter(feature_std=np.ones(6))
        x = np.zeros((200, 6))
        weak_spread = np.std(aug.weak(x, rng))
        strong_spread = np.std(aug.strong(x, rng) - 0.0)
        assert strong_spread > weak_spread

    @pytest.mark.parametrize("shape", [(1, 1), (42, 32), (48, 32), (7, 5)])
    def test_draws_match_normal_form_bitwise(self, shape):
        for seed in range(50):
            g = np.random.default_rng(seed)
            x = g.normal(size=shape) * 3.0
            # 0.3, unlike the default 0.25, is no power of two: a regrouped
            # product of the scales would round differently.
            aug = dat.Augmenter.fit(g.normal(size=(20, shape[1])), strong_scale=0.3)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for got, want in [
                (aug.weak(x, got_rng), ref.weak_augment(aug, x, want_rng)),
                (aug.strong(x, got_rng), ref.strong_augment(aug, x, want_rng)),
            ]:
                assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_fit_uses_per_dim_std(self, rng):
        feats = rng.normal(size=(100, 3)) * np.array([1.0, 5.0, 0.1])
        aug = dat.Augmenter.fit(feats)
        np.testing.assert_allclose(aug.feature_std, feats.std(axis=0))


class TestBatchIterator:
    def test_slot_counts(self, small_split):
        it = dat.BatchIterator(small_split, per_domain_labeled=4, per_domain_unlabeled=6, seed=0)
        batch = next(it.epoch())
        assert len(batch.labeled_x) == 4 * 2  # two source domains
        assert len(batch.unlabeled_x) == 6 * 2

    def test_epoch_length(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=0)
        n_u = len(small_split.unlabeled_x)
        expected = -(-n_u // (2 * 6))
        assert it.batches_per_epoch == expected
        assert len(list(it.epoch())) == expected

    def test_same_seed_same_sequence(self, small_split):
        def collect(seed):
            it = dat.BatchIterator(small_split, 3, 5, seed=seed)
            return [b.unlabeled_idx.tolist() + b.labeled_y.tolist() for b in it.epoch()]

        assert collect(123) == collect(123)
        assert collect(123) != collect(124)

    def test_labeled_slots_stratified_per_domain(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=0)
        # labeled slots are concatenated per source domain in order
        domains = np.asarray(small_split.source_domains)
        for batch in it.epoch():
            # recover the drawing domain by position blocks
            for pos, d in enumerate(domains):
                block = batch.labeled_x[pos * 4 : (pos + 1) * 4]
                for row in block:
                    matches = np.where((small_split.labeled_x == row).all(axis=1))[0]
                    assert small_split.labeled_domains[matches[0]] == d

    def test_unlabeled_coverage_two_epochs(self, small_split):
        it = dat.BatchIterator(small_split, 4, 6, seed=7)
        seen = np.zeros(len(small_split.unlabeled_x))
        for _ in range(2):
            for batch in it.epoch():
                seen[batch.unlabeled_idx] += 1
        assert seen.mean() >= 1.0
        assert seen.min() >= 1  # shuffled walk covers the pool each epoch

    def test_bad_sizes(self, small_split):
        with pytest.raises(ValueError):
            dat.BatchIterator(small_split, 0, 4, seed=0)
