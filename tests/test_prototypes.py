import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modfeat import prototypes as proto


class TestComputePrototypes:
    def test_single_sample_per_class(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = proto.compute_prototypes(feats, np.array([0, 1]), 2)
        np.testing.assert_array_equal(out, feats)

    def test_arithmetic_mean(self):
        feats = np.array([[1.0, 0.0], [3.0, 0.0]])
        out = proto.compute_prototypes(feats, np.array([0, 0]), 1)
        np.testing.assert_array_equal(out, [[2.0, 0.0]])

    def test_matches_two_pass_oracle(self, rng):
        feats = rng.normal(size=(50, 6))
        classes = rng.integers(0, 4, size=50)
        classes[:4] = [0, 1, 2, 3]
        out = proto.compute_prototypes(feats, classes, 4)
        for c in range(4):
            rows = feats[classes == c]
            oracle = np.zeros(6)
            for row in rows:
                oracle += row
            oracle /= len(rows)
            np.testing.assert_allclose(out[c], oracle, atol=1e-12)

    def test_missing_class_named(self):
        with pytest.raises(proto.MissingClassError, match="class 2"):
            proto.compute_prototypes(np.ones((2, 3)), np.array([0, 1]), 3)


class TestCosineSimilarity:
    def test_identical_prototypes(self):
        p = np.tile([[1.0, 2.0, 3.0]], (3, 1))
        np.testing.assert_allclose(proto.cosine_similarity(p), 1.0, atol=1e-12)

    def test_orthogonal(self):
        sim = proto.cosine_similarity(np.eye(3) * 2.5)
        np.testing.assert_allclose(sim, np.eye(3), atol=1e-15)

    def test_antipodal_clamped_to_zero(self):
        sim = proto.cosine_similarity(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sim, np.eye(2), atol=1e-15)

    def test_symmetry_and_unit_diagonal(self, rng):
        sim = proto.cosine_similarity(rng.normal(size=(5, 8)))
        np.testing.assert_allclose(sim, sim.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(proto.DegeneratePrototypeError):
            proto.cosine_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestBlendPrototypes:
    def test_orthogonal_blend_is_self(self):
        p = np.eye(3) * np.array([[2.0], [3.0], [4.0]])
        bank = proto.build_bank(p.repeat(2, axis=0), np.arange(3).repeat(2), 3)
        np.testing.assert_allclose(bank.blended, bank.prototypes, atol=1e-12)

    def test_two_identical_prototypes_average(self):
        p = np.array([[1.0, 1.0], [3.0, 3.0]])
        sim = np.ones((2, 2))
        out = proto.blend_prototypes(p, sim)
        np.testing.assert_allclose(out, [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)

    def test_hand_weighted_mean(self):
        p = np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 8.0]])
        sim = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
        out = proto.blend_prototypes(p, sim)
        # row 0: (1*p0 + 0.5*p1 + 0*p2) / 1.5
        np.testing.assert_allclose(out[0], np.array([2.0, 2.0, 0.0]) / 1.5)
        # row 1: (0.5*p0 + 1*p1 + 0.25*p2) / 1.75
        np.testing.assert_allclose(out[1], np.array([1.0, 4.0, 2.0]) / 1.75)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 3),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_blend_stays_in_prototype_box(self, p):
        norms = np.linalg.norm(p, axis=1)
        if np.any(norms <= 1e-6):
            return
        sim = proto.cosine_similarity(p)
        blended = proto.blend_prototypes(p, sim)
        lo = p.min(axis=0) - 1e-9
        hi = p.max(axis=0) + 1e-9
        assert np.all(blended >= lo) and np.all(blended <= hi)

    def test_row_rescaling_invariance(self, rng):
        p = rng.normal(size=(4, 5))
        sim = np.abs(rng.normal(size=(4, 4))) + 0.1
        scaled = sim * rng.uniform(0.5, 3.0, size=(4, 1))
        np.testing.assert_allclose(
            proto.blend_prototypes(p, sim), proto.blend_prototypes(p, scaled), atol=1e-12
        )

    def test_blend_approaches_prototype_as_similarity_vanishes(self, rng):
        p = rng.normal(size=(3, 4))
        for eps in (1e-1, 1e-3, 1e-6):
            sim = np.eye(3) + eps * (np.ones((3, 3)) - np.eye(3))
            blended = proto.blend_prototypes(p, sim)
            assert np.abs(blended - p).max() < 3 * eps * np.abs(p).max() * 3


class TestBuildBank:
    def test_bank_fields_consistent(self, rng):
        feats = rng.normal(size=(20, 6)) + 3.0
        classes = rng.integers(0, 3, size=20)
        classes[:3] = [0, 1, 2]
        bank = proto.build_bank(feats, classes, 3, epoch=7)
        assert bank.epoch == 7
        assert bank.prototypes.shape == bank.blended.shape == (3, 6)
        assert bank.similarity.shape == (3, 3)
        assert np.all(bank.similarity >= 0.0)

    def test_non_finite_anchors_rejected(self):
        feats = np.eye(3).repeat(2, axis=0)
        feats[5, 2] = np.nan
        with pytest.raises(proto.DegeneratePrototypeError, match="epoch 4: blended"):
            proto.build_bank(feats, np.arange(3).repeat(2), 3, epoch=4)
