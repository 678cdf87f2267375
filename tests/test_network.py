import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import checkpoint as ckpt
from modfeat import network as net
from modfeat.modulator import ModulationMatrix
from tests.conftest import make_tiny_model, make_tiny_setup


class TestExtractor:
    def test_eval_mode_deterministic(self, rng):
        model = make_tiny_model()
        x = rng.normal(size=(4, 3))
        a = model.extractor.forward(x, "eval").value
        b = model.extractor.forward(x, "eval").value
        np.testing.assert_array_equal(a, b)

    def test_mc_mode_stochastic(self, rng):
        model = make_tiny_model(dropout_p=0.3)
        x = rng.normal(size=(8, 3))
        a = model.extractor.forward(x, "mc", np.random.default_rng(1)).value
        b = model.extractor.forward(x, "mc", np.random.default_rng(2)).value
        assert not np.array_equal(a, b)

    def test_zero_weight_network_outputs_bias(self, rng):
        model = make_tiny_model()
        for w in model.extractor.weights:
            w.node.value[:] = 0.0
        for b in model.extractor.biases:
            b.node.value[:] = 0.0
        out = model.extractor.forward(rng.normal(size=(3, 3)), "eval").value
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_input_dim_mismatch(self, rng):
        model = make_tiny_model()
        with pytest.raises(ad.DimensionError):
            model.extractor.forward(rng.normal(size=(2, 7)), "eval")

    def test_unknown_mode(self, rng):
        model = make_tiny_model()
        with pytest.raises(ValueError):
            model.extractor.forward(rng.normal(size=(2, 3)), "predict")

    def test_identity_extractor_passthrough(self, rng):
        cfg = net.ExtractorConfig(input_dim=4, hidden_dims=(), feature_dim=4, dropout_p=0.05)
        model = net.Model.init(cfg, 3, rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(model.extractor.forward(x, "eval").value, x)
        assert model.extractor.params() == []

    def test_identity_extractor_requires_matching_dims(self):
        with pytest.raises(ValueError):
            net.ExtractorConfig(input_dim=4, hidden_dims=(), feature_dim=8)

    def test_output_shape(self, rng):
        model = make_tiny_model(hidden=(6, 5), feature_dim=4)
        out = model.extractor.forward(rng.normal(size=(9, 3)), "eval")
        assert out.shape == (9, 4)


class TestClassifier:
    def test_modulation_identity_gives_equal_rows(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        logits = net.score_graph(model, ones, bank, x[:1], "eval")
        np.testing.assert_allclose(logits.value[0], logits.value[1], atol=1e-12)

    def test_zero_classifier_uniform(self, rng):
        model = make_tiny_model()
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        z = ad.constant(rng.normal(size=(2, 4)))
        probs = ad.row_softmax(model.classifier.forward(z).value)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_hand_computed_logits(self):
        model = make_tiny_model()
        model.classifier.weight.node.value[:] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [0.0, 0.0]]
        )
        model.classifier.bias.node.value[:] = np.array([[0.5, -0.5]])
        z = ad.constant([[1.0, 2.0, 3.0, 4.0]])
        out = model.classifier.forward(z).value
        np.testing.assert_allclose(out, [[1 + 6 + 0.5, 2 - 3 - 0.5]])

    def test_linear_in_input_with_zero_bias(self, rng):
        model = make_tiny_model()
        model.classifier.bias.node.value[:] = 0.0
        z1 = rng.normal(size=(3, 4))
        z2 = rng.normal(size=(3, 4))
        a, b = 0.7, -1.3
        combo = model.classifier.forward(ad.constant(a * z1 + b * z2)).value
        parts = (
            a * model.classifier.forward(ad.constant(z1)).value
            + b * model.classifier.forward(ad.constant(z2)).value
        )
        np.testing.assert_allclose(combo, parts, atol=1e-12)

    def test_classify_row_count_matches_classes(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        logits = net.score_graph(model, modulation, bank, x[:1], "eval")
        assert logits.shape == (2, 2)
        assert net.score_graph(model, None, None, x[:3], "eval").shape == (3, 2)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model, modulation, bank, _, _ = make_tiny_setup()
        path = tmp_path / "model.npz"
        ckpt.save_checkpoint(path, model, modulation, bank)
        restored = ckpt.load_checkpoint(path)
        for original, loaded in zip(model.params(), restored.model.params()):
            assert original.name == loaded.name
            np.testing.assert_array_equal(original.value, loaded.value)
        np.testing.assert_array_equal(restored.modulation.values, modulation.values)
        np.testing.assert_array_equal(restored.bank.prototypes, bank.prototypes)
        np.testing.assert_array_equal(restored.bank.similarity, bank.similarity)
        np.testing.assert_array_equal(restored.bank.blended, bank.blended)

    def test_round_trip_same_predictions(self, tmp_path, rng):
        model, modulation, bank, x, _ = make_tiny_setup()
        path = tmp_path / "model.npz"
        ckpt.save_checkpoint(path, model, modulation, bank)
        restored = ckpt.load_checkpoint(path)
        before = net.score_graph(model, modulation, bank, x, "eval").value
        after = net.score_graph(
            restored.model, restored.modulation, restored.bank, x, "eval"
        ).value
        np.testing.assert_array_equal(before, after)

    def test_model_only_checkpoint(self, tmp_path):
        model = make_tiny_model()
        path = tmp_path / "bare.npz"
        ckpt.save_checkpoint(path, model)
        restored = ckpt.load_checkpoint(path)
        assert restored.modulation is None
        assert restored.bank is None

    def test_version_rejected(self, tmp_path):
        model = make_tiny_model()
        path = tmp_path / "model.npz"
        ckpt.save_checkpoint(path, model)
        data = dict(np.load(path))
        data["meta.version"] = np.array([99])
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            ckpt.load_checkpoint(path)


class TestScoreGraph:
    def test_without_a_bank_one_unmodulated_row(self, monkeypatch):
        from modfeat import modulator

        model, modulation, _, x, _ = make_tiny_setup()

        def forbidden(*args):
            raise AssertionError("modulate called without a bank")

        monkeypatch.setattr(modulator, "modulate", forbidden)
        logits = net.score_graph(model, modulation, None, x, "eval")
        plain = model.classifier.forward(model.extractor.forward(x, "eval"))
        assert logits.value.tobytes() == plain.value.tobytes()

    def test_class_confidence_reads_the_diagonal_or_the_row(self, rng):
        n, c = 4, 3
        probs = rng.uniform(size=(n * c, c))
        blocks = probs.reshape(n, c, c)
        np.testing.assert_array_equal(
            net.class_confidence(probs, n, c), np.diagonal(blocks, axis1=1, axis2=2)
        )
        np.testing.assert_array_equal(net.class_confidence(probs[:n], n, c), probs[:n])

    def test_class_confidence_rejects_other_row_counts(self, rng):
        with pytest.raises(ad.DimensionError):
            net.class_confidence(rng.uniform(size=(8, 3)), 4, 3)
        with pytest.raises(ad.DimensionError):
            net.class_confidence(rng.uniform(size=(7, 3)), 2, 3)

    def test_view_bank(self):
        _, _, bank, _, _ = make_tiny_setup()
        assert net.view_bank("fm", bank) is bank
        assert net.view_bank("fixmatch-baseline", bank) is None
        with pytest.raises(ValueError, match="prototype bank"):
            net.view_bank("fm", None)
        with pytest.raises(ValueError, match="mode must be one of"):
            net.view_bank("baseline", bank)
