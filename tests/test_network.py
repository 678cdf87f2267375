import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import checkpoint as ckpt
from modfeat import network as net
from modfeat.modulator import ModulationMatrix
from tests import refops as ref
from tests.conftest import make_tiny_model, make_tiny_setup


class TestExtractor:
    def test_eval_mode_deterministic(self, rng):
        model = make_tiny_model()
        x = rng.normal(size=(4, 3))
        a = model.extractor.forward(x).value
        b = model.extractor.forward(x).value
        np.testing.assert_array_equal(a, b)

    def test_mc_mode_stochastic(self, rng):
        model = make_tiny_model(dropout_p=0.3)
        x = rng.normal(size=(8, 3))
        a = model.extractor.forward(x, np.random.default_rng(1)).value
        b = model.extractor.forward(x, np.random.default_rng(2)).value
        assert not np.array_equal(a, b)

    def test_zero_weight_network_outputs_bias(self, rng):
        model = make_tiny_model()
        for w in model.extractor.weights:
            w.value[:] = 0.0
        for b in model.extractor.biases:
            b.value[:] = 0.0
        out = model.extractor.forward(rng.normal(size=(3, 3))).value
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_input_dim_mismatch(self, rng):
        model = make_tiny_model()
        with pytest.raises(ad.DimensionError):
            model.extractor.forward(rng.normal(size=(2, 7)))

    def test_identity_extractor_passthrough(self, rng):
        cfg = net.ExtractorConfig(input_dim=4, hidden_dims=(), feature_dim=4, dropout_p=0.05)
        model = net.Model.init(cfg, 3, rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(model.extractor.forward(x).value, x)
        assert model.extractor.params() == []

    def test_identity_extractor_requires_matching_dims(self):
        with pytest.raises(ValueError):
            net.ExtractorConfig(input_dim=4, hidden_dims=(), feature_dim=8, dropout_p=0.05)

    def test_output_shape(self, rng):
        model = make_tiny_model(hidden=(6, 5), feature_dim=4)
        out = model.extractor.forward(rng.normal(size=(9, 3)))
        assert out.shape == (9, 4)


class TestClassifier:
    def test_modulation_identity_gives_equal_rows(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        logits = net.score_graph(model, model.fm_head(ones, bank), x[:1])
        np.testing.assert_allclose(logits.value[0], logits.value[1], atol=1e-12)

    def test_zero_classifier_uniform(self, rng):
        model = make_tiny_model()
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0
        z = ad.constant(rng.normal(size=(2, 4)))
        probs = ref.row_softmax(model.classifier.forward(z).value)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_hand_computed_logits(self):
        model = make_tiny_model()
        model.classifier.weight.value[:] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [0.0, 0.0]]
        )
        model.classifier.bias.value[:] = np.array([[0.5, -0.5]])
        z = ad.constant([[1.0, 2.0, 3.0, 4.0]])
        out = model.classifier.forward(z).value
        np.testing.assert_allclose(out, [[1 + 6 + 0.5, 2 - 3 - 0.5]])

    def test_linear_in_input_with_zero_bias(self, rng):
        model = make_tiny_model()
        model.classifier.bias.value[:] = 0.0
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
        logits = net.score_graph(model, model.fm_head(modulation, bank), x[:1])
        assert logits.shape == (2, 2)
        assert net.score_graph(model, None, x[:3]).shape == (3, 2)


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
        before = net.score_graph(model, model.fm_head(modulation, bank), x).value
        restored_head = restored.model.fm_head(restored.modulation, restored.bank)
        after = net.score_graph(restored.model, restored_head, x).value
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

    def test_member_claiming_more_than_memory_rejected(self, tmp_path):
        import io
        import zipfile

        model = make_tiny_model()
        path = tmp_path / "model.npz"
        ckpt.save_checkpoint(path, model)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**15,)}
        )
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("param.modulator.weights.npy", header.getvalue() + bytes(8))
        with pytest.raises(ckpt.CheckpointError, match="'param.modulator.weights'"):
            ckpt.load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,edit,needle",
        [("meta.version", lambda a: a.astype(bool), "holds bool"),
         ("meta.feature_dim", lambda a: a.astype(str), "holds <U"),
         ("bank.blended", lambda a: a.astype(complex), "holds complex128"),
         ("meta.hidden_dims", lambda a: np.array([a, a]), "invalid metadata"),
         # Each member holds the kind that save_checkpoint writes, exactly.
         ("meta.num_classes", lambda a: a + 5.9, "'meta.num_classes' holds float64"),
         ("meta.version", lambda a: a.astype(float), "'meta.version' holds float64"),
         ("param.classifier.bias", lambda a: a.astype(np.int64),
          "'param.classifier.bias' holds int64, not floats")],
    )
    def test_ill_typed_member_rejected(self, tmp_path, key, edit, needle):
        model, modulation, bank, _, _ = make_tiny_setup()
        path = tmp_path / "model.npz"
        ckpt.save_checkpoint(path, model, modulation, bank)
        data = dict(np.load(path))
        data[key] = edit(data[key])
        np.savez(path, **data)
        with pytest.raises(ckpt.CheckpointError, match=f"{path}: .*{needle}"):
            ckpt.load_checkpoint(path)


class TestScoreGraph:
    def test_without_a_head_one_unmodulated_row(self, monkeypatch):
        from modfeat import modulator

        model, _, _, x, _ = make_tiny_setup()

        def forbidden(*args):
            raise AssertionError("modulate called without a head")

        monkeypatch.setattr(modulator, "modulate", forbidden)
        logits = net.score_graph(model, None, x)
        plain = model.classifier.forward(model.extractor.forward(x))
        assert logits.value.tobytes() == plain.value.tobytes()

    def test_with_a_head_one_fused_head_and_no_classifier_pass(self, monkeypatch):
        from modfeat import modulator

        model, modulation, bank, x, _ = make_tiny_setup()
        real, calls = modulator.modulate, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        def forbidden(*args):
            raise AssertionError("Classifier.forward called with a head")

        monkeypatch.setattr(modulator, "modulate", counting)
        monkeypatch.setattr(net.Classifier, "forward", forbidden)
        head = model.fm_head(modulation, bank)
        logits = net.score_graph(model, head, x)
        assert len(calls) == 1 and logits.shape == (len(x) * 2, 2)
        assert calls[0][1] is head
        classifier = model.classifier
        assert head.head_weight is classifier.weight
        assert head.head_bias is classifier.bias
        assert head.weights is modulation.param
