import numpy as np
import pytest

from modfeat import data as dat
from modfeat import objective, trainer
from modfeat.autodiff import DualParam
from modfeat.modulator import ModulationMatrix
from modfeat.trainer import SGD, TrainConfig, cosine_lr
from tests.conftest import make_tiny_setup


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0.03, 0, 100) == pytest.approx(0.03)
        assert cosine_lr(0.03, 100, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(0.03, 50, 100) == pytest.approx(0.015)

    def test_non_increasing(self):
        values = [cosine_lr(1.0, s, 500) for s in range(501)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(0.03, -1, 10)
        with pytest.raises(ValueError):
            cosine_lr(0.03, 11, 10)


class TestSGD:
    def test_zero_momentum_is_plain_descent(self):
        p = DualParam.create("w", np.array([[2.0, -1.0]]))
        opt = SGD([p], momentum=0.0)
        p.node.grad[:] = np.array([[1.0, 4.0]])
        opt.step(0.5)
        np.testing.assert_allclose(p.value, [[1.5, -3.0]])

    def test_zero_gradient_keeps_parameters(self):
        p = DualParam.create("w", np.array([[2.0]]))
        opt = SGD([p], momentum=0.9)
        for _ in range(5):
            opt.zero_grads()
            opt.step(0.1)
        np.testing.assert_allclose(p.value, [[2.0]])

    def test_momentum_update_rule(self):
        p = DualParam.create("w", np.array([[1.0]]))
        opt = SGD([p], momentum=0.5)
        p.node.grad[:] = 2.0
        opt.step(0.1)  # v=2, w=1-0.2=0.8
        opt.zero_grads()
        p.node.grad[:] = 1.0
        opt.step(0.1)  # v=0.5*2+1=2, w=0.8-0.2=0.6
        np.testing.assert_allclose(p.value, [[0.6]])

    def test_quadratic_bowl_descends(self):
        import modfeat.autodiff as ad

        p = DualParam.create("w", np.array([[5.0, -3.0]]))
        opt = SGD([p], momentum=0.9)
        losses = []
        for _ in range(100):
            opt.zero_grads()
            loss = ad.sum_all(ad.mul(p.node, p.node))
            losses.append(loss.value[0, 0])
            ad.backward(loss)
            opt.step(0.02)
        oracle = [losses[0]]
        w, v = np.array([5.0, -3.0]), np.zeros(2)
        for _ in range(99):
            g = 2 * w
            v = 0.9 * v + g
            w = w - 0.02 * v
            oracle.append(float((w**2).sum()))
        np.testing.assert_allclose(losses[1:], oracle[1:], rtol=1e-12)
        assert losses[-1] < 1e-3 * losses[0]

    def test_duplicate_names_rejected(self):
        a = DualParam.create("w", np.ones((1, 1)))
        b = DualParam.create("w", np.ones((1, 1)))
        with pytest.raises(ValueError):
            SGD([a, b])


def small_plan(seed=5):
    return dat.SplitPlan(target_domain=0, labels_per_class=4, seed=seed)


def quick_config(mode="fm", epochs=2, seed=3):
    return TrainConfig(
        epochs=epochs,
        seed=seed,
        mode=mode,
        per_domain_labeled=4,
        per_domain_unlabeled=8,
        mc_samples=3,
    )


class TestTrain:
    def test_report_count_and_step_accounting(self, small_dataset):
        result = trainer.train(
            small_dataset, small_plan(), quick_config(epochs=1),
            hidden_dims=(), feature_dim=8,
        )
        assert len(result.reports) == 1
        split_data = dat.split(small_dataset, small_plan())
        batches = -(-len(split_data.unlabeled_x) // (2 * 8))
        # the recorded lr is the one used at the last optimizer step
        assert result.reports[0].lr == pytest.approx(
            cosine_lr(0.03, batches - 1, batches)
        )

    def test_deterministic_reports(self, small_dataset):
        a = trainer.train(small_dataset, small_plan(), quick_config(), hidden_dims=(), feature_dim=8)
        b = trainer.train(small_dataset, small_plan(), quick_config(), hidden_dims=(), feature_dim=8)
        assert a.reports == b.reports
        for pa, pb in zip(a.model.params(), b.model.params()):
            np.testing.assert_array_equal(pa.value, pb.value)
        np.testing.assert_array_equal(a.modulation.values, b.modulation.values)

    def test_seed_changes_outcome(self, small_dataset):
        a = trainer.train(small_dataset, small_plan(), quick_config(seed=3), hidden_dims=(), feature_dim=8)
        b = trainer.train(small_dataset, small_plan(), quick_config(seed=4), hidden_dims=(), feature_dim=8)
        assert a.reports != b.reports

    def test_baseline_modulator_stays_at_init(self, small_dataset):
        result = trainer.train(
            small_dataset, small_plan(), quick_config(mode="fixmatch-baseline"),
            hidden_dims=(), feature_dim=8,
        )
        np.testing.assert_array_equal(result.modulation.values, np.ones((3, 8)))
        assert result.bank is None

    def test_fm_bank_refreshed_per_epoch(self, small_dataset):
        result = trainer.train(
            small_dataset, small_plan(), quick_config(epochs=3),
            hidden_dims=(), feature_dim=8,
        )
        assert result.bank.epoch == 3

    def test_run_dir_outputs(self, small_dataset, tmp_path):
        trainer.train(
            small_dataset, small_plan(), quick_config(),
            hidden_dims=(), feature_dim=8, run_dir=tmp_path,
            dump_sar=True, dump_modulator=True, dump_pseudo_labels=True,
        )
        assert (tmp_path / "metrics.csv").is_file()
        assert (tmp_path / "checkpoint.npz").is_file()
        assert (tmp_path / "checkpoint_best.npz").is_file()
        assert (tmp_path / "modulator_epoch1.csv").is_file()
        assert (tmp_path / "prototypes_epoch1.csv").is_file()
        assert (tmp_path / "pseudo_labels.csv").is_file()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,l_s,l_u,l_d,l_ud,total,keep_rate,pl_acc,target_acc,lr"
        pl_header = (tmp_path / "pseudo_labels.csv").read_text().splitlines()[0]
        assert pl_header == "epoch,sample_idx,label,p_max,sigma,keep,l_scale,true_class"

    def test_bitwise_reproducible_outputs(self, small_dataset, tmp_path):
        for name in ("a", "b"):
            trainer.train(
                small_dataset, small_plan(), quick_config(),
                hidden_dims=(), feature_dim=8, run_dir=tmp_path / name,
            )
        for fname in ("metrics.csv", "checkpoint.npz"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()

    def test_abort_on_non_finite_loss(self, small_dataset, monkeypatch):
        real = objective.total_loss

        def poisoned(*args, **kwargs):
            breakdown = real(*args, **kwargs)
            breakdown.total.value[0, 0] = np.nan
            return breakdown

        monkeypatch.setattr(trainer.objective, "total_loss", poisoned)
        with pytest.raises(trainer.TrainingAborted) as info:
            trainer.train(
                small_dataset, small_plan(), quick_config(),
                hidden_dims=(), feature_dim=8,
            )
        assert "epoch" in info.value.diagnostics

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(tau=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_main=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mode="dreaming")


class TestInferEvaluate:
    def test_identity_modulation_matches_plain_argmax(self, rng):
        model, modulation, bank, x, _ = make_tiny_setup()
        ones = ModulationMatrix.ones(2, 4)
        modulated = trainer.predict(model, ones, bank, x, mode="fm")
        plain = trainer.predict(model, None, None, x, mode="fixmatch-baseline")
        np.testing.assert_array_equal(modulated, plain)

    def test_uniform_model_breaks_ties_to_class_zero(self):
        model, modulation, bank, x, _ = make_tiny_setup(num_classes=2)
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0
        assert trainer.predict(model, modulation, bank, x[:1], mode="fm")[0] == 0
        assert trainer.predict(model, None, None, x[:1], mode="fixmatch-baseline")[0] == 0

    def test_hand_set_two_class_model(self):
        model, modulation, bank, x, _ = make_tiny_setup()
        from tests.test_objective import oracle_forward

        (slog,) = oracle_forward(model, modulation, bank, x[:1])
        by_hand = int(np.argmax(np.diag(np.exp(slog))))
        assert trainer.predict(model, modulation, bank, x[:1], mode="fm")[0] == by_hand

    def test_evaluate_matches_recount(self, rng):
        model, modulation, bank, x, y = make_tiny_setup(n_per_class=10)
        acc = trainer.evaluate(model, modulation, bank, x, y, mode="fm")
        preds = trainer.predict(model, modulation, bank, x, mode="fm")
        count = sum(int(p == t) for p, t in zip(preds, y))
        assert acc == pytest.approx(count / len(y))

    def test_perfect_and_empty(self):
        model, modulation, bank, x, y = make_tiny_setup()
        preds = trainer.predict(model, modulation, bank, x, mode="fm")
        assert trainer.evaluate(model, modulation, bank, x, preds, mode="fm") == 1.0
        with pytest.raises(ValueError):
            trainer.evaluate(model, modulation, bank, x[:0], y[:0], mode="fm")

    @pytest.mark.parametrize("mode", ["typo", "baseline", "FM"])
    def test_unknown_mode_rejected(self, mode):
        # Any other name used to fall back to the unmodulated argmax.
        model, modulation, bank, x, y = make_tiny_setup()
        with pytest.raises(ValueError, match="mode must be one of"):
            trainer.predict(model, modulation, bank, x, mode)
        with pytest.raises(ValueError, match="mode must be one of"):
            trainer.evaluate(model, modulation, bank, x, y, mode)

    def test_fm_needs_a_bank(self):
        model, modulation, _, x, _ = make_tiny_setup()
        with pytest.raises(ValueError, match="prototype bank"):
            trainer.predict(model, modulation, None, x, "fm")

    def test_constant_prediction_scores_one_over_c(self):
        model, modulation, bank, x, _ = make_tiny_setup(num_classes=2, n_per_class=6)
        model.classifier.weight.node.value[:] = 0.0
        model.classifier.bias.node.value[:] = 0.0  # always predicts class 0
        balanced_y = np.array([0, 1] * 6)
        acc = trainer.evaluate(model, modulation, bank, x, balanced_y, mode="fm")
        assert acc == pytest.approx(0.5)
