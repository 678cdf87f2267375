import csv
import dataclasses

import numpy as np
import pytest

from modfeat import autodiff as ad
from modfeat import data as dat
from modfeat import modulator, objective, pseudolabel, trainer
from modfeat.modulator import ModulationMatrix
from modfeat.trainer import SGD, TrainConfig, cosine_lr
from tests import refops as ref
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
        p = ad.leaf(np.array([[2.0, -1.0]]), "w")
        opt = SGD([p], momentum=0.0)
        opt.step({p: np.array([[1.0, 4.0]])}, 0.5)
        np.testing.assert_allclose(p.value, [[1.5, -3.0]])

    def test_zero_gradient_keeps_parameters(self):
        p = ad.leaf(np.array([[2.0]]), "w")
        opt = SGD([p], momentum=0.9)
        for _ in range(5):
            opt.step({}, 0.1)
        np.testing.assert_allclose(p.value, [[2.0]])

    def test_unreached_parameter_steps_as_with_zero_gradient_bitwise(self):
        stepped = []
        for zeros in (False, True):
            p = ad.leaf(np.array([[-0.0, 1.5, -2.0]]), "w")
            opt = SGD([p], momentum=0.9)
            opt.step({p: np.array([[-0.0, 0.25, -1e-300]])}, 0.1)
            for _ in range(3):
                opt.step({p: np.zeros((1, 3))} if zeros else {}, 0.1)
            stepped.append(p.value.tobytes())
        assert stepped[0] == stepped[1]

    def test_steps_each_parameter_with_its_own_gradient(self):
        a = ad.leaf(np.array([[1.0]]), "a")
        b = ad.leaf(np.array([[1.0, 2.0]]), "b")
        opt = SGD([a, b], momentum=0.5)
        opt.step({b: np.array([[1.0, -1.0]])}, 0.1)
        opt.step({a: np.array([[2.0]]), b: np.array([[1.0, -1.0]])}, 0.1)
        np.testing.assert_allclose(a.value, [[0.8]])  # v_a = 0, then 2
        np.testing.assert_allclose(b.value, [[0.75, 2.25]])  # v_b = 1, then 1.5

    def test_momentum_update_rule(self):
        p = ad.leaf(np.array([[1.0]]), "w")
        opt = SGD([p], momentum=0.5)
        opt.step({p: np.array([[2.0]])}, 0.1)  # v=2, w=1-0.2=0.8
        opt.step({p: np.array([[1.0]])}, 0.1)  # v=0.5*2+1=2, w=0.8-0.2=0.6
        np.testing.assert_allclose(p.value, [[0.6]])

    def test_quadratic_bowl_descends(self):
        p = ad.leaf(np.array([[5.0, -3.0]]), "w")
        opt = SGD([p], momentum=0.9)
        losses = []
        for _ in range(100):
            loss = ad.sum_all(ref.mul(p, p))
            losses.append(loss.value[0, 0])
            opt.step(ad.backward(loss), 0.02)
        oracle = [losses[0]]
        w, v = np.array([5.0, -3.0]), np.zeros(2)
        for _ in range(99):
            g = 2 * w
            v = 0.9 * v + g
            w = w - 0.02 * v
            oracle.append(float((w**2).sum()))
        np.testing.assert_allclose(losses[1:], oracle[1:], rtol=1e-12)
        assert losses[-1] < 1e-3 * losses[0]

    @pytest.mark.parametrize("name", ["w", None])
    def test_duplicate_names_rejected(self, name):
        a = ad.leaf(np.ones((1, 1)), name)
        b = ad.leaf(np.ones((1, 1)), name)
        with pytest.raises(ValueError, match="duplicate parameter names"):
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
        # Only the final epoch is kept: no epoch is chosen on target accuracy.
        assert not (tmp_path / "checkpoint_best.npz").exists()
        assert (tmp_path / "modulator_epoch1.csv").is_file()
        assert (tmp_path / "prototypes_epoch1.csv").is_file()
        assert (tmp_path / "pseudo_labels.csv").is_file()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,l_s,l_u,l_d,l_ud,total,keep_rate,pl_acc,target_acc,lr"
        pl_header = (tmp_path / "pseudo_labels.csv").read_text().splitlines()[0]
        assert pl_header == "epoch,sample_idx,label,p_max,sigma,keep,l_scale,true_class"

    @pytest.mark.parametrize(
        "mode, changes",
        [
            ("fm", {}),
            ("fixmatch-baseline", {}),
            # Slow learning under a high tau: epoch 3 keeps nothing.
            ("fm", {"tau": 0.95, "lr_main": 0.003}),
        ],
    )
    def test_pseudo_label_dump_matches_epoch_metrics(
        self, small_dataset, tmp_path, mode, changes
    ):
        """Per epoch, the dumped rows' kept fraction is ``keep_rate`` and
        their kept-row accuracy ``pl_acc`` (empty when nothing is kept)."""
        config = dataclasses.replace(quick_config(mode=mode, epochs=4), **changes)
        trainer.train(
            small_dataset, small_plan(), config,
            hidden_dims=(), feature_dim=8, run_dir=tmp_path, dump_pseudo_labels=True,
        )
        with open(tmp_path / "metrics.csv", newline="") as fh:
            metrics = list(csv.DictReader(fh))
        with open(tmp_path / "pseudo_labels.csv", newline="") as fh:
            dumped = list(csv.DictReader(fh))
        assert len(metrics) == 4
        for row in metrics:
            rows = [r for r in dumped if r["epoch"] == row["epoch"]]
            kept = [r for r in rows if r["keep"] == "1"]
            correct = sum(r["label"] == r["true_class"] for r in kept)
            assert rows
            assert float(row["keep_rate"]) == len(kept) / len(rows)
            if kept:
                assert float(row["pl_acc"]) == correct / len(kept)
            else:
                assert row["pl_acc"] == ""
        assert any(row["pl_acc"] == "" for row in metrics) == bool(changes)

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

    def _rejected_before_any_step(self, monkeypatch, dataset, plan):
        """The ``SplitError`` ``train`` raises, after no SGD step."""
        steps = []
        monkeypatch.setattr(trainer.SGD, "step", lambda *args: steps.append(args))
        with pytest.raises(dat.SplitError) as err:
            trainer.train(dataset, plan, quick_config(), hidden_dims=(), feature_dim=8)
        assert not steps
        return str(err.value)

    def test_held_out_domain_without_rows_rejected(self, monkeypatch):
        full = dat.generate_synthetic(3, 4, 4, 4, 20, 2.0, 6.0, seed=0, bias_jitter=1.0)
        keep = full.domain_ids != 1
        dataset = dat.DomainDataset(
            full.features[keep], full.class_ids[keep], full.domain_ids[keep]
        )
        assert dataset.num_domains == 4
        message = self._rejected_before_any_step(
            monkeypatch, dataset, dat.SplitPlan(1, 2, 0)
        )
        assert message == "target domain 1 has no rows"

    def test_dataset_without_source_domain_rejected(self, monkeypatch):
        dataset = dat.generate_synthetic(3, 1, 4, 4, 20, 2.0, 6.0, seed=0, bias_jitter=1.0)
        message = self._rejected_before_any_step(
            monkeypatch, dataset, dat.SplitPlan(0, 2, 0)
        )
        assert message == "no source domain: every row is in target domain 0"

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

    def test_fm_step_builds_one_head_for_mc_and_loss(self, small_dataset, monkeypatch):
        """Each fm step builds the fused head's mixing node once, and its
        MC passes and its loss forward all score through that head."""
        events = []

        class CountedHead(modulator.FusedHead):
            def __init__(self, *args):
                super().__init__(*args)
                events.append(("build", self))

        def recording(kind, fn, head_at):
            def wrapper(*args, **kwargs):
                events.append((kind, args[head_at]))
                return fn(*args, **kwargs)

            return wrapper

        real_predict = trainer.predict

        def predict(*args, **kwargs):
            events.append(("eval", None))
            try:
                return real_predict(*args, **kwargs)
            finally:
                events.append(("eval-end", None))

        monkeypatch.setattr(modulator, "FusedHead", CountedHead)
        monkeypatch.setattr(
            modulator, "modulate", recording("modulate", modulator.modulate, 1)
        )
        monkeypatch.setattr(
            pseudolabel, "pseudo_label_batch",
            recording("label", pseudolabel.pseudo_label_batch, 2),
        )
        monkeypatch.setattr(
            objective, "total_loss", recording("loss", objective.total_loss, 5)
        )
        monkeypatch.setattr(trainer, "predict", predict)
        trainer.train(
            small_dataset, small_plan(), quick_config(epochs=1),
            hidden_dims=(), feature_dim=8,
        )
        # Drop evaluation, which builds a head of its own per call.
        steps, in_eval = [], False
        for kind, head in events:
            in_eval = (in_eval or kind == "eval") and kind != "eval-end"
            if not in_eval and kind != "eval-end":
                steps.append((kind, head))
        losses = [i for i, (kind, _) in enumerate(steps) if kind == "loss"]
        assert len(losses) > 1
        start = 0
        for end in losses:
            kinds = [kind for kind, _ in steps[start : end + 2]]
            # One build, then one label call whose MC passes modulate
            # through the built head, then the loss, which modulates once.
            assert kinds[:2] == ["build", "label"] and kinds[-2:] == ["loss", "modulate"]
            assert kinds.count("build") == 1 and kinds.count("modulate") >= 2
            head = steps[start][1]
            assert all(h is head for _, h in steps[start : end + 2])
            start = end + 2
        assert start == len(steps)

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
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0
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
        model.classifier.weight.value[:] = 0.0
        model.classifier.bias.value[:] = 0.0  # always predicts class 0
        balanced_y = np.array([0, 1] * 6)
        acc = trainer.evaluate(model, modulation, bank, x, balanced_y, mode="fm")
        assert acc == pytest.approx(0.5)
