"""Self-test of the benchmark's tracing: a traced operation gives the same
bits as an untraced one, and the exact counts repeat for one seed.

Runs on a shortened config (2 epochs, 40 samples per class and domain)
so it stays fast; the code paths are the benchmark's own.
"""

import numpy as np
import pytest

from modfeat import autodiff
from perfbench import hostref, spans, workloads
from perfbench.run import ROOT

SHORT = {"train.epochs": "2", "data.samples_per_class_per_domain": "40"}


def traced_pass(name, workdir, seed=0):
    wl = workloads.make(name, ROOT, workdir, seed, SHORT)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.run("setup", "bench.setup"):
        wl.setup_data()
    wl.setup_model()
    wl.prepare_checks()
    with tracer.installed(), tracer.run("op0"):
        outcome = wl.op(0)
    return wl, tracer, outcome


@pytest.mark.parametrize("name", ["train-fm", "train-baseline"])
def test_tracing_leaves_epoch_metrics_bit_identical(name, tmp_path):
    wl = workloads.make(name, ROOT, tmp_path, 0, SHORT)
    wl.setup_data()
    args = (wl.cfg, wl.datasets[0], wl.seeds[0])
    plain = workloads._train(*args, tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer.installed(), tracer.run("op0"):
        traced = workloads._train(*args, tmp_path / "traced")
    assert tracer.counts["autodiff.backward_calls"] > 0
    assert [r.csv_row() for r in traced.reports] == [r.csv_row() for r in plain.reports]
    for a, b in zip(traced.model.params(), plain.model.params()):
        assert a.value.tobytes() == b.value.tobytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_matches_untraced_twin(name, tmp_path):
    wl, _, traced = traced_pass(name, tmp_path)
    assert wl.op(0).fingerprint == traced.fingerprint


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(name, tmp_path):
    _, first, _ = traced_pass(name, tmp_path / "a")
    _, second, _ = traced_pass(name, tmp_path / "b")
    counts = {m: first.layer_metrics(0.0)[m] for m in spans.EXACT_COUNTS}
    assert counts == {m: second.layer_metrics(0.0)[m] for m in spans.EXACT_COUNTS}
    assert counts["autodiff.matmul_flops"] > 0
    assert counts["trainer.eval_rows"] > 0
    if name == "train-fm":
        assert counts["modulator.rows_out"] > 0
        assert counts["pseudolabel.mc_passes"] > 0
    if name == "train-baseline":
        assert counts["modulator.modulate_calls"] == 0
        assert counts["pseudolabel.mc_passes"] == 0
    if name == "eval-full":
        assert counts["autodiff.backward_calls"] == 0
        assert counts["modulator.modulate_calls"] == 1


def test_matmul_flops_count_forward_and_backward():
    a = autodiff.leaf(np.ones((2, 3)))
    b = autodiff.leaf(np.ones((3, 4)))
    tracer = spans.Tracer()
    with tracer.installed():
        autodiff.backward(autodiff.sum_all(autodiff.matmul(a, b)))
    forward = 2 * 2 * 3 * 4
    assert tracer.counts["autodiff.matmul_calls"] == 1
    assert tracer.counts["autodiff.matmul_flops"] == 3 * forward
    assert tracer.counts["autodiff.graph_nodes"] == 4


def test_host_reference_runs_in_a_child_and_scales_times():
    seconds = hostref.run_isolated(hostref.Reference())
    assert 0.0 < seconds < 60.0
    # An operation timed while the reference ran twice as long as on the
    # quiet host counts half its time.
    ref = 2 * hostref.REF_SECONDS
    assert hostref.corrected_seconds(3.0, ref, ref) == pytest.approx(1.5)
