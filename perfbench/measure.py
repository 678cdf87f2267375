"""Measurement loops of the benchmark: untraced, traced, and reporting.

See ``run.py`` for what each mode measures.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from perfbench import hostref, workloads
from perfbench.spans import Tracer


# Set-ups timed between two runs of the host reference.
SETUP_BLOCK = 5
# Fixed operations a traced run covers. Each runs twice there (traced and
# untraced), so this keeps a traced train-fm run near a minute.
TRACED_OPS = 3


def declared_units(root: Path, trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_op(wl, i, failures):
    try:
        return wl.op(i)
    except Exception:  # one failed operation must not end the run
        failures.append(traceback.format_exc())
        return None


def run_untraced(wl, spec, seconds: float) -> tuple:
    """Untraced run: repeated set-up, then the closed loop.

    The host reference is sampled before the first set-up, after every
    ``SETUP_BLOCK`` set-ups and after every operation; each set-up and
    operation time is corrected by the samples on either side of it (see
    ``hostref``).
    """
    ref = hostref.Reference()
    setup_raw, setup_s = [], []
    before = hostref.sample(ref, 0.0)
    for block in range(0, workloads.SETUP_REPEATS, SETUP_BLOCK):
        times = []
        for _ in range(min(SETUP_BLOCK, workloads.SETUP_REPEATS - block)):
            start = time.perf_counter()
            wl.setup_data()
            times.append(time.perf_counter() - start)
        after = hostref.sample(ref, sum(times))
        setup_raw += times
        setup_s += [hostref.corrected_seconds(t, before, after) for t in times]
        before = after
    wl.setup_model()
    wl.prepare_checks()

    failures, outcomes, refs = [], [], [hostref.sample(ref, 0.0)]
    start = time.perf_counter()
    i = 0
    while i < spec.fixed_ops or time.perf_counter() - start < seconds:
        op_start = time.perf_counter()
        outcomes.append(run_op(wl, i, failures))
        refs.append(hostref.sample(ref, time.perf_counter() - op_start))
        i += 1
    timed = [(o, hostref.corrected_seconds(o.seconds, refs[k], refs[k + 1]))
             for k, o in enumerate(outcomes) if k >= spec.untimed_ops and o is not None]
    fixed = [o for o in outcomes[: spec.fixed_ops] if o is not None]
    work = sum(o.work for o, _ in timed)
    values = {
        "setup_s": statistics.median(setup_s),
        "work_per_s": work / sum(c for _, c in timed) if timed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "target_acc": statistics.fmean(o.accuracy for o in fixed) if fixed else 0.0,
    }
    details = {
        "raw_setup_s": statistics.median(setup_raw),
        "raw_work_per_s": work / sum(o.seconds for o, _ in timed) if timed else 0.0,
        "setup_s": setup_s,
        "raw_setup_times": setup_raw,
        "ref_s": refs,
        "op_s": [None if o is None else o.seconds for o in outcomes],
        "work": [None if o is None else o.work for o in outcomes],
        "accuracy": [None if o is None else o.accuracy for o in outcomes],
    }
    return values, len(outcomes), failures, details


def run_traced(wl, spec, name: str, seed: int, spans_path: Path) -> tuple:
    """Traced set-up data and the first ``TRACED_OPS`` fixed operations,
    each next to an untraced twin."""
    tracer = Tracer()
    failures, traced = [], []
    with tracer.installed(), tracer.run(f"{name}:{seed}:setup", "bench.setup"):
        wl.setup_data()
    wl.setup_model()
    wl.prepare_checks()
    plain = []
    for i in range(min(spec.fixed_ops, TRACED_OPS)):
        # Alternate which twin runs first, so warm-up favours neither.
        if i % 2:
            plain.append(run_op(wl, i, failures))
        with tracer.installed(), tracer.run(f"{name}:{seed}:op{i}"):
            traced.append(run_op(wl, i, failures))
        if not i % 2:
            plain.append(run_op(wl, i, failures))
    for i, (a, b) in enumerate(zip(traced, plain)):
        if a is not None and b is not None and a.fingerprint != b.fingerprint:
            failures.append(f"op {i}: traced output differs from untraced output")
    ok = all(o is not None for o in traced + plain)
    overhead = (
        sum(o.seconds for o in traced) - sum(o.seconds for o in plain) if ok else 0.0
    )
    tracer.write_spans(spans_path)
    details = {
        "spans": len(tracer.spans),
        "traced_op_s": [None if o is None else o.seconds for o in traced],
        "untraced_op_s": [None if o is None else o.seconds for o in plain],
    }
    return tracer.layer_metrics(overhead), len(traced) + len(plain), failures, details


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> tuple:
    """Run one workload; returns the result object and the run's details.

    The result, the environment and the run's details (per-operation
    times, work and accuracy; set-up times) are also written under
    ``.perfbench/``.
    """
    spec = workloads.WORKLOADS[name]
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    try:
        wl = workloads.make(name, root, workdir, seed)
        if trace:
            spans_path = out_dir / f"{name}-spans.jsonl"
            values, attempted, failures, details = run_traced(
                wl, spec, name, seed, spans_path
            )
        else:
            values, attempted, failures, details = run_untraced(wl, spec, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for text in failures:
        print(text, file=sys.stderr)

    units = declared_units(root, trace)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "details": details, **result}
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result, details


def print_table(name: str, result: dict, details: dict, trace: bool) -> None:
    """Human-readable metrics, with the per-workload names of throughput.

    An untraced run also shows the failed ratio, and the set-up time and
    throughput before the host-speed correction. They are not in the
    result's metrics: the failed ratio reads 0 (failures are counted in
    ``failed``), and the uncorrected times drift with the host.
    """
    train = workloads.WORKLOADS[name].factory.kind == "train"
    print(f"{name}: {result['attempted']} operations, {result['failed']} failed")
    rows = []
    for metric, m in result["metrics"].items():
        if metric == "work_per_s":
            rows.append(("train_steps_per_s", m["value"] if train else None, "1/s"))
            rows.append(("eval_rows_per_s", None if train else m["value"], "1/s"))
        else:
            rows.append((metric, m["value"], m["unit"]))
    if not trace:
        rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio"))
        rows.append(("uncorrected setup_s", details["raw_setup_s"], "s"))
        rows.append(("uncorrected work_per_s", details["raw_work_per_s"], "1/s"))
    for metric, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:<28}{shown:>14} {unit}")
