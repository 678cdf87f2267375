"""Per-layer tracing of modfeat from outside the program.

A ``Tracer`` replaces the public functions of each ``src/modfeat``
module with thin wrappers while it is installed, and puts the originals
back when it is removed. Nothing inside the program changes.

- Span wrappers record (span id, parent span id, name, run id, start,
  end) for each call. Spans stay in memory until ``write_spans``.
- Counter wrappers only add exact counts computed from shapes (matmul
  FLOPs, bytes coerced by ``as_matrix``, rows, MC passes).

Times are self times in seconds; the other metrics are totals over the
traced pass (one set-up and the workload's first fixed operations). Metric
names and units are listed in ``BENCHMARK.json``.
``autodiff.matmul_flops`` counts the forward matmuls and those of their
vjps in ``backward``; ``modulator.matmul_flops`` only the forward
matmuls inside ``modulate``.

A layer's self time is the duration of its spans minus the part of
them that their child spans cover. Wrappers draw no random numbers and
never change arguments or results, so a traced run is bit-identical to
an untraced one.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict

from modfeat import autodiff, checkpoint, cli, data, modulator, network
from modfeat import objective, prototypes, pseudolabel, trainer

# Self-time metric -> span name.
SELF_TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "modulator.modulate_s": "modulator.modulate",
    "pseudolabel.label_s": "pseudolabel.label",
    "objective.total_loss_s": "objective.total_loss",
    "network.extractor_s": "network.extractor",
    "network.classifier_s": "network.classifier",
    "data.augment_s": "data.augment",
    "data.batch_wait_s": "data.batch_wait",
    "data.generate_s": "data.generate",
    "data.load_csv_s": "data.load_csv",
    "prototypes.build_bank_s": "prototypes.build_bank",
    "trainer.sgd_step_s": "trainer.sgd_step",
    "trainer.evaluate_s": "trainer.evaluate",
    "trainer.loop_self_s": "trainer.train",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
}

# Counts that depend only on the inputs, so they repeat exactly.
EXACT_COUNTS = (
    "autodiff.backward_calls",
    "autodiff.graph_nodes",
    "autodiff.matmul_calls",
    "autodiff.matmul_flops",
    "autodiff.as_matrix_bytes",
    "modulator.modulate_calls",
    "modulator.rows_out",
    "modulator.matmul_flops",
    "pseudolabel.rows",
    "pseudolabel.mc_passes",
    "trainer.eval_rows",
)

_ROOT = 0
_PREDICT_MATRICES = inspect.signature(pseudolabel.predict_matrices)
# Code of the closure ``autodiff.matmul`` gives its nodes as their vjp.
_MATMUL_VJP = next(
    c for c in autodiff.matmul.__code__.co_consts
    if inspect.iscode(c) and c.co_name == "vjp"
)


def backward_work(root) -> tuple:
    """Nodes reachable from ``root`` and the FLOPs of their matmul vjps.

    ``backward`` runs the vjp of every reachable node. The vjp of an
    ``(m, k) @ (k, n)`` matmul does two matmuls of ``2·m·k·n`` FLOPs each.
    """
    seen = {id(root)}
    stack = [root]
    flops = 0
    while stack:
        node = stack.pop()
        if getattr(node._vjp, "__code__", None) is _MATMUL_VJP:
            (m, k), n = node.parents[0].shape, node.shape[1]
            flops += 4 * m * k * n
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), flops


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict = defaultdict(int)
        self._stack = [(_ROOT, "")]
        self._next_id = 1
        self._run_id = ""

    # -- recording ---------------------------------------------------

    def _open(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        return span_id, time.perf_counter()

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1][0], name, self._run_id, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        span_id, start = self._open(name)
        try:
            yield
        finally:
            self._close(span_id, name, start)

    @contextlib.contextmanager
    def run(self, run_id: str, name: str = "bench.op"):
        """Root span of one operation; its spans carry ``run_id``."""
        self._run_id = run_id
        with self.span(name):
            yield

    def _spanning(self, fn, name, count=None):
        def wrapper(*args, **kwargs):
            span_id, start = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start)
            if count is not None:
                count(args, kwargs, out)
            return out

        return wrapper

    def _spanning_generator(self, fn, name):
        done = object()

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(it, done)
                if item is done:
                    return
                yield item

        return wrapper

    def _counting(self, fn, count):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(args, kwargs, out)
            return out

        return wrapper

    # -- counters ----------------------------------------------------

    def _count_matmul(self, args, kwargs, out):
        """Forward FLOPs; ``_count_backward`` adds those of the vjps."""
        a, b = args
        flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
        self.counts["autodiff.matmul_calls"] += 1
        self.counts["autodiff.matmul_flops"] += flops
        if self._stack[-1][1] == "modulator.modulate":
            self.counts["modulator.matmul_flops"] += flops

    def _count_as_matrix(self, args, kwargs, out):
        self.counts["autodiff.as_matrix_bytes"] += out.nbytes

    def _count_modulate(self, args, kwargs, out):
        self.counts["modulator.modulate_calls"] += 1
        self.counts["modulator.rows_out"] += out.shape[0]

    def _count_predict_matrices(self, args, kwargs, out):
        if _PREDICT_MATRICES.bind(*args, **kwargs).arguments.get("dropout", False):
            self.counts["pseudolabel.mc_passes"] += 1

    def _count_labels(self, args, kwargs, out):
        self.counts["pseudolabel.rows"] += len(out)
        self.counts["pseudolabel.kept"] += sum(1 for r in out if r.keep)

    def _count_predict(self, args, kwargs, out):
        self.counts["trainer.eval_rows"] += len(out)

    def _count_backward(self, args, kwargs, out):
        nodes, flops = backward_work(args[0])
        self.counts["autodiff.backward_calls"] += 1
        self.counts["autodiff.graph_nodes"] += nodes
        self.counts["autodiff.matmul_flops"] += flops

    # -- installation --------------------------------------------------

    def _patches(self):
        """(owners, attribute, wrapper factory) for every traced name.

        Names bound with ``from x import y`` are patched where they are
        used as well as where they are defined.
        """
        sp, gen, cnt = self._spanning, self._spanning_generator, self._counting
        return [
            ((autodiff,), "matmul", lambda f: cnt(f, self._count_matmul)),
            ((autodiff,), "as_matrix", lambda f: cnt(f, self._count_as_matrix)),
            ((autodiff,), "backward",
             lambda f: sp(f, "autodiff.backward", self._count_backward)),
            ((modulator,), "modulate",
             lambda f: sp(f, "modulator.modulate", self._count_modulate)),
            ((pseudolabel,), "predict_matrices",
             lambda f: cnt(f, self._count_predict_matrices)),
            ((pseudolabel,), "pseudo_label_batch",
             lambda f: sp(f, "pseudolabel.label", self._count_labels)),
            ((pseudolabel,), "baseline_pseudo_label_batch",
             lambda f: sp(f, "pseudolabel.label", self._count_labels)),
            ((objective,), "total_loss", lambda f: sp(f, "objective.total_loss")),
            ((network.Extractor,), "forward", lambda f: sp(f, "network.extractor")),
            ((network.Classifier,), "forward", lambda f: sp(f, "network.classifier")),
            ((data.Augmenter,), "weak", lambda f: sp(f, "data.augment")),
            ((data.Augmenter,), "strong", lambda f: sp(f, "data.augment")),
            ((data.BatchIterator,), "epoch", lambda f: gen(f, "data.batch_wait")),
            ((data,), "generate_synthetic", lambda f: sp(f, "data.generate")),
            ((data,), "load_csv", lambda f: sp(f, "data.load_csv")),
            ((prototypes, trainer), "build_bank",
             lambda f: sp(f, "prototypes.build_bank")),
            ((trainer.SGD,), "step", lambda f: sp(f, "trainer.sgd_step")),
            ((trainer,), "train", lambda f: sp(f, "trainer.train")),
            # predict is the body of evaluate; both count as trainer.evaluate.
            ((trainer,), "evaluate", lambda f: sp(f, "trainer.evaluate")),
            ((trainer,), "predict",
             lambda f: sp(f, "trainer.evaluate", self._count_predict)),
            ((checkpoint, trainer), "save_checkpoint",
             lambda f: sp(f, "checkpoint.save")),
            ((checkpoint, cli), "load_checkpoint", lambda f: sp(f, "checkpoint.load")),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for owners, attr, make in self._patches():
                original = getattr(owners[0], attr)
                wrapper = make(original)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time."""
        child_time: defaultdict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        out: defaultdict = defaultdict(float)
        for span_id, _, name, _, start, end in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return out

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric by name; layers never called read 0."""
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        for metric in EXACT_COUNTS:
            out[metric] = self.counts.get(metric, 0)
        rows = self.counts.get("pseudolabel.rows", 0)
        out["pseudolabel.keep_ratio"] = (
            self.counts.get("pseudolabel.kept", 0) / rows if rows else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, run_id, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "run": run_id, "start": start, "end": end}
                    )
                    + "\n"
                )
