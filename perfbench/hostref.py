"""Host-speed reference: fixed work that does not use modfeat.

The benchmark runs on a few vCPUs of a shared host whose speed drifts
with the load of other tenants: one train-baseline operation took
0.83 s to 2.8 s within five minutes of one process on the sizing host
(2 vCPUs), nearly all of it user CPU time. Neither CPU time nor a longer
run removes that drift, and two sets of ten runs of unchanged code could
differ by more than a quarter.

So the untraced loop samples the reference (``sample``) before the
first set-up, between set-up blocks and after every operation, and
scales each set-up and operation time by how fast the reference ran on
either side of it (``corrected_seconds``). The reference mixes the kinds of work modfeat
does: a pure-Python loop, a small define-by-run autodiff MLP on 96-row
batches, many small Python objects, BLAS matmuls, and passes over a
4 MB array. On the sizing host the mix tracked the slowdown of the
training operations better than any one part of it.

``run_isolated`` runs it in a forked child on the CPU this process is
on, so its memory stays out of the workload's peak RSS. Its inputs come
from its own generator; it never touches the program's random state.
Nothing here depends on modfeat, so a change to the program moves the
corrected times as much as the raw ones.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

# The quietest reference time seen on the sizing host, rounded. Corrected
# times are the times the operation would take on a host that runs the
# reference in this many seconds.
REF_SECONDS = 0.2
# A sample runs the reference at least REF_MIN_RUNS times, and until it
# has taken REF_SHARE of the stretch of work before it. The host's speed
# jumps by tens of percent from one quarter second to the next, so one
# run beside a 1 s evaluation or a 6 s training is too few.
REF_MIN_RUNS = 2
REF_SHARE = 0.15


class _Node:
    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value, self.parents, self.vjp, self.grad = value, parents, vjp, None


def _matmul(a, b):
    return _Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def _relu(a):
    mask = a.value > 0
    return _Node(a.value * mask, (a,), lambda g: (g * mask,))


def _xent(a, onehot):
    z = a.value - a.value.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(p[onehot]))
    return _Node(np.array([[loss]]), (a,), lambda g: ((p - onehot) * (g[0, 0] / len(p)),))


def _backward(out):
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    out.grad = np.ones_like(out.value)
    for node in reversed(order):
        if node.vjp is not None:
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                parent.grad = g if parent.grad is None else parent.grad + g


class Reference:
    """Fixed inputs, made once; ``run()`` does the same work every call."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((1024, 32))
        labels = rng.integers(0, 7, 1024)
        self.onehot = np.eye(7, dtype=bool)[labels]
        self.batches = [rng.integers(0, 1024, 96) for _ in range(8)]
        self.w0 = [rng.standard_normal(s) * 0.1 for s in ((32, 64), (64, 32), (32, 7))]
        self.wide = rng.standard_normal((256, 96))

    def python_loop(self) -> float:
        acc, table = 0, {}
        for i in range(250_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        return float(acc + len(table))

    def autodiff_mlp(self) -> float:
        weights = [_Node(w.copy()) for w in self.w0]
        for step in range(250):
            idx = self.batches[step % len(self.batches)]
            h = _relu(_matmul(_Node(self.x[idx]), weights[0]))
            h = _relu(_matmul(h, weights[1]))
            loss = _xent(_matmul(h, weights[2]), self.onehot[idx])
            for w in weights:
                w.grad = None
            _backward(loss)
            for w in weights:
                w.value = w.value - 0.05 * w.grad
        return float(loss.value[0, 0])

    def blas(self) -> float:
        total = 0.0
        for _ in range(150):
            total += float((self.wide @ self.wide.T).trace())
        return total

    def python_objects(self) -> float:
        total = 0
        for _ in range(2):
            rows = [(i, str(i), [i]) for i in range(40_000)]
            index = {row[1]: row for row in rows}
            total += len(index)
        return float(total)

    def stream(self) -> float:
        """Passes over a 4 MB array, made and freed within the call."""
        big = np.random.default_rng(7).standard_normal((512, 1024))
        total = 0.0
        for _ in range(12):
            z = big * 1.5
            z += big
            total += float(z.sum())
        return total

    def run(self) -> float:
        """Seconds the fixed work took; its result must be finite."""
        start = time.perf_counter()
        out = (self.python_loop() + self.autodiff_mlp() + self.python_objects()
               + self.blas() + self.stream())
        seconds = time.perf_counter() - start
        if not np.isfinite(out):
            raise ArithmeticError("host reference produced a non-finite result")
        return seconds


def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def run_isolated(ref: Reference) -> float:
    """``ref.run()`` in a forked child, on the CPU this process runs on.

    The child's memory does not count in this process's peak RSS, so
    ``peak_rss_mb`` stays that of the workload. This process waits for
    the child to end before it goes on.
    """
    cpu = _current_cpu()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpu})
            gc.disable()  # a collection would copy the parent's pages
            os.write(write_fd, repr(ref.run()).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        text = f.read().decode()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("host reference failed in its child process")
    return float(text)


def sample(ref: Reference, busy_s: float) -> float:
    """Mean time of ``REF_MIN_RUNS`` or more reference runs lasting at
    least ``REF_SHARE * busy_s``."""
    times = [run_isolated(ref)]
    while len(times) < REF_MIN_RUNS or sum(times) < REF_SHARE * busy_s:
        times.append(run_isolated(ref))
    return sum(times) / len(times)


def corrected_seconds(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the speed of a host that runs the reference in
    ``REF_SECONDS``, from the reference times on either side of it."""
    return seconds * REF_SECONDS / ((ref_before + ref_after) / 2)
