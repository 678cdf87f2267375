"""Benchmark of modfeat: end-to-end metrics, or a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-fm --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload is a closed loop in this one process: every operation
waits for the previous one. The run sets the workload up several times
(``setup_s`` is the median), then runs operations until ``--seconds``
have passed and at least the workload's fixed operations are done.

``--trace 0`` reports the end-to-end metrics from untraced operations:
the median set-up time; the work per second of the timed operations
(their total training steps or evaluated rows over their total time);
peak RSS; and the mean final accuracy of the fixed operations. Set-up
and operation times are corrected for the shared host's drifting speed
by a fixed reference run between them (see ``hostref.py``); the
uncorrected figures are printed beside them and kept in the details.
``--trace 1`` traces one set-up and the first fixed operations (see
``spans.py``), each beside an untraced twin whose output must equal the
traced one bit for bit. It reports every per-layer metric; the traced
minus untraced wall time is ``trace.overhead_s``.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Environment, per-operation times and
(traced) spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train-fm", "train-baseline", "eval-full")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_thread_blas() -> int:
    """Run BLAS on one thread, within the cap of ``nproc``; returns it.

    The benchmark is one single-threaded process. On the 2-vCPU host it
    was sized on, a second OpenBLAS thread made no workload faster, made
    ``train-fm`` operations ~20% slower, and tied every timing to the
    load on the other vCPU. Must run before numpy is imported. It
    changes only this process's environment (and that of the processes
    it starts).
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def git_commit(root: Path):
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=False,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "modfeat").glob("*.py")) + [
        root / "configs" / "synthetic.ini"
    ]:
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(blas_threads: int) -> dict:
    import numpy as np  # only after single_thread_blas

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/modfeat/__init__.py", "configs/synthetic.ini",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a modfeat checkout, missing {missing}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = {}
        for name in NAMES:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
                return 1
            results[name] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0

    blas_threads = single_thread_blas()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import modfeat

    if Path(modfeat.__file__).resolve().parent != ROOT / "src" / "modfeat":
        print(f"error: imported modfeat from {modfeat.__file__}", file=sys.stderr)
        return 2
    from perfbench import measure

    env = environment(blas_threads)
    result, details = measure.run_workload(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace), env
    )
    print("env " + json.dumps(env))
    measure.print_table(args.workload, result, details, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
