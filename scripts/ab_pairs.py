#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarize them.

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds
20 --trace 0`` once in each checkout; even pairs run the parent first,
odd pairs the change. Each run's last output line (the benchmark's final
JSON object) is appended to ``--out`` as one JSON line, with the side,
seed and pair, ready to be copied into a ``BENCH_<n>.json``.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload train-fm \\
        --seed 100 --pairs 10 --out ab_train-fm.jsonl

It prints every pair's end-to-end metrics, then per metric each side's
median and quartiles, the change's wins (ties count for neither side),
and two verdicts read from the change's ``BENCHMARK.json``:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them,
  and its median is better than the parent's by more than the distance
  between the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median).

``--summarize FILE`` prints the summary of an earlier ``--out`` file and
runs nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``; its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "20", "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3), interpolated as ``numpy.percentile`` does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list, spec: list) -> dict:
    """Per end-to-end metric of ``spec``: medians, quartiles, wins, verdicts.

    ``runs`` are records ``{"side", "pair", "final_line"}``; every pair
    must have one run per side. ``spec`` is ``BENCHMARK.json``'s
    ``end_to_end`` list.
    """
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["final_line"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    if any(set(p) != set(SIDES) for p in pairs):
        raise ValueError("every pair needs one parent and one change run")
    out = {"pairs": len(pairs),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
           "metrics": {}}
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        wins = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        pq1, pmed, pq3 = quartiles(values["parent"])
        _, cmed, _ = quartiles(values["change"])
        gain = (cmed - pmed) if higher else (pmed - cmed)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": dict(zip(("q1", "median", "q3"), quartiles(values["change"]))),
            "wins": wins,
            "gain": len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and gain > pq3 - pq1,
            "worse": -gain > metric["bound"] * abs(pmed),
        }
    return out


def print_summary(summary: dict) -> None:
    n = summary["pairs"]
    print(f"{n} pairs; failed operations: parent {summary['failed']['parent']}, "
          f"change {summary['failed']['change']}")
    print(f"{'metric':<12}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}")
    for name, m in summary["metrics"].items():
        for side in SIDES:
            q = m[side]
            print(f"{name:<12}{side:<8}{q['q1']:>12.6g}{q['median']:>12.6g}"
                  f"{q['q3']:>12.6g}")
        print(f"{'':<12}change wins {m['wins']}/{n}, gain {'yes' if m['gain'] else 'no'}, "
              f"worse than bound {'yes' if m['worse'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--out", type=Path, help="JSON-lines file the runs are appended to")
    parser.add_argument("--summarize", type=Path, help="summarize an --out file, run nothing")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    if args.summarize is not None:
        runs = [json.loads(line) for line in args.summarize.read_text().splitlines()]
        print_summary(summarize(runs, spec))
        return 0
    if None in (args.parent, args.change, args.workload, args.seed, args.pairs, args.out):
        parser.error("give PARENT CHANGE --workload --seed --pairs --out, or --summarize")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            tree = args.parent if side == "parent" else args.change
            run = {"workload": args.workload, "side": side, "seed": seed, "pair": i,
                   "first": order[0], "trace": 0,
                   "final_line": run_once(tree, args.workload, seed)}
            runs.append(run)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(run) + "\n")
        line = "  ".join(
            f"{m['name']} " + " / ".join(
                f"{r['final_line']['metrics'][m['name']]['value']:.6g}"
                for r in sorted(runs[-2:], key=lambda r: SIDES.index(r["side"]))
            )
            for m in spec
        )
        print(f"pair {i} seed {seed} ({order[0]} first), parent / change: {line}",
              flush=True)
    print_summary(summarize(runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
