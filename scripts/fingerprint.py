#!/usr/bin/env python3
"""Print one fingerprint line per training run, to check bit-identity.

Each line holds the mode, the seed, the final target accuracy and a
SHA-256 over what the run produced: every epoch's metrics row
(``EpochReport.csv_row()``), the modulation weights, and each
parameter's name and bytes. The runs go through ``cli.run_seeds``, the
seed loop ``modfeat train`` uses, so data, split and training settings
come from the config file as they do there. Two source trees that print
the same lines train bit for bit alike.

    PYTHONPATH=src python scripts/fingerprint.py --seeds 0,1,2,3,4
    PYTHONPATH=src python scripts/fingerprint.py --modes fm --seeds 0,1 \\
        --epochs 5 --hidden-dims 64
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from modfeat import cli, config, network, trainer


def fingerprint(result: trainer.TrainResult) -> str:
    h = hashlib.sha256()
    for report in result.reports:
        h.update(report.csv_row().encode() + b"\n")
    h.update(result.modulation.values.tobytes())
    for p in result.model.params():
        h.update(p.name.encode())
        h.update(p.value.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="configs/synthetic.ini")
    parser.add_argument("--seeds", default="0", help="comma-separated, e.g. 0,1,2")
    parser.add_argument("--modes", default=",".join(network.MODES))
    parser.add_argument("--epochs", type=int, help="override train.epochs")
    parser.add_argument(
        "--hidden-dims", help="override model.hidden_dims, e.g. 64 or 64,64"
    )
    args = parser.parse_args(argv)

    overrides = {"train.seeds": args.seeds}
    if args.epochs is not None:
        overrides["train.epochs"] = str(args.epochs)
    if args.hidden_dims is not None:
        overrides["model.hidden_dims"] = args.hidden_dims
    try:
        configs = [
            config.load_config(args.config, {**overrides, "train.mode": mode})
            for mode in args.modes.split(",")
        ]
    except config.ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for cfg in configs:
        for seed, result, _ in cli.run_seeds(cfg):
            final = result.reports[-1].target_accuracy
            print(f"{cfg.train.mode} {seed} {final!r} {fingerprint(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
