#!/usr/bin/env python3
"""Print one fingerprint line per training run, to check bit-identity.

Each line holds the mode, the seed, the final target accuracy and a
SHA-256 over what the run produced: every epoch's metrics row
(``EpochReport.csv_row()``), the modulation weights, and each
parameter's name and bytes. The runs go through ``cli.run_seeds``, the
seed loop ``modfeat train`` uses, so data, split and training settings
come from the config file as they do there, and any config key can be
overridden as ``modfeat train`` takes it: ``--section.key=value``, or
``--key=value`` when the bare key is unambiguous. Two source trees that
print the same lines train bit for bit alike.

    PYTHONPATH=src python scripts/fingerprint.py --seeds 0,1,2,3,4
    PYTHONPATH=src python scripts/fingerprint.py --modes fm --seeds 0,1 \\
        --epochs=5 --hidden_dims=64
"""

from __future__ import annotations

import hashlib
import sys

from modfeat import cli, config, trainer


def fingerprint(result: trainer.TrainResult) -> str:
    h = hashlib.sha256()
    for report in result.reports:
        h.update(report.csv_row().encode() + b"\n")
    h.update(result.modulation.values.tobytes())
    for p in result.model.params():
        h.update(p.name.encode())
        h.update(p.value.tobytes())
    return h.hexdigest()


def load_configs(argv) -> list:
    """The run config of each mode that ``argv`` names."""
    parser = cli.Parser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--config", default="configs/synthetic.ini")
    parser.add_argument("--seeds", default="0", help="comma-separated, e.g. 0,1,2")
    parser.add_argument("--modes", default=",".join(trainer.MODES))
    args, extras = parser.parse_known_args(argv)
    overrides = {**cli._split_overrides(extras), "train.seeds": args.seeds}
    return [
        config.load_config(args.config, {**overrides, "train.mode": mode})
        for mode in args.modes.split(",")
    ]


# Errors exit as they do in ``modfeat train``: a bad flag, or a config or
# CSV that is invalid, unreadable or does not fit, exits 2, and an aborted
# run 1, each with one ``error:`` line.
@cli.guarded
def main(argv=None) -> int:
    for cfg in load_configs(argv):
        for seed, result, _ in cli.run_seeds(cfg):
            final = result.reports[-1].target_accuracy
            print(f"{cfg.train.mode} {seed} {final!r} {fingerprint(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
