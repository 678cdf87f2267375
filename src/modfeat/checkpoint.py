"""Versioned binary key-value checkpoints (npz with named float64 arrays).

Round trips are bit-exact: arrays are stored raw, shapes live in the npy
headers. A checkpoint always carries the network parameters and enough
config to rebuild the model standalone; the modulation matrix and the
prototype bank ride along when present.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import DualParam
from .modulator import ModulationMatrix
from .network import Classifier, Extractor, ExtractorConfig, Model
from .prototypes import PrototypeBank

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    model: Model
    modulation: Optional[ModulationMatrix] = None
    bank: Optional[PrototypeBank] = None


def save_checkpoint(
    path,
    model: Model,
    modulation: Optional[ModulationMatrix] = None,
    bank: Optional[PrototypeBank] = None,
) -> None:
    cfg = model.extractor.config
    arrays = {
        "meta.version": np.array([FORMAT_VERSION]),
        "meta.input_dim": np.array([cfg.input_dim]),
        "meta.hidden_dims": np.array(list(cfg.hidden_dims), dtype=np.int64),
        "meta.feature_dim": np.array([cfg.feature_dim]),
        "meta.dropout_p": np.array([cfg.dropout_p]),
        "meta.num_classes": np.array([model.num_classes]),
    }
    for p in model.params():
        arrays[f"param.{p.name}"] = p.value
    if modulation is not None:
        arrays["param.modulator.weights"] = modulation.values
    if bank is not None:
        arrays["bank.prototypes"] = bank.prototypes
        arrays["bank.similarity"] = bank.similarity
        arrays["bank.blended"] = bank.blended
        arrays["bank.epoch"] = np.array([bank.epoch])
    np.savez(path, **arrays)


class CheckpointError(ValueError):
    """A checkpoint file is not an archive, lacks a required key or has an
    unsupported version."""


def load_checkpoint(path) -> Checkpoint:
    try:
        archive = np.load(path)
    except (EOFError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"{path}: not a checkpoint archive ({err})") from None
    with archive:

        def data(key: str) -> np.ndarray:
            if key not in archive:
                raise CheckpointError(f"{path}: missing key {key!r}")
            return archive[key]

        version = int(data("meta.version")[0])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        cfg = ExtractorConfig(
            input_dim=int(data("meta.input_dim")[0]),
            hidden_dims=tuple(int(h) for h in data("meta.hidden_dims")),
            feature_dim=int(data("meta.feature_dim")[0]),
            dropout_p=float(data("meta.dropout_p")[0]),
        )

        def param(name: str) -> DualParam:
            return DualParam.create(name, data(f"param.{name}"))

        layers = range(len(cfg.hidden_dims) + 1 if cfg.hidden_dims else 0)
        model = Model(
            extractor=Extractor(
                config=cfg,
                weights=[param(f"extractor.{i}.weight") for i in layers],
                biases=[param(f"extractor.{i}.bias") for i in layers],
            ),
            classifier=Classifier(
                weight=param("classifier.weight"), bias=param("classifier.bias")
            ),
        )
        modulation = None
        if "param.modulator.weights" in archive:
            modulation = ModulationMatrix.from_values(data("param.modulator.weights"))
        bank = None
        if "bank.prototypes" in archive:
            bank = PrototypeBank(
                prototypes=data("bank.prototypes").copy(),
                similarity=data("bank.similarity").copy(),
                blended=data("bank.blended").copy(),
                epoch=int(data("bank.epoch")[0]),
            )
    return Checkpoint(model=model, modulation=modulation, bank=bank)
