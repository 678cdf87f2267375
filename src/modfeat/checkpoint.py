"""Versioned binary key-value checkpoints (npz with named float64 arrays).

Round trips are bit-exact: arrays are stored raw, shapes live in the npy
headers. A checkpoint always carries the network parameters, one
``param.<name>`` array per entry of ``Model.params()``, and enough config
to rebuild the model standalone through ``Model.build``; the modulation
matrix and the prototype bank ride along when present.
"""

from __future__ import annotations

import io
import lzma
import zipfile
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .modulator import ModulationMatrix
from .network import ExtractorConfig, Model
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
        "meta.version": np.array([FORMAT_VERSION], dtype=np.int64),
        "meta.input_dim": np.array([cfg.input_dim], dtype=np.int64),
        "meta.hidden_dims": np.array(list(cfg.hidden_dims), dtype=np.int64),
        "meta.feature_dim": np.array([cfg.feature_dim], dtype=np.int64),
        "meta.dropout_p": np.array([cfg.dropout_p], dtype=np.float64),
        "meta.num_classes": np.array([model.num_classes], dtype=np.int64),
    }
    for p in model.params():
        arrays[f"param.{p.name}"] = p.value
    if modulation is not None:
        arrays["param.modulator.weights"] = modulation.values
    if bank is not None:
        arrays["bank.prototypes"] = bank.prototypes
        arrays["bank.similarity"] = bank.similarity
        arrays["bank.blended"] = bank.blended
        arrays["bank.epoch"] = np.array([bank.epoch], dtype=np.int64)
    np.savez(path, **arrays)


class CheckpointError(ValueError):
    """A checkpoint file is not an archive, has a member that cannot be
    read, lacks a required key or holds one the loader does not read, has
    an unsupported version, or holds an array whose dtype kind is not the
    one ``save_checkpoint`` writes under its key (integers for the
    counts, sizes, version and bank epoch, floats for the rest), whose
    shape does not match its metadata or whose values are not finite."""


# What reading a damaged member raises: a CRC-32 or local-header
# mismatch, a truncated member, an encryption flag or a compression
# method that np.savez does not write, or an npy header that does not
# parse or that claims more entries than memory holds (numpy allocates
# them before it reads any).
_READ_ERRORS = (
    zipfile.BadZipFile, EOFError, OSError, ValueError, NotImplementedError,
    RuntimeError, MemoryError, zlib.error, lzma.LZMAError,
)


def load_checkpoint(path) -> Checkpoint:
    try:
        archive = zipfile.ZipFile(path)
    except (EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"{path}: not a checkpoint archive ({err})") from None
    with archive:
        members = set(archive.namelist())
        read = set()

        def data(key: str, kind: str, shape=None) -> np.ndarray:
            """The array under ``key``, of dtype kind ``kind`` ("i" or "f"):
            of ``shape`` and finite when a shape is given, as parameters and
            bank arrays are. The member is read whole, so its CRC-32 is
            checked."""
            name = f"{key}.npy"
            if name not in members:
                raise CheckpointError(f"{path}: missing key {key!r}")
            read.add(name)
            try:
                a = np.lib.format.read_array(io.BytesIO(archive.read(name)))
            except _READ_ERRORS as err:
                raise CheckpointError(
                    f"{path}: cannot read {key!r} ({err or type(err).__name__})"
                ) from None
            if a.dtype.kind != kind:
                raise CheckpointError(
                    f"{path}: {key!r} holds {a.dtype}, not "
                    + ("integers" if kind == "i" else "floats")
                )
            if shape is None:
                return a
            if a.shape != shape:
                raise CheckpointError(
                    f"{path}: {key!r} has shape {a.shape}, the metadata implies {shape}"
                )
            if not np.isfinite(a).all():
                raise CheckpointError(f"{path}: {key!r} holds non-finite values")
            return a

        def scalar(key: str, kind: str):
            return data(key, kind, (1,))[0]

        version = int(scalar("meta.version", "i"))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        c = int(scalar("meta.num_classes", "i"))
        if c < 1:
            raise CheckpointError(f"{path}: 'meta.num_classes' is {c}, not >= 1")
        input_dim = int(scalar("meta.input_dim", "i"))
        feature_dim = int(scalar("meta.feature_dim", "i"))
        dropout_p = float(scalar("meta.dropout_p", "f"))
        hidden = data("meta.hidden_dims", "i")
        try:
            cfg = ExtractorConfig(
                input_dim=input_dim,
                hidden_dims=tuple(int(h) for h in hidden),
                feature_dim=feature_dim,
                dropout_p=dropout_p,
            )
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: invalid metadata ({err})") from None
        f = cfg.feature_dim
        # The network names and shapes each parameter, and each array is
        # checked before the next is read: the metadata allocates nothing.
        model = Model.build(
            cfg, c,
            lambda name, shape, _: ad.leaf(data(f"param.{name}", "f", shape), name),
        )
        bank = None
        if "bank.prototypes.npy" in members:
            bank = PrototypeBank(
                prototypes=data("bank.prototypes", "f", (c, f)),
                similarity=data("bank.similarity", "f", (c, c)),
                blended=data("bank.blended", "f", (c, f)),
                epoch=int(scalar("bank.epoch", "i")),
            )
        modulation = None
        # A bank is only read through the modulation weights.
        if bank is not None or "param.modulator.weights.npy" in members:
            modulation = ModulationMatrix.from_values(
                data("param.modulator.weights", "f", (c, f))
            )
        # A member no key above names (a renamed bank array, say) would
        # otherwise be skipped, and the file read as something else.
        if members - read:
            raise CheckpointError(
                f"{path}: unexpected member(s) {', '.join(sorted(members - read))}"
            )
    return Checkpoint(model=model, modulation=modulation, bank=bank)
