"""Model persistence (Algorithm 1's ``model_save``) and training resume.

Checkpoints store the feature matrices (at their native precision, so fp16
models stay half-sized on disk too), the training epoch, and arbitrary JSON
metadata. Loading restores a :class:`~repro.core.model.FactorModel` that
``CuMFSGD.fit(warm_start=True)`` can continue training.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.model import FactorModel

__all__ = ["Checkpoint", "save_model", "load_model"]

_FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """A loaded checkpoint: the model plus its training context."""

    model: FactorModel
    epoch: int = 0
    metadata: dict = field(default_factory=dict)


def save_model(
    path: str | Path,
    model: FactorModel,
    epoch: int = 0,
    metadata: dict | None = None,
) -> Path:
    """Write a checkpoint to ``path`` (``.npz``). Returns the path written.

    A missing parent directory is created. The write is atomic: bytes land
    in a temporary sibling file which is fsynced and then ``os.replace``d
    over ``path``, so a crash mid-save can truncate only the temporary — the
    previous checkpoint (recovery's rollback target) survives intact.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    meta = dict(metadata or {})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            # uncompressed: trained fp32 factors barely shrink under zlib,
            # which would cost more than the rest of the save
            np.savez(
                fh,
                p=model.p,
                q=model.q,
                epoch=np.int64(epoch),
                version=np.int64(_FORMAT_VERSION),
                metadata=np.array(json.dumps(meta)),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def load_model(path: str | Path) -> Checkpoint:
    """Load a checkpoint written by :func:`save_model`."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as z:
        version = int(z["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {version} unsupported (expected {_FORMAT_VERSION})"
            )
        model = FactorModel(p=z["p"].copy(), q=z["q"].copy())
        return Checkpoint(
            model=model,
            epoch=int(z["epoch"]),
            metadata=json.loads(str(z["metadata"])),
        )
