"""The sweep checkpoint: a result store at the ``--checkpoint`` path.

A checkpoint is a :class:`~repro.store.cas.ResultStore` rooted at the
checkpoint path (a directory), so each executed cell is one durable,
checksummed object at a content address that covers the settings
fingerprint and the simulator version::

    <path>/objects/<aa>/<address>.json

:class:`~repro.experiments.runner.SweepRunner` saves every cell the
moment it commits -- one O(1) write per cell, never a rewrite of the
cells already saved -- and a resumed runner reads cells through the
checkpoint on demand.  Reads fail soft like every store read: a
missing, torn, or tampered object, or one minted under other sweep
settings or another simulator version, is a miss; a bad checkpoint can
cost re-execution, never correctness.  Writes go through
:mod:`repro.resilience.diskio` (temp file + fsync + atomic rename +
directory fsync) at site ``checkpoint``, so a writer killed mid-save
loses at most that one cell and leaves an orphaned temp for the next
startup sweep.  Concurrent writers need no lock: identical cells make
identical bytes at the same address.
"""

from __future__ import annotations

import os
from pathlib import Path

# perfbench encodes its reference results through these names.
from repro.store.cas import (  # noqa: F401
    ResultStore,
    encode_cpu_result,
    encode_gpu_result,
)


def check_checkpoint_path(path: "str | os.PathLike") -> None:
    """Raise ``ValueError`` naming ``path`` if it is an existing regular
    file -- such as a single-file checkpoint from an older version."""
    if Path(path).is_file():
        raise ValueError(
            f"checkpoint path {path} is an existing file, not a "
            "checkpoint directory (a single-file checkpoint from an "
            "older version?); pass a new path or remove the file"
        )


class SweepCheckpoint(ResultStore):
    """A :class:`ResultStore` whose disk I/O reports as ``checkpoint``."""

    site = "checkpoint"

    def __init__(self, path: "str | os.PathLike"):
        check_checkpoint_path(path)
        super().__init__(path)

    #: One cell's durable write: the store's ``put`` under its own name,
    #: so profiles tell checkpoint flushes apart from store writes.
    save = ResultStore.put
