"""Disk-backed spill store for :class:`~repro.runtime.artifacts.RunArtifacts`.

Trace-level sweeps retain the full packet trace and both endpoints'
qlog event lists per cell; a whole-matrix sweep at that level does not
fit in memory once the matrix grows past a few thousand cells. The
:class:`ArtifactStore` streams each cell's artifacts to one pickle
file in a spill directory and hands back a tiny
:class:`ArtifactHandle`; consumers re-load cells on demand (the
:class:`~repro.experiments.spec.CellResults` view loads one
per-scenario group at a time). In-process runs spill each cell as soon
as it finishes, so peak memory is one cell on the producing side (one
chunk batch when a worker backend computes the cells) plus one group
on the consuming side. A checkpointed suite also keeps the up to 32
cells its journal batches between writes.

The store owns its directory when it created it (the default:
``tempfile.mkdtemp``) and deletes it on :meth:`close`; a caller-supplied
``root`` is left on disk for post-run inspection.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts


@dataclass(frozen=True)
class ArtifactHandle:
    """Reference to one spilled cell: the file plus its size."""

    index: int
    path: str
    nbytes: int


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep the cyclic GC out of one (un)pickle, then restore the
    caller's setting.

    A trace-level cell unpickles into tens of thousands of tracked
    objects, and each allocation counts toward the next collection,
    so one ``get`` used to trigger several full passes over the whole
    heap. Those passes cannot free anything: every object a load
    creates stays reachable from the unpickler until it returns, and a
    dump allocates almost nothing. Any collection the pause defers
    runs at the next allocation after it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ArtifactStore:
    """Streams :class:`RunArtifacts` to an on-disk spill directory.

    ``put`` pickles one cell to ``cell-NNNNNN.pkl`` and returns an
    :class:`ArtifactHandle`; ``get`` loads it back. ``full``-level
    artifacts embed live endpoint objects and cannot be pickled, so
    storing them is rejected up front with a clear error.
    """

    def __init__(self, root: Optional[str] = None):
        if root is None:
            self.root = tempfile.mkdtemp(prefix="repro-spill-")
            self._owns_root = True
        else:
            os.makedirs(root, exist_ok=True)
            self.root = root
            self._owns_root = False
        self._count = 0
        self.bytes_written = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Delete the spill directory if this store created it."""
        if self._closed:
            return
        self._closed = True
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self._count

    # -- spill / load ---------------------------------------------------

    def put(self, artifacts: RunArtifacts) -> ArtifactHandle:
        """Spill one cell's artifacts to disk, returning its handle."""
        if self._closed:
            raise ValueError("artifact store is closed")
        if artifacts.level is ArtifactLevel.FULL:
            raise ValueError(
                "artifact level 'full' retains live endpoint objects and "
                "cannot be spilled to disk; use 'stats' or 'trace'"
            )
        index = self._count
        path = os.path.join(self.root, f"cell-{index:06d}.pkl")
        # Spill via a same-directory temp file + atomic rename: an
        # interrupted pickle (process kill, unpicklable attribute, full
        # disk) must never leave a truncated cell-NNNNNN.pkl that a
        # later get() happily unpickles into garbage. Either the final
        # file exists complete, or it does not exist at all.
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle_file, _gc_paused():
                pickle.dump(artifacts, handle_file, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        nbytes = os.path.getsize(path)
        self._count += 1
        self.bytes_written += nbytes
        return ArtifactHandle(index=index, path=path, nbytes=nbytes)

    def get(self, handle: ArtifactHandle) -> RunArtifacts:
        """Load one spilled cell back into memory."""
        if self._closed:
            raise ValueError("artifact store is closed")
        with open(handle.path, "rb") as handle_file, _gc_paused():
            return pickle.load(handle_file)
