"""Parallel execution of scenario matrices.

The paper's results come from sweeping a scenario matrix — 8 clients ×
{WFC, IACK} × HTTP versions × RTTs × loss patterns, each repeated with
distinct seeds (§3). Every cell is an independent deterministic
simulation, so the sweep is embarrassingly parallel:

* :class:`MatrixRunner` expands ``(scenario × seed)`` cells, fans them
  out in contiguous chunks over an
  :class:`~repro.runtime.backend.ExecutionBackend` — the in-process
  pool by default, or any pluggable backend such as the multi-host
  :class:`~repro.runtime.distributed.SocketBackend` — and returns
  results in cell order. Seeds are assigned ``base_seed + repetition``
  exactly like the serial :meth:`Runner.run_repetitions`, so per-seed
  ``ConnectionStats`` are bit-identical to the serial path regardless
  of worker count, chunking, or execution host.
* A shared :class:`~repro.runtime.cache.ResultCache` (optional) memoizes
  cells by scenario *value*, so sweeps that revisit shared baselines
  (fig12 ⊃ fig6, fig13 ⊃ fig7) skip recomputation.
* :func:`parallel_map` is the generic coarse-grained fan-out used by
  the wild-measurement experiments (one task per vantage/day pass).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts, execute_cell
from repro.runtime.backend import ExecutionBackend, LocalBackend, ResultObserver, process_pool
from repro.runtime.batch_engine import ENGINE_SCALAR, BatchEngine, coerce_engine, execute_cells
from repro.runtime.cache import ResultCache
from repro.runtime.events import CellCompleted, EventSink, emit
from repro.runtime.worker import IndexedCell, call_task

#: Per-cell result hook of :meth:`MatrixRunner.run_cells`:
#: ``(index, artifacts) -> entry``.
ResultSink = Callable[[int, RunArtifacts], Any]


@dataclass(frozen=True)
class Cell:
    """One point of the scenario matrix."""

    scenario: Scenario
    seed: int


def _group_pending(
    pending: Sequence[IndexedCell],
) -> List[Tuple[Scenario, List[IndexedCell]]]:
    """Consecutive same-scenario runs of the pending list (identity
    grouping, mirroring :func:`repro.runtime.worker.group_cells`)."""
    groups: List[Tuple[Scenario, List[IndexedCell]]] = []
    last_id: Optional[int] = None
    for item in pending:
        if last_id != id(item[1]):
            groups.append((item[1], []))
            last_id = id(item[1])
        groups[-1][1].append(item)
    return groups


def default_workers() -> int:
    """Worker count when the caller passes ``workers=None`` ("parallel,
    you pick"): the CPU count, capped to keep fork storms bounded."""
    return min(8, os.cpu_count() or 1)


class MatrixRunner:
    """Executes scenario cells serially or across worker processes.

    ``workers <= 1`` executes in-process (no pool, no pickling) — the
    deterministic reference path. ``workers >= 2`` dispatches chunks to
    a lazily created :class:`LocalBackend` process pool that is reused
    across calls; close the runner (or use it as a context manager) to
    reap it. ``workers=None`` picks :func:`default_workers`.

    ``backend`` plugs in a caller-owned
    :class:`~repro.runtime.backend.ExecutionBackend` instead — e.g. a
    :class:`~repro.runtime.distributed.SocketBackend` serving chunks to
    remote hosts. The caller keeps ownership (the runner never closes
    it), chunk sizing follows the backend's reported parallelism, and
    every non-cached cell is routed through it regardless of
    ``workers``.

    ``artifact_level`` selects what each run retains (see
    :class:`~repro.runtime.artifacts.ArtifactLevel`); ``full`` keeps
    live endpoint objects and therefore forces in-process execution.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        artifact_level: Union[ArtifactLevel, str] = ArtifactLevel.STATS,
        base_seed: int = 0,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
        on_event: Optional[EventSink] = None,
        engine: Optional[str] = None,
    ):
        if workers is None:
            workers = default_workers()
        if workers < 0:
            raise ValueError("workers must be >= 0 (or None for auto)")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive when given")
        self.workers = workers
        self.artifact_level = ArtifactLevel.coerce(artifact_level)
        self.base_seed = base_seed
        self.cache = cache
        self.chunk_size = chunk_size
        self.backend = backend
        #: Per-cell execution engine: ``"scalar"`` (the reference
        #: simulator) or ``"batch"`` (vectorized affine replay with
        #: scalar fallback — see :mod:`repro.runtime.batch_engine`).
        self.engine = coerce_engine(engine)
        #: Optional run-event observer: per-cell progress on the serial
        #: path, per-chunk progress via the owned pool backend. A
        #: caller-supplied ``backend`` keeps whatever sink its owner
        #: attached (see :meth:`ExecutionBackend.set_event_sink`).
        self.on_event = on_event
        #: Optional durable result observer (suite checkpoint
        #: journaling): called with batches of freshly *computed*
        #: ``(index, artifacts)`` pairs as they complete — cache hits
        #: never pass through it. Attached to the backend for the
        #: duration of each :meth:`run_cells` call; see
        #: :meth:`~repro.runtime.backend.ExecutionBackend.set_result_observer`.
        self.result_observer: Optional[ResultObserver] = None
        self._owned_backend: Optional[LocalBackend] = None
        if self.artifact_level is ArtifactLevel.FULL and (workers > 1 or backend is not None):
            raise ValueError(
                "artifact level 'full' retains live endpoint objects and "
                "cannot cross process boundaries; use workers<=1 or a "
                "slimmer level"
            )

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "MatrixRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the owned worker pool (idempotent). A
        caller-supplied ``backend`` stays open — its owner closes it."""
        if self._owned_backend is not None:
            self._owned_backend.close()
            self._owned_backend = None

    def _get_backend(self) -> ExecutionBackend:
        if self.backend is not None:
            return self.backend
        if self._owned_backend is None:
            self._owned_backend = LocalBackend(self.workers)
            self._owned_backend.set_event_sink(self.on_event)
        return self._owned_backend

    # -- core execution -------------------------------------------------

    def run_cells(self, cells: Sequence[Cell], sink: Optional[ResultSink] = None) -> List[Any]:
        """Run every cell, returning results in cell order.

        ``sink(index, artifacts)``, when given, receives each cell as
        soon as it is available, and its return value takes the
        artifacts' place in the returned list. In-process runs hand a
        cell over before executing the next one, so a sink that spills
        to disk keeps one cell's artifacts alive (plus any cells a
        :attr:`result_observer` is still batching); backends hand over
        each returned batch.
        """
        level = self.artifact_level
        results: List[Any] = [None] * len(cells)
        pending: List[IndexedCell] = []
        keys: List[Optional[Tuple[Any, ...]]] = [None] * len(cells)
        cache = self.cache
        for i, cell in enumerate(cells):
            if cache is not None:
                key = cache.make_key(cell.scenario, cell.seed, level, engine=self.engine)
                keys[i] = key
                hit = cache.get(key)
                if hit is not None:
                    results[i] = sink(i, hit) if sink is not None else hit
                    continue
            pending.append((i, cell.scenario, cell.seed))
        if not pending:
            return results

        def keep(i: int, artifacts: RunArtifacts) -> None:
            if cache is not None:
                cache.put(keys[i], artifacts)
            results[i] = sink(i, artifacts) if sink is not None else artifacts

        if self.workers > 1 or self.backend is not None:
            for i, artifacts in self._run_parallel(pending):
                # Workers strip the scenario from the response pickle;
                # restore it from the authoritative cell list.
                artifacts.scenario = cells[i].scenario
                keep(i, artifacts)
        else:
            observer = self.result_observer
            journal: List[Tuple[int, RunArtifacts]] = []
            done = 0

            def finish(i: int, artifacts: RunArtifacts) -> None:
                nonlocal done, journal
                done += 1
                keep(i, artifacts)
                if self.on_event is not None:
                    emit(
                        self.on_event,
                        CellCompleted(completed=done, total=len(pending)),
                    )
                if observer is not None:
                    # Journal in small batches: one disk write per
                    # cell would dominate sub-millisecond cells,
                    # while a single end-of-run write would lose
                    # everything to a crash.
                    journal.append((i, artifacts))
                    if len(journal) >= 32:
                        observer(journal)
                        journal = []

            if self.engine != ENGINE_SCALAR:
                # Cell expansion is scenario-major, so consecutive
                # pending cells of one scenario form the engine's
                # lockstep groups; one BatchEngine reuses skeleton
                # probes across groups of the same call.
                batch = BatchEngine()
                for scenario, group in _group_pending(pending):
                    pairs = [(i, seed) for i, _scenario, seed in group]
                    for i, artifacts in execute_cells(
                        scenario, pairs, level, engine=self.engine, batch_engine=batch
                    ):
                        finish(i, artifacts)
            else:
                for i, scenario, seed in pending:
                    finish(i, execute_cell(scenario, seed, level))
            if observer is not None and journal:
                observer(journal)
        return results

    def _run_parallel(self, pending: Sequence[IndexedCell]) -> List[Tuple[int, RunArtifacts]]:
        # The backend owns chunking: an explicit chunk_size pins fixed
        # slices everywhere, while chunk_size=None lets throughput-aware
        # backends (the distributed coordinator) size each worker's
        # chunks adaptively. Either way results come back index-tagged,
        # so reassembly is identical.
        backend = self._get_backend()
        kwargs: dict = {"chunk_size": self.chunk_size}
        if self.engine != ENGINE_SCALAR:
            # Scalar runs keep the historical call shape so pre-engine
            # backend subclasses stay source-compatible.
            kwargs["engine"] = self.engine
        if self.result_observer is None:
            return backend.run_cells(pending, self.artifact_level.value, **kwargs)
        # Attach the durable observer for this call only, preserving
        # whatever the backend's owner had attached (a caller-owned
        # backend outlives this runner).
        previous = backend._result_observer
        backend.set_result_observer(self.result_observer)
        try:
            return backend.run_cells(pending, self.artifact_level.value, **kwargs)
        finally:
            backend.set_result_observer(previous)

    # -- convenience sweeps ---------------------------------------------

    def run_once(self, scenario: Scenario, seed: Optional[int] = None) -> RunArtifacts:
        """Run a single cell (API parity with the serial Runner)."""
        actual_seed = self.base_seed if seed is None else seed
        return self.run_cells([Cell(scenario, actual_seed)])[0]

    def run_repetitions(self, scenario: Scenario, repetitions: int = 100) -> List[RunArtifacts]:
        """The paper's repeat-with-distinct-seeds loop (§3), with the
        same ``base_seed + i`` assignment as the serial runner."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        cells = [Cell(scenario, self.base_seed + i) for i in range(repetitions)]
        return self.run_cells(cells)

    def run_matrix(
        self, scenarios: Sequence[Scenario], repetitions: int = 100
    ) -> List[List[RunArtifacts]]:
        """Run a whole scenario list in one fan-out.

        Returns one result list per scenario, aligned with the input
        order — the preferred entry point for experiments, since the
        entire matrix shares a single dispatch round."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        cells = [
            Cell(scenario, self.base_seed + rep)
            for scenario in scenarios
            for rep in range(repetitions)
        ]
        flat = self.run_cells(cells)
        return [flat[start : start + repetitions] for start in range(0, len(flat), repetitions)]


#: Input shared with pool workers via the initializer mechanism of
#: :func:`parallel_map` — see :func:`set_shared_input`.
_SHARED_INPUT: Any = None


def set_shared_input(value: Any) -> None:
    """Stash a large shared input (e.g. a parsed domain list) for
    :func:`get_shared_input` in workers.

    Pass as ``parallel_map(..., initializer=set_shared_input,
    initargs=(value,))``: under a fork context workers inherit the
    object for free; under spawn it is shipped once per worker instead
    of once per task. The serial path runs the initializer in-process,
    so task functions can read it unconditionally.
    """
    global _SHARED_INPUT
    _SHARED_INPUT = value


def get_shared_input() -> Any:
    """The value stashed by :func:`set_shared_input`, or ``None`` in a
    pool that was created without the initializer (task functions
    should fall back to recomputing)."""
    return _SHARED_INPUT


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: Optional[int] = 0,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> List[Any]:
    """Apply a module-level function to argument tuples, preserving
    task order.

    Used by the wild-measurement experiments for coarse-grained passes
    (one task per vantage × day). With ``workers <= 1`` this is a plain
    loop; tasks must be sliced so that any stream-based determinism
    (e.g. the batch scan engine's per-pass rng) lives entirely inside
    one task — results are then independent of the worker count.

    ``initializer(*initargs)`` runs once per worker (and once in the
    caller for the serial path) — the hook for shipping a shared input
    like a parsed domain list without re-pickling it per task; see
    :func:`set_shared_input`. ``workers=None`` picks
    :func:`default_workers`.
    """
    if workers is None:
        workers = default_workers()
    try:
        if workers <= 1 or len(tasks) <= 1:
            if initializer is not None:
                initializer(*initargs)
            return [fn(*args) for args in tasks]
        with process_pool(min(workers, len(tasks)), initializer, initargs) as pool:
            futures = [pool.submit(call_task, fn, tuple(args)) for args in tasks]
            return [future.result() for future in futures]
    finally:
        if initializer is set_shared_input:
            # Drop the parent-process stash: retaining it would pin a
            # potentially large input for the process lifetime and let
            # a later task function's None-fallback read stale data.
            set_shared_input(None)
