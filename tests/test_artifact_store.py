"""Disk-streamed artifact spill: round trip, ownership, and the
lazy CellResults view."""

import gc
import os
import pickle

import pytest

from repro.experiments.spec import CellResults
from repro.interop.runner import Scenario
from repro.runtime import (
    ArtifactLevel,
    ArtifactStore,
    Cell,
    MatrixRunner,
    execute_cell,
    run_cells_streamed,
)


#: What a dump that hits an unpicklable attribute may raise.
PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def _artifacts(level=ArtifactLevel.STATS, seed=0):
    return execute_cell(Scenario(), seed, level)


def test_put_get_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path / "spill"))
    original = _artifacts(ArtifactLevel.TRACE)
    handle = store.put(original)
    assert handle.nbytes > 0
    assert store.bytes_written == handle.nbytes
    assert len(store) == 1
    loaded = store.get(handle)
    assert loaded.seed == original.seed
    assert loaded.client_stats == original.client_stats
    assert loaded.client_qlog_events is not None
    assert len(loaded.trace_records) == len(original.trace_records)


def test_owned_tempdir_removed_on_close():
    store = ArtifactStore()
    root = store.root
    store.put(_artifacts())
    assert os.path.isdir(root)
    store.close()
    assert not os.path.exists(root)
    assert store.closed


def test_caller_supplied_root_survives_close(tmp_path):
    root = tmp_path / "keep"
    with ArtifactStore(str(root)) as store:
        store.put(_artifacts())
    assert list(root.glob("cell-*.pkl"))


def test_full_level_artifacts_rejected():
    with ArtifactStore() as store:
        with pytest.raises(ValueError, match="full"):
            store.put(_artifacts(ArtifactLevel.FULL))


def _unpicklable_artifacts():
    bad = _artifacts()
    # A few hundred KB of picklable payload followed by an unpicklable
    # tail: the dump writes real bytes, then dies mid-stream.
    bad.trace_records = [b"x" * 300_000, lambda: None]
    return bad


def test_interrupted_put_leaves_no_truncated_cell(tmp_path):
    """A pickle that dies mid-stream (process kill, unpicklable
    attribute, full disk) must never leave a partial cell-NNNNNN.pkl
    for a later get() to unpickle as garbage: the write goes to a temp
    file and only an atomic rename publishes it."""
    root = tmp_path / "spill"
    store = ArtifactStore(str(root))
    with pytest.raises(PICKLE_ERRORS):
        store.put(_unpicklable_artifacts())
    # No cell file, no temp leftover, no phantom accounting.
    assert list(root.iterdir()) == []
    assert len(store) == 0 and store.bytes_written == 0
    # The interrupted index is reused by the next successful put.
    good = _artifacts(seed=3)
    handle = store.put(good)
    assert handle.index == 0
    assert store.get(handle).client_stats == good.client_stats
    store.close()


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_put_get_leave_gc_state_as_found(tmp_path, gc_state, enabled):
    """put/get pause the cyclic GC around (un)pickling and hand the
    caller's setting back, including a caller that had it off."""
    (gc.enable if enabled else gc.disable)()
    with ArtifactStore(str(tmp_path / "spill")) as store:
        handle = store.put(_artifacts(ArtifactLevel.TRACE))
        assert gc.isenabled() is enabled
        store.get(handle)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_put_leaves_gc_state_as_found(tmp_path, gc_state, enabled):
    (gc.enable if enabled else gc.disable)()
    with ArtifactStore(str(tmp_path / "spill")) as store:
        with pytest.raises(PICKLE_ERRORS):
            store.put(_unpicklable_artifacts())
        assert gc.isenabled() is enabled


def test_failed_get_leaves_gc_state_as_found(tmp_path, gc_state):
    gc.enable()
    with ArtifactStore(str(tmp_path / "spill")) as store:
        handle = store.put(_artifacts())
        with open(handle.path, "r+b") as cell:
            cell.truncate(handle.nbytes // 2)
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            store.get(handle)
        assert gc.isenabled()


def test_closed_store_rejects_io():
    store = ArtifactStore()
    handle = store.put(_artifacts())
    store.close()
    with pytest.raises(ValueError, match="closed"):
        store.put(_artifacts())
    with pytest.raises(ValueError, match="closed"):
        store.get(handle)


def test_run_cells_streamed_batches_and_preserves_order(tmp_path):
    cells = [Cell(Scenario(), seed) for seed in range(5)]
    with ArtifactStore(str(tmp_path / "s")) as store:
        with MatrixRunner(workers=0) as runner:
            handles = run_cells_streamed(runner, cells, store, batch_size=2)
        assert len(handles) == 5
        view = CellResults(handles, store=store)
        assert view.spilled_count == 5
        assert [a.seed for a in view] == [0, 1, 2, 3, 4]
        # groups load one chunk at a time and match direct execution
        direct = [execute_cell(c.scenario, c.seed, ArtifactLevel.STATS) for c in cells]
        for group, expected in zip(view.groups(5), [direct]):
            assert [a.client_stats for a in group] == [
                e.client_stats for e in expected
            ]


def test_cell_results_mixed_entries(tmp_path):
    in_memory = _artifacts(seed=1)
    with ArtifactStore(str(tmp_path / "s")) as store:
        handle = store.put(_artifacts(seed=2))
        view = CellResults([in_memory, handle], store=store)
        assert view.spilled_count == 1
        assert [a.seed for a in view] == [1, 2]
        assert view[1].seed == 2
        # slicing loads handles too, never leaking raw entries
        assert [a.seed for a in view[0:2]] == [1, 2]
        assert view[1:2][0].client_stats == view[1].client_stats


def test_cell_results_handle_without_store_raises():
    store = ArtifactStore()
    handle = store.put(_artifacts())
    view = CellResults([handle])
    with pytest.raises(ValueError, match="store"):
        view[0]
    store.close()
