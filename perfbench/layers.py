"""Which program functions the traced run wraps, and the per-layer
metrics derived from their spans and counts.

Layers are the program's modules: ``interop`` (one cell = one
emulated connection), ``sim``, ``quic``, ``qlog``, ``runtime``,
``experiments`` and ``wild``. Every metric below is listed, with its
unit, in ``BENCHMARK.json``'s ``per_layer`` block; a traced run of any
workload reports all of them, and a layer the workload never calls
reads 0 (see ``ledger.json`` for which workload exercises which
layer).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from tracing import Hook

# -- counting callbacks -------------------------------------------------


def _count_cell(counts):
    def after(args: Tuple[Any, ...], result: Any, _token: Any) -> None:
        cs, ss = result.client_stats, result.server_stats
        counts["cells"] += 1
        counts["datagrams"] += cs.datagrams_sent + ss.datagrams_sent
        counts["probes"] += cs.probes_sent + ss.probes_sent
        counts["spurious"] += cs.spurious_retransmissions + ss.spurious_retransmissions
        counts["qlog_events"] += len(result.client_qlog.events) + len(result.server_qlog.events)
        counts["trace_records"] += len(result.tracer.records)

    return after


def _count_loop_events(counts):
    def before(args: Tuple[Any, ...]) -> int:
        return args[0].events_processed

    def after(args: Tuple[Any, ...], _result: Any, before_count: int) -> None:
        counts["sim_events"] += args[0].events_processed - before_count

    return before, after


def _count_store_put(counts):
    def after(_args: Tuple[Any, ...], handle: Any, _token: Any) -> None:
        counts["store_puts"] += 1
        counts["store_bytes"] += handle.nbytes

    return after


def _count_shard(counts):
    def after(_args: Tuple[Any, ...], outcome: Any, _token: Any) -> None:
        counts["shards"] += 1
        counts["shard_targets"] += outcome.shard_targets

    return after


def _count_study(counts):
    def after(_args: Tuple[Any, ...], samples: Any, _token: Any) -> None:
        counts["cf_conns"] += len(samples)

    return after


def cell_hooks(counts) -> List[Hook]:
    """The light hook set: one span per cell plus the exact counts.
    Its overhead is a few wrapper calls per connection, so cell times
    from it stand in for untraced compute."""
    loop_before, loop_after = _count_loop_events(counts)
    return [
        Hook(
            "repro.interop.runner:Runner.run_once",
            "interop.cell",
            after=_count_cell(counts),
            keep_all=True,
            keep_durations=True,
        ),
        Hook("repro.sim.engine:EventLoop.run", "sim.loop", loop_before, loop_after),
        Hook(
            "repro.runtime.store:ArtifactStore.put",
            "runtime.store.put",
            after=_count_store_put(counts),
            keep_all=True,
        ),
        Hook(
            "repro.wild.stream.shard:ShardProbeTask.execute_task",
            "wild.stream.shard",
            after=_count_shard(counts),
            flush=True,
            keep_all=True,
        ),
        Hook(
            "repro.wild.cloudflare:CloudflareLongitudinalStudy.run",
            "wild.cloudflare.study",
            after=_count_study(counts),
            keep_all=True,
        ),
    ]


def full_hooks(counts) -> List[Hook]:
    """Every layer boundary the per-layer metrics need."""
    return cell_hooks(counts) + [
        Hook("repro.sim.network:Network.send_from", "sim.network.send"),
        Hook("repro.sim.trace:Tracer.record", "sim.trace.record"),
        Hook("repro.quic.connection:Endpoint.on_datagram", "quic.on_datagram"),
        # on_datagram only queues the datagram behind the endpoint's
        # simulated processing delay; the receive work runs in the
        # callback it schedules.
        Hook("repro.quic.connection:Endpoint._process_datagram", "quic.process_datagram"),
        Hook("repro.quic.connection:Endpoint.send_packets", "quic.send_packets"),
        Hook("repro.quic.recovery:Recovery.on_ack_received", "quic.recovery.on_ack"),
        Hook("repro.quic.recovery:Recovery.on_packet_sent", "quic.recovery.on_packet_sent"),
        Hook("repro.quic.recovery:Recovery.detect_lost_on_timer", "quic.recovery.timer_loss"),
        Hook("repro.qlog.writer:QlogWriter.log_packet", "qlog.log"),
        Hook("repro.qlog.writer:QlogWriter.log_metrics", "qlog.log"),
        Hook("repro.runtime.suite:SuiteRunner.plan", "runtime.plan", keep_all=True),
        Hook("repro.runtime.store:ArtifactStore.get", "runtime.store.get", keep_all=True),
        Hook("repro.runtime.wire:encode_payload", "runtime.wire.encode", keep_all=True),
        Hook("repro.runtime.wire:decode_payload", "runtime.wire.decode", keep_all=True),
        Hook("repro.wild.tranco:TrancoGenerator.domain_at", "wild.tranco.domain"),
        Hook("repro.wild.qscanner:QScanner.probe_one", "wild.qscanner.probe"),
        Hook("repro.wild.stream.sketch:ScanSketch.observe_target", "wild.stream.sketch"),
        Hook("repro.wild.stream.sketch:ScanSketch.observe_probe", "wild.stream.sketch"),
        Hook("repro.wild.stream.sketch:ScanSketch.observe_domain_iack", "wild.stream.sketch"),
        Hook("repro.wild.stream.sketch:ScanSketch.merge", "wild.stream.sketch", keep_all=True),
    ]


def wrap_aggregators(tracer) -> None:
    """Span every registered experiment's ``aggregate``."""
    from repro.experiments.registry import REGISTRY

    for spec in REGISTRY.specs():
        tracer.wrap_spec_field(spec, "aggregate", "experiments.aggregate")


# -- metric derivation ----------------------------------------------------

#: Exact simulated counts: identical across runs at one seed, and
#: unchanged by any speed-only change.
DETERMINISTIC = (
    "sim.events_per_cell",
    "quic.datagrams_per_cell",
    "quic.probes_per_cell",
    "quic.spurious_retx_frac",
    "qlog.events_per_cell",
    "sim.trace.records_per_cell",
    "runtime.store.bytes_per_cell",
    "wild.stream.shards",
)


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def count_metrics(counts: Mapping[str, int]) -> Dict[str, float]:
    """The deterministic per-cell counts (see :data:`DETERMINISTIC`)."""
    cells = counts.get("cells", 0)
    return {
        "sim.events_per_cell": _div(counts.get("sim_events", 0), cells),
        "quic.datagrams_per_cell": _div(counts.get("datagrams", 0), cells),
        "quic.probes_per_cell": _div(counts.get("probes", 0), cells),
        "quic.spurious_retx_frac": _div(counts.get("spurious", 0), counts.get("probes", 0)),
        "qlog.events_per_cell": _div(counts.get("qlog_events", 0), cells),
        "sim.trace.records_per_cell": _div(counts.get("trace_records", 0), cells),
        "runtime.store.bytes_per_cell": _div(
            counts.get("store_bytes", 0), counts.get("store_puts", 0)
        ),
        "wild.stream.shards": float(counts.get("shards", 0)),
    }


def layer_metrics(
    stats: Mapping[str, Tuple[int, float, float]],
    light_stats: Mapping[str, Tuple[int, float, float]],
    counts: Mapping[str, int],
    cell_seconds: List[float],
) -> Dict[str, float]:
    """Per-layer metrics of one fully traced request.

    ``stats`` maps span name to ``(calls, total s, self s)`` in the
    fully traced request; ``light_stats`` and ``cell_seconds`` come
    from the request run with cell-level hooks only, whose times are
    close to untraced. Times per call are self times unless the name
    says otherwise.
    """

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    def us_per_call(name: str) -> float:
        return _div(self_s(name), calls(name)) * 1e6

    def ms_per_call(name: str) -> float:
        return _div(self_s(name), calls(name)) * 1e3

    cells = counts.get("cells", 0)
    probes = calls("wild.qscanner.probe")
    out = {
        "interop.cell_ms_p50": _quantile(cell_seconds, 0.50) * 1e3,
        "interop.cell_ms_p99": _quantile(cell_seconds, 0.99) * 1e3,
        # Inclusive host time inside the loop per executed event.
        "sim.us_per_event": _div(
            light_stats.get("sim.loop", (0, 0.0, 0.0))[1], counts.get("sim_events", 0)
        )
        * 1e6,
        "sim.network.send_us": us_per_call("sim.network.send"),
        "sim.trace.record_us": us_per_call("sim.trace.record"),
        "quic.on_datagram_us": _div(
            self_s("quic.on_datagram") + self_s("quic.process_datagram"),
            calls("quic.on_datagram"),
        )
        * 1e6,
        "quic.send_packets_us": us_per_call("quic.send_packets"),
        "quic.recovery.on_ack_us": us_per_call("quic.recovery.on_ack"),
        "quic.recovery.on_packet_sent_us": us_per_call("quic.recovery.on_packet_sent"),
        "quic.recovery.timer_loss_us": us_per_call("quic.recovery.timer_loss"),
        "quic.recovery.on_ack_calls_per_cell": _div(calls("quic.recovery.on_ack"), cells),
        "quic.recovery.on_packet_sent_calls_per_cell": _div(
            calls("quic.recovery.on_packet_sent"), cells
        ),
        "quic.recovery.timer_loss_calls_per_cell": _div(
            calls("quic.recovery.timer_loss"), cells
        ),
        "qlog.log_us": us_per_call("qlog.log"),
        "runtime.plan_ms": ms_per_call("runtime.plan"),
        "runtime.store.put_ms": ms_per_call("runtime.store.put"),
        "runtime.store.get_ms": ms_per_call("runtime.store.get"),
        "experiments.aggregate_ms": self_s("experiments.aggregate") * 1e3,
        "runtime.wire.encode_ms": self_s("runtime.wire.encode") * 1e3,
        "runtime.wire.decode_ms": self_s("runtime.wire.decode") * 1e3,
        "wild.tranco.us_per_domain": us_per_call("wild.tranco.domain"),
        "wild.qscanner.us_per_probe": us_per_call("wild.qscanner.probe"),
        "wild.stream.sketch_us_per_probe": _div(self_s("wild.stream.sketch"), probes) * 1e6,
        "wild.cloudflare.us_per_conn": _div(
            total("wild.cloudflare.study"), counts.get("cf_conns", 0)
        )
        * 1e6,
    }
    out.update(count_metrics(counts))
    return out


def fleet_metrics(
    stats_delta: Mapping[str, int],
    completions: List[Tuple[float, str]],
    cells: int,
    workers: int,
    fleet_wall_s: float,
    compute_s: float,
    worker_cache_hits: int,
) -> Dict[str, float]:
    """Wire, scheduler and fleet metrics of one distributed request.

    ``completions`` are ``(perf_counter time, worker)`` pairs of the
    request's public ``ChunkCompleted`` events; the tail runs from the
    first worker's last completion to the last result.
    The projected speed-ups are derived, not measured: an N-worker
    fleet is modelled as N workers that each pay compute plus the
    measured per-cell overhead.
    """
    dispatched = stats_delta.get("chunks_dispatched", 0)
    last_done: Dict[str, float] = {}
    for when, where in completions:
        last_done[where] = max(when, last_done.get(where, when))
    tail = max(last_done.values()) - min(last_done.values()) if last_done else 0.0
    compute_ms = _div(compute_s, cells) * 1e3
    overhead_ms = _div(fleet_wall_s * workers - compute_s, cells) * 1e3
    out = {
        "runtime.wire.chunk_raw_bytes_per_cell": _div(stats_delta.get("chunk_bytes_raw", 0), cells),
        "runtime.wire.chunk_wire_bytes_per_cell": _div(
            stats_delta.get("chunk_bytes_wire", 0), cells
        ),
        "runtime.wire.result_raw_bytes_per_cell": _div(
            stats_delta.get("result_bytes_raw", 0), cells
        ),
        "runtime.wire.result_wire_bytes_per_cell": _div(
            stats_delta.get("result_bytes_wire", 0), cells
        ),
        "runtime.scheduler.chunks": float(dispatched),
        "runtime.scheduler.requeued_frac": _div(stats_delta.get("chunks_requeued", 0), dispatched),
        "runtime.scheduler.speculated_frac": _div(
            stats_delta.get("chunks_speculated", 0), dispatched
        ),
        "runtime.scheduler.tail_s": tail,
        "runtime.fleet.compute_ms_per_cell": compute_ms,
        "runtime.fleet.overhead_ms_per_cell": overhead_ms,
        "runtime.fleet.worker_cache_hits": float(worker_cache_hits),
    }
    for n in (2, 4, 8):
        out[f"runtime.fleet.projected_speedup_{n}w"] = _div(
            n * compute_ms, compute_ms + max(overhead_ms, 0.0)
        )
    return out


def unattributed(
    stats: Mapping[str, Tuple[int, float, float]], root: str, remote_s: float
) -> float:
    """Share of the root span's wall time covered by no layer span.

    ``remote_s`` is layer time spent in other processes while the root
    waited: shard spans of forked scan workers, or a fleet's cell
    compute divided by its worker count.
    """
    _calls, total_s, self_s = stats.get(root, (0, 0.0, 0.0))
    return _div(max(0.0, self_s - remote_s), total_s)
