"""The repository's benchmark: end-to-end metrics per workload, and a
per-layer ledger from a separate traced run.

    python3 perfbench/run.py --workload handshake_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test     # tiny sizes, every metric emitted
    python3 perfbench/run.py --record        # refresh ledger.json (digests, counts, env)

``--trace 0`` repeats the workload's request until ``--seconds`` have
passed (at least three times) and reports medians of the end-to-end
metrics named in ``BENCHMARK.json``. ``--trace 1`` runs the request
untraced, then with cell-level hooks (exact counts and per-cell
times), then with every layer hook, and reports the ``per_layer``
metrics; the spans are written as Chrome trace-event JSON under
``perfbench/out/traces/``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

All load comes from this process plus at most two ``repro worker``
subprocesses, over loopback only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(HERE, "ledger.json")

MIN_REQUESTS = 3
MAX_REQUESTS = 40
SETUP_PROBES = 7


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def catalog() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name → unit maps."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> Dict[str, Any]:
    """Host facts that decide whether two result sets are comparable."""
    from repro.runtime.wire import available_codecs

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        # Looked up, not imported: importing numpy would inflate peak RSS.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "zstd": "zstd" in available_codecs(),
        "wire_codecs": available_codecs(),
        "traffic": "loopback (127.0.0.1) only",
    }


def setup_probes(count: int) -> Tuple[float, float]:
    """Median set-up seconds (import + registry + session ready) and
    median import seconds over ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    totals, imports = [], []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        phases = json.loads(out.strip().splitlines()[-1])
        totals.append(sum(phases.values()))
        imports.append(phases["import_s"])
    return statistics.median(totals), statistics.median(imports)


def run_request(workload: Any) -> Any:
    from workloads import Outcome

    started = time.perf_counter()
    try:
        return workload.request()
    except Exception as exc:  # a failed request is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Outcome(
            wall_s=time.perf_counter() - started,
            conns=workload.expected_conns,
            payload_mb=0.0,
            digest="",
            errors=[f"request raised {type(exc).__name__}: {exc}"],
        )


def expected(
    args: argparse.Namespace, ledger: Dict[str, Any]
) -> Tuple[Optional[str], Optional[Dict[str, float]]]:
    """The recorded bundle digest for this seed and the recorded exact
    counts (committed seed only), at full size under the Python
    version they were recorded with (pickle sizes may differ between
    versions)."""
    if args.tiny:
        return None, None
    if ledger.get("env", {}).get("python") != platform.python_version():
        print("# ledger.json was recorded under another Python; recorded checks skipped")
        return None, None
    digest = ledger.get("digests", {}).get(args.workload, {}).get(str(args.seed))
    counts = None
    if args.seed == ledger.get("committed_seed"):
        counts = ledger.get("counts", {}).get(args.workload)
    return digest, counts


def check_digests(outcomes: List[Any], expected: Optional[str]) -> None:
    first = next((o.digest for o in outcomes if o.digest), None)
    for outcome in outcomes:
        if outcome.digest and outcome.digest != first:
            outcome.errors.append("bundle digest differs between requests of one run")
        if expected and outcome.digest and outcome.digest != expected:
            outcome.errors.append("bundle digest differs from the one ledger.json records")


def measure(args: argparse.Namespace, workload: Any, ledger: Dict[str, Any]) -> Dict[str, Any]:
    """``--trace 0``: end-to-end metrics, tracing off."""
    workload.prepare()
    setup_s, _import_s = setup_probes(SETUP_PROBES)
    outcomes: List[Any] = []
    started = time.perf_counter()
    min_requests = 1 if args.tiny else MIN_REQUESTS
    while len(outcomes) < min_requests or time.perf_counter() - started < args.seconds:
        outcomes.append(run_request(workload))
        if len(outcomes) >= MAX_REQUESTS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.name == "fleet_sweep":
        setup_s += statistics.median(o.info.get("join_s", 0.0) for o in outcomes)
        peak_rss_mb += statistics.median(o.info.get("worker_rss_mb", 0.0) for o in outcomes)
        reference = run_request(workload.in_process())
        for outcome in outcomes:
            if outcome.digest != reference.digest:
                outcome.errors.append("fleet bundle differs from the in-process bundle")
    check_digests(outcomes, expected(args, ledger)[0])
    good = [o for o in outcomes if not o.errors]
    metrics = {
        "wall_s": statistics.median(o.wall_s for o in good) if good else 0.0,
        "conns_per_s": statistics.median(o.conns / o.wall_s for o in good) if good else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "requests": len(outcomes),
        "request_walls_s": [round(o.wall_s, 4) for o in outcomes],
        "sim_mb_per_s": statistics.median(o.payload_mb / o.wall_s for o in good) if good else 0.0,
    }
    return finish(outcomes, metrics, extra)


def trace(args: argparse.Namespace, workload: Any, ledger: Dict[str, Any]) -> Dict[str, Any]:
    """``--trace 1``: per-layer metrics from traced requests."""
    import layers
    from tracing import Hook, SpanTracer
    from workloads import FLEET_WORKERS, FleetSweep

    workload.prepare()
    _setup_s, import_s = setup_probes(3)
    fleet = isinstance(workload, FleetSweep)
    untraced = run_request(workload)

    # Cell-level hooks only: exact counts and near-untraced cell times.
    # For the fleet these come from the same cells run in-process.
    light = SpanTracer(args.scratch)
    light_counts = light.counts
    light.install(layers.cell_hooks(light_counts))
    try:
        counted = run_request(workload.in_process() if fleet else workload)
    finally:
        light.uninstall()
        light.absorb_children()
    cell_seconds = light.durations.get("interop.cell", [])

    tracer = SpanTracer(args.scratch)
    full_counts = tracer.counts
    tracer.install(layers.full_hooks(full_counts))
    layers.wrap_aggregators(tracer)
    # The root span: request to verified bundle.
    root = Hook("perfbench:request", "request", keep_all=True)
    try:
        traced = tracer.wrap(root, run_request)(workload)
    finally:
        tracer.uninstall()
        tracer.absorb_children()
    stats = tracer.stats()

    outcomes = [untraced, counted, traced]
    recorded_digest, recorded_counts = expected(args, ledger)
    check_digests(outcomes, recorded_digest)
    counts = layers.count_metrics(light_counts)
    if not fleet and counts != layers.count_metrics(full_counts):
        traced.errors.append("simulated counts differ between two requests at one seed")
    if recorded_counts is not None and recorded_counts != counts:
        traced.errors.append("simulated counts differ from ledger.json at the committed seed")
    if workload.name == "wild_scan" and light_counts["cf_conns"] != workload.study_conns:
        traced.errors.append("Cloudflare study connection count differs from the plan")

    metrics = layers.layer_metrics(
        stats, light.stats(), light_counts if fleet else full_counts, cell_seconds
    )
    metrics["runtime.dedup_frac"] = workload.dedup_frac
    if fleet:
        info = untraced.info
        metrics.update(
            layers.fleet_metrics(
                info.get("stats_delta", {}),
                info.get("completions", []),
                cells=workload.cells,
                workers=FLEET_WORKERS,
                fleet_wall_s=untraced.wall_s,
                compute_s=sum(cell_seconds),
                worker_cache_hits=info.get("worker_cache_hits", 0),
            )
        )
    else:
        metrics.update(layers.fleet_metrics({}, [], 0, 0, 0.0, 0.0, 0))
    metrics["setup.import_ms"] = import_s * 1e3
    metrics["setup.fleet_join_ms"] = untraced.info.get("join_s", 0.0) * 1e3
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s if untraced.wall_s else 0.0
    remote_s = (
        sum(cell_seconds) / FLEET_WORKERS
        if fleet
        else stats.get("wild.stream.shard", (0, 0.0, 0.0))[1]
    )
    metrics["trace.unattributed_frac"] = layers.unattributed(stats, "request", remote_s)

    os.makedirs(os.path.join(HERE, "out", "traces"), exist_ok=True)
    trace_path = os.path.join(HERE, "out", "traces", f"{workload.name}-seed{args.seed}.trace.json")
    events = tracer.write_chrome_trace(trace_path)
    print(f"# chrome trace: {os.path.relpath(trace_path, ROOT)} ({events} events)")
    if tracer.missing:
        print(f"# hooks not found (metrics read 0): {', '.join(tracer.missing)}")
    return finish(outcomes, metrics, {"requests": len(outcomes)})


def finish(outcomes: List[Any], metrics: Dict[str, float], extra: Dict[str, Any]) -> Dict[str, Any]:
    attempted = sum(o.conns for o in outcomes)
    failed = sum(o.conns for o in outcomes if o.errors)
    for outcome in outcomes:
        for error in outcome.errors:
            print(f"# check failed: {error}")
    extra["failed_frac"] = failed / attempted if attempted else 1.0
    return {
        "digest": next((o.digest for o in outcomes if o.digest), ""),
        "correct": not any(o.errors for o in outcomes),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }


def emit(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """Print the human table and return the contract's result object."""
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"# metrics not produced: {', '.join(missing)}")
        result["correct"] = False
    print(f"# bundle digest: {result.pop('digest')}")
    for name, value in result.pop("extra").items():
        print(f"# {name}: {value}")
    metrics = {}
    for name, unit in units.items():
        value = float(result["metrics"].get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:16.6f} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_one(args: argparse.Namespace, ledger: Dict[str, Any]) -> Dict[str, Any]:
    """One workload in one mode; the contract's result object."""
    from workloads import WORKLOADS

    end_to_end, per_layer = catalog()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.scratch)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env: {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        return emit(trace(args, workload, ledger), per_layer)
    return emit(measure(args, workload, ledger), end_to_end)


def self_test(args: argparse.Namespace) -> int:
    """Tiny sizes: every workload, both modes, every metric emitted."""
    from workloads import WORKLOADS

    end_to_end, per_layer = catalog()
    ok = True
    for name in WORKLOADS:
        for mode, units in ((0, end_to_end), (1, per_layer)):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.trace, sub.tiny, sub.seconds = name, mode, True, 0
            result = run_one(sub, load_json(LEDGER))
            shown = {n: m["unit"] for n, m in result["metrics"].items()}
            good = result["correct"] and shown == units and result["failed"] == 0
            ok = ok and good
            print(f"self-test {name} trace={mode}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def record(args: argparse.Namespace) -> int:
    """Refresh ``ledger.json``: the environment, bundle digests at the
    recorded seeds, and exact counts at the committed seed."""
    import layers
    from workloads import WORKLOADS

    ledger = load_json(LEDGER)
    seed = ledger["committed_seed"]
    digests: Dict[str, Dict[str, str]] = {}
    counts: Dict[str, Dict[str, float]] = {}
    for name in WORKLOADS:
        sub = argparse.Namespace(**vars(args))
        sub.workload, sub.seed, sub.trace, sub.tiny = name, seed, 1, False
        # Checked against nothing recorded: the old ledger may be stale.
        result = trace(sub, WORKLOADS[name](seed, False, args.scratch), {})
        if not result["correct"]:
            print(f"record: {name} failed its checks; ledger left unchanged")
            return 1
        counts[name] = {n: result["metrics"][n] for n in layers.DETERMINISTIC}
        digests[name] = {}
        for other in ledger["recorded_seeds"]:
            workload = WORKLOADS[name](other, False, args.scratch)
            workload.prepare()
            outcome = run_request(workload)
            if outcome.errors or (other == seed and outcome.digest != result["digest"]):
                print(f"record: {name} seed {other} failed its checks; ledger left unchanged")
                return 1
            digests[name][str(other)] = outcome.digest
        print(f"record: {name} {result['digest']}")
    ledger.update(digests=digests, counts=counts, env=environment())
    with open(LEDGER, "w") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"record: wrote {os.path.relpath(LEDGER, ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="handshake_sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    args.tiny = False

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(HERE, "out", f"run-{os.getpid()}")
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    # Spill directories and any temporary files stay inside the checkout.
    os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
    tempfile.tempdir = None
    args.scratch = scratch
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        if args.self_test:
            return self_test(args)
        if args.record:
            return record(args)
        print(json.dumps(run_one(args, load_json(LEDGER))))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
