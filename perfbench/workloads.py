"""The four benchmark workloads.

Each workload turns ``--seed`` into program inputs (``base_seed`` /
``seed`` parameter overrides and a scan request) and runs one
*request* through the public surface: ``Session.run`` /
``Session.scan`` in-process, or ``Session.run`` over a
``DistributedConfig`` fleet of ``repro worker`` subprocesses. A
request's wall time runs from submitting it to holding a verified
bundle digest. Output checks compare digests across the requests of
one run, against the in-process bundle (``fleet_sweep``), and against
the digests ``ledger.json`` records for its seeds.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

MIB = 1024 * 1024

#: The loss/RTT/handshake figures and lab sweeps: 3230 unique cells
#: after dedup at default sizes.
SWEEP = ("fig5", "fig6", "fig7", "fig12", "fig13", "lab_cc", "lab_rtt", "lab_ge")

#: fig11 transfer size; per-MB cost grows with size, so it is fixed.
BULK_RESPONSE_BYTES = 2 * MIB
TINY_BULK_RESPONSE_BYTES = 256 * 1024

SCAN_TARGETS = 100_000
TINY_SCAN_TARGETS = 5_000
CLOUDFLARE_DAYS = 2

FLEET_WORKERS = 2
#: Connections of the Cloudflare study per vantage and minute: six
#: slow own + six popular domains once, six fast-rate domains twice.
CF_CONNS_PER_MINUTE = 24


@dataclass
class Outcome:
    """One request's measurements and check results."""

    wall_s: float
    conns: int
    payload_mb: float
    digest: str
    errors: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)


def digest_files(files: Dict[str, str]) -> str:
    sha = hashlib.sha256()
    for name in sorted(files):
        sha.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return sha.hexdigest()


def bundle_digest(report: Any) -> str:
    """Digest of the exact bytes ``write_bundle`` would write."""
    from repro.api.bundles import bundle_files

    return digest_files(bundle_files(report))


def _check_rows(report: Any, errors: List[str]) -> None:
    for exp_id, result in report.results.items():
        if not result.rows:
            errors.append(f"{exp_id}: no rows")


class Workload:
    name = ""
    #: Share of planned cells shared between experiments (suites only).
    dedup_frac = 0.0

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        #: Connections a request attempts (charged as failed when a
        #: request raises before reporting its own count).
        self.expected_conns = 1

    def prepare(self) -> None:
        """Untimed: derive what the request will do from its plan."""

    def request(self) -> Outcome:
        raise NotImplementedError


class _SuiteWorkload(Workload):
    def run_request(self):
        raise NotImplementedError

    def prepare(self) -> None:
        from repro.api import Session

        with Session() as session:
            plan = session.plan(self.run_request())
        cells = plan.unique_cells
        self.cells = self.expected_conns = len(cells)
        self.payload_mb = sum(c.scenario.response_size for c in cells) / 1e6
        self.dedup_frac = plan.shared_cells / plan.total_cells if plan.total_cells else 0.0

    def _finish(self, report: Any, started: float) -> Outcome:
        digest = bundle_digest(report)
        wall = time.perf_counter() - started
        errors: List[str] = []
        _check_rows(report, errors)
        if report.executed_cells != self.cells:
            errors.append(f"executed {report.executed_cells} cells, planned {self.cells}")
        return Outcome(wall, self.cells, self.payload_mb, digest, errors)


class HandshakeSweep(_SuiteWorkload):
    name = "handshake_sweep"

    def run_request(self):
        from repro.api import RunRequest

        overrides = {exp: {"base_seed": self.seed} for exp in SWEEP}
        overrides["lab_ge"]["ge_seed"] = self.seed + 1
        return RunRequest(SWEEP, overrides=overrides, smoke=self.tiny)

    def request(self) -> Outcome:
        from repro.api import LocalConfig, Session

        request = self.run_request()
        started = time.perf_counter()
        with Session(LocalConfig(workers=0)) as session:
            report = session.run(request)
        return self._finish(report, started)


class BulkTransfer(_SuiteWorkload):
    name = "bulk_transfer"

    def run_request(self):
        from repro.api import RunRequest

        size = TINY_BULK_RESPONSE_BYTES if self.tiny else BULK_RESPONSE_BYTES
        overrides = {"fig11": {"base_seed": self.seed, "response_size": size, "repetitions": 1}}
        return RunRequest(("fig11",), overrides=overrides)

    def request(self) -> Outcome:
        from repro.api import LocalConfig, Session

        request = self.run_request()
        spill_dir = os.path.join(self.out_dir, "spill")
        shutil.rmtree(spill_dir, ignore_errors=True)
        started = time.perf_counter()
        with Session(LocalConfig(workers=0), spill_dir=spill_dir) as session:
            report = session.run(request)
        outcome = self._finish(report, started)
        if report.spilled_cells != self.cells:
            outcome.errors.append(f"spilled {report.spilled_cells} of {self.cells} cells")
        shutil.rmtree(spill_dir, ignore_errors=True)
        return outcome


class WildScan(Workload):
    name = "wild_scan"

    def scan_request(self):
        from repro.api import ScanRequest

        targets = TINY_SCAN_TARGETS if self.tiny else SCAN_TARGETS
        source = {"kind": "tranco", "list_size": targets, "seed": self.seed}
        return ScanRequest(source=source, seed=self.seed)

    def study_request(self):
        from repro.api import RunRequest

        days = 1 if self.tiny else CLOUDFLARE_DAYS
        return RunRequest(("fig15",), overrides={"fig15": {"seed": self.seed, "days": days}})

    def prepare(self) -> None:
        from repro.experiments.fig15_cloudflare_locations import HONG_KONG_OUTAGES
        from repro.wild.vantage import VANTAGE_POINTS

        days = self.study_request().overrides["fig15"]["days"]
        minutes = days * 24 * 60
        outages = sum(1 for minute in HONG_KONG_OUTAGES if minute < minutes)
        self.study_conns = CF_CONNS_PER_MINUTE * (minutes * len(VANTAGE_POINTS) - outages)
        self.expected_conns = self.study_conns
        self.targets = self.scan_request().source["list_size"]

    def request(self) -> Outcome:
        from repro.api import LocalConfig, Session

        scan_request, study_request = self.scan_request(), self.study_request()
        started = time.perf_counter()
        with Session(LocalConfig(workers=0)) as session:
            scan = session.scan(scan_request)
            study = session.run(study_request)
        scan_json = scan.to_json()
        digest = digest_files({"scan.json": scan_json, "fig15": bundle_digest(study)})
        wall = time.perf_counter() - started
        errors: List[str] = []
        _check_rows(study, errors)
        sketch = scan.summary()["sketch"]
        if sketch["targets"] != self.targets:
            errors.append(f"scan covered {sketch['targets']} of {self.targets} targets")
        if scan.executed_shards != scan.total_shards:
            errors.append(f"executed {scan.executed_shards} of {scan.total_shards} shards")
        conns = sketch["probes"] + self.study_conns
        return Outcome(wall, conns, 0.0, digest, errors)


def read_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class FleetSweep(HandshakeSweep):
    """``handshake_sweep``'s cells over a fresh two-worker loopback
    fleet per request: nothing carries over between requests."""

    name = "fleet_sweep"

    def _spawn_workers(self, address: str) -> List[subprocess.Popen]:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        log = open(os.path.join(self.out_dir, "workers.log"), "ab")
        try:
            cmd = [sys.executable, "-m", "repro", "worker", "--connect", address, "--rejoin", "0"]
            return [
                subprocess.Popen(cmd, env=env, stdout=log, stderr=log)
                for _ in range(FLEET_WORKERS)
            ]
        finally:
            log.close()

    def request(self) -> Outcome:
        from repro.api import ChunkCompleted, DistributedConfig, Session, WorkerJoined

        request = self.run_request()
        events: List[Tuple[float, Any]] = []
        joined = threading.Event()
        members: List[Any] = []

        def sink(event: Any) -> None:
            events.append((time.perf_counter(), event))
            if isinstance(event, WorkerJoined):
                members.append(event)
                if len(members) >= FLEET_WORKERS:
                    joined.set()

        join_started = time.perf_counter()
        session = Session(DistributedConfig(min_workers=FLEET_WORKERS), on_event=sink)
        procs: List[subprocess.Popen] = []
        try:
            procs = self._spawn_workers(session.address)
            if not joined.wait(60.0):
                raise RuntimeError("fleet did not assemble within 60 s")
            join_s = time.perf_counter() - join_started
            before = session.backend_stats.to_dict()
            first_event = len(events)
            started = time.perf_counter()
            report = session.run(request)
            outcome = self._finish(report, started)
            after = session.backend_stats.to_dict()
            worker_rss = [read_hwm_mb(p.pid) for p in procs]
        finally:
            session.close()
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        hits = report.extra.get("worker_cache_hits", -1)
        if hits != 0:
            outcome.errors.append(f"worker_cache_hits={hits}, expected 0")
        outcome.info.update(
            join_s=join_s,
            worker_rss_mb=sum(worker_rss),
            worker_cache_hits=hits,
            stats_delta={k: after[k] - before.get(k, 0) for k in after},
            completions=[
                (when, e.where) for when, e in events[first_event:] if isinstance(e, ChunkCompleted)
            ],
        )
        return outcome

    def in_process(self) -> HandshakeSweep:
        """The same cells and seed, run in-process (the reference)."""
        twin = HandshakeSweep(self.seed, self.tiny, self.out_dir)
        twin.prepare()
        return twin


WORKLOADS = {cls.name: cls for cls in (HandshakeSweep, BulkTransfer, WildScan, FleetSweep)}
