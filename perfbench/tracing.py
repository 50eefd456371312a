"""In-memory span tracer that wraps the program's layer functions.

The benchmark never edits the program: for a traced run it replaces
public layer functions (and, where the public call only queues work,
the callback it queues) with wrappers that record a span around each
call, then restores the originals. A span's *self time* is its
duration minus the time covered by its child spans on the same
thread.

Fine-grained hooks (per datagram, per probe) are aggregated into
per-name ``[calls, total, self]`` counters; only the first
``SPAN_CAP`` spans of each name are kept as individual events for the
Chrome trace-event export, so memory stays bounded on large runs.

Forked pool children (the streaming scan's shard workers) inherit the
wrappers; their spans are written to ``child-<pid>.jsonl`` in the
output directory after each flush-point call and merged back by
:meth:`SpanTracer.absorb_children`.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Individual span events kept per span name for the Chrome export.
SPAN_CAP = 4000

_perf = time.perf_counter
_ACTIVE: Optional["SpanTracer"] = None
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._reset_in_child()


@dataclass
class Hook:
    """One function to wrap.

    ``target`` is ``"module:Qualified.name"``. ``before(args)`` may
    return a token handed to ``after(args, result, token)``, which
    records counts. ``flush`` marks calls after which a forked child
    ships its spans to the parent. ``keep_all`` keeps every span
    event (coarse hooks); ``keep_durations`` keeps every duration for
    percentiles.
    """

    target: str
    span: str
    before: Optional[Callable[[Tuple[Any, ...]], Any]] = None
    after: Optional[Callable[[Tuple[Any, ...], Any, Any], None]] = None
    flush: bool = False
    keep_all: bool = False
    keep_durations: bool = False


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.stats: Optional[Dict[str, List[float]]] = None


class SpanTracer:
    """Collects spans and counts while installed."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.is_child = False
        self._tls = _ThreadState()
        self._thread_stats: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()
        self.spans: List[Tuple[str, int, int, float, float]] = []
        self._span_counts: Counter = Counter()
        self.durations: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._restore: List[Callable[[], None]] = []

    # -- installation ---------------------------------------------------

    def install(self, hooks: List[Hook]) -> "SpanTracer":
        global _ACTIVE, _FORK_HOOKED
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is already installed")
        for hook in hooks:
            self._patch(hook)
        _ACTIVE = self
        if not _FORK_HOOKED and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOKED = True
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _patch(self, hook: Hook) -> None:
        module_name, _, qualname = hook.target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(hook.target)
            return
        wrapped = self.wrap(hook, original)
        self._set(owner, attr, wrapped, original)
        if isinstance(owner, type):
            return
        # Module-level functions are also bound by name in importing
        # modules (``from repro.runtime.wire import encode_payload``).
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is owner or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped, original)

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap_spec_field(self, spec: Any, field: str, span: str) -> None:
        """Wrap a callable stored on a frozen dataclass instance (an
        experiment spec's ``aggregate``)."""
        original = getattr(spec, field)
        wrapped = self.wrap(Hook(target=f"spec:{span}", span=span, keep_all=True), original)
        object.__setattr__(spec, field, wrapped)
        self._restore.append(lambda: object.__setattr__(spec, field, original))

    # -- recording ------------------------------------------------------

    def _stats(self) -> Dict[str, List[float]]:
        tls = self._tls
        if tls.stats is None:
            tls.stats = {}
            with self._lock:
                self._thread_stats.append(tls.stats)
        return tls.stats

    def wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        name = hook.span
        before, after = hook.before, hook.after
        cap = None if hook.keep_all else SPAN_CAP
        durations = tracer.durations.setdefault(name, []) if hook.keep_durations else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            stack = tracer._tls.stack
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats = tracer._stats()
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if durations is not None:
                    durations.append(dur)
                if cap is None or tracer._span_counts[name] < cap:
                    tracer._span_counts[name] += 1
                    tracer.spans.append(
                        (name, os.getpid(), threading.get_ident(), start, dur)
                    )
            if after is not None:
                after(args, result, token)
            if hook.flush and tracer.is_child:
                tracer.flush_child()
            return result

        return traced

    # -- aggregation ----------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over all
        threads and absorbed child processes."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._thread_stats)
        for table in tables:
            for name, (calls, total, self_s) in table.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    # -- forked children --------------------------------------------------

    def _reset_in_child(self) -> None:
        self.is_child = True
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        # The span cap holds per child process, across its flushes.
        self._span_counts = Counter()
        self._clear()

    def _clear(self) -> None:
        self._thread_stats = []
        self._tls.stats = None
        self.spans = []
        # Cleared in place: hook callbacks hold references to these.
        for values in self.durations.values():
            values.clear()
        self.counts.clear()

    def flush_child(self) -> None:
        doc = {
            "stats": self.stats(),
            "counts": dict(self.counts),
            "durations": self.durations,
            "spans": self.spans,
        }
        path = os.path.join(self.out_dir, f"child-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(doc) + "\n")
        self._clear()

    def absorb_children(self) -> None:
        """Merge every record flushed by forked children."""
        extra: Dict[str, List[float]] = {}
        for path in sorted(glob.glob(os.path.join(self.out_dir, "child-*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    doc = json.loads(line)
                    for name, (calls, total, self_s) in doc["stats"].items():
                        rec = extra.setdefault(name, [0, 0.0, 0.0])
                        rec[0] += calls
                        rec[1] += total
                        rec[2] += self_s
                    self.counts.update(doc["counts"])
                    for name, values in doc["durations"].items():
                        self.durations.setdefault(name, []).extend(values)
                    self.spans.extend(tuple(span) for span in doc["spans"])
            os.unlink(path)
        if extra:
            with self._lock:
                self._thread_stats.append(extra)

    # -- export -----------------------------------------------------------

    def write_chrome_trace(self, path: str) -> int:
        """Write kept spans as Chrome trace-event JSON (opens offline
        in Perfetto / about:tracing); returns the event count."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
            }
            for name, pid, tid, start, dur in self.spans
        ]
        events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
