"""Per-layer timing for the traced benchmark run.

A :class:`Tracer` wraps public functions of the program's layers with
timers, from the benchmark's side: each name is replaced where its
callers look it up (the class attribute for methods; every ``repro.*``
module that imported a function by name), so the program itself runs
unchanged and its own tracing stays off.

Every wrapped call updates three exact aggregates per function — calls,
inclusive seconds, and self seconds (inclusive minus the wrapped calls
nested under it) — and, up to a per-function cap, records a span into a
benchmark-owned :class:`repro.trace.SpanRecorder`.  All wrapped
functions are synchronous, so one stack of open calls gives exact
nesting even on an event loop.  The wrappers read only
``time.perf_counter``; they schedule nothing, so virtual-clock runs
behave identically with tracing on or off.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from typing import Any, Callable, Iterator

#: The layers, in report order, and the wrapped functions of each.
LAYERS = ("sim", "core", "txn", "wal", "recovery", "bus", "wire")

#: Spans recorded per wrapped function; later calls are aggregated only.
SPAN_CAP = 400

#: Every per-layer metric and its unit.  A traced run reports all of
#: them; a layer the workload bypasses reads 0.
PER_LAYER = {
    "sim.events_per_trial": "count",
    "sim.us_per_event": "us",
    "sim.fast_us_per_event": "us",
    "core.on_step_share": "ratio",
    "txn.apply_step_calls_per_txn": "count",
    "txn.apply_step_us": "us",
    "txn.decisions_calls_per_txn": "count",
    "txn.decisions_share": "ratio",
    "txn.digest_share": "ratio",
    "txn.cost_growth": "ratio",
    "txn.abort_share": "ratio",
    "wal.appends_per_txn": "count",
    "wal.append_us": "us",
    "wal.bytes_per_txn": "B",
    "wal.fsyncs_per_txn": "count",
    "wal.fsync_us": "us",
    "wal.snapshots_per_txn": "count",
    "wal.snapshot_share": "ratio",
    "wal.snapshot_bytes_max": "B",
    "wal.snapshot_records_max": "count",
    "wal.disk_bytes_per_txn": "B",
    "recovery.replays": "count",
    "recovery.replay_ms": "ms",
    "recovery.records_per_replay": "count",
    "bus.sends_per_txn": "count",
    "bus.send_us": "us",
    "bus.retransmit_share": "ratio",
    "wire.envelopes_per_txn": "count",
    "wire.bytes_per_txn": "B",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "tcp.submit_rtt_ms": "ms",
    "tcp.generator_late_ms": "ms",
    "tcp.decide_p50_ms": "ms",
    "tcp.decide_p99_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "loop.unaccounted_share": "ratio",
    "trace_overhead": "ratio",
}


class Tracer:
    """Installs timing wrappers and accumulates per-function aggregates."""

    def __init__(self, track: str = "bench") -> None:
        from repro.trace.spans import SpanRecorder

        self.track = track
        self.recorder = SpanRecorder()
        self.origin = time.perf_counter()
        #: key -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.growth: list[float] = []
        self._stack: list[list[Any]] = []
        self._spans: dict[str, int] = {}
        self._decided_at: dict[int, float] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- aggregation ----------------------------------------------------------

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _timed(
        self, key: str, fn: Callable, after: Callable | None = None
    ) -> Callable:
        stack = self._stack
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        recorder = self.recorder
        spans = self._spans
        origin = self.origin
        track = self.track
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if spans.get(key, 0) < SPAN_CAP:
                spans[key] = spans.get(key, 0) + 1
                parent = stack[-1][1] if stack else None
                frame[1] = recorder.begin_span(
                    key,
                    kind=key.split(".", 1)[0],
                    track=track,
                    start=clock() - origin,
                    parent=parent,
                )
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    recorder.end_span(frame[1], clock() - origin)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_attr(self, owner: Any, name: str, replacement: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_method(self, cls: type, name: str, key: str, after=None):
        self._patch_attr(cls, name, self._timed(key, cls.__dict__[name], after))

    def _patch_function(self, fn: Callable, key: str, after=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it."""
        wrapper = self._timed(key, fn, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points; :meth:`uninstall` undoes it."""
        import repro.service.node  # noqa: F401 - by-name importers
        import repro.service.recovery as recovery
        import repro.service.wal as wal
        import repro.sim.fastcore as fastcore
        from repro.service.bus import ServiceBus
        from repro.service.txn import InstanceMux
        from repro.service.wire import ServiceEnvelope
        from repro.sim.process import SimProcess
        from repro.sim.scheduler import Simulation

        self._patch_method(Simulation, "run", "sim.Simulation.run")
        self._patch_function(
            fastcore.fast_commit_trial, "sim.fast_commit_trial"
        )
        self._patch_method(SimProcess, "on_step", "core.SimProcess.on_step")
        self._patch_method(
            InstanceMux, "apply_step", "txn.InstanceMux.apply_step",
            self._note_decisions,
        )
        self._patch_method(InstanceMux, "decisions", "txn.InstanceMux.decisions")
        self._patch_method(InstanceMux, "digest", "txn.InstanceMux.digest")
        self._patch_method(wal.WriteAheadLog, "append", "wal.WriteAheadLog.append")
        for store in (wal.MemoryWalStore, wal.FileWalStore):
            self._patch_method(store, "sync", "wal.WalStore.sync")
            self._patch_method(
                store, "write_snapshot", "wal.WalStore.write_snapshot",
                self._note_snapshot_text,
            )
            self._patch_attr(
                store, "append_line", self._counting_append(store.append_line)
            )
        self._patch_function(
            wal.write_snapshot, "wal.write_snapshot", self._note_snapshot
        )
        self._patch_function(wal.read_log, "wal.read_log")
        self._patch_function(wal.read_snapshot, "wal.read_snapshot")
        self._patch_function(
            recovery.replay, "recovery.replay", self._note_replay
        )
        self._patch_method(
            ServiceBus, "send", "bus.ServiceBus.send", self._note_send
        )
        self._patch_method(
            ServiceEnvelope, "encode", "wire.ServiceEnvelope.encode",
            self._note_encode,
        )
        decode = ServiceEnvelope.__dict__["decode"].__func__
        self._patch_attr(
            ServiceEnvelope,
            "decode",
            classmethod(self._timed("wire.ServiceEnvelope.decode", decode)),
        )
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters taken from call arguments and results ----------------------

    def _counting_append(self, append_line: Callable) -> Callable:
        def wrapper(store, line):
            self._add("wal.bytes_appended", len(line))
            return append_line(store, line)

        return wrapper

    def _note_decisions(self, effects, args, kwargs) -> None:
        if effects.newly_decided:
            now = time.perf_counter()
            for txn_id, value, _origin in effects.newly_decided:
                self._decided_at.setdefault(txn_id, now)

    def _note_snapshot_text(self, _result, args, kwargs) -> None:
        self._max("wal.snapshot_bytes_max", len(args[1]))

    def _note_snapshot(self, _result, args, kwargs) -> None:
        self._max("wal.snapshot_records_max", len(kwargs["records"]))

    def _note_replay(self, _result, args, kwargs) -> None:
        self._add("recovery.records", len(args[0]))

    def _note_send(self, _result, args, kwargs) -> None:
        _bus, _recipient, envelope, attempt = args
        if envelope.kind == "msg" and attempt > 0:
            self._add("bus.retransmits", 1)

    def _note_encode(self, encoded, args, kwargs) -> None:
        self._add("wire.bytes", len(encoded))

    # -- units of work ---------------------------------------------------------

    @contextlib.contextmanager
    def unit(self, name: str) -> Iterator[None]:
        """A root span around one unit of work (a trial batch, a burst).

        Decision stamps restart per unit, so each unit yields one
        cost-growth ratio (see :func:`cost_growth`).
        """
        self._decided_at = {}
        span = self.recorder.begin_span(
            name,
            kind="unit",
            track=self.track,
            start=time.perf_counter() - self.origin,
            parent=None,
        )
        try:
            yield
        finally:
            self.recorder.end_span(span, time.perf_counter() - self.origin)
            growth = cost_growth(list(self._decided_at.values()))
            if growth is not None:
                self.growth.append(growth)

    def export(self) -> dict[str, Any]:
        """The aggregates as plain JSON data (for node processes)."""
        return {
            "stats": self.stats,
            "counts": self.counts,
            "growth": self.growth,
        }

    def write_spans(self, path) -> None:
        from repro.trace.export import write_span_trace

        write_span_trace(self.recorder, path)


def cost_growth(stamps: list[float]) -> float | None:
    """Per-decision wall cost in the last quarter of decisions over the
    first quarter (``None`` with fewer than eight decisions)."""
    stamps = sorted(stamps)
    quarter = len(stamps) // 4
    if quarter < 2:
        return None
    first = (stamps[quarter] - stamps[0]) / quarter
    last = (stamps[-1] - stamps[-1 - quarter]) / quarter
    if first <= 0:
        return None
    return last / first


def merge(exports: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several :meth:`Tracer.export` documents (one per process)."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    growth: list[float] = []
    for doc in exports:
        for key, (calls, total, own) in doc["stats"].items():
            cell = stats.setdefault(key, [0, 0.0, 0.0])
            cell[0] += calls
            cell[1] += total
            cell[2] += own
        for key, value in doc["counts"].items():
            if key.endswith("_max"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        growth.extend(doc["growth"])
    return {"stats": stats, "counts": counts, "growth": growth}


def layer_metrics(
    agg: dict[str, Any],
    *,
    wall: float,
    txns: int,
    events: int = 0,
) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-layer metrics from merged aggregates.

    ``wall`` is the traced wall time the self times are shares of;
    ``txns`` the decided transactions (or trials) they are per.  Returns
    the metrics and the unaccounted share, which closes the accounting:
    every layer's self share plus ``loop.unaccounted_share`` is 1.
    """
    stats = agg["stats"]
    counts = agg["counts"]

    def calls(key: str) -> float:
        return stats.get(key, [0, 0.0, 0.0])[0]

    def total(key: str) -> float:
        return stats.get(key, [0, 0.0, 0.0])[1]

    def own(key: str) -> float:
        return stats.get(key, [0, 0.0, 0.0])[2]

    def per_call_us(key: str, seconds: float) -> float:
        return 1e6 * seconds / calls(key) if calls(key) else 0.0

    def per_txn(value: float) -> float:
        return value / txns if txns else 0.0

    apply_key = "txn.InstanceMux.apply_step"
    append_key = "wal.WriteAheadLog.append"
    sync_key = "wal.WalStore.sync"
    replay_key = "recovery.replay"
    send_key = "bus.ServiceBus.send"
    encode_key = "wire.ServiceEnvelope.encode"
    decode_key = "wire.ServiceEnvelope.decode"
    shares = {
        layer: sum(v[2] for k, v in stats.items() if k.split(".", 1)[0] == layer)
        / wall
        for layer in LAYERS
    }
    unaccounted = 1.0 - sum(shares.values())
    metrics: dict[str, tuple[float, str]] = {
        "sim.events_per_trial": (per_txn(events), "count"),
        "sim.us_per_event": (
            1e6 * total("sim.Simulation.run") / events
            if events and calls("sim.Simulation.run") else 0.0,
            "us",
        ),
        "sim.fast_us_per_event": (
            1e6 * total("sim.fast_commit_trial") / events
            if events and calls("sim.fast_commit_trial") else 0.0,
            "us",
        ),
        "core.on_step_share": (own("core.SimProcess.on_step") / wall, "ratio"),
        "txn.apply_step_calls_per_txn": (per_txn(calls(apply_key)), "count"),
        "txn.apply_step_us": (per_call_us(apply_key, own(apply_key)), "us"),
        "txn.decisions_calls_per_txn": (
            per_txn(calls("txn.InstanceMux.decisions")), "count"
        ),
        "txn.decisions_share": (
            own("txn.InstanceMux.decisions") / wall, "ratio"
        ),
        "txn.digest_share": (own("txn.InstanceMux.digest") / wall, "ratio"),
        "txn.cost_growth": (
            statistics.median(agg["growth"]) if agg["growth"] else 0.0,
            "ratio",
        ),
        "wal.appends_per_txn": (per_txn(calls(append_key)), "count"),
        "wal.append_us": (per_call_us(append_key, own(append_key)), "us"),
        "wal.bytes_per_txn": (
            per_txn(counts.get("wal.bytes_appended", 0)), "B"
        ),
        "wal.fsyncs_per_txn": (per_txn(calls(sync_key)), "count"),
        "wal.fsync_us": (per_call_us(sync_key, total(sync_key)), "us"),
        "wal.snapshots_per_txn": (
            per_txn(calls("wal.write_snapshot")), "count"
        ),
        "wal.snapshot_share": (total("wal.write_snapshot") / wall, "ratio"),
        "wal.snapshot_bytes_max": (
            counts.get("wal.snapshot_bytes_max", 0), "B"
        ),
        "wal.snapshot_records_max": (
            counts.get("wal.snapshot_records_max", 0), "count"
        ),
        "recovery.replays": (calls(replay_key), "count"),
        "recovery.replay_ms": (
            1e3 * total(replay_key) / calls(replay_key)
            if calls(replay_key) else 0.0,
            "ms",
        ),
        "recovery.records_per_replay": (
            counts.get("recovery.records", 0) / calls(replay_key)
            if calls(replay_key) else 0.0,
            "count",
        ),
        "bus.sends_per_txn": (per_txn(calls(send_key)), "count"),
        "bus.send_us": (per_call_us(send_key, own(send_key)), "us"),
        "bus.retransmit_share": (
            counts.get("bus.retransmits", 0) / calls(send_key)
            if calls(send_key) else 0.0,
            "ratio",
        ),
        "wire.envelopes_per_txn": (per_txn(calls(encode_key)), "count"),
        "wire.bytes_per_txn": (per_txn(counts.get("wire.bytes", 0)), "B"),
        "wire.encode_us": (per_call_us(encode_key, own(encode_key)), "us"),
        "wire.decode_us": (per_call_us(decode_key, own(decode_key)), "us"),
        "loop.unaccounted_share": (unaccounted, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (shares[layer], "ratio")
    return metrics, unaccounted
