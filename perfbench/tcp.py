"""tcp_cluster: five ``repro service start`` processes on localhost.

The deployed path: one OS process per node with the service defaults
(fsync on, 20 ms tick, snapshot every 256 steps), real sockets, wire
encode/decode and the standard event loop.  One generator in this
process submits transactions open-loop, one connection at a time, at a
fixed rate the cluster keeps up with; a poller watches the
coordinator's decisions, then every node's.  The nodes' CPU seconds per
decided txn measure the cost of the deployed path at that rate.

Above capacity the decided rate is set by the generator's one-at-a-time
submit round trip, whose reply carries the node's whole decision table,
and it was bimodal from run to run (19 to 28 txn/s at 40 txn/s offered
on a 2-CPU host), so the rate here stays below capacity.

Every exit path stops and reaps the node processes (SIGTERM, then
SIGKILL), and each node is also told by the kernel to exit when this
process dies, so back-to-back runs cannot collide on ports or leftovers.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import GROUP_SIZE, Outcome, store_bytes

HOST = "127.0.0.1"
#: Offered load, txn per wall second: about 60% of what five nodes
#: sharing a 2-CPU host decide, so the cluster keeps up.
RATE = 15.0
#: Seconds between decision polls (the resolution of decision times).
POLL = 0.05
#: Seconds allowed, after the last submission, for every txn to decide.
DRAIN = 60.0
#: Cluster start-ups per run; ``setup_s`` is their median.
SETUPS = 3

PERFBENCH = Path(__file__).resolve().parent


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM this child when the benchmark dies."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


def free_base_port(count: int = GROUP_SIZE) -> int:
    """A base port with ``count`` free consecutive ports, below the
    ephemeral range the nodes' outgoing connections draw from."""
    rng = random.SystemRandom()
    for _ in range(200):
        base = rng.randrange(12000, 30000 - count)
        sockets = []
        try:
            for offset in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.bind((HOST, base + offset))
            return base
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
    raise RuntimeError("no free block of ports found")


class Cluster:
    """Five node processes, their ports and data directories."""

    def __init__(self, root: Path, data: Path, seed: int, trace_dir=None):
        self.root = root
        self.data = data
        self.seed = seed
        self.trace_dir = trace_dir
        self.base = free_base_port()
        self.procs: list[subprocess.Popen] = []

    def start(self) -> None:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.data.mkdir(parents=True)
        for pid in range(GROUP_SIZE):
            args = [
                "service", "start", "--node", str(pid), "--multi-txn",
                "--base-port", str(self.base), "--data-dir", str(self.data),
                "--seed", str(self.seed),
            ]
            if self.trace_dir is None:
                command = [sys.executable, "-m", "repro", *args]
            else:
                command = [
                    sys.executable, str(PERFBENCH / "node.py"),
                    "--out", str(self.trace_dir / f"node{pid}"), "--", *args,
                ]
            with open(self.data / f"node{pid}.log", "wb") as log:
                self.procs.append(
                    subprocess.Popen(
                        command,
                        cwd=self.root,
                        env=env,
                        stdin=subprocess.DEVNULL,
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        preexec_fn=_die_with_parent,
                    )
                )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every node answers a status query."""
        deadline = time.monotonic() + timeout
        pending = set(range(GROUP_SIZE))
        while pending:
            for pid in sorted(pending):
                if self.procs[pid].poll() is not None:
                    raise RuntimeError(f"node {pid} exited during start-up")
                with contextlib.suppress(OSError, asyncio.TimeoutError):
                    asyncio.run(status(self.base + pid, timeout=1.0))
                    pending.discard(pid)
            if pending:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"nodes {sorted(pending)} never ready")
                time.sleep(0.05)

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory (VmHWM) among the nodes, MiB."""
        peak = 0.0
        for proc in self.procs:
            with contextlib.suppress(OSError):
                for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def cpu_seconds(self) -> float:
        """User-mode CPU seconds the nodes have used so far."""
        ticks = 0
        for proc in self.procs:
            fields = Path(f"/proc/{proc.pid}/stat").read_text().rsplit(")", 1)[1]
            ticks += int(fields.split()[11])
        return ticks / os.sysconf("SC_CLK_TCK")

    def disk_bytes(self) -> int:
        from repro.service.wal import FileWalStore

        return sum(
            store_bytes(FileWalStore(self.data / f"node{pid}"))
            for pid in range(GROUP_SIZE)
        )

    def stop(self) -> None:
        """SIGTERM every node, wait, SIGKILL stragglers, reap all."""
        for proc in self.procs:
            if proc.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def remove(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)


async def status(port: int, timeout: float = 5.0) -> dict:
    from repro.service.client import request
    from repro.service.wire import ServiceEnvelope

    reply = await request(
        HOST, port, ServiceEnvelope(kind="state-query", sender=-1), timeout
    )
    return reply.body.get("status", {})


async def drive(base: int, count: int) -> dict:
    """Submit ``count`` txns open-loop at ``RATE`` and time decisions.

    Each txn is timed from its due time.  The coordinator is polled
    until it has decided everything, then every node until they all
    have: that instant is the last decision.
    """
    from repro.service.client import request
    from repro.service.wire import ServiceEnvelope

    loop = asyncio.get_running_loop()
    start = loop.time() + 0.02
    due = [start + i / RATE for i in range(count)]
    seen: dict[int, float] = {}
    late: list[float] = []
    rtt: list[float] = []
    errors: list[str] = []
    hard_deadline = due[-1] + DRAIN

    async def generate() -> None:
        for index in range(count):
            delay = due[index] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            late.append(sent - due[index])
            reply = await request(
                HOST,
                base,
                ServiceEnvelope(
                    kind="submit", sender=-1, body={"txn": index + 1}
                ),
                timeout=10.0,
            )
            rtt.append(loop.time() - sent)
            if "error" in reply.body:
                errors.append(reply.body["error"])

    async def watch() -> float | None:
        while len(seen) < count:
            await asyncio.sleep(POLL)
            txns = (await status(base)).get("txns") or {}
            now = loop.time()
            for key in txns:
                seen.setdefault(int(key), now)
            if now > hard_deadline:
                return None
        while loop.time() <= hard_deadline:
            nodes = [await status(base + pid) for pid in range(GROUP_SIZE)]
            if all(len(node.get("txns") or {}) >= count for node in nodes):
                return loop.time()
            await asyncio.sleep(POLL)
        return None

    _, last = await asyncio.gather(generate(), watch())
    nodes = [await status(base + pid) for pid in range(GROUP_SIZE)]
    return {
        "due": due,
        "seen": seen,
        "late": late,
        "rtt": rtt,
        "errors": errors,
        "last": last,
        "nodes": nodes,
    }


def check(outcome: Outcome, run: dict, count: int) -> int:
    """Check one pass; returns how many txns aborted."""
    outcome.attempted += count
    outcome.check(not run["errors"], f"submissions rejected: {run['errors'][:3]}")
    values: dict[int, set[int]] = {}
    for node in run["nodes"]:
        for key, value in (node.get("txns") or {}).items():
            values.setdefault(int(key), set()).add(value)
    decided = [
        txn for txn in range(1, count + 1)
        if all(str(txn) in (node.get("txns") or {}) for node in run["nodes"])
    ]
    outcome.failed += count - len(decided)
    outcome.check(
        run["last"] is not None and len(decided) == count,
        f"{count - len(decided)} txn(s) undecided on some node",
    )
    outcome.check(
        all(len(v) == 1 for v in values.values()),
        "nodes disagree on a transaction",
    )
    return sum(1 for v in values.values() if v == {0})


def one_pass(root: Path, out: Path, seed: int, seconds: float, trace_dir=None):
    """Start a cluster (SETUPS times when untraced), drive it, stop it."""
    count = max(8, int(RATE * seconds))
    setups: list[float] = []
    cluster = None
    try:
        for attempt in range(1 if trace_dir is not None else SETUPS):
            if cluster is not None:
                cluster.stop()
                cluster.remove()
            started = time.perf_counter()
            cluster = Cluster(root, out / f"data{attempt}", seed, trace_dir)
            cluster.start()
            cluster.wait_ready()
            setups.append(time.perf_counter() - started)
        cpu = cluster.cpu_seconds()
        run = asyncio.run(drive(cluster.base, count))
        run["cpu"] = cluster.cpu_seconds() - cpu
        run["rss"] = cluster.peak_rss_mb()
        cluster.stop()
        run["disk_bytes"] = cluster.disk_bytes()
    finally:
        if cluster is not None:
            cluster.stop()
            cluster.remove()
    run["setups"] = setups
    run["count"] = count
    return run


def tcp_cluster(
    seed: int, seconds: float, trace: bool, out: Path, root: Path
) -> Outcome:
    from repro.service.load import percentile

    outcome = Outcome()
    run = one_pass(root, out, seed, seconds)
    count = run["count"]
    aborts = check(outcome, run, count)
    span = (run["last"] or 0.0) - run["due"][0]
    decide = [run["seen"][i + 1] - run["due"][i] for i in range(count)
              if i + 1 in run["seen"]]
    disk_bytes = run["disk_bytes"] / max(1, count - outcome.failed)
    outcome.notes.append(
        f"{count} txns offered at {RATE:g}/s, {aborts} aborted, "
        f"generator at most {1e3 * max(run['late']):.0f} ms late; "
        f"disk_bytes_per_txn = {disk_bytes:.1f} B; "
        f"decide p50 {1e3 * percentile(decide, 0.5):.0f} ms"
    )
    if not outcome.correct:
        return outcome
    if not trace:
        outcome.metrics = {
            "setup_s": (statistics.median(run["setups"]), "s"),
            "txn_per_s": (count / span, "1/s"),
            "cpu_ms_per_txn": (1e3 * run["cpu"] / count, "ms"),
            "peak_rss_mb": (run["rss"], "MiB"),
        }
        return outcome

    trace_dir = out / "nodes"
    trace_dir.mkdir(parents=True)
    traced = one_pass(root, out, seed, seconds, trace_dir)
    # Which txns abort depends on wall-clock timing here (the nodes step
    # on every delivery, so a run is not on time), so the traced pass is
    # checked for complete, agreeing decisions only: there is no
    # deterministic outcome to match.
    traced_outcome = Outcome()
    check(traced_outcome, traced, count)
    for problem in traced_outcome.problems:
        outcome.check(False, f"traced run: {problem}")
    exports = []
    walls = 0.0
    for pid in range(GROUP_SIZE):
        doc = json.loads((trace_dir / f"node{pid}" / "layers.json").read_text())
        exports.append(doc)
        walls += doc["wall"]
        for problem in doc["problems"]:
            outcome.check(False, f"node {pid}: {problem}")
    agg = layers.merge(exports)
    metrics, unaccounted = layers.layer_metrics(agg, wall=walls, txns=count)
    outcome.check(
        unaccounted > -0.01,
        f"layer self times exceed wall time (unaccounted {unaccounted:.3f})",
    )
    traced_span = (traced["last"] or 0.0) - traced["due"][0]
    metrics.update(
        {
            "trace_overhead": (traced_span / span, "ratio"),
            "wal.disk_bytes_per_txn": (disk_bytes, "B"),
            "txn.abort_share": (aborts / count, "ratio"),
            "tcp.submit_rtt_ms": (1e3 * statistics.median(run["rtt"]), "ms"),
            "tcp.generator_late_ms": (1e3 * max(run["late"]), "ms"),
            "tcp.decide_p50_ms": (1e3 * percentile(decide, 0.5), "ms"),
            "tcp.decide_p99_ms": (1e3 * percentile(decide, 0.99), "ms"),
        }
    )
    outcome.metrics = metrics
    outcome.notes.append(f"span traces: {trace_dir}/node*/spans.jsonl")
    return outcome
