"""The in-process workloads: sim commit trials and virtual-clock bursts.

Each workload runs units of work (a batch of trials, one burst of
transactions) back to back until the next unit would overrun the time
budget, then checks every unit's outputs.  Inputs derive only from the
seed.  The traced variant replays exactly the units of the untraced
pass under a :class:`layers.Tracer` and requires the same deterministic
outcomes.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import layers

#: Protocol 2 parameters shared by every workload: an n=5 commit group
#: tolerating t=2 crashes (the service default) and an on-time bound K.
GROUP_SIZE = 5
TOLERANCE = 2
K = 4

#: sim_trials: processors per commit trial, and trials per timed batch.
SIM_N = 15
SIM_BATCH = {"reference": 4, "fast": 20}
#: Trials of a fast-core run that are re-run on the reference core.
FAST_CROSS_CHECK = 10

#: Bursts: virtual seconds per protocol step, offered rate (txn per
#: virtual second), snapshot period in steps, and txns per burst.
TICK = 0.002
RATE = 600.0
SNAPSHOT_EVERY = 32
#: A unit is two bursts with a whole-cluster kill between them, which
#: leaves torn tails on two nodes.
BURST_TXNS = 60
TORN_TAILS = 2


@dataclass
class Outcome:
    """One run's verdict, counts and metrics (``name -> (value, unit)``)."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(problem)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def user_cpu() -> float:
    """User-mode CPU seconds of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Clock:
    """Wall and user-mode CPU seconds of the timed regions of a run, in total and
    per unit (``units`` holds one ``(wall, cpu)`` pair per unit)."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.units: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def timing(self) -> Iterator[None]:
        wall, cpu = time.perf_counter(), user_cpu()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += user_cpu() - cpu


def run_units(seconds: float, unit: Callable[[int, Clock], None]) -> tuple[int, Clock]:
    """Run ``unit(i, clock)`` until one more unit would pass ``seconds``
    of timed wall time; returns (units run, clock).

    A full collection before each unit keeps one unit's garbage from
    being charged to the next.
    """
    clock = Clock()
    count = 0
    while True:
        gc.collect()
        wall, cpu = clock.wall, clock.cpu
        unit(count, clock)
        clock.units.append((clock.wall - wall, clock.cpu - cpu))
        count += 1
        if clock.wall + clock.wall / count > seconds:
            return count, clock


def traced_pass(
    units: int,
    unit: Callable[[int, Clock], None],
    telemetry: bool,
) -> tuple["layers.Tracer", Any, Clock]:
    """Replay ``units`` units under a tracer; returns (tracer, registry,
    clock of the traced pass).

    With ``telemetry`` the program's own registry records too, for the
    counter cross-check.  The sim workloads leave it off: an active
    registry moves the fast core off its fused sweep.
    """
    from repro.telemetry.registry import MetricsRegistry, use_registry

    tracer = layers.Tracer()
    registry = MetricsRegistry(enabled=telemetry)
    clock = Clock()
    with use_registry(registry), tracer.installed():
        for index in range(units):
            gc.collect()
            with tracer.unit(f"unit {index}"):
                unit(index, clock)
    return tracer, registry, clock


def end_to_end(outcome: Outcome, clock: Clock, batch: int) -> None:
    """The timed end-to-end metrics of an untraced pass: the median over
    its units (``batch`` transactions or trials each), which a slow
    stretch of the host moves less than a total would."""
    outcome.metrics["txn_per_s"] = (
        statistics.median(batch / wall for wall, _ in clock.units), "1/s"
    )
    outcome.metrics["cpu_ms_per_txn"] = (
        1e3 * statistics.median(cpu / batch for _, cpu in clock.units), "ms"
    )


def telemetry_problems(registry: Any, agg: dict[str, Any]) -> list[str]:
    """Cross-check the benchmark's call counts against the program's
    own telemetry counters."""
    pairs = (
        ("wal_records_total", "wal.WriteAheadLog.append"),
        ("wal_snapshots_total", "wal.write_snapshot"),
        ("node_recoveries_total", "recovery.replay"),
    )
    problems = []
    if not registry.enabled:
        return problems
    for counter, key in pairs:
        metric = registry.metrics().get(counter)
        counted = sum(metric.samples().values()) if metric else 0
        wrapped = agg["stats"].get(key, [0])[0]
        if counted != wrapped:
            problems.append(
                f"telemetry {counter}={counted:g} but {key} ran {wrapped:g} times"
            )
    return problems


def finish_trace(
    outcome: Outcome,
    tracer: "layers.Tracer",
    registry: Any,
    *,
    wall: float,
    untraced_wall: float,
    txns: int,
    events: int = 0,
    extra: dict[str, tuple[float, str]] | None = None,
    spans_path: Path,
) -> None:
    """Derive the per-layer metrics of a traced pass and check closure."""
    agg = tracer.export()
    metrics, unaccounted = layers.layer_metrics(
        agg, wall=wall, txns=txns, events=events
    )
    outcome.check(
        unaccounted > -0.01,
        f"layer self times exceed wall time (unaccounted {unaccounted:.3f})",
    )
    for problem in telemetry_problems(registry, agg):
        outcome.check(False, problem)
    metrics["trace_overhead"] = (wall / untraced_wall, "ratio")
    metrics.update(extra or {})
    outcome.metrics = metrics
    tracer.write_spans(spans_path)
    outcome.notes.append(f"span trace: {spans_path}")


# -- sim_trials ---------------------------------------------------------------


def _ontime(seed: int):
    from repro.adversary.standard import OnTimeAdversary

    return OnTimeAdversary(K=K, seed=seed)


def sim_config():
    from repro.analysis.montecarlo import CommitTrialConfig

    return CommitTrialConfig(
        votes=[1] * SIM_N, adversary_factory=_ontime, K=K
    )


def _trials(config, core: str, seeds: list[int]) -> list[Any]:
    from repro.analysis.montecarlo import run_commit_trial
    from repro.sim.coreselect import set_default_sim_core

    set_default_sim_core(core)
    try:
        return [run_commit_trial(config, seed) for seed in seeds]
    finally:
        set_default_sim_core(None)


def sim_trials(
    seed: int, seconds: float, trace: bool, out: Path, core: str
) -> Outcome:
    """Closed-loop Protocol 2 commit trials on one sim core.

    Every trial must terminate consistently with commit (all votes yes
    under :class:`OnTimeAdversary`, so commit validity applies), pass
    ``run_commit_trial``'s validity assertions, and give the same
    :class:`RunMetrics` on the other core.
    """
    config = sim_config()
    batch = SIM_BATCH[core]
    base = seed * 1_000_000
    runs: list[list[Any]] = []

    def seeds(index: int) -> list[int]:
        return list(range(base + index * batch, base + (index + 1) * batch))

    def unit(index: int, clock: Clock) -> None:
        with clock.timing():
            runs.append(_trials(config, core, seeds(index)))

    outcome = Outcome()
    units, clock = run_units(seconds, unit)
    metrics = [m for run in runs for m in run]
    outcome.attempted = len(metrics)
    outcome.failed = sum(1 for m in metrics if not m.terminated)
    outcome.check(outcome.failed == 0, f"{outcome.failed} trial(s) undecided")
    outcome.check(
        all(m.consistent and m.decision == 1 for m in metrics),
        "a fault-free on-time all-yes trial did not commit consistently",
    )
    events = sum(m.events for m in metrics)

    other = "fast" if core == "reference" else "reference"
    checked = [s for i in range(units) for s in seeds(i)]
    if core == "fast":
        checked = checked[:FAST_CROSS_CHECK]
    outcome.check(
        _trials(config, other, checked) == metrics[: len(checked)],
        f"RunMetrics differ between the {core} and {other} cores",
    )
    outcome.notes.append(
        f"{len(metrics)} trials in {units} batches, {events} events; "
        f"{len(checked)} re-run on the {other} core"
    )
    if not trace:
        end_to_end(outcome, clock, batch)
        return outcome

    def traced_unit(index: int, traced: Clock) -> None:
        with traced.timing():
            result = _trials(config, core, seeds(index))
        outcome.check(
            result == runs[index],
            f"traced batch {index} changed the trials' RunMetrics",
        )

    tracer, registry, traced = traced_pass(units, traced_unit, False)
    finish_trace(
        outcome,
        tracer,
        registry,
        wall=traced.wall,
        untraced_wall=clock.wall,
        txns=len(metrics),
        events=events,
        spans_path=out / "spans.jsonl",
    )
    return outcome


# -- bus_burst / disk_recover --------------------------------------------------


@dataclass
class Burst:
    """What one unit left to report once it is checked."""

    fingerprint: tuple
    store_bytes: int
    aborts: int


def build_cluster(seed: int, txns: int, stores: list, first_txn: int):
    """One 5-node shard submitting ``txns`` txns open loop at ``RATE``.

    File stores get fsync on every append, as deployed; a node whose
    store already holds records recovers from it first.
    """
    from repro.service.cluster import ServiceCluster, TxnWorkload, shard_configs
    from repro.service.wal import FileWalStore

    return ServiceCluster(
        shard_configs(1, GROUP_SIZE, TOLERANCE, K, seed),
        seed=seed,
        tick_interval=TICK,
        stores=stores,
        fsync=isinstance(stores[0], FileWalStore),
        snapshot_every=SNAPSHOT_EVERY,
        K=K,
        workload=TxnWorkload.open_loop(txns, RATE, TICK, first_txn=first_txn),
    )


def store_bytes(store) -> int:
    """WAL plus snapshot bytes a store holds."""
    from repro.service.wal import FileWalStore

    if isinstance(store, FileWalStore):
        return sum(
            path.stat().st_size
            for path in (store.log_path, store.snapshot_path)
            if path.exists()
        )
    snapshot = store.read_snapshot() or ""
    return sum(len(line) for line in store.read_lines()) + len(snapshot)


def tear_tails(stores: list, seed: int) -> list[int]:
    """Leave a partial record at the log tail of ``TORN_TAILS`` seeded
    victims, as a SIGKILL mid-append would; returns the victims."""
    from repro.service.wal import encode_record

    rng = random.Random(seed)
    victims = sorted(rng.sample(range(len(stores)), TORN_TAILS))
    line = encode_record({"type": "step", "batch": []}).rstrip("\n")
    for pid in victims:
        stores[pid].append_line(line[: rng.randint(1, len(line) - 1)])
    return victims


def run_burst(
    outcome: Outcome,
    clock: Clock,
    seed: int,
    txns: int,
    directory: Path | None,
) -> Burst:
    """Run and check one unit, timing only the cluster runs.

    A unit is a burst of ``txns`` txns, a kill of the whole cluster
    that leaves torn tails on two seeded nodes, and a second burst of as
    many txns on the nodes restarted from their stores: in memory, or
    fsync'd files under ``directory``.
    """
    from repro.runtime.virtualtime import run_virtual
    from repro.service.wal import FileWalStore, MemoryWalStore

    if directory is None:
        stores = [MemoryWalStore() for _ in range(GROUP_SIZE)]
    else:
        stores = [
            FileWalStore(directory / f"node{pid}") for pid in range(GROUP_SIZE)
        ]
    fingerprint: list = []
    aborts = 0
    for first in (1, txns + 1):
        if first > 1:
            fingerprint.append(tear_tails(stores, seed))
        cluster = build_cluster(seed, txns, stores, first)
        with clock.timing():
            result = run_virtual(cluster.run(deadline=txns / RATE + 4.0))
        for store in stores:
            store.close()
        aborts += check_burst(outcome, result, range(first, first + txns))
        fingerprint.append(burst_fingerprint(result))
    outcome.check(
        all(node.incarnation == 1 for node in result.nodes),
        "a node did not recover from its WAL",
    )
    size = sum(store_bytes(store) for store in stores)
    if directory is not None:
        shutil.rmtree(directory)
    return Burst(
        fingerprint=tuple(fingerprint), store_bytes=size, aborts=aborts
    )


def burst_fingerprint(result) -> tuple:
    """The deterministic outcome: decisions per node, virtual per-txn
    latencies."""
    return (
        tuple(
            (node.pid, tuple(sorted((node.txns or {}).items())))
            for node in result.nodes
        ),
        tuple(sorted(result.txn_latency.items())),
    )


def check_burst(outcome: Outcome, result, submitted: range) -> int:
    """Check one burst's result; returns how many of its txns aborted.

    Every submitted txn must be decided by every node (which also holds
    every earlier decision), with no disagreement.  An abort is a legal
    decision: under load the nodes step on every delivery, so runs are
    not on time and commit validity does not bind.
    """
    from repro.runtime.cluster import TERMINATED

    decided = len(result.txn_latency)
    outcome.attempted += len(submitted)
    outcome.failed += len(submitted) - decided
    outcome.check(result.outcome == TERMINATED, f"burst {result.outcome}")
    outcome.check(
        decided == len(submitted),
        f"{len(submitted) - decided} txn(s) undecided",
    )
    wanted = set(range(1, submitted.stop))
    outcome.check(
        all(wanted <= set(node.txns or {}) for node in result.nodes),
        "a node lacks a decision",
    )
    values = result.txn_decision_values()
    outcome.check(
        all(len(v) == 1 for v in values.values()),
        "nodes disagree on a transaction",
    )
    return sum(1 for txn in submitted if values.get(txn) == {0})


def service_burst(
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    *,
    disk: bool,
) -> Outcome:
    """Open-loop bursts through :class:`ServiceCluster` on the virtual
    clock, with a whole-cluster kill, torn tails and recovery in each
    unit: in-memory WALs (``bus_burst``) or fsync'd file WALs
    (``disk_recover``)."""
    txns = BURST_TXNS
    bursts: list[Burst] = []
    outcome = Outcome()

    def burst(index: int, clock: Clock, into: Outcome, tag: str) -> Burst:
        directory = out / "wal" / f"{tag}{index}" if disk else None
        return run_burst(into, clock, seed * 1000 + index, txns, directory)

    units, clock = run_units(
        seconds,
        lambda index, clock: bursts.append(burst(index, clock, outcome, "u")),
    )
    aborts = sum(b.aborts for b in bursts)
    decided = outcome.attempted - outcome.failed
    disk_bytes = sum(b.store_bytes for b in bursts) / max(1, decided)
    outcome.notes.append(
        f"{units} unit(s) of 2 x {txns} txns, "
        f"{aborts} aborted; disk_bytes_per_txn = {disk_bytes:.1f} B"
    )
    if not trace:
        end_to_end(outcome, clock, 2 * txns)
        return outcome

    traced_outcome = Outcome()

    def traced_unit(index: int, traced: Clock) -> None:
        again = burst(index, traced, traced_outcome, "t")
        outcome.check(
            again.fingerprint == bursts[index].fingerprint,
            f"traced unit {index} changed decisions or virtual latencies",
        )

    tracer, registry, traced = traced_pass(units, traced_unit, True)
    for problem in traced_outcome.problems:
        outcome.check(False, f"traced run: {problem}")
    finish_trace(
        outcome,
        tracer,
        registry,
        wall=traced.wall,
        untraced_wall=clock.wall,
        txns=decided,
        extra={
            "wal.disk_bytes_per_txn": (disk_bytes, "B"),
            "txn.abort_share": (aborts / max(1, decided), "ratio"),
        },
        spans_path=out / "spans.jsonl",
    )
    return outcome


def setup(workload: str, seed: int, out: Path) -> None:
    """Import and build what ``workload`` needs, then run one small
    warm-up unit (the body of one ``setup_s`` sample)."""
    warm_seed = 10**9 + seed
    if workload.startswith("sim_trials"):
        core = "fast" if workload == "sim_trials_fast" else "reference"
        _trials(sim_config(), core, [warm_seed])
        return
    disk = workload == "disk_recover"
    directory = out / f"warm{os.getpid()}" if disk else None
    run_burst(Outcome(), Clock(), warm_seed, 4, directory)
