"""The service hot path does work proportional to open transactions.

Counts, not time, so these hold on any machine:

* completion tracking and stepping no longer ask a node for its whole
  decision map: ``InstanceMux.decisions`` calls per transaction stay
  flat when the same transactions run as one long lifetime instead of
  eight short ones;
* the WAL makes one ``json.dumps`` per line it writes, and snapshots,
  assembled from cached record bodies, make none;
* a node's ack events and background tasks are its in-flight sends
  only, however many transactions its life has carried;
* completion tracking over open transactions answers exactly what the
  full scan over every submitted transaction and node answered, at
  every poll, through kills, restarts and torn tails;
* the multiplexer's open index is exactly its live instances in
  creation order, whatever mix of submissions, steps, transfers and
  closes built it.
"""

import asyncio
import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.wal as wal
from repro.faults.plan import FaultPlan
from repro.runtime.virtualtime import run_virtual
from repro.service.cluster import ServiceCluster, TxnWorkload, shard_configs
from repro.service.recovery import NodeConfig
from repro.service.txn import InstanceMux

GROUP_SIZE, T, K = 5, 2, 4
TICK, RATE, SNAPSHOT_EVERY = 0.002, 600.0, 32


def run_burst(seed: int, txns: int, stores=None) -> ServiceCluster:
    cluster = ServiceCluster(
        shard_configs(1, GROUP_SIZE, T, K, seed),
        seed=seed,
        tick_interval=TICK,
        stores=stores,
        snapshot_every=SNAPSHOT_EVERY,
        K=K,
        workload=TxnWorkload.open_loop(txns, RATE, TICK),
    )
    result = run_virtual(cluster.run(deadline=txns / RATE + 4.0))
    assert result.terminated
    assert len(result.txn_latency) == txns
    return cluster


def assert_open_index(mux: InstanceMux) -> None:
    live = [
        (txn_id, instance)
        for txn_id, instance in mux.instances.items()
        if instance.process is not None
    ]
    assert list(mux.open.items()) == live


def test_decisions_calls_per_txn_flat_in_lifetime(monkeypatch):
    calls = [0]
    original = InstanceMux.decisions

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(InstanceMux, "decisions", counting)

    # 480 transactions either way: eight 60-txn lifetimes, then one.
    for seed in range(8):
        run_burst(seed, 60)
    short = calls[0] / 480
    calls[0] = 0
    cluster = run_burst(0, 480)
    long = calls[0] / 480

    # What is left is state-transfer replies, a few per 100 txns per
    # node; completion polling used to add ~29 calls per txn.
    assert long <= 1.0
    assert long <= 1.25 * short
    for node in cluster.nodes.values():
        assert_open_index(node.mux)


class CountingStore(wal.MemoryWalStore):
    def __init__(self) -> None:
        super().__init__()
        self.lines_written = 0
        self.snapshots_written = 0

    def append_line(self, line: str) -> None:
        self.lines_written += 1
        super().append_line(line)

    def write_snapshot(self, text: str) -> None:
        self.snapshots_written += 1
        super().write_snapshot(text)


def test_one_json_dumps_per_wal_line(monkeypatch):
    dumps = [0]

    def counting_dumps(*args, **kwargs):
        dumps[0] += 1
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(
        wal,
        "json",
        types.SimpleNamespace(
            dumps=counting_dumps,
            loads=json.loads,
            JSONDecodeError=json.JSONDecodeError,
        ),
    )
    stores = [CountingStore() for _ in range(GROUP_SIZE)]
    run_burst(3, 60, stores)
    assert all(store.snapshots_written > 0 for store in stores)
    # Every line is a record or a compaction marker, encoded once; the
    # snapshot texts themselves cost no encoding at all.
    assert dumps[0] == sum(store.lines_written for store in stores)


def test_send_state_holds_only_in_flight_sends():
    peaks = {}
    for txns in (60, 240):
        cluster = ServiceCluster(
            shard_configs(1, GROUP_SIZE, T, K, 0),
            seed=0,
            tick_interval=TICK,
            snapshot_every=SNAPSHOT_EVERY,
            K=K,
            workload=TxnWorkload.open_loop(txns, RATE, TICK),
        )
        samples = []

        async def scenario():
            async def sample():
                while True:
                    await asyncio.sleep(0.01)
                    for node in cluster.nodes.values():
                        finished = sum(task.done() for task in node._tasks)
                        samples.append(
                            (len(node._acked), len(node._tasks), finished)
                        )

            sampler = asyncio.ensure_future(sample())
            try:
                return await cluster.run(deadline=txns / RATE + 4.0)
            finally:
                sampler.cancel()

        result = run_virtual(scenario())
        assert result.terminated
        assert samples
        # While running: no finished task is kept, and every ack event
        # belongs to a live retransmission task.
        assert all(finished == 0 for _, _, finished in samples)
        assert all(acked <= tasks for acked, tasks, _ in samples)
        peaks[txns] = max(tasks for _, tasks, _ in samples)
        # After the run nothing is in flight (a task cancelled before
        # its first step never reaches its own cleanup).
        for node in cluster.nodes.values():
            assert node._acked == {}
            assert len(node._tasks) <= 1
    # In-flight work tracks the offered rate, not the lifetime: four
    # times the transactions, not four times the entries (a leak held
    # ~2000 per node at 240 txns).
    assert peaks[240] <= 2 * peaks[60]


class ScanCheckedCluster(ServiceCluster):
    """Checks every completion poll against the full scan: each
    submitted txn against each member's whole decision map."""

    polls = 0

    def _holds(self, pid: int, txn_id: int) -> bool:
        node = self.nodes.get(pid)
        return (
            pid in self._live
            and node is not None
            and txn_id in node.decisions()
        )

    def _members(self, txn_id: int) -> list[int]:
        return [
            pid
            for pid in self._group_members(txn_id)
            if pid not in self.permanently_crashed
        ]

    def _note_completions(self, now: float) -> None:
        before = set(self.txn_decided_at)
        super()._note_completions(now)
        for txn_id in self.submitted_txns - before:
            members = self._members(txn_id)
            expected = bool(members) and all(
                self._holds(pid, txn_id) for pid in members
            )
            assert (txn_id in self.txn_decided_at) == expected

    def _undecided_map(self) -> dict[int, list[int]]:
        got = super()._undecided_map()
        expected: dict[int, list[int]] = {}
        for txn_id in sorted(self.submitted_txns):
            for pid in self._members(txn_id):
                if not self._holds(pid, txn_id):
                    expected.setdefault(pid, []).append(txn_id)
        assert list(got.items()) == list(expected.items())
        ScanCheckedCluster.polls += 1
        return got


@pytest.mark.parametrize("seed", range(12))
def test_completion_tracking_matches_full_scan(seed):
    plan = FaultPlan.random(
        GROUP_SIZE, T, seed, K=K, recovery_probability=0.9
    )
    cluster = ScanCheckedCluster(
        shard_configs(1, GROUP_SIZE, T, K, seed),
        plan,
        seed=seed,
        tick_interval=TICK,
        snapshot_every=SNAPSHOT_EVERY,
        K=K,
        workload=TxnWorkload.open_loop(8, 200.0, TICK),
    )
    polls = ScanCheckedCluster.polls
    run_virtual(cluster.run(deadline=3.0))
    assert ScanCheckedCluster.polls > polls


CONFIG = NodeConfig(
    pid=1, n=GROUP_SIZE, t=T, K=K, vote=1, tape_seed=7, multi_txn=True
)

txn_ids = st.integers(1, 12)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), txn_ids),
        st.tuples(
            st.just("step"),
            st.lists(
                st.tuples(st.integers(0, GROUP_SIZE - 1), txn_ids),
                max_size=4,
            ),
        ),
        st.tuples(st.just("transfer"), txn_ids, st.integers(0, 1)),
        st.tuples(st.just("close"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_open_index_tracks_live_instances(ops):
    mux = InstanceMux(CONFIG)
    for op in ops:
        if op[0] == "submit":
            mux.ensure(op[1]).submitted = True
        elif op[0] == "step":
            mux.apply_step(
                [(sender, [(txn_id, ())]) for sender, txn_id in op[1]]
            )
        elif op[0] == "transfer":
            # What the node does on adopting a peer's decision.
            instance = mux.get(op[1])
            if instance is not None and instance.decision is None:
                instance.transfer_decision = op[2]
                instance.decision_logged = True
        else:
            for txn_id in mux.closable_txns():
                mux.close_txn(txn_id)
        assert_open_index(mux)
        everything = mux.instances.items()
        assert mux.undecided_txns() == sorted(
            t
            for t, i in everything
            if i.process is not None and i.decision is None
        )
        assert mux.closable_txns() == sorted(
            t
            for t, i in everything
            if i.process is not None
            and i.decision is not None
            and i.decision_logged
        )
        assert mux.idle == all(i.settled for i in mux.instances.values())
