"""The service's bytes on disk and in reports, pinned.

These digests were pinned on the commit *before* the service hot path
stopped re-encoding records (one canonical json pass per WAL record,
snapshots assembled from cached record bodies, an open-instance index
in the multiplexer, completion tracking over open transactions, bus
randomness drawn on demand).  Those changes are pure work reductions:
every WAL line, every snapshot text, every decision and virtual
latency, and every campaign report byte must stay the same.  A
mismatch means an optimisation changed behaviour, not just cost.
"""

import hashlib
import json
import random

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.runtime.virtualtime import run_virtual
from repro.service.cluster import ServiceCluster, TxnWorkload, shard_configs
from repro.service.wal import MemoryWalStore, encode_record

#: sha256 over both bursts' store bytes and result fingerprints below.
BURST_DIGEST = (
    "f2361c88a83d95001a0505db3bfbb44cd46e73c5b892dc06e325bd3c9e8b7b52"
)

#: sha256 of each service-track campaign report below, by case.
CAMPAIGN_DIGESTS = {
    "single": (
        "f0bf21179a2bda2d43e1456f8bd154fb730a77fd4b8893e15597e8133ac06501"
    ),
    "sharded": (
        "63d4cfeb3ebd2064f7af1ca066032ed1c2d609024b983b29fdb0e35ca49d6bd6"
    ),
}

#: Kill/recover campaigns: the classic one-commit trial, and two shards
#: of multi-transaction groups.
CAMPAIGNS = {
    "single": dict(plans=12, base_seed=5, txns=1, recovery_probability=0.7),
    "sharded": dict(
        plans=12, base_seed=21, txns=6, shards=2, recovery_probability=0.6
    ),
}

GROUP_SIZE, T, K = 5, 2, 4
TICK, RATE, SNAPSHOT_EVERY = 0.002, 600.0, 32
BURST_TXNS, TORN_TAILS = 24, 2


def _store_text(store: MemoryWalStore) -> str:
    snapshot = store.read_snapshot()
    return "".join(store.read_lines()) + "\x00" + (snapshot or "<none>")


def _fingerprint(result) -> str:
    doc = {
        "outcome": result.outcome,
        "recoveries": result.recoveries,
        "bus": result.bus_stats,
        "nodes": [
            [
                node.pid,
                node.incarnation,
                node.steps,
                node.wal_records,
                sorted((node.txns or {}).items()),
            ]
            for node in result.nodes
        ],
        "latency": sorted(result.txn_latency.items()),
        "undecided": sorted(result.undecided.items()),
    }
    return json.dumps(doc, sort_keys=True)


def _tear_tails(stores: list[MemoryWalStore], seed: int) -> None:
    rng = random.Random(seed)
    line = encode_record({"type": "step", "batch": []}).rstrip("\n")
    for pid in sorted(rng.sample(range(len(stores)), TORN_TAILS)):
        stores[pid].append_line(line[: rng.randint(1, len(line) - 1)])


def burst_blob(seed: int) -> str:
    """Two open-loop bursts on one 5-node shard with snapshots every 32
    steps, and a whole-cluster kill leaving seeded torn tails between
    them; every store's bytes and the result after each burst."""
    stores = [MemoryWalStore() for _ in range(GROUP_SIZE)]
    parts: list[str] = []
    for first in (1, BURST_TXNS + 1):
        if first > 1:
            _tear_tails(stores, seed)
        cluster = ServiceCluster(
            shard_configs(1, GROUP_SIZE, T, K, seed),
            seed=seed,
            tick_interval=TICK,
            stores=stores,
            snapshot_every=SNAPSHOT_EVERY,
            K=K,
            workload=TxnWorkload.open_loop(
                BURST_TXNS, RATE, TICK, first_txn=first
            ),
        )
        result = run_virtual(cluster.run(deadline=BURST_TXNS / RATE + 4.0))
        parts.append(_fingerprint(result))
        parts.extend(_store_text(store) for store in stores)
    return "\n".join(parts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_burst_store_bytes_and_results_pinned():
    blob = burst_blob(seed=11)
    # The run must exercise what the digest is meant to pin: snapshots
    # on every node and a recovery from them.
    assert blob.count('"schema":"repro.wal-snapshot v1"') >= GROUP_SIZE
    assert '"type":"recover"' in blob
    assert _sha(blob) == BURST_DIGEST


@pytest.mark.parametrize("case", sorted(CAMPAIGNS))
def test_service_campaign_report_pinned(case):
    report = run_campaign(
        CampaignConfig(n=5, t=2, tracks=("service",), **CAMPAIGNS[case]),
        workers=1,
    )
    blob = json.dumps(report, sort_keys=True) + "\n"
    assert _sha(blob) == CAMPAIGN_DIGESTS[case]
