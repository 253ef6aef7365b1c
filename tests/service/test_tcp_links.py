"""Persistent peer links of the TCP service, over real sockets.

A :class:`~repro.service.server.ServiceServer` keeps one outbound
connection per peer.  These tests drive its send hook directly against
a bare listener that records what arrives, plus one real three-node
cluster for the connect counter.  Every test is a plain function around
``asyncio.run`` so it can also be called without pytest, e.g. under
another interpreter::

    PYTHONPATH=src:. python3.12 -c "import tests.service.test_tcp_links as t;
        t.test_serve_returns_after_halt_with_links_open()"
"""

import asyncio
import contextlib

from repro.service.cluster import node_configs
from repro.service.server import QUEUE_LIMIT, ServiceServer
from repro.service.wal import MemoryWalStore
from repro.service.wire import ServiceEnvelope
from repro.telemetry.registry import MetricsRegistry, use_registry
from tests.service.test_tcp import free_ports, make_servers, wait_decided

N, T, K = 3, 1, 4
HOST = "127.0.0.1"


class Listener:
    """A bare peer: accepts connections and records the lines sent."""

    def __init__(self, port: int, read: bool = True) -> None:
        self.port = port
        self.read = read
        self.accepted = 0
        self.lines: list[bytes] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._server = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, HOST, self.port)

    async def stop(self) -> None:
        self._server.close()
        for writer in self._writers:
            writer.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        self.accepted += 1
        self._writers.add(writer)
        try:
            while self.read:
                line = await reader.readline()
                if not line:
                    break
                self.lines.append(line)
            else:
                await asyncio.Event().wait()  # hold the link, read nothing
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    def seqs(self) -> list[int]:
        return [ServiceEnvelope.decode(line).seq for line in self.lines]


def sender(peers) -> ServiceServer:
    """A server whose send hook is driven by hand (it never serves)."""
    config = node_configs(N, T, [1] * N, K, seed=0)[0]
    return ServiceServer(config, MemoryWalStore(), peers, fsync=False)


def envelope(seq: int, pad: int = 0) -> ServiceEnvelope:
    return ServiceEnvelope(
        kind="msg", sender=0, seq=seq, body={"pad": "x" * pad}
    )


async def until(predicate, timeout: float = 5.0) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


@contextlib.contextmanager
def counting_connects(stats):
    """Wrap ``asyncio.open_connection`` to count calls in flight."""
    original = asyncio.open_connection

    async def counted(*args, **kwargs):
        stats["calls"] += 1
        stats["in_flight"] += 1
        stats["max_in_flight"] = max(stats["max_in_flight"], stats["in_flight"])
        try:
            return await original(*args, **kwargs)
        finally:
            stats["in_flight"] -= 1

    asyncio.open_connection = counted
    try:
        yield stats
    finally:
        asyncio.open_connection = original


def test_envelopes_arrive_in_order_over_one_connection():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        listener = Listener(ports[1])
        await listener.start()
        server = sender(peers)
        # The first half queues behind the connect; the second half is
        # written straight to the open link.
        for seq in range(100):
            server._send(1, envelope(seq), 0)
        await until(lambda: len(listener.lines) == 100)
        assert 1 in server._links
        for seq in range(100, 200):
            server._send(1, envelope(seq), 0)
        await until(lambda: len(listener.lines) == 200)
        assert listener.seqs() == list(range(200))
        assert listener.accepted == 1
        await listener.stop()

    asyncio.run(scenario())


def test_restarted_peer_gets_later_sends_with_one_connect_in_flight():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    stats = {"calls": 0, "in_flight": 0, "max_in_flight": 0}

    async def scenario():
        server = sender(peers)
        listener = Listener(ports[1])
        await listener.start()
        for seq in range(10):
            server._send(1, envelope(seq), 0)
        await until(lambda: len(listener.lines) == 10)

        # The peer goes away: its link sees EOF and is forgotten.
        await listener.stop()
        await until(lambda: not server._links)
        for seq in range(10, 20):
            server._send(1, envelope(seq), 0)  # refused: dropped
        await until(lambda: not server._link_tasks)

        restarted = Listener(ports[1])
        await restarted.start()
        for seq in range(20, 30):
            server._send(1, envelope(seq), 0)
        await until(lambda: len(restarted.lines) == 10)
        assert restarted.seqs() == list(range(20, 30))
        assert restarted.accepted == 1
        await restarted.stop()

    with counting_connects(stats):
        asyncio.run(scenario())
    # One connect per life of the link (first, refused, after restart).
    assert stats["calls"] == 3
    assert stats["max_in_flight"] == 1


def test_sends_to_a_down_peer_never_raise_and_stay_bounded():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        server = sender(peers)
        for seq in range(5000):
            server._send(2, envelope(seq, pad=100), 0)
            assert len(server._queued[2]) <= QUEUE_LIMIT
        assert len(server._link_tasks) == 1
        await until(lambda: not server._link_tasks)
        assert server._queued == {} and server._links == {}

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_costs_bounded_buffer():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]
    pad = 60_000

    async def scenario():
        listener = Listener(ports[1], read=False)
        await listener.start()
        server = sender(peers)
        server._send(1, envelope(0), 0)
        await until(lambda: 1 in server._links)
        transport = server._links[1].transport
        high = transport.get_write_buffer_limits()[1]
        peak = 0
        # Far more than the socket buffers hold: once the peer's
        # buffers fill, writes above the high-water mark are dropped.
        for seq in range(1, 400):
            server._send(1, envelope(seq, pad=pad), 0)
            peak = max(peak, transport.get_write_buffer_size())
            if seq % 20 == 0:
                await asyncio.sleep(0)
        assert high < peak <= high + pad + 200
        await listener.stop()

    asyncio.run(scenario())


def test_serve_returns_after_halt_with_links_open():
    ports = free_ports(N)
    peers = [(HOST, port) for port in ports]

    async def scenario():
        listeners = [Listener(port) for port in ports[1:]]
        for listener in listeners:
            await listener.start()
        server = sender(peers)
        serving = asyncio.ensure_future(server.serve())
        await asyncio.sleep(0.1)
        # Outbound links to both peers, and a peer's link into us that
        # the peer never closes.
        for peer in (1, 2):
            server._send(peer, envelope(0), 0)
        _reader, inbound = await asyncio.open_connection(*peers[0])
        inbound.write(envelope(0).encode())
        await until(lambda: len(server._links) == 2 and server._inbound)

        server.halt()
        await asyncio.wait_for(serving, timeout=5.0)
        inbound.close()
        for listener in listeners:
            await listener.stop()

    asyncio.run(scenario())


def test_connects_per_node_bounded_by_peers_times_lives():
    stores = [MemoryWalStore() for _ in range(N)]
    peers = [(HOST, port) for port in free_ports(N)]
    registry = MetricsRegistry(enabled=True)

    async def scenario():
        servers = make_servers(stores, peers)
        tasks = [asyncio.ensure_future(s.serve()) for s in servers]
        await asyncio.sleep(0.2)
        servers[0].node.submit()
        await wait_decided([s.node for s in servers])

        # One more life: restart a participant over its store.
        servers[1].halt()
        await asyncio.wait_for(tasks[1], timeout=5.0)
        servers[1] = make_servers(stores, peers)[1]
        tasks[1] = asyncio.ensure_future(servers[1].serve())
        await wait_decided([servers[1].node])
        assert {s.node.decision for s in servers} == {1}

        for server in servers:
            server.halt()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

    with use_registry(registry):
        asyncio.run(scenario())
    connects = registry.metrics()["service_peer_connects_total"].samples()
    lives = N + 1
    assert connects
    for count in connects.values():
        assert count <= (N - 1) * lives
