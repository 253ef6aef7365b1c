"""The TCP face of a service node: one OS process per processor.

Deployment layout: node ``p`` of an ``n``-node cluster is one process
(`repro service start`) listening on ``base_port + p``, with its WAL and
snapshot in ``<data_dir>/node<p>/``.  Peers exchange
:class:`~repro.service.wire.ServiceEnvelope` lines over persistent
links: one long-lived outbound connection per peer, opened on the first
send and reopened on the first send after it breaks.  While the connect
is in flight, sends queue (up to :data:`QUEUE_LIMIT` bytes).  An attempt
is *dropped* — exactly as a refused connection is — when the connect is
refused, when the queue is full, or when the link's write buffer is
above the transport's high-water mark (the peer is not reading).
Dropped attempts cost nothing but time: the node-level
retry-until-acked loop (:mod:`repro.service.node`) is the reliability
layer, exactly as on the in-memory bus, so a peer that is down (killed,
restarting) catches up when it returns.  Peers never write back on a
link, so its reader sees EOF when the peer goes away; the link is then
forgotten and the next send reconnects.  Receivers read any number of
lines per connection.  On halt a server closes its outbound links and
every accepted connection, so ``serve()`` returns even while peers
hold their links to it open.

Clients (``repro service submit|status``) speak the same envelope
framing with ``sender = -1`` and get an inline reply on the same
connection:

* ``submit`` releases the coordinator's held transaction and returns an
  ``ack`` carrying the node's status;
* ``state-query`` returns a ``state-transfer`` whose body includes the
  decision and the full node status — the same record a recovering peer
  would receive, which is why ``repro service status`` needs no
  separate protocol.

Real sockets need real time, so servers run on the standard event loop
(contrast :mod:`repro.service.cluster`, which co-hosts nodes on the
virtual clock).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

from repro.errors import ServiceError
from repro.service.node import ServiceNode
from repro.service.recovery import NodeConfig
from repro.service.wal import FileWalStore
from repro.service.wire import ServiceEnvelope
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("service.server")

#: Bytes a peer link queues while its connect is in flight; sends
#: beyond this are dropped (asyncio's default write high-water mark).
QUEUE_LIMIT = 64 * 1024


def peer_address(base_port: int, pid: int, host: str = "127.0.0.1") -> tuple[str, int]:
    """The listen address of node ``pid`` under the port convention."""
    return (host, base_port + pid)


class ServiceServer:
    """Hosts one :class:`~repro.service.node.ServiceNode` behind TCP.

    Args:
        config: the node's protocol identity.
        store: its durable storage (a
            :class:`~repro.service.wal.FileWalStore` in deployment).
        peers: listen addresses, indexed by pid.
        tick_interval: protocol step granularity in (real) seconds —
            coarser than the in-memory default because real sockets
            carry the traffic.
        fsync: WAL fsync policy (on, in deployment).
        hold_for_submit: wait for a client ``submit`` before stepping
            (the coordinator's default).
        seed: retransmission jitter seed.
    """

    def __init__(
        self,
        config: NodeConfig,
        store: FileWalStore,
        peers: list[tuple[str, int]],
        *,
        tick_interval: float = 0.02,
        fsync: bool = True,
        hold_for_submit: bool = False,
        snapshot_every: int = 256,
        seed: int = 0,
    ) -> None:
        if len(peers) != config.n:
            raise ServiceError(
                f"got {len(peers)} peer addresses for n={config.n}"
            )
        self.peers = peers
        self.node = ServiceNode(
            config,
            store,
            self._send,
            tick_interval=tick_interval,
            fsync=fsync,
            hold_for_submit=hold_for_submit,
            snapshot_every=snapshot_every,
            seed=seed,
        )
        self._server: asyncio.base_events.Server | None = None
        #: Open outbound links, by peer pid.
        self._links: dict[int, asyncio.StreamWriter] = {}
        #: Bytes queued for peers whose connect is in flight.
        self._queued: dict[int, bytearray] = {}
        self._link_tasks: set[asyncio.Task] = set()
        #: Accepted connections (peers' links and clients).
        self._inbound: set[asyncio.StreamWriter] = set()

    # -- outbound ------------------------------------------------------------

    def _send(
        self, recipient: int, envelope: ServiceEnvelope, attempt: int
    ) -> None:
        data = envelope.encode()
        writer = self._links.get(recipient)
        if writer is not None and not writer.is_closing():
            transport = writer.transport
            if (
                transport.get_write_buffer_size()
                <= transport.get_write_buffer_limits()[1]
            ):
                writer.write(data)
            return  # else dropped: the peer is not reading
        queue = self._queued.get(recipient)
        if queue is None:
            queue = self._queued[recipient] = bytearray()
            task = asyncio.ensure_future(self._link(recipient))
            self._link_tasks.add(task)
            task.add_done_callback(self._link_tasks.discard)
        if len(queue) + len(data) <= QUEUE_LIMIT:
            queue += data

    async def _link(self, recipient: int) -> None:
        """Connect to ``recipient``, flush its queue, and hold the link
        open until the peer closes it."""
        host, port = self.peers[recipient]
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            return  # peer down: the queued attempts are dropped
        finally:
            queue = self._queued.pop(recipient)
        if telemetry.enabled():
            telemetry.count(
                "service_peer_connects_total",
                help="outbound peer connections opened",
                pid=self.node.pid,
            )
        writer.write(queue)
        self._links[recipient] = writer
        try:
            while await reader.read(4096):
                pass  # peers never write back: EOF means the peer left
        except OSError:
            pass
        finally:
            if self._links.get(recipient) is writer:
                del self._links[recipient]
            writer.close()

    # -- inbound -------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inbound.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    envelope = ServiceEnvelope.decode(line)
                except ServiceError:
                    _log.warning("dropping undecodable line: %r", line[:200])
                    continue
                if envelope.sender < 0:
                    reply = self._client_request(envelope)
                    writer.write(reply.encode())
                    await writer.drain()
                else:
                    self.node.deliver(envelope)
        except (OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()

    def _client_request(self, envelope: ServiceEnvelope) -> ServiceEnvelope:
        if envelope.kind == "submit":
            txn = envelope.body.get("txn", 0)
            try:
                if isinstance(txn, int) and txn > 0:
                    self.node.submit_txn(txn)
                else:
                    self.node.submit()
            except ServiceError as exc:
                return ServiceEnvelope(
                    kind="ack",
                    sender=self.node.pid,
                    body={"error": f"submit rejected: {exc}"},
                )
            return ServiceEnvelope(
                kind="ack",
                sender=self.node.pid,
                body={"status": asdict(self.node.snapshot_state())},
            )
        status = asdict(self.node.snapshot_state())
        if envelope.kind == "state-query":
            return ServiceEnvelope(
                kind="state-transfer",
                sender=self.node.pid,
                body={"decision": self.node.decision, "status": status},
            )
        return ServiceEnvelope(
            kind="ack",
            sender=self.node.pid,
            body={"error": f"unsupported client request {envelope.kind!r}"},
        )

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Listen, recover/run the node, and serve until halted."""
        host, port = self.peers[self.node.pid]
        self._server = await asyncio.start_server(self._handle, host, port)
        _log.info(
            "p%d listening on %s:%d (data: %s)",
            self.node.pid,
            host,
            port,
            getattr(self.node.store, "directory", "<memory>"),
        )
        try:
            await self.node.run()
        finally:
            self._server.close()
            # Server.wait_closed() also waits for accepted connections
            # (Python 3.12.1+), and peers hold theirs open: close every
            # link in both directions first.
            for task in self._link_tasks:
                task.cancel()
            for writer in (*self._links.values(), *self._inbound):
                writer.close()
            await self._server.wait_closed()

    def halt(self) -> None:
        self.node.halt()
