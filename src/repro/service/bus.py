"""In-memory message fabric for service clusters under test.

The deployable service speaks TCP (:mod:`repro.service.server`); the
campaign track swaps the sockets for this bus so thousands of
kill/recover trials run on the virtual-clock event loop with zero I/O.
Both transports carry the same :class:`~repro.service.wire.ServiceEnvelope`
and both are *dumb*: delivery is best-effort, at-most-once per attempt,
with sampled latency and optional plan-driven link faults.  All
reliability (retry-until-acked, dedup) lives in the node, because that
is the crash-recovery point of the exercise — the reliability state must
die with the process and be rebuilt from the WAL.

Down-node semantics mirror a real network: an envelope addressed to a
node that is down *at delivery time* is lost (the host isn't listening),
and killing a node drains its queue (undelivered-to-the-process bytes
lived in the dead process's memory).  The sender's retry loop, not the
fabric, recovers these losses.

Fault randomness is keyed per ``(sender, incarnation, seq, recipient,
attempt)`` via :data:`~repro.engine.seeds.SERVICE_ENVELOPE_STREAM`, so a
link's verdict for one transmission is independent of scheduling order —
the same schedule-independence discipline as the runtime transport.
The generator is seeded on its first draw: a fault-free link with a
fixed delay never draws, and seeding one per send would dominate the
send's cost.
"""

from __future__ import annotations

import asyncio
import random

from repro.engine.seeds import SERVICE_ENVELOPE_STREAM, derive_keyed
from repro.errors import ServiceError
from repro.runtime.delays import DelayModel, FixedDelay
from repro.runtime.transport import LinkFaultPolicy
from repro.service.wire import ServiceEnvelope


class _KeyedRandom:
    """A :class:`random.Random` for one transmission, seeded on first use.

    Draws see exactly the generator ``random.Random(seed)`` would be.
    """

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng: random.Random | None = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return getattr(self._rng, name)


class ServiceBus:
    """Best-effort envelope fabric between ``n`` co-located nodes.

    Args:
        n: cluster size (pids ``0..n-1``).
        seed: trial seed; all fault/delay randomness derives from it.
        delay: delivery latency model (defaults to a fixed small delay).
        link_faults: optional per-link fault policy (drop / duplicate /
            extra delay), e.g. a compiled
            :class:`~repro.faults.runtime_compile.PlanLinkFaults`.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        delay: DelayModel | None = None,
        link_faults: LinkFaultPolicy | None = None,
    ) -> None:
        if n <= 0:
            raise ServiceError(f"cluster size must be positive, got {n}")
        self.n = n
        self.seed = seed
        self.delay = delay if delay is not None else FixedDelay(0.001)
        self.link_faults = link_faults
        self._queues: dict[int, asyncio.Queue[ServiceEnvelope]] = {}
        self._up: set[int] = set(range(n))
        self.delivered = 0
        self.dropped = 0

    def _queue(self, pid: int) -> asyncio.Queue[ServiceEnvelope]:
        if pid not in self._queues:
            self._queues[pid] = asyncio.Queue()
        return self._queues[pid]

    # -- lifecycle hooks (the cluster orchestrator calls these) --------------

    def mark_down(self, pid: int) -> None:
        """Kill ``pid``: stop delivering to it and drain its queue."""
        self._up.discard(pid)
        queue = self._queue(pid)
        while not queue.empty():
            queue.get_nowait()
            self.dropped += 1

    def mark_up(self, pid: int) -> None:
        """Bring ``pid`` back: future deliveries reach it again."""
        self._up.add(pid)

    def is_up(self, pid: int) -> bool:
        return pid in self._up

    # -- transmission --------------------------------------------------------

    def send(
        self, recipient: int, envelope: ServiceEnvelope, attempt: int = 0
    ) -> None:
        """Transmit one copy of ``envelope`` toward ``recipient``.

        Returns immediately; delivery happens after the sampled latency,
        and only if the recipient is up at that moment.  ``attempt``
        distinguishes retransmissions of the same envelope so their
        fault draws are independent.
        """
        if not 0 <= recipient < self.n:
            raise ServiceError(
                f"recipient {recipient} out of range for n={self.n}"
            )
        rng = _KeyedRandom(
            derive_keyed(
                self.seed,
                SERVICE_ENVELOPE_STREAM,
                envelope.sender,
                envelope.incarnation,
                envelope.seq,
                recipient,
                attempt,
            )
        )
        copies = 1
        extra_delay = 0.0
        loop = asyncio.get_running_loop()
        if self.link_faults is not None:
            verdict = self.link_faults.verdict(
                envelope.sender, recipient, loop.time(), rng
            )
            if verdict.drop:
                self.dropped += 1
                return
            copies += verdict.duplicates
            extra_delay = verdict.extra_delay
        for _ in range(copies):
            latency = self.delay.sample(rng) + extra_delay
            loop.call_later(latency, self._deliver, recipient, envelope)

    def _deliver(self, recipient: int, envelope: ServiceEnvelope) -> None:
        if recipient not in self._up:
            self.dropped += 1
            return
        self.delivered += 1
        self._queue(recipient).put_nowait(envelope)

    async def receive(self, pid: int) -> ServiceEnvelope:
        """Await the next envelope addressed to ``pid``."""
        return await self._queue(pid).get()
