"""Simulated message-passing network.

Models the wire between clients and storage servers: each ``send`` delivers
the message to the destination after a sampled one-way latency.  Latencies
are lognormal — a good first-order fit for both switched LANs (low mean, low
variance) and virtualized cloud networks (higher mean, heavy tail), the two
environments of §8.2.

Beyond latency, links can be given a :class:`LinkFaults` model — independent
per-message probabilities of loss, duplication and delay spikes, all sampled
from a dedicated seeded RNG stream so a faulty run is exactly reproducible.
The paper's evaluation uses TCP/Thrift and never loses messages; the fault
models exist to exercise the §7/§H recovery paths (write-lock timeouts,
commitment objects, client retry) that TCP merely hides.  *Crash* failures
are modelled by unregistering a node, after which messages to it vanish —
exactly how a crashed process looks to others in an asynchronous system.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Hashable

import numpy as np

from .simulator import Simulator

__all__ = ["LatencyModel", "LinkFaults", "Network"]

#: Latency draws block-sampled per generator call (see Network.__init__).
LAT_POOL = 256
#: Fault-probability draws per block, when the fault stream is dedicated.
FAULT_POOL = 256


@dataclass(frozen=True)
class LatencyModel:
    """Lognormal one-way latency: ``exp(N(mu, sigma))`` seconds.

    Use :meth:`from_mean` to specify by mean/jitter instead of log-space
    parameters.
    """

    mu: float
    sigma: float

    @classmethod
    def from_mean(cls, mean: float, cv: float = 0.2) -> "LatencyModel":
        """Build from the desired mean and coefficient of variation.

        For a lognormal, ``mean = exp(mu + sigma^2/2)`` and
        ``cv^2 = exp(sigma^2) - 1``.
        """
        sigma2 = np.log1p(cv * cv)
        mu = np.log(mean) - sigma2 / 2.0
        return cls(float(mu), float(np.sqrt(sigma2)))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))


@dataclass(frozen=True)
class LinkFaults:
    """Per-message fault probabilities for a link (or the whole network).

    Each message independently: is dropped with probability ``loss``; is
    delivered twice with probability ``duplicate`` (the second copy takes an
    independently sampled latency and ignores FIFO ordering — exactly the
    retransmit-reordering hazard request-id deduplication must absorb); has
    its latency multiplied by ``spike_factor`` with probability
    ``delay_spike`` (a congestion burst; FIFO ordering still applies, so a
    spike delays everything behind it on the same connection, like TCP
    head-of-line blocking).
    """

    loss: float = 0.0
    duplicate: float = 0.0
    delay_spike: float = 0.0
    spike_factor: float = 10.0

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "delay_spike"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.spike_factor < 1.0:
            raise ValueError("spike_factor must be >= 1")

    @property
    def any(self) -> bool:
        return bool(self.loss or self.duplicate or self.delay_spike)


class Network:
    """Routes messages between registered nodes with sampled latency.

    Delivery is FIFO per ``(src, dst)`` pair, like the TCP connections the
    paper's Thrift transport rides on: a later send between the same two
    nodes never overtakes an earlier one.  (The distributed commit path
    relies on this the same way the prototype does — e.g. a freeze-write
    message reaching a server before the follow-up GC message.)  Fault
    models (:meth:`set_default_faults` / :meth:`set_link_faults`) weaken
    this: lost messages never arrive and duplicated copies may arrive out
    of order.
    """

    def __init__(self, sim: Simulator, latency: LatencyModel,
                 rng: np.random.Generator, *,
                 fault_rng: np.random.Generator | None = None) -> None:
        self.sim = sim
        self.latency = latency
        # Cached log-space parameters: the per-message fast path samples the
        # lognormal directly instead of going through LatencyModel.sample
        # (same generator call, same arguments — identical draws).
        self._lat_mu = latency.mu
        self._lat_sigma = latency.sigma
        self._rng = rng
        # Latency draws are block-sampled: one generator call refills this
        # pool with LAT_POOL lognormal draws, and sends consume it by index.
        # numpy's Generator produces bit-identical values for a size-N block
        # and N sequential single draws, so consuming the pool in order is
        # byte-identical to the unbatched code — provided nothing else
        # interleaves draws on the same stream.  That holds whenever the
        # fault model has its own stream (``fault_rng``) or no fault model
        # is installed; the one exception (faults sharing the latency
        # stream) falls back to single draws and never touches the pool.
        self._lat_pool: list[float] = []
        self._lat_i = 0
        #: RNG for fault sampling; separate from the latency stream so
        #: installing a fault model never perturbs the latency draws of the
        #: messages that do get through.
        self._fault_rng = fault_rng
        # Fault draws are block-sampled like latencies, and on the same
        # condition: only a dedicated stream, which nothing else draws
        # from, can be read ahead (see _refill_fault_pool).
        self._fault_pool: list[float] = []
        self._fault_i = 0
        self._nodes: dict[Hashable, Callable[[Any], None]] = {}
        self._last_arrival: dict[tuple[Hashable, Hashable], float] = {}
        self._default_faults: LinkFaults | None = None
        self._link_faults: dict[tuple[Hashable, Hashable], LinkFaults] = {}
        #: True once any fault model is installed; the fault-free send path
        #: checks this single flag instead of doing a per-message lookup.
        self._have_faults = False
        #: Can a message reach its destination twice?  Servers read this
        #: when they are built and keep a request-dedup log only if it
        #: holds.  True unless the owner knows better: ``run_cluster``
        #: clears it for a run whose clients never retry, and installing a
        #: fault model that duplicates sets it again.
        self.redelivers = True
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_duplicated = 0
        self.delay_spikes = 0

    # -- fault model -------------------------------------------------------

    def _note_duplicates(self, faults: LinkFaults | None) -> None:
        """Switch ``redelivers`` on for a model that duplicates.  Nodes
        already attached read the flag when built, so switching it on
        under them is refused rather than left unseen."""
        if faults is None or not faults.duplicate or self.redelivers:
            return
        if self._nodes:
            raise ValueError("a duplicating fault model needs redelivers "
                             "set before any node is attached")
        self.redelivers = True

    def set_default_faults(self, faults: LinkFaults | None) -> None:
        """Apply ``faults`` to every link without a per-link override."""
        self._note_duplicates(faults)
        self._default_faults = faults
        self._have_faults = (self._default_faults is not None
                             or bool(self._link_faults))

    def set_link_faults(self, src: Hashable, dst: Hashable,
                        faults: LinkFaults | None) -> None:
        """Apply ``faults`` to the directed link ``src -> dst`` only."""
        self._note_duplicates(faults)
        if faults is None:
            self._link_faults.pop((src, dst), None)
        else:
            self._link_faults[(src, dst)] = faults
        self._have_faults = (self._default_faults is not None
                             or bool(self._link_faults))

    # -- membership --------------------------------------------------------

    def register(self, node_id: Hashable,
                 deliver: Callable[[Any], None]) -> None:
        """Attach a node; ``deliver(msg)`` is invoked for each arrival."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        self._nodes[node_id] = deliver

    def unregister(self, node_id: Hashable) -> None:
        """Detach a node (crash): in-flight and future messages are dropped.

        The node's FIFO arrival floors are cleared on both directions: a
        restarted node re-registering under the same identity starts fresh
        connections, so its first messages must not inherit the pre-crash
        arrival floor (which could be arbitrarily far in the future after a
        delay spike).
        """
        self._nodes.pop(node_id, None)
        for conn in [c for c in self._last_arrival
                     if c[0] == node_id or c[1] == node_id]:
            del self._last_arrival[conn]

    def is_up(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    # -- transport ---------------------------------------------------------

    def send(self, dst: Hashable, msg: Any,
             src: Hashable | None = None) -> None:
        """Deliver ``msg`` to ``dst`` after a sampled one-way latency.

        Pass ``src`` to get FIFO ordering with earlier sends on the same
        (src, dst) connection.  Sends to unknown/crashed destinations are
        silently dropped (the asynchronous-system view of a crashed
        process).  When a fault model covers the link, the message may be
        lost, duplicated, or hit by a delay spike.
        """
        self.messages_sent += 1
        sim = self.sim
        if not self._have_faults:
            # Fault-free fast path: no link lookup, latency served from the
            # block-sampled pool (identical draws to per-message sampling).
            i = self._lat_i
            pool = self._lat_pool
            if i >= len(pool):
                pool = self._lat_pool = self._rng.lognormal(
                    self._lat_mu, self._lat_sigma, LAT_POOL).tolist()
                i = 0
            self._lat_i = i + 1
            now = sim.now
            arrival = now + pool[i]
            if src is not None:
                conn = (src, dst)
                prev = self._last_arrival.get(conn, 0.0)
                if arrival < prev:
                    arrival = prev  # FIFO: do not overtake earlier messages
                self._last_arrival[conn] = arrival
            # Inlined sim.schedule(arrival - now, ...): one delivery per
            # message makes the call overhead measurable.  The event time
            # MUST stay ``now + (arrival - now)`` — schedule() computes
            # that, and it is not the same float as ``arrival``.
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap,
                     (now + (arrival - now), seq, self._deliver, (dst, msg)))
            return
        # Faulted path, inlined like the fast path above: the link's
        # model (a per-link override, else the default), up to three
        # uniform draws served from the pool by index, each made only if
        # its probability is set (a lost message consumes exactly one),
        # and the latency draw between the duplicate and the spike draws —
        # on a shared stream that order is the stream's order.
        faults = self._default_faults
        if self._link_faults:
            faults = self._link_faults.get((src, dst), faults)
        duplicated = False
        faulty = faults is not None and (faults.loss or faults.duplicate
                                        or faults.delay_spike)
        if faulty:
            pool = self._fault_pool
            i = self._fault_i
            if faults.loss:
                if i >= len(pool):
                    pool, i = self._refill_fault_pool(), 0
                i += 1
                if pool[i - 1] < faults.loss:
                    self._fault_i = i
                    self.messages_lost += 1
                    return
            if faults.duplicate:
                if i >= len(pool):
                    pool, i = self._refill_fault_pool(), 0
                i += 1
                duplicated = pool[i - 1] < faults.duplicate
        if self._fault_rng is None:
            delay = float(self._rng.lognormal(self._lat_mu, self._lat_sigma))
        else:
            j = self._lat_i
            lat = self._lat_pool
            if j >= len(lat):
                lat = self._lat_pool = self._rng.lognormal(
                    self._lat_mu, self._lat_sigma, LAT_POOL).tolist()
                j = 0
            self._lat_i = j + 1
            delay = lat[j]
        if faulty:
            if faults.delay_spike:
                if i >= len(pool):
                    pool, i = self._refill_fault_pool(), 0
                i += 1
                if pool[i - 1] < faults.delay_spike:
                    self.delay_spikes += 1
                    delay *= faults.spike_factor
            self._fault_i = i
        now = sim.now
        arrival = now + delay
        if src is not None:
            conn = (src, dst)
            prev = self._last_arrival.get(conn, 0.0)
            if arrival < prev:
                arrival = prev  # FIFO: do not overtake the previous message
            self._last_arrival[conn] = arrival
        # Inlined sim.schedule(arrival - now, ...), as on the fast path.
        seq = sim._seq
        heappush(sim._heap,
                 (now + (arrival - now), seq, self._deliver, (dst, msg)))
        if duplicated:
            # The duplicate rides outside the FIFO floor: it models a
            # retransmitted datagram and may overtake later sends.
            self.messages_duplicated += 1
            seq += 1
            heappush(sim._heap,
                     (now + self._next_latency(), seq, self._deliver,
                      (dst, msg)))
        sim._seq = seq + 1

    def _refill_fault_pool(self) -> list[float]:
        """The next block of uniform fault draws: FAULT_POOL of them from
        the dedicated stream (a size-N block is the same N sequential
        draws), a single one when faults share the latency stream — reading
        ahead there would reorder the interleaved latency draws."""
        if self._fault_rng is None:
            pool = [self._rng.random()]
        else:
            pool = self._fault_rng.random(FAULT_POOL).tolist()
        self._fault_pool = pool
        return pool

    def _next_latency(self) -> float:
        """One lognormal latency draw on the faulted path, pooled when the
        pool is sound.

        Fault probability draws share the latency stream only when no
        dedicated ``fault_rng`` was given; block-sampling would then reorder
        the interleaved draws, so that configuration samples singly.
        """
        if self._fault_rng is None:
            return float(self._rng.lognormal(self._lat_mu, self._lat_sigma))
        i = self._lat_i
        pool = self._lat_pool
        if i >= len(pool):
            pool = self._lat_pool = self._rng.lognormal(
                self._lat_mu, self._lat_sigma, LAT_POOL).tolist()
            i = 0
        self._lat_i = i + 1
        return pool[i]

    def _deliver(self, dst: Hashable, msg: Any) -> None:
        deliver = self._nodes.get(dst)
        if deliver is not None:
            deliver(msg)
