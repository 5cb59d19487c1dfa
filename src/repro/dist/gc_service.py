"""The timestamp service (§8.1).

"A timestamp service periodically broadcasts a message with a time T in the
past, equal to the service's current time minus a constant K."  The broadcast
has two effects: servers purge versions (and their lock state) older than T,
and clients with slow clocks advance to T so they do not start transactions
that would need purged versions.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..core.timestamp import Timestamp
from ..sim.network import Network
from ..sim.simulator import Simulator
from .messages import ClockBroadcast, PurgeReq

__all__ = ["TimestampService"]

_PID_MIN = -(2**31)


class TimestampService:
    """Periodically broadcasts T = now - K to servers and clients."""

    def __init__(self, sim: Simulator, net: Network,
                 servers: Iterable[Hashable], clients: Iterable[Hashable],
                 *, horizon: float, period: float = 15.0) -> None:
        self.sim = sim
        self.net = net
        self.servers = list(servers)
        self.clients = list(clients)
        self.horizon = horizon
        self.period = period
        self.broadcasts = 0

    def start(self) -> None:
        self.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        t = self.sim.now - self.horizon
        if t > 0:
            bound = Timestamp(t, _PID_MIN)
            # Skip crashed nodes: broadcasting into the void would inflate
            # the message counters forever (a crashed client never comes
            # back; a crashed server purges on its own schedule once it
            # rejoins and the next tick reaches it).
            for server in self.servers:
                if self.net.is_up(server):
                    self.net.send(server, PurgeReq(
                        tx_id="__ts_service__", client="__ts_service__",
                        req_id=self.broadcasts, bound=bound))
            for client in self.clients:
                if self.net.is_up(client):
                    self.net.send(client, ClockBroadcast(t=t))
            self.broadcasts += 1
        self.sim.schedule(self.period, self._tick)
