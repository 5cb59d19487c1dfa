"""The simulator's event heap holds live work only.

A write-lock timeout (2 s) and an RPC timeout (5 s) outlive the short
digest runs, so a heap that held every armed timer grew with every lock
granted and every RPC sent: thousands of entries after the measured
window.  Only each server's and each mailbox's next deadline may sit in
the heap; the rest of it is in-flight messages, queued service
completions and a few periodic ticks.
"""

from __future__ import annotations

import pytest

from repro.dist import run_cluster
from repro.sim import Simulator
from tests.integration.test_result_digests import CONFIGS


@pytest.mark.parametrize("name",
                         ["mvtil-hotpath", "mvto-grid", "mvtil-contended"])
def test_pending_events_stay_bounded_by_the_node_count(name, monkeypatch):
    config = CONFIGS[name]
    servers = (config.num_servers if config.num_servers is not None
               else config.profile.num_servers)
    bound = 3 * (config.num_clients + servers) + 16
    pending = []
    run_until = Simulator.run_until

    def spy(sim, t_end):
        run_until(sim, t_end)
        pending.append(sim.pending_events)

    monkeypatch.setattr(Simulator, "run_until", spy)
    run_cluster(config)
    assert pending and max(pending) <= bound, (pending, bound)
