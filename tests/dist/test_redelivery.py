"""Redelivery: a request reaches its server twice only when the run can
deliver it twice, and only then do the servers keep a request-dedup log.

Two things re-send a request under the same ``(client, req_id)``: a client
retry (``rpc_retries > 0``; every re-send goes through ``BaseClient._rpc``
/ ``_rpc_many`` with the same message object) and a duplicating link
(``LinkFaults.duplicate > 0``).  Everything else a run sends — Paxos,
replica holds, anti-entropy, heartbeats, purges — is built fresh on every
send.  The property draws flat :class:`ClusterConfig` keywords with neither
(every protocol, batching both ways, local and Paxos commitment,
replication 1 and 3 with their chaos, memory and WAL durability, client
crashes and server restarts, loss-only links) and wraps
``_ServerBase._on_request`` to count arrivals per ``(server, client,
req_id)``, skipping the un-parking ``_Resubmit`` envelope and arrivals at
a crashed server.  No key may arrive twice, and no server may keep a log
entry.  Two controls, one per source of redelivery, must see a repeat, a
counted ``dup_requests`` and a kept log.

The property runs at a pinned seed unless pytest is given
``--hypothesis-seed``.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from repro.dist import ClusterConfig, run_cluster
from repro.dist.failure import ChaosConfig
from repro.dist.server import _Resubmit, _ServerBase
from repro.sim.network import LinkFaults
from repro.workload import WorkloadConfig

PINNED_SEED = 20181
EXAMPLES = 30
MVTL = ("mvtil-early", "mvtil-late", "mvto")
BASE = dict(num_clients=6, num_servers=3, warmup=0.05, measure=0.4,
            write_lock_timeout=0.3, rpc_timeout=0.05)


@st.composite
def quiet_configs(draw) -> dict:
    """Keywords of a run that cannot redeliver: no client retries and no
    duplicating link, everything else drawn where the config allows it."""
    protocol = draw(st.sampled_from((*MVTL, "2pl", "bohm")))
    kw = dict(BASE, protocol=protocol, rpc_retries=0,
              seed=draw(st.integers(0, 2**16)),
              batching=draw(st.booleans()),
              gc_period=draw(st.sampled_from((None, 0.1))),
              workload=WorkloadConfig(
                  num_keys=draw(st.sampled_from((20, 200))), tx_size=4,
                  write_fraction=draw(st.sampled_from((0.2, 0.7)))))
    if protocol != "2pl" and draw(st.booleans()):
        kw["faults"] = LinkFaults(loss=draw(st.sampled_from((0.01, 0.05))))
    if protocol not in MVTL:
        return kw
    replicated = protocol != "mvto" and draw(st.booleans())
    if replicated:
        anti_entropy = draw(st.booleans())
        kw.update(replication=3, batching=True, anti_entropy=anti_entropy,
                  recruitment=anti_entropy and draw(st.booleans()),
                  follower_reads=draw(st.booleans()),
                  reliable_fanout=draw(st.booleans()))
    else:
        kw["commitment"] = draw(st.sampled_from(("local", "paxos")))
    kw["durability"] = draw(st.sampled_from(("memory", "wal")))
    paxos = kw.get("commitment") == "paxos"
    chaos = dict(
        client_crashes=draw(st.integers(0, 2)),
        server_restarts=0 if paxos else draw(st.integers(0, 1)),
        leader_crashes=draw(st.integers(0, 1)) if replicated else 0,
        follower_restarts=draw(st.integers(0, 1)) if replicated else 0)
    if any(chaos.values()):
        kw["chaos"] = ChaosConfig(**chaos, downtime=0.1,
                                  leader_downtime=0.15,
                                  follower_downtime=0.1)
    return kw


class Observed(NamedTuple):
    """What one run showed: the ``(server, client, req_id)`` keys that
    arrived more than once, the servers' ``dup_requests`` total, and the
    dedup-log size of every server that kept one."""

    repeated: dict
    dup_requests: int
    kept: dict


def observe(kw: dict) -> Observed:
    """Run ``kw``, counting arrivals and recording every server built."""
    arrivals: Counter = Counter()
    servers: list[_ServerBase] = []
    init, on_request = _ServerBase.__init__, _ServerBase._on_request

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    def counting_on_request(self, msg):
        if msg.__class__ is not _Resubmit and not self.crashed \
                and msg.is_request:
            arrivals[(self.server_id, msg.client, msg.req_id)] += 1
        on_request(self, msg)

    with mock.patch.object(_ServerBase, "__init__", recording_init), \
            mock.patch.object(_ServerBase, "_on_request",
                              counting_on_request):
        run_cluster(ClusterConfig(**kw))
    assert servers and arrivals, "the run served no request"
    return Observed(
        repeated={k: n for k, n in arrivals.items() if n > 1},
        dup_requests=sum(s.stats["dup_requests"] for s in servers),
        kept={s.server_id: len(s._req_log) for s in servers if s._req_log})


_observed: dict[str, Observed] = {}


def observe_once(kw: dict) -> Observed:
    """:func:`observe`, run once per config across the property tests."""
    key = repr(sorted(kw.items()))
    if key not in _observed:
        _observed[key] = observe(kw)
    return _observed[key]


def _property(pytestconfig, check):
    # No shrink phase: every step would be a whole cluster run, and the
    # failing keywords are printed in full anyway.
    test = settings(max_examples=EXAMPLES, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))(
        given(quiet_configs())(check))
    if pytestconfig.getoption("hypothesis_seed", None) is None:
        test = seed(PINNED_SEED)(test)
    test()


def test_no_request_arrives_twice(pytestconfig):
    def check(kw):
        seen = observe_once(kw)
        assert not seen.repeated, (kw, seen.repeated)
        assert seen.dup_requests == 0

    _property(pytestconfig, check)


def test_no_dedup_log_when_nothing_redelivers(pytestconfig):
    def check(kw):
        seen = observe_once(kw)
        assert not seen.kept, (kw, seen.kept)

    _property(pytestconfig, check)


CONTROLS = {
    "retries-under-loss": dict(BASE, rpc_retries=3, seed=1,
                               faults=LinkFaults(loss=0.05),
                               workload=WorkloadConfig(num_keys=200,
                                                       tx_size=4)),
    "duplicating-link": dict(BASE, seed=1,
                             faults=LinkFaults(duplicate=0.05),
                             workload=WorkloadConfig(num_keys=200,
                                                     tx_size=4)),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_redelivering_runs_keep_the_log(name):
    seen = observe(CONTROLS[name])
    assert seen.repeated
    assert seen.dup_requests > 0
    assert seen.kept
