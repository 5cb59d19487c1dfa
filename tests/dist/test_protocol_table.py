"""What each protocol refuses, pinned message by message.

Every name in ``PROTOCOLS`` crossed with the six features a protocol may
not support: each cell is either accepted by ``ClusterConfig`` or refused
with one exact message.  Two configs with two violations each pin which
rule fires first.  Then every protocol's server: it counts the requests
it serves and refuses a message it does not speak.
"""

import numpy as np
import pytest

from repro.dist import (PROTOCOLS, ChaosConfig, ClusterConfig,
                        CommitmentRegistry, run_cluster)
from repro.dist.messages import ClockBroadcast
from repro.sim import LOCAL_TESTBED, LinkFaults, Network, Simulator
from repro.workload import WorkloadConfig

FEATURES = {
    "link-faults": dict(faults=LinkFaults(loss=0.01)),
    "crash-chaos": dict(chaos=ChaosConfig(client_crashes=1)),
    "wal": dict(durability="wal"),
    "replication-3": dict(replication=3),
    "follower-reads-alone": dict(follower_reads=True),
    "paxos": dict(commitment="paxos"),
}

NO_RECOVERY_2PL = ("fault injection requires a recovery protocol; "
                   "2pl does not have one")
NOT_MVTIL = ("replication > 1 requires an MVTIL protocol (mirrored holds "
             "carry the leader-granted interval locks)")
FOLLOWERS_NEED_REPLICAS = "follower_reads requires replication > 1"
BOHM_UNREPLICATED = "bohm runs unreplicated (single sequencer)"

#: protocol -> feature -> the refusal message (absent = accepted).
REFUSED = {
    "mvtil-early": {"follower-reads-alone": FOLLOWERS_NEED_REPLICAS},
    "mvtil-late": {"follower-reads-alone": FOLLOWERS_NEED_REPLICAS},
    "mvto": {"replication-3": NOT_MVTIL,
             "follower-reads-alone": FOLLOWERS_NEED_REPLICAS},
    "2pl": {
        "link-faults": NO_RECOVERY_2PL,
        "crash-chaos": NO_RECOVERY_2PL,
        "wal": "wal durability requires the MVTL commit machinery; 2pl has "
               "no commit decisions to log or replay",
        "replication-3": NOT_MVTIL,
        "follower-reads-alone": FOLLOWERS_NEED_REPLICAS,
        "paxos": "2pl has no commitment objects; only the local backend is "
                 "meaningful",
    },
    "bohm": {
        "crash-chaos": "crash chaos requires a recovery protocol; the bohm "
                       "sequencer does not have one",
        "wal": "wal durability requires the MVTL commit machinery; bohm has "
               "no per-key commit decisions to log",
        "replication-3": BOHM_UNREPLICATED,
        "follower-reads-alone": BOHM_UNREPLICATED,
        "paxos": "bohm has no commitment objects; only the local backend is "
                 "meaningful",
    },
}


def test_the_matrix_covers_every_protocol_in_table_order():
    assert tuple(PROTOCOLS) == ("mvtil-early", "mvtil-late", "mvto", "2pl",
                                "bohm")
    assert set(REFUSED) == set(PROTOCOLS)


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_each_protocol_accepts_or_refuses_each_feature(protocol, feature):
    kwargs = dict(protocol=protocol, num_servers=4, **FEATURES[feature])
    message = REFUSED[protocol].get(feature)
    if message is None:
        assert ClusterConfig(**kwargs).protocol == protocol
        return
    with pytest.raises(ValueError) as refused:
        ClusterConfig(**kwargs)
    assert str(refused.value) == message


@pytest.mark.parametrize("kwargs, message", [
    # The server count is checked before MVTO+ is told it cannot replicate.
    (dict(protocol="mvto", replication=5, num_servers=4),
     "replication=5 needs at least that many servers (have 4)"),
    # 2PL's missing recovery protocol is reported before its missing WAL.
    (dict(protocol="2pl", durability="wal",
          faults=LinkFaults(loss=0.01)), NO_RECOVERY_2PL),
])
def test_the_first_violated_rule_is_reported(kwargs, message):
    with pytest.raises(ValueError) as refused:
        ClusterConfig(**kwargs)
    assert str(refused.value) == message


def test_an_unknown_protocol_names_the_table():
    with pytest.raises(ValueError) as refused:
        ClusterConfig(protocol="3pl")
    assert str(refused.value) == (
        "unknown protocol '3pl'; expected one of ('mvtil-early', "
        "'mvtil-late', 'mvto', '2pl', 'bohm')")


SMALL = WorkloadConfig(num_keys=60, tx_size=4, write_fraction=0.5)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_every_server_kind_counts_its_requests(protocol):
    result = run_cluster(ClusterConfig(
        protocol=protocol, workload=SMALL, num_servers=2, num_clients=4,
        seed=5, warmup=0.05, measure=0.2))
    assert result.committed > 0
    # Every commit needed at least one request at some server.
    assert sum(s["requests"] for s in result.server_stats) >= result.committed


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_every_server_kind_refuses_a_foreign_message(protocol):
    sim = Simulator()
    net = Network(sim, LOCAL_TESTBED.latency, np.random.default_rng(0))
    config = ClusterConfig(protocol=protocol)
    server = PROTOCOLS[protocol].server(
        config, sim, net, "s0", np.random.default_rng(1),
        registry=CommitmentRegistry(sim), consensus=None, history=None)
    with pytest.raises(TypeError, match="unknown message"):
        server._on_request(ClockBroadcast(t=1.0))
