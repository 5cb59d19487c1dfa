"""``ClusterConfig``'s refusals: the ``RULES`` table against the old code.

The differential half draws flat keyword dicts over every field a rule
reads, with unknown names and values on each side of every bound, and
checks that ``ClusterConfig`` refuses exactly where the pre-table
``__post_init__`` (``tests/dist/config_model.py``) did, with the same
message.  The one difference allowed is a config the old code accepted
and one of the rows added after it refuses: those rows turn away configs
that hung a run or measured nothing.

The example half triggers every row of ``RULES`` as the first failure of
one config and pins its name and exact message, so a row no config can
reach has no example and fails the coverage test.
"""

from dataclasses import MISSING, fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import ChaosConfig, ClusterConfig
from repro.dist.cluster import RULES, ConfigRefused
from repro.sim import LOCAL_TESTBED, LinkFaults
from tests.dist import config_model

#: Rows the old code did not have: they may refuse what it accepted.
NEW_RULES = {"gc-period", "measurement-window", "rpc-retries"}

DEFAULTS = {f.name: (f.default if f.default is not MISSING
                     else f.default_factory()) for f in fields(ClusterConfig)}


def chaos_configs():
    counts = st.sampled_from([0, 0, 0, 1, 2])
    downtimes = st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 2.5])
    return st.builds(ChaosConfig, client_crashes=counts,
                     server_restarts=counts, downtime=downtimes,
                     leader_crashes=counts, leader_downtime=downtimes,
                     follower_restarts=counts, follower_downtime=downtimes)


#: Every field a rule reads, each drawn around its bounds.
FIELDS = {
    "protocol": st.sampled_from(2 * config_model.PROTOCOL_NAMES + ("3pl",)),
    "queue_capacity": st.none() | st.integers(-1, 2),
    "tx_budget": st.none() | st.sampled_from([-0.1, 0.0, 1e-9, 0.15]),
    "commitment": st.sampled_from(["local", "local", "paxos", "raft"]),
    "faults": st.none() | st.just(LinkFaults(loss=0.01)),
    "chaos": st.none() | chaos_configs(),
    "durability": st.sampled_from(["memory", "memory", "wal", "disk"]),
    "checkpoint_every": st.integers(-1, 2),
    "replication": st.integers(-1, 5),
    "num_servers": st.none() | st.integers(0, 5),
    "profile": st.sampled_from([LOCAL_TESTBED, LOCAL_TESTBED.with_servers(2)]),
    "heartbeat_miss_limit": st.integers(0, 2),
    "batching": st.booleans(),
    "follower_reads": st.booleans(),
    "sync_batch": st.integers(0, 2),
    "anti_entropy": st.booleans(),
    "reliable_fanout": st.booleans(),
    "recruitment": st.booleans(),
    "warmup": st.sampled_from([-0.1, 0.0, 0.2, 1.0]),
    "measure": st.sampled_from([-0.1, 0.0, 0.3, 0.6, 4.0]),
    "scenario": st.sampled_from([None, None, "flash-crowd", "no-such"]),
    "gc_period": st.none() | st.sampled_from([-1.0, 0.0, 0.2, 15.0]),
    "rpc_retries": st.integers(-1, 2),
}




def some_of(*always):
    """The ``always`` fields and up to five others: draws that get past the
    early rows more often than a draw over every field does."""
    rest = sorted(set(FIELDS) - set(always))
    return st.lists(st.sampled_from(rest), max_size=5, unique=True).flatmap(
        lambda names: st.fixed_dictionaries(
            {n: FIELDS[n] for n in (*always, *names)}))


KEYWORDS = st.one_of(st.fixed_dictionaries({}, optional=FIELDS),
                     some_of("protocol"), some_of("chaos", "warmup", "measure"))


@settings(max_examples=1500)
@given(kwargs=KEYWORDS)
def test_the_table_refuses_what_the_old_code_refused(kwargs):
    expected = config_model.refusal(SimpleNamespace(**{**DEFAULTS,
                                                      **kwargs}))
    try:
        ClusterConfig(**kwargs)
    except ValueError as refused:
        if expected is None:
            assert getattr(refused, "rule", None) in NEW_RULES, refused
        else:
            assert str(refused) == expected
    else:
        assert expected is None, expected


UNKNOWN_PROTOCOL = ("unknown protocol '3pl'; expected one of ('mvtil-early', "
                    "'mvtil-late', 'mvto', '2pl', 'bohm')")

#: RULES row name -> (keywords whose first failure is that row, message).
EXAMPLES = {
    "unknown-protocol": (dict(protocol="3pl", queue_capacity=0),
                         UNKNOWN_PROTOCOL),
    "queue-capacity": (dict(queue_capacity=0, tx_budget=0.0),
                       "queue_capacity must be >= 1 (or None)"),
    "tx-budget": (dict(tx_budget=0.0, commitment="raft"),
                  "tx_budget must be positive (or None)"),
    "unknown-commitment": (dict(protocol="2pl", commitment="raft",
                                durability="wal"),
                           "unknown commitment backend 'raft'"),
    "2pl-no-recovery": (dict(protocol="2pl", faults=LinkFaults(loss=0.01),
                             durability="wal"),
                        "fault injection requires a recovery protocol; 2pl "
                        "does not have one"),
    "2pl-no-wal": (dict(protocol="2pl", durability="wal",
                        commitment="paxos"),
                   "wal durability requires the MVTL commit machinery; 2pl "
                   "has no commit decisions to log or replay"),
    "2pl-no-paxos": (dict(protocol="2pl", commitment="paxos",
                          checkpoint_every=-1),
                     "2pl has no commitment objects; only the local backend "
                     "is meaningful"),
    "bohm-no-recovery": (dict(protocol="bohm",
                              chaos=ChaosConfig(client_crashes=1),
                              replication=2),
                         "crash chaos requires a recovery protocol; the bohm "
                         "sequencer does not have one"),
    "bohm-unreplicated": (dict(protocol="bohm", follower_reads=True,
                               durability="wal"),
                          "bohm runs unreplicated (single sequencer)"),
    "bohm-no-wal": (dict(protocol="bohm", durability="wal",
                         commitment="paxos"),
                    "wal durability requires the MVTL commit machinery; bohm "
                    "has no per-key commit decisions to log"),
    "bohm-no-paxos": (dict(protocol="bohm", commitment="paxos",
                           checkpoint_every=-1),
                      "bohm has no commitment objects; only the local "
                      "backend is meaningful"),
    "paxos-server-restarts": (dict(commitment="paxos",
                                   chaos=ChaosConfig(server_restarts=1),
                                   durability="disk"),
                              "server restarts are not supported with the "
                              "paxos commitment backend (volatile lock loss "
                              "can race the multi-round decision)"),
    "unknown-durability": (dict(durability="disk", checkpoint_every=-1),
                           "unknown durability mode 'disk'; expected "
                           "'memory' or 'wal'"),
    "checkpoint-every": (dict(checkpoint_every=-1, replication=0),
                         "checkpoint_every must be >= 0"),
    "replication-positive": (dict(replication=0, heartbeat_miss_limit=0),
                             "replication must be >= 1"),
    "replication-exceeds-servers": (dict(protocol="mvto", replication=5,
                                         num_servers=4),
                                    "replication=5 needs at least that many "
                                    "servers (have 4)"),
    "heartbeat-miss-limit": (dict(heartbeat_miss_limit=0, sync_batch=0),
                             "heartbeat_miss_limit must be >= 1"),
    "replication-needs-mvtil": (dict(protocol="mvto", replication=2,
                                     batching=False),
                                "replication > 1 requires an MVTIL protocol "
                                "(mirrored holds carry the leader-granted "
                                "interval locks)"),
    "replication-needs-batching": (dict(replication=2, batching=False,
                                        commitment="paxos"),
                                   "replication > 1 requires batching (write "
                                   "locks are mirrored from the per-server "
                                   "batch grants)"),
    "replication-needs-local-commitment": (
        dict(replication=2, commitment="paxos", sync_batch=0),
        "replication > 1 requires the local commitment backend (the "
        "registry is the replicated decision store)"),
    "follower-reads-need-replication": (dict(follower_reads=True,
                                             sync_batch=0),
                                        "follower_reads requires "
                                        "replication > 1"),
    "sync-batch": (dict(sync_batch=0, anti_entropy=True),
                   "sync_batch must be >= 1"),
    "hardening-needs-replication": (dict(reliable_fanout=True,
                                         recruitment=True),
                                    "anti_entropy and reliable_fanout "
                                    "require replication > 1 (they harden "
                                    "the replica machinery)"),
    "recruitment-needs-anti-entropy": (dict(recruitment=True,
                                            chaos=ChaosConfig(
                                                leader_crashes=1)),
                                       "recruitment requires anti_entropy "
                                       "(a recruit joins through the "
                                       "catch-up sync path)"),
    "leader-crashes-need-replication": (dict(chaos=ChaosConfig(
                                            leader_crashes=1,
                                            follower_restarts=1)),
                                        "chaos.leader_crashes requires "
                                        "replication > 1 (a failover "
                                        "controller must exist to promote "
                                        "a follower)"),
    "follower-restarts-need-replication": (dict(chaos=ChaosConfig(
                                               follower_restarts=1),
                                               measure=0.0),
                                           "chaos.follower_restarts requires "
                                           "replication > 1 (an unreplicated "
                                           "group has no followers to "
                                           "restart)"),
    "chaos-window": (dict(chaos=ChaosConfig(server_restarts=2, downtime=0.4),
                          warmup=0.2, measure=0.6, scenario="no-such"),
                     "downtime 0.4 does not fit 2 restarts into a 0.600s "
                     "window: each restart needs a disjoint slot > 0.4s, so "
                     "the window must be longer than 0.800s (n * downtime)"),
    "unknown-scenario": (dict(scenario="no-such", gc_period=0.0),
                         "unknown scenario 'no-such'; expected one of "
                         "['bank-transfer', 'flash-crowd', 'orders', "
                         "'scan-vs-oltp', 'secondary-index']"),
    "gc-period": (dict(gc_period=0.0, measure=0.0),
                  "gc_period must be positive (or None)"),
    "measurement-window": (dict(measure=0.0, rpc_retries=-1),
                           "warmup must be >= 0 and measure positive"),
    "rpc-retries": (dict(rpc_retries=-1),
                    "rpc_retries must be >= 0"),
}


def test_every_row_has_a_unique_name_and_an_example():
    names = [rule.name for rule in RULES]
    assert len(names) == len(set(names))
    assert set(EXAMPLES) == set(names)


@pytest.mark.parametrize("name", [rule.name for rule in RULES])
def test_each_row_fires_first_on_its_example(name):
    kwargs, message = EXAMPLES[name]
    with pytest.raises(ConfigRefused) as refused:
        ClusterConfig(**kwargs)
    assert refused.value.rule == name
    assert str(refused.value) == message

