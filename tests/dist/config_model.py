"""Reference model for the ``ClusterConfig`` rule-table differential suite.

This is ``ClusterConfig.__post_init__`` and ``ChaosConfig.check_window``
exactly as they stood before the refusals became the named ``RULES``
table of :mod:`repro.dist.cluster`: inline ``if``/``raise`` statements in
their original order, with each ``raise ValueError(message)`` turned into
``return message``.  The protocol rows are the ``ProtocolSpec.refuses``
pairs and ``replicable`` flags of that time, restated here so a drifted
message in the real table shows up as a difference.

``refusal(config)`` takes any object with ``ClusterConfig``'s attributes
(``tests/dist/test_config_rules.py`` builds a namespace from the field
defaults) and returns the message the old code raised, or ``None`` where
it accepted.  ``tests/core/lock_model.py`` and
``tests/sim/mailbox_model.py`` keep their old implementations the same
way.
"""

from __future__ import annotations

from typing import Any

from repro.workload.scenarios import SCENARIOS

PROTOCOL_NAMES = ("mvtil-early", "mvtil-late", "mvto", "2pl", "bohm")

REPLICABLE = {"mvtil-early", "mvtil-late"}


def _crash_chaos(c: Any) -> bool:
    return c.chaos is not None and c.chaos.any


REFUSES = {
    "2pl": (
        (lambda c: c.faults is not None or _crash_chaos(c),
         "fault injection requires a recovery protocol; 2pl does not "
         "have one"),
        (lambda c: c.durability == "wal",
         "wal durability requires the MVTL commit machinery; 2pl has "
         "no commit decisions to log or replay"),
        (lambda c: c.commitment == "paxos",
         "2pl has no commitment objects; only the local backend is "
         "meaningful")),
    "bohm": (
        (_crash_chaos,
         "crash chaos requires a recovery protocol; the bohm sequencer "
         "does not have one"),
        (lambda c: c.replication > 1 or c.follower_reads,
         "bohm runs unreplicated (single sequencer)"),
        (lambda c: c.durability == "wal",
         "wal durability requires the MVTL commit machinery; bohm has "
         "no per-key commit decisions to log"),
        (lambda c: c.commitment == "paxos",
         "bohm has no commitment objects; only the local backend is "
         "meaningful")),
}


def check_window(chaos: Any, start: float, end: float) -> str | None:
    if end <= start:
        return "need end > start"
    span = end - start
    n = chaos.server_restarts
    if n and chaos.downtime >= span / n:
        return (
            f"downtime {chaos.downtime} does not fit "
            f"{n} restarts into a {span:.3f}s window: each restart "
            f"needs a disjoint slot > {chaos.downtime}s, so the "
            f"window must be longer than "
            f"{n * chaos.downtime:.3f}s (n * downtime)")
    for name, downtime, n, what in (
            ("leader_downtime", chaos.leader_downtime,
             chaos.leader_crashes, "leader crashes"),
            ("follower_downtime", chaos.follower_downtime,
             chaos.follower_restarts, "follower restarts")):
        if n and downtime >= span / n:
            return (f"{name} {downtime} does not fit {n} "
                    f"{what} into a {span:.3f}s window")
    return None


def refusal(self: Any) -> str | None:
    if self.protocol not in PROTOCOL_NAMES:
        return (f"unknown protocol {self.protocol!r}; "
                f"expected one of {PROTOCOL_NAMES}")
    if self.queue_capacity is not None and self.queue_capacity < 1:
        return "queue_capacity must be >= 1 (or None)"
    if self.tx_budget is not None and self.tx_budget <= 0:
        return "tx_budget must be positive (or None)"
    if self.commitment not in ("local", "paxos"):
        return (f"unknown commitment backend "
                f"{self.commitment!r}")
    for uses, message in REFUSES.get(self.protocol, ()):
        if uses(self):
            return message
    if (self.commitment == "paxos" and self.chaos is not None
            and self.chaos.server_restarts > 0):
        return ("server restarts are not supported with the "
                "paxos commitment backend (volatile lock loss "
                "can race the multi-round decision)")
    if self.durability not in ("memory", "wal"):
        return (f"unknown durability mode {self.durability!r}; "
                f"expected 'memory' or 'wal'")
    if self.checkpoint_every < 0:
        return "checkpoint_every must be >= 0"
    if self.replication < 1:
        return "replication must be >= 1"
    num_servers = (self.num_servers if self.num_servers is not None
                   else self.profile.num_servers)
    if self.replication > num_servers:
        return (f"replication={self.replication} needs at "
                f"least that many servers (have {num_servers})")
    if self.heartbeat_miss_limit < 1:
        return "heartbeat_miss_limit must be >= 1"
    if self.replication > 1:
        if self.protocol not in REPLICABLE:
            return ("replication > 1 requires an MVTIL "
                    "protocol (mirrored holds carry the "
                    "leader-granted interval locks)")
        if not self.batching:
            return ("replication > 1 requires batching "
                    "(write locks are mirrored from the "
                    "per-server batch grants)")
        if self.commitment != "local":
            return ("replication > 1 requires the local "
                    "commitment backend (the registry is the "
                    "replicated decision store)")
    if self.follower_reads and self.replication <= 1:
        return "follower_reads requires replication > 1"
    if self.sync_batch < 1:
        return "sync_batch must be >= 1"
    if (self.anti_entropy or self.reliable_fanout) \
            and self.replication <= 1:
        return ("anti_entropy and reliable_fanout require "
                "replication > 1 (they harden the replica "
                "machinery)")
    if self.recruitment and not self.anti_entropy:
        return ("recruitment requires anti_entropy (a recruit "
                "joins through the catch-up sync path)")
    if (self.chaos is not None and self.chaos.leader_crashes > 0
            and self.replication <= 1):
        return ("chaos.leader_crashes requires replication > 1 "
                "(a failover controller must exist to promote "
                "a follower)")
    if (self.chaos is not None and self.chaos.follower_restarts > 0
            and self.replication <= 1):
        return ("chaos.follower_restarts requires "
                "replication > 1 (an unreplicated group has "
                "no followers to restart)")
    if _crash_chaos(self):
        window = check_window(self.chaos, self.warmup,
                              self.warmup + self.measure)
        if window is not None:
            return window
    if self.scenario is not None and self.scenario not in SCENARIOS:
        return (f"unknown scenario {self.scenario!r}; "
                f"expected one of {sorted(SCENARIOS)}")
    return None
