"""Durability and replication layer (`repro.repl`).

The paper's §7 distributed protocol keeps every key on exactly one server
and treats that server's version store as magically crash-proof.  This
package replaces the magic with machinery:

* :mod:`repro.repl.wal` — a deterministic, CRC-framed write-ahead log; a
  restarting server recovers committed versions and commit decisions by
  replaying it (torn tails are truncated to the last complete record);
* :mod:`repro.repl.checkpoint` — version-store checkpoints that bound
  replay work, plus :class:`~repro.repl.checkpoint.DurableStore`, the
  per-server "disk" combining checkpoint + WAL tail;
* :mod:`repro.repl.placement` — leader/follower placement of key groups
  with fencing epochs — the one key -> server map, at any replication
  factor;
* :mod:`repro.repl.replica` — write-quorum rules, the heartbeat-driven
  :class:`~repro.repl.replica.FailoverController` that promotes an
  up-to-date follower when a leader dies, and the post-run lost-commit
  scan the failover bench asserts on.

See DESIGN.md §5e for the WAL format, the quorum rules and why follower
reads at a locked (GC-frontier) timestamp are version-clean.
"""

from .. import _lazy_exports

__all__ = [
    "WriteAheadLog", "encode_value", "decode_value", "replay_records",
    "DurableStore", "RecoveredState", "encode_snapshot", "decode_snapshot",
    "ReplicatedPlacement", "group_index",
    "FailoverController", "HEARTBEAT_INTERVAL", "write_quorum",
    "scan_lost_commits",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".checkpoint": ("DurableStore", "RecoveredState", "decode_snapshot",
                    "encode_snapshot"),
    ".placement": ("ReplicatedPlacement", "group_index"),
    ".replica": ("HEARTBEAT_INTERVAL", "FailoverController",
                 "scan_lost_commits", "write_quorum"),
    ".wal": ("WriteAheadLog", "decode_value", "encode_value",
             "replay_records"),
})
