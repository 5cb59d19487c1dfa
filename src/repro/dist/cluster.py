"""Cluster assembly and experiment execution.

:func:`run_cluster` is the single entry point every benchmark and
integration test uses: it builds a simulated deployment — servers behind
service queues, closed-loop clients with per-client clocks, the timestamp
service, optional failure injection — runs warm-up plus measurement
(§8.3), and returns throughput, commit rate, state samples and (optionally)
the full history for serializability checking.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from .. import _load
from ..clocks.clock import EpsilonSyncClock
from ..obs.trace import Tracer
from ..repl.placement import ReplicatedPlacement
from ..sim.network import LinkFaults, Network
from ..sim.rng import RngFactory
from ..sim.simulator import Simulator
from ..sim.testbed import LOCAL_TESTBED, TestbedProfile
from ..verify.history import HistoryRecorder
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from ..workload.runner import closed_loop_client
from ..workload.stats import RunStats, StateSampler
from .client import BaseClient, MVTILClient, MVTOClient
from .commitment import CommitmentRegistry
from .failure import ChaosConfig, ChaosSchedule, CrashInjector, chaos_report
from .gc_service import TimestampService
from .server import MVTLServer

__all__ = ["ClusterConfig", "ClusterResult", "run_cluster", "PROTOCOLS",
           "RULES", "ConfigRefused"]


class ConfigRefused(ValueError):
    """A :class:`ClusterConfig` that breaks the :data:`RULES` row named
    ``rule``; the exception's text is that row's message."""

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(message)
        self.rule = rule


@dataclass(frozen=True)
class Rule:
    """One row of :data:`RULES`: a config ``refuses`` holds for is refused
    with ``message`` (a function of the config where the text names one
    of its values)."""

    name: str
    refuses: Callable[[ClusterConfig], bool]
    message: str | Callable[[ClusterConfig], str]

    def check(self, config: ClusterConfig) -> None:
        """Raise :class:`ConfigRefused` if this row refuses ``config``."""
        if self.refuses(config):
            message = self.message
            raise ConfigRefused(self.name, message if isinstance(message, str)
                                else message(config))


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol the cluster runs: §8.1's "same framework, but ... a
    different client protocol and ... a different server state"."""

    #: ``client(config, *BaseClient positionals, **BaseClient keywords)``.
    client: Callable[..., BaseClient]
    #: ``server(config, sim, net, sid, rng, registry=, consensus=, history=)``.
    server: Callable[..., Any]
    #: One node orders everything (Bohm's sequencer: its total order *is*
    #: its concurrency control), whatever the profile's server count.
    single_node: bool = False
    #: ``replication > 1`` is possible: mirrored holds carry the
    #: leader-granted interval locks, which only MVTIL takes.
    replicable: bool = False
    #: What this protocol cannot run, in order: :data:`RULES` checks these
    #: rows, for configs naming this protocol, right after the commitment
    #: backend.
    refuses: tuple[Rule, ...] = ()
    #: The module of this protocol's client and server (relative to
    #: :mod:`repro.dist`), when they are not MVTL's: a config naming the
    #: protocol loads it (:func:`_run_modules`).
    module: str | None = None


def _mvtil_client(config: ClusterConfig, *args: Any, late: bool,
                  **common: Any) -> BaseClient:
    common.update(delta=config.delta, late=late,
                  read_timeout=config.read_timeout,
                  defer_writes=config.batching)
    if config.replication > 1:
        # A coordinator over replication groups does more than Alg. 11/12.
        from .member import ReplicaClient
        return ReplicaClient(*args, follower_reads=config.follower_reads,
                             reliable_fanout=config.reliable_fanout,
                             **common)
    return MVTILClient(*args, **common)


def _mvtl_server(config: ClusterConfig, sim: Simulator, net: Network,
                 sid: str, rng: Any, **shared: Any) -> MVTLServer:
    cls = MVTLServer
    if config.replication > 1:
        # A member of a replication group does more than Alg. 13's server.
        from .member import ReplicaServer
        cls = ReplicaServer
    durable = None
    if config.durability == "wal":
        from ..repl.checkpoint import DurableStore
        durable = DurableStore(checkpoint_every=config.checkpoint_every)
    return cls(sim, net, sid, config.profile, rng,
               write_lock_timeout=config.write_lock_timeout,
               queue_capacity=config.queue_capacity, durable=durable,
               **shared)


def _twopl_client(config: ClusterConfig, *args: Any,
                  **common: Any) -> BaseClient:
    from .twopl import TwoPLClient
    return TwoPLClient(*args, **common)


def _twopl_server(config: ClusterConfig, sim: Simulator, net: Network,
                  sid: str, rng: Any, **_: Any) -> Any:
    from .twopl import TwoPLServer
    return TwoPLServer(sim, net, sid, config.profile, rng,
                       queue_capacity=config.queue_capacity)


def _bohm_client(config: ClusterConfig, *args: Any,
                 **common: Any) -> BaseClient:
    from .bohm import BohmClient
    return BohmClient(*args, **{**common, "history": None})


def _bohm_server(config: ClusterConfig, sim: Simulator, net: Network,
                 sid: str, rng: Any, history: Any, **_: Any) -> Any:
    from .bohm import BohmSequencerServer
    return BohmSequencerServer(sim, net, sid, config.profile, rng,
                               history=history,
                               queue_capacity=config.queue_capacity)


def _crash_chaos(config: ClusterConfig) -> bool:
    return config.chaos is not None and config.chaos.any


#: Protocols accepted by :class:`ClusterConfig`, by name.
PROTOCOLS: dict[str, ProtocolSpec] = {
    "mvtil-early": ProtocolSpec(partial(_mvtil_client, late=False),
                                _mvtl_server, replicable=True),
    "mvtil-late": ProtocolSpec(partial(_mvtil_client, late=True),
                               _mvtl_server, replicable=True),
    "mvto": ProtocolSpec(
        lambda config, *args, **common: MVTOClient(
            *args, batch_commit=config.batching, **common),
        _mvtl_server),
    # 2PL has no recovery protocol: its commit is fire-and-forget with no
    # commitment object or write-lock timeout behind it, so a lost commit
    # message silently diverges the servers.
    "2pl": ProtocolSpec(
        _twopl_client, _twopl_server, module=".twopl",
        refuses=(
            Rule("2pl-no-recovery",
                 lambda c: c.faults is not None or _crash_chaos(c),
                 "fault injection requires a recovery protocol; 2pl does not "
                 "have one"),
            Rule("2pl-no-wal", lambda c: c.durability == "wal",
                 "wal durability requires the MVTL commit machinery; 2pl "
                 "has no commit decisions to log or replay"),
            Rule("2pl-no-paxos", lambda c: c.commitment == "paxos",
                 "2pl has no commitment objects; only the local backend is "
                 "meaningful"))),
    # The single sequencer is the one authority and its state is volatile:
    # link faults are fine (dedup + retries absorb duplicates and losses),
    # but there is no crash recovery.  History is recorded inside its
    # engine, the one place that knows versions and commit timestamps.
    "bohm": ProtocolSpec(
        _bohm_client, _bohm_server, single_node=True, module=".bohm",
        refuses=(
            Rule("bohm-no-recovery", _crash_chaos,
                 "crash chaos requires a recovery protocol; the bohm "
                 "sequencer does not have one"),
            Rule("bohm-unreplicated",
                 lambda c: c.replication > 1 or c.follower_reads,
                 "bohm runs unreplicated (single sequencer)"),
            Rule("bohm-no-wal", lambda c: c.durability == "wal",
                 "wal durability requires the MVTL commit machinery; bohm "
                 "has no per-key commit decisions to log"),
            Rule("bohm-no-paxos", lambda c: c.commitment == "paxos",
                 "bohm has no commitment objects; only the local backend is "
                 "meaningful"))),
}


def _num_servers(c: ClusterConfig) -> int:
    """The storage servers ``c`` asks for (None = the profile's count)."""
    return (c.num_servers if c.num_servers is not None
            else c.profile.num_servers)


def _window_error(c: ClusterConfig) -> str | None:
    # The window run_cluster lays the crashes into, computed the same way,
    # so both agree at the boundary.
    return (c.chaos.window_error(c.warmup, c.warmup + c.measure)
            if _crash_chaos(c) else None)


def _scenarios() -> dict[str, Any]:
    # Only a config naming a scenario loads the zoo.
    from ..workload.scenarios import SCENARIOS
    return SCENARIOS


def _for_protocol(name: str, rule: Rule) -> Rule:
    """``rule`` of ``PROTOCOLS[name].refuses``, for configs naming it."""
    return Rule(rule.name, lambda c: c.protocol == name and rule.refuses(c),
                rule.message)


#: Everything :class:`ClusterConfig` refuses, in the order it checks: the
#: first row whose ``refuses`` holds is the :class:`ConfigRefused` raised.
#: Rows after ``unknown-protocol`` may look the protocol up.
RULES: tuple[Rule, ...] = (
    Rule("unknown-protocol", lambda c: c.protocol not in PROTOCOLS,
         lambda c: f"unknown protocol {c.protocol!r}; "
                   f"expected one of {tuple(PROTOCOLS)}"),
    Rule("queue-capacity",
         lambda c: c.queue_capacity is not None and c.queue_capacity < 1,
         "queue_capacity must be >= 1 (or None)"),
    Rule("tx-budget", lambda c: c.tx_budget is not None and c.tx_budget <= 0,
         "tx_budget must be positive (or None)"),
    Rule("unknown-commitment",
         lambda c: c.commitment not in ("local", "paxos"),
         lambda c: f"unknown commitment backend {c.commitment!r}"),
    *(_for_protocol(name, rule) for name, spec in PROTOCOLS.items()
      for rule in spec.refuses),
    # Epoch validation is race-free only under the local commitment
    # backend (reply handling and decision share one simulation step).
    # With Paxos a restart can slip between the epoch check and the
    # multi-round decision; §H.1's servers-may-fail model assumes
    # replicated (durable) lock state instead of volatile state that
    # restarts empty.
    Rule("paxos-server-restarts",
         lambda c: (c.commitment == "paxos" and c.chaos is not None
                    and c.chaos.server_restarts > 0),
         "server restarts are not supported with the paxos commitment "
         "backend (volatile lock loss can race the multi-round decision)"),
    Rule("unknown-durability",
         lambda c: c.durability not in ("memory", "wal"),
         lambda c: f"unknown durability mode {c.durability!r}; "
                   f"expected 'memory' or 'wal'"),
    Rule("checkpoint-every", lambda c: c.checkpoint_every < 0,
         "checkpoint_every must be >= 0"),
    Rule("replication-positive", lambda c: c.replication < 1,
         "replication must be >= 1"),
    Rule("replication-exceeds-servers",
         lambda c: c.replication > _num_servers(c),
         lambda c: f"replication={c.replication} needs at least that many "
                   f"servers (have {_num_servers(c)})"),
    Rule("heartbeat-miss-limit", lambda c: c.heartbeat_miss_limit < 1,
         "heartbeat_miss_limit must be >= 1"),
    Rule("replication-needs-mvtil",
         lambda c: c.replication > 1 and not PROTOCOLS[c.protocol].replicable,
         "replication > 1 requires an MVTIL protocol (mirrored holds carry "
         "the leader-granted interval locks)"),
    Rule("replication-needs-batching",
         lambda c: c.replication > 1 and not c.batching,
         "replication > 1 requires batching (write locks are mirrored from "
         "the per-server batch grants)"),
    Rule("replication-needs-local-commitment",
         lambda c: c.replication > 1 and c.commitment != "local",
         "replication > 1 requires the local commitment backend (the "
         "registry is the replicated decision store)"),
    Rule("follower-reads-need-replication",
         lambda c: c.follower_reads and c.replication <= 1,
         "follower_reads requires replication > 1"),
    Rule("sync-batch", lambda c: c.sync_batch < 1,
         "sync_batch must be >= 1"),
    Rule("hardening-needs-replication",
         lambda c: (c.anti_entropy or c.reliable_fanout)
         and c.replication <= 1,
         "anti_entropy and reliable_fanout require replication > 1 (they "
         "harden the replica machinery)"),
    Rule("recruitment-needs-anti-entropy",
         lambda c: c.recruitment and not c.anti_entropy,
         "recruitment requires anti_entropy (a recruit joins through the "
         "catch-up sync path)"),
    Rule("leader-crashes-need-replication",
         lambda c: (c.chaos is not None and c.chaos.leader_crashes > 0
                    and c.replication <= 1),
         "chaos.leader_crashes requires replication > 1 (a failover "
         "controller must exist to promote a follower)"),
    Rule("follower-restarts-need-replication",
         lambda c: (c.chaos is not None and c.chaos.follower_restarts > 0
                    and c.replication <= 1),
         "chaos.follower_restarts requires replication > 1 (an "
         "unreplicated group has no followers to restart)"),
    Rule("chaos-window", lambda c: _window_error(c) is not None,
         _window_error),
    Rule("unknown-scenario",
         lambda c: c.scenario is not None and c.scenario not in _scenarios(),
         lambda c: f"unknown scenario {c.scenario!r}; "
                   f"expected one of {sorted(_scenarios())}"),
    # A zero period reschedules the timestamp service at delay 0 forever.
    Rule("gc-period", lambda c: c.gc_period is not None and c.gc_period <= 0,
         "gc_period must be positive (or None)"),
    # An empty window runs and reports nothing measured.
    Rule("measurement-window", lambda c: c.warmup < 0 or c.measure <= 0,
         "warmup must be >= 0 and measure positive"),
    # Fewer than one attempt sends no request at all.
    Rule("rpc-retries", lambda c: c.rpc_retries < 0,
         "rpc_retries must be >= 0"),
)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines one experiment run (one figure data point)."""

    protocol: str = "mvtil-early"
    profile: TestbedProfile = LOCAL_TESTBED
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    num_clients: int = 90
    num_servers: int | None = None  # None = profile default
    seed: int = 0
    warmup: float = 1.0
    measure: float = 4.0
    #: MVTIL interval width (paper: 5 ms).
    delta: float = 0.005
    #: MVTIL read-lock wait bound (deadlock resolution for waiting reads).
    read_timeout: float = 0.25
    #: Server-side unfrozen-write-lock timeout (§H failure handling).
    write_lock_timeout: float = 2.0
    #: Restarts per transaction before giving up (§8.1).
    max_restarts: int = 2
    #: Commitment-object backend: "local" models replicated, non-failing
    #: decision state (§H.1's common case); "paxos" runs real single-decree
    #: consensus over per-server acceptors (§H.1's servers-may-fail case).
    commitment: str = "local"
    #: Batch commit-path lock messages per server (MVTIL defers writes and
    #: sends one MVTLBatchLockReq per server at commit; MVTO+ batches its
    #: commit-time point locks likewise; 2PL commit installs are always
    #: per-server).  Drops commit-path messages from O(written keys) to
    #: O(servers touched).  False reproduces the per-key wire protocol.
    batching: bool = True
    #: Seconds between timestamp-service broadcasts (version/lock purging
    #: + clock floor); None = no timestamp service.
    gc_period: float | None = 15.0
    #: Record the full history and check nothing with it here (the caller
    #: runs the MVSG checker); heavy for long runs.
    record_history: bool = False
    #: Sample lock/version counts every N seconds (0 = off).
    state_sample_period: float = 0.0
    #: Record per-completion timestamps for windowed series (Fig. 7).
    record_completions: bool = False
    #: Attach a recording tracer (repro.obs) to every client and server,
    #: and return the trace + folded metrics in the result.  The tracer
    #: never touches RNG streams or the event queue, so a traced run's
    #: outcome is bit-identical to the untraced run with the same seed.
    trace: bool = False
    #: Per-link fault model applied to every link (loss / duplication /
    #: delay spikes), sampled from a dedicated RNG stream.  None = the
    #: perfect network of the paper's TCP transport.
    faults: LinkFaults | None = None
    #: Chaos scenario (client crashes, server crash/restart pairs),
    #: generated deterministically inside the measurement window.
    chaos: ChaosConfig | None = None
    #: Client RPC timeout (first attempt; backoff doubles it per retry).
    rpc_timeout: float = 5.0
    #: Client RPC retries (same req_id; servers dedup, and keep their
    #: request log only when this is > 0 or a link duplicates).  Keep 0 on
    #: a perfect network — with loss, 2-3 attempts ride out most drops.
    rpc_retries: int = 0
    #: Bound on each server's request queue (None = unbounded, the
    #: pre-overload-control behaviour).  When full, the newest normal-class
    #: request is shed with an explicit OVERLOADED reply; critical-class
    #: requests and control notifications are never shed.
    queue_capacity: int | None = None
    #: Per-transaction time budget (seconds).  Every transaction gets the
    #: absolute deadline ``begin + tx_budget``, carried on its data
    #: requests: servers drop expired requests instead of serving stale
    #: work, clients stop retrying into saturation.  None = no deadlines.
    tx_budget: float | None = None
    #: Per-server circuit breakers on the clients: consecutive overload
    #: signals (sheds, unanswered data RPCs) trip the breaker and new
    #: normal transactions against that server abort client-side until a
    #: half-open probe succeeds.  Critical transactions bypass the gate.
    admission_control: bool = False
    #: Consecutive failures that trip a client's per-server breaker.
    breaker_threshold: int = 8
    #: Seconds a tripped breaker stays open before its half-open probe.
    breaker_cooldown: float = 0.5
    #: Key-group replication factor (repro.repl).  1 = the paper's
    #: unreplicated deployment (plain partitioning, bit-identical seeds).
    #: r > 1 places every key group on r servers in ring order: the leader
    #: is the lock/conflict authority, write locks are mirrored onto a
    #: write quorum of followers, and commit records fan out to every
    #: member so a promoted follower already holds the committed data.
    replication: int = 1
    #: Per-server durability: "memory" = volatile stores that restart
    #: empty (the seed behaviour); "wal" = every commit apply is logged to
    #: a write-ahead log and ``restart()`` recovers versions + dedup
    #: decisions by checkpoint load + log replay (repro.repl.wal).
    durability: str = "memory"
    #: WAL records between checkpoints (0 = never checkpoint; replay the
    #: whole log on restart).  Only meaningful with ``durability="wal"``.
    checkpoint_every: int = 128
    #: Serve read-only transactions from follower replicas at a locked
    #: (GC-floor) snapshot timestamp instead of running the interval
    #: protocol.  Requires ``replication > 1``.
    follower_reads: bool = False
    #: A leader missing this many consecutive failover-controller pings
    #: (one every ``repro.repl.replica.HEARTBEAT_INTERVAL`` seconds) is
    #: declared dead and a follower is promoted.  Only runs when
    #: ``replication > 1``.
    heartbeat_miss_limit: int = 3
    #: Self-healing anti-entropy (DESIGN.md §5h): the failover controller
    #: pokes dirty (restarted) members to stream missing committed
    #: versions from their group leaders; a member that completes its full
    #: sync plan clears ``snapshot_dirty`` and re-enters the follower-read
    #: rotation.  Off = the §5e baseline where a restarted follower never
    #: re-earns servability.  Requires ``replication > 1``.
    anti_entropy: bool = False
    #: Versions per SyncDelta batch (bounds sync message size/CPU).
    sync_batch: int = 64
    #: Dynamic membership: after every promotion the controller recruits a
    #: clean outside server through the catch-up path and swaps it into
    #: the demoted leader's slot (epoch bump), so repeated leader crashes
    #: do not bleed the group's live quorum.  Requires ``anti_entropy``.
    recruitment: bool = False
    #: Acked, retried commit fan-out to group members (CommitAck replies)
    #: instead of the paper's fire-and-forget notification.  The loss-
    #: hardening for LinkFaults runs; decided transactions never fail on
    #: the fan-out — exhausted retries are only counted.  Requires
    #: ``replication > 1``.
    reliable_fanout: bool = False
    #: Named scenario from the workload zoo (repro.workload.scenarios).
    #: When set, each client runs that scenario's generator instead of the
    #: knob-driven WorkloadGenerator (``workload`` still supplies the
    #: knobs), clients stop issuing new transactions at
    #: ``warmup + measure`` so the run can *drain to quiescence*, and the
    #: result carries ``final_state`` (authoritative latest committed value
    #: per key) plus a ``scenario_report`` for invariant checking.
    scenario: str | None = None

    def __post_init__(self) -> None:
        for rule in RULES:
            rule.check(self)
        for module in _run_modules(self):
            _load(module, __package__)


def _run_modules(c: ClusterConfig) -> Iterator[str]:
    """The modules a run of ``c`` needs beyond those every run does.

    A config loads them when it is built, so :func:`run_cluster` imports
    nothing and a run that does not name one never compiles it (DESIGN.md,
    "A run loads what its config names").  The run's code imports them
    where it uses them, which finds them loaded.
    """
    if PROTOCOLS[c.protocol].module is not None:
        yield PROTOCOLS[c.protocol].module
    if c.commitment == "paxos":
        yield ".paxos"
    if c.replication > 1 or c.durability == "wal":
        yield ".member"  # the replica roles and the replication report
    if c.replication > 1:
        yield "..repl.replica"  # the failover controller
    if c.durability == "wal":
        yield "..repl.checkpoint"
    if c.scenario is not None:
        yield "..workload.scenarios"
    if c.trace:
        yield "..obs.metrics"


@dataclass
class ClusterResult:
    """Outcome of one run."""

    config: ClusterConfig
    throughput: float
    commit_rate: float
    committed: int
    aborted: int
    history: HistoryRecorder | None
    state_samples: list[Any]
    completions: list[tuple[float, bool]]
    messages_sent: int
    server_stats: list[dict]
    mean_latency: float = 0.0
    p95_latency: float = 0.0
    #: Network messages (all kinds, both directions, whole run) divided by
    #: committed transactions (whole run) — the wire cost of the protocol.
    #: Batching lowers it by collapsing per-key commit traffic.
    messages_per_commit: float = 0.0
    #: In-window abort-reason counts (attempt-level, str -> count).
    abort_reasons: dict = field(default_factory=dict)
    #: p50/p95/p99 + mean + count for committed and aborted attempts.
    latency_summary: dict = field(default_factory=dict)
    #: Recorded TraceEvents (``config.trace`` only; else None).
    trace: list | None = None
    #: Folded metrics dict (``config.trace`` only; else None) — counters /
    #: gauges / histograms plus a ``run`` section with the headline numbers.
    metrics: dict | None = None
    #: Fault-injection outcome (``config.faults``/``config.chaos`` only):
    #: crashed clients, server crash/restart events, loss/duplication/retry
    #: counters, and ``orphaned_write_locks`` — unfrozen write locks still
    #: owned by a crashed coordinator after the settle period (Theorems
    #: 9-10 say this must be zero).
    chaos_report: dict | None = None
    #: Overload-control outcome (always populated): server shed/expired
    #: counts, client-side admission rejects and breaker trips, and the
    #: per-class (critical vs normal) goodput/latency summary.
    overload_report: dict = field(default_factory=dict)
    #: Scenario runs only: the authoritative latest committed value for
    #: every key (leaders' version stores after draining to quiescence) —
    #: what the per-scenario invariants (balance conservation, dense
    #: counters, index consistency) are checked against.
    final_state: dict | None = None
    #: Scenario runs only: {"scenario", "quiesced", "counters"} — whether
    #: every client drained before the deadline, plus the merged
    #: per-generator event counters.
    scenario_report: dict | None = None
    #: Replication/durability outcome (``replication > 1`` or
    #: ``durability="wal"`` only): failover promotions and latencies,
    #: quorum/snapshot-read counters, WAL record/checkpoint counts,
    #: follower-read staleness summary, and — with ``record_history`` — the
    #: ``scan_lost_commits`` audit (``lost_commits`` must be zero).
    replication_report: dict | None = None
    #: Simulator events processed during the run.  Deterministic for a
    #: given (config, seed); together with ``wall_s`` it yields the
    #: sim-events/s hot-path metric the perf harness records.
    sim_events: int = 0
    #: Host wall-clock seconds spent inside :func:`run_cluster`.  The one
    #: nondeterministic field — benchmark plumbing only; equivalence checks
    #: must compare everything *except* this.
    wall_s: float = 0.0

    def summary(self) -> str:
        return (f"{self.config.protocol:12s} clients={self.config.num_clients:4d} "
                f"thr={self.throughput:8.1f} txs/s  commit_rate={self.commit_rate:.3f}")


def run_cluster(config: ClusterConfig) -> ClusterResult:
    """Build the simulated deployment described by ``config`` and run it.

    CPython's cycle collector is paused for exactly the span of the run.
    A run's live state (versions, frozen locks, reply caches, heap entries)
    is hundreds of thousands of tracked objects that reference counting
    already frees; the generational collector re-traverses them hundreds of
    times per run and finds nothing
    (``tests/integration/test_gc_quiet.py`` keeps it that way).  Restored,
    never forced: a caller that had the collector disabled gets it back
    disabled, untouched.

    The *finished* cluster is one cyclic blob, and reclaiming it is not
    part of the run: the re-enable is the last thing this function does,
    so the first tracked allocation after it — the caller's — runs the
    young collection that frees the blob.  Back-to-back calls with no
    allocation in between would stack blobs up, so the young generation is
    collected before pausing: a few hundred objects (microseconds) unless
    the previous run's blob is still waiting (DESIGN.md §5d, "Collector
    pause").
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.collect(0)
        gc.disable()
    try:
        return _run_cluster(config)
    finally:
        if was_enabled:
            gc.enable()


def _drain_scenario(config: ClusterConfig, sim: Simulator,
                    servers: list[Any], partition: ReplicatedPlacement,
                    client_procs: dict[str, Any], scenario_gens: list[Any]
                    ) -> tuple[dict, dict]:
    """Run a scenario to quiescence; its final state and report."""
    # Drain to quiescence: clients stop issuing at warmup + measure
    # (stop_after); run on until every client process has finished its
    # in-flight transaction (restarts and overload backoffs included),
    # bounded by a generous deadline so a wedged run still returns.
    drain_deadline = config.warmup + config.measure + 12.0
    while (sim.now < drain_deadline
           and not all(p.done for p in client_procs.values())):
        sim.run_until(min(sim.now + 0.25, drain_deadline))
    # Client completion means the commit *decision* was observed, not
    # that every server applied the install fan-out — give the last
    # notifications time to land before reading the stores.
    sim.run_until(sim.now + 1.0)
    # The authoritative copy of a key is its group leader's.
    final_state = {}
    for server in servers:
        for key, value in server.latest_values().items():
            if partition.leader_of(key) == server.server_id:
                final_state[key] = value
    counters: dict[str, int] = {}
    for gen in scenario_gens:
        for cname, n in gen.counters.items():
            counters[cname] = counters.get(cname, 0) + n
    return final_state, {
        "scenario": config.scenario,
        "quiesced": all(p.done for p in client_procs.values()),
        "counters": counters,
    }


def _run_cluster(config: ClusterConfig) -> ClusterResult:
    wall_start = time.perf_counter()
    sim = Simulator()
    rngs = RngFactory(config.seed)
    # Fault/chaos streams are drawn *conditionally* so that a run without
    # fault injection keeps exactly the seed->stream assignment (and hence
    # the exact outcome) it had before fault injection existed.
    fault_rng = rngs.stream() if config.faults is not None else None
    net = Network(sim, config.profile.latency, rngs.stream(),
                  fault_rng=fault_rng)
    # Only a client retry re-sends a request; a duplicating fault model
    # switches the flag back on.  Set before any server is built: servers
    # keep a request-dedup log only when it holds (DESIGN.md §5b).
    net.redelivers = config.rpc_retries > 0
    if config.faults is not None:
        net.set_default_faults(config.faults)
    chaos_on = _crash_chaos(config)
    chaos_rng = rngs.stream() if chaos_on else None
    registry = CommitmentRegistry(sim)
    history = HistoryRecorder() if config.record_history else None
    tracer = Tracer(now_fn=lambda: sim.now) if config.trace else None

    spec = PROTOCOLS[config.protocol]
    num_servers = 1 if spec.single_node else _num_servers(config)
    server_ids = [f"server-{i}" for i in range(num_servers)]
    consensus = None
    acceptors_by_sid: dict[str, Any] = {}
    if config.commitment == "paxos":
        # One acceptor per storage server node ("all the servers in the
        # system as participants", §H.1).
        from .paxos import PaxosAcceptor, PaxosConsensus
        acceptor_ids = [f"{sid}-acceptor" for sid in server_ids]
        for sid, aid in zip(server_ids, acceptor_ids):
            acceptors_by_sid[sid] = PaxosAcceptor(sim, net, aid)
        consensus = PaxosConsensus(sim, net, acceptor_ids,
                                   rng=rngs.stream())
    servers = [spec.server(config, sim, net, sid, rngs.stream(),
                           registry=registry, consensus=consensus,
                           history=history) for sid in server_ids]
    if tracer is not None:
        for server in servers:
            server.tracer = tracer
    partition = ReplicatedPlacement(server_ids,
                                    replication=config.replication)

    stats = RunStats(sim, config.warmup, config.measure)
    stats.record_completions = config.record_completions

    client_ids = [f"client-{i}" for i in range(config.num_clients)]
    clients = []
    client_procs: dict[str, Any] = {}
    scenario_gens: list[Any] = []
    # Scenario clients stop issuing new transactions at the end of the
    # measurement window so the run drains to quiescence for final-state
    # invariant checks; plain runs keep the run-forever closed loop.
    stop_after = (config.warmup + config.measure
                  if config.scenario is not None else None)
    # A restarted server rejoins with empty volatile lock state; epoch
    # validation makes committing clients re-confirm every touched server
    # before deciding, closing the lost-lock window.
    validate = chaos_on and (config.chaos.server_restarts > 0
                             or config.chaos.leader_crashes > 0
                             or config.chaos.follower_restarts > 0)
    for i, cid in enumerate(client_ids):
        clock = EpsilonSyncClock(lambda: sim.now,
                                 config.profile.clock_skew,
                                 rng=rngs.stream(), fixed=True)
        client = spec.client(
            config, sim, net, cid, i + 1, partition, clock, registry,
            history=history, consensus=consensus, tracer=tracer,
            rpc_timeout=config.rpc_timeout, rpc_retries=config.rpc_retries,
            validate_epochs=validate, tx_budget=config.tx_budget,
            admission_control=config.admission_control,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown)
        clients.append(client)
        # Scenario generators replace the WorkloadGenerator *in place* —
        # the same single stream draw at the same position — so seeds for
        # scenario-less configs are bit-for-bit unchanged.
        if config.scenario is not None:
            from ..workload.scenarios import make_scenario_generator
            workload: Any = make_scenario_generator(
                config.scenario, config.workload, rngs.stream(),
                client_index=i, num_clients=config.num_clients)
            scenario_gens.append(workload)
        else:
            workload = WorkloadGenerator(config.workload, rngs.stream())
        client_procs[cid] = sim.spawn(closed_loop_client(
            client, workload, stats, rngs.stream(),
            client_overhead=config.profile.client_overhead,
            max_restarts=config.max_restarts,
            stop_after=stop_after), name=cid)
    # Retry-jitter streams are drawn *after* the loop above so the
    # clock/workload/runner stream assignments — and hence every outcome of
    # a pre-overload-control seed — stay exactly as they were.
    for client in clients:
        client.rng = rngs.stream()

    injector = None
    if chaos_on:
        injector = CrashInjector(sim, net)
        schedule = ChaosSchedule.generate(
            config.chaos, chaos_rng, client_ids, server_ids,
            start=config.warmup, end=config.warmup + config.measure,
            num_groups=(partition.num_groups
                        if config.replication > 1 else None))
        schedule.apply(injector, client_procs,
                       {s.server_id: s for s in servers},
                       extras=acceptors_by_sid, placement=partition)

    controller = None
    if config.replication > 1:
        # The failover controller draws from no RNG stream and (until a
        # promotion) only exchanges heartbeats, so enabling replication
        # perturbs nothing else about the run.
        from ..repl.replica import FailoverController
        controller = FailoverController(
            sim, net, partition,
            miss_limit=config.heartbeat_miss_limit,
            anti_entropy=config.anti_entropy,
            recruit=config.recruitment,
            sync_batch=config.sync_batch)
        controller.start()

    if config.gc_period is not None:
        TimestampService(sim, net, server_ids, client_ids,
                         horizon=config.profile.gc_horizon,
                         period=config.gc_period).start()

    sampler = None
    if config.state_sample_period > 0:
        sampler = StateSampler(sim, servers, config.state_sample_period)
        sim.spawn(sampler.process(), name="state-sampler")

    sim.run_until(config.warmup + config.measure)

    if chaos_on or config.faults is not None or config.replication > 1:
        # Settle: run past the measurement window long enough for every
        # server-side write-lock timeout armed inside it to fire and its
        # decision to be applied (Theorems 9-10 liveness), so the orphan
        # scan below observes the steady state.  Replicated runs settle
        # too: the lost-commits scan needs every in-window commit's
        # fan-out to have drained onto all group members.  RunStats only
        # counts completions inside [warmup, warmup + measure], so the
        # extra time does not perturb the reported numbers.
        settle = config.write_lock_timeout + 0.5
        if config.commitment == "paxos":
            settle += config.write_lock_timeout  # consensus rounds + backoff
        sim.run_until(config.warmup + config.measure + settle)

    final_state = scenario_report = None
    if config.scenario is not None:
        final_state, scenario_report = _drain_scenario(
            config, sim, servers, partition, client_procs, scenario_gens)

    # Wire cost: every network message (requests, replies, fire-and-forget
    # notifications, maintenance) over every commit the whole run produced
    # (client stats cover warmup too, matching messages_sent's scope).
    total_commits = sum(c.stats["commits"] for c in clients)
    messages_per_commit = net.messages_sent / max(1, total_commits)

    chaos = (chaos_report(injector, net, servers, clients)
             if chaos_on or config.faults is not None else None)
    replication = None
    if config.replication > 1 or config.durability == "wal":
        from .member import replication_report
        replication = replication_report(config, servers, clients,
                                         controller, injector, history,
                                         partition)

    overload_report = {
        "shed": sum(s.stats["shed"] for s in servers),
        "expired": sum(s.stats["expired"] for s in servers),
        "overloaded_replies": sum(c.stats["overloaded"] for c in clients),
        "admission_rejects": sum(c.stats["admission_rejects"]
                                 for c in clients),
        "breaker_trips": sum(b.trips for c in clients
                             for b in (c._breakers or {}).values()),
        "class_summary": stats.class_summary(),
        "class_attempt_aborts": dict(stats.class_attempt_aborts),
    }

    metrics = None
    if config.trace:
        from ..obs.metrics import (fold_trace, merge_conflict_counts,
                                   merge_overload_counters,
                                   merge_scenario_counters)
        metrics_reg = fold_trace(tracer.events)
        for server in servers:
            merge_conflict_counts(metrics_reg, server.conflicts)
        merge_overload_counters(metrics_reg, servers)
        if replication is not None:
            from .member import merge_replication_metrics
            merge_replication_metrics(metrics_reg, servers, clients)
        if scenario_report is not None:
            merge_scenario_counters(metrics_reg, scenario_report)
        metrics = metrics_reg.as_dict()
        metrics["run"] = {
            "protocol": config.protocol,
            "throughput": stats.throughput,
            "commit_rate": stats.commit_rate,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "abort_reasons": dict(stats.abort_reasons),
            "latency": stats.latency_summary(),
            "messages_sent": net.messages_sent,
            "messages_per_commit": messages_per_commit,
            "overload": overload_report,
        }

    return ClusterResult(
        config=config,
        throughput=stats.throughput,
        commit_rate=stats.commit_rate,
        committed=stats.committed,
        aborted=stats.aborted,
        history=history,
        state_samples=sampler.samples if sampler else [],
        completions=stats.completions,
        messages_sent=net.messages_sent,
        server_stats=[s.stats for s in servers],
        messages_per_commit=messages_per_commit,
        mean_latency=stats.mean_latency,
        p95_latency=stats.latency_percentile(95),
        abort_reasons=dict(stats.abort_reasons),
        latency_summary=stats.latency_summary(),
        trace=tracer.events if tracer is not None else None,
        metrics=metrics,
        chaos_report=chaos,
        overload_report=overload_report,
        final_state=final_state,
        scenario_report=scenario_report,
        replication_report=replication,
        sim_events=sim.events_processed,
        wall_s=time.perf_counter() - wall_start,
    )
