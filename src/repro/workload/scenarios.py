"""The workload zoo: named, seeded scenarios that stress every theorem.

Each scenario is a generator of :class:`~repro.workload.generator.TxSpec`
streams layered on the §8.3 workload knobs, plus machine-checkable
invariants over the run's final state and history:

* ``bank-transfer`` — multi-key atomic transfers between accounts with
  read-only audit scans; post-run invariant: total balance is conserved.
* ``orders`` — TPC-C-ish read-modify-write pipelines: every order bumps a
  hot district counter, inserts a unique order row and sells one unit of a
  popular item; invariants: dense counters (counter == committed writers,
  i.e. no lost updates) and order-row atomicity.
* ``scan-vs-oltp`` — long read-only analytic scans against OLTP
  increment writers, flagged ``read_only`` so replicated MVTIL serves them
  as follower reads at the GC-floor snapshot; invariants: follower reads
  actually engaged, and no OLTP increment was lost.
* ``secondary-index`` — every user-row update atomically maintains a
  derived index key; invariant: index == derive(row) for every row.
* ``flash-crowd`` — alternating calm/burst phases hammering a tiny hot
  set, layered on the PR-4 overload controller with a critical
  (MVTL-Prio) class; invariants: the controller engaged, hot counters
  lost no update, criticals out-commit normals (Theorem 3's analogue).

The scenarios also drive the paper's two headline per-policy theorems as
*duels* on the centralized engine (:func:`serial_skew_duel` for Theorem 4,
:func:`ghost_abort_duel` for Theorem 7): the same seeded scenario
transaction stream is executed under the susceptible policy (MVTL-TO,
which behaves as MVTO+ by Theorem 5) and the fixed one, and the pathology
count — serial aborts under skewed clocks, ghost aborts from dead
transactions' locks — must be zero for the fixed policy and positive for
the susceptible one.

Everything here is deterministic: a scenario generator draws only from the
per-client RNG stream handed to it, so same-seed reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..sim.testbed import CLOUD_TESTBED
from .generator import (Op, TxSpec, WorkloadConfig, WorkloadGenerator,
                        zipf_cdf, zipf_index, zipf_probabilities)

__all__ = ["SCENARIOS", "Scenario", "ScenarioCellSummary",
           "ScenarioGenerator", "make_scenario_generator",
           "scenario_config", "check_scenario", "reduce_scenario_cell",
           "scenario_names", "encode_int", "decode_int",
           "serial_skew_duel", "ghost_abort_duel",
           "ARENA_FIXED_POLICIES", "ARENA_POLICIES", "policy_arena",
           "PolicyCellConfig", "PolicyArenaSummary", "run_policy_cell",
           "BOHM_CHAOS_SCENARIOS", "bohm_chaos_config",
           "BohmChaosSummary", "reduce_bohm_chaos_cell",
           "OVERLOAD_TESTBED", "OVERLOAD_CONTROLS"]


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------
# Scenario values are integers wire-encoded as strings (the substrates store
# opaque values).  A read of a never-written key observes BOTTOM (or a
# non-scenario value), which decodes to the caller's default — that is how
# "initially every account holds INITIAL_BALANCE" works without seeding.

def encode_int(n: int) -> str:
    """Encode an integer as a scenario value string."""
    return f"i{int(n):+012d}"


def decode_int(value: Any, default: int = 0) -> int:
    """Decode a scenario value; BOTTOM / None / foreign values -> default."""
    if isinstance(value, str) and value[:1] == "i":
        try:
            return int(value[1:])
        except ValueError:
            return default
    return default


def _rmw(key: str, fn: Callable[[int], int],
         default: int = 0) -> Callable[[dict], str]:
    """A compute closure: new value = fn(decoded value read for ``key``)."""
    def compute(reads: dict) -> str:
        return encode_int(fn(decode_int(reads.get(key), default)))
    return compute


def _derive_index(n: int) -> int:
    """The secondary-index derivation (any fixed injective-enough map)."""
    return n * 7 + 13


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class ScenarioGenerator:
    """Base for scenario generators; duck-types WorkloadGenerator.

    Subclasses implement :meth:`next_tx`.  ``counters`` accumulates
    per-scenario event counts (merged across clients into the run's
    ``scenario_report`` and, under tracing, into ``repro.obs`` metrics).
    """

    name = "?"

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator, *,
                 client_index: int = 0, num_clients: int = 1) -> None:
        self.config = config
        self._rng = rng
        self.client_index = client_index
        self.num_clients = num_clients
        self.counters: dict[str, int] = {}
        if config.zipf_s > 0.0:
            self._probs = zipf_probabilities(config.num_keys, config.zipf_s)
            self._cdf = zipf_cdf(config.num_keys, config.zipf_s)
        else:
            self._probs = None
            self._cdf = None

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _pick_idx(self) -> int:
        """One key index from the configured (uniform/Zipf) distribution."""
        if self._cdf is None:
            return int(self._rng.integers(self.config.num_keys))
        return zipf_index(self._rng, self._cdf)

    def _distinct_indices(self, n: int) -> list[int]:
        """``n`` distinct key indices (ascending, deterministic)."""
        n = min(n, self.config.num_keys)
        if self._probs is None:
            picks = self._rng.choice(self.config.num_keys, size=n,
                                     replace=False)
        else:
            picks = self._rng.choice(self.config.num_keys, size=n,
                                     replace=False, p=self._probs)
        return sorted(int(i) for i in picks)

    def next_tx(self) -> TxSpec:  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self) -> Iterator[TxSpec]:
        while True:
            yield self.next_tx()


class BankTransferGenerator(ScenarioGenerator):
    """Atomic two-account transfers plus read-only audits.

    ``num_keys`` is the number of accounts; every account starts (by the
    BOTTOM-decodes-to-default convention) at ``INITIAL_BALANCE``.  A
    transfer reads both accounts and writes back ``src - amount`` /
    ``dst + amount`` computed from the values read *in the same attempt*,
    so serializability implies conservation of the total balance.
    """

    name = "bank-transfer"
    INITIAL_BALANCE = 1_000
    AUDIT_FRACTION = 0.125
    AUDIT_SIZE = 6

    @staticmethod
    def account_key(i: int) -> str:
        return f"acct{i:05d}"

    def next_tx(self) -> TxSpec:
        rng = self._rng
        if (self.config.num_keys > 1
                and float(rng.random()) < self.AUDIT_FRACTION):
            self._count("audits")
            ops = tuple(Op(False, self.account_key(i))
                        for i in self._distinct_indices(self.AUDIT_SIZE))
            return TxSpec(ops, read_only=True)
        self._count("transfers")
        src_i = self._pick_idx()
        dst_i = self._pick_idx()
        while dst_i == src_i and self.config.num_keys > 1:
            dst_i = self._pick_idx()
        amount = int(rng.integers(1, 100))
        src, dst = self.account_key(src_i), self.account_key(dst_i)
        init = self.INITIAL_BALANCE
        ops = (Op(False, src), Op(False, dst),
               Op(True, src, compute=_rmw(src, lambda b, a=amount: b - a,
                                          init)),
               Op(True, dst, compute=_rmw(dst, lambda b, a=amount: b + a,
                                          init)))
        return TxSpec(ops)


class OrdersGenerator(ScenarioGenerator):
    """TPC-C-ish order pipeline against hot district rows.

    Each order reads its district's counter, increments it, inserts a
    unique order row valued with the district index, and sells one unit of
    a (Zipf-popular) item.  The district counter is the hot row: every
    order in a district serializes through it.
    """

    name = "orders"
    DISTRICTS = 4

    @staticmethod
    def district_key(d: int) -> str:
        return f"dist{d:03d}"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._seq = 0

    def next_tx(self) -> TxSpec:
        rng = self._rng
        d = int(rng.integers(self.DISTRICTS))
        dist_key = self.district_key(d)
        order_key = f"order{self.client_index:03d}x{self._seq:06d}"
        self._seq += 1
        item_key = f"item{self._pick_idx():05d}"
        self._count("orders")
        ops = (Op(False, dist_key),
               Op(True, dist_key, compute=_rmw(dist_key, lambda n: n + 1)),
               Op(True, order_key, value=encode_int(d)),
               Op(False, item_key),
               Op(True, item_key, compute=_rmw(item_key, lambda n: n + 1)))
        return TxSpec(ops)


class ScanVsOltpGenerator(ScenarioGenerator):
    """Long read-only analytic scans racing OLTP increment writers.

    Every fourth client is a scanner issuing ``SCAN_LEN``-row read-only
    transactions (explicitly flagged, so replicated MVTIL routes them to
    follower reads at the GC-floor snapshot); the rest run short
    read-increment-write transactions over distinct rows.
    """

    name = "scan-vs-oltp"
    SCAN_LEN = 24

    @staticmethod
    def row_key(i: int) -> str:
        return f"row{i:05d}"

    @property
    def is_scanner(self) -> bool:
        return self.num_clients > 1 and self.client_index % 4 == 3

    def next_tx(self) -> TxSpec:
        rng = self._rng
        if self.is_scanner:
            self._count("scans")
            start = int(rng.integers(self.config.num_keys))
            n = min(self.SCAN_LEN, self.config.num_keys)
            ops = tuple(
                Op(False, self.row_key((start + j) % self.config.num_keys))
                for j in range(n))
            return TxSpec(ops, read_only=True)
        self._count("oltp_txs")
        ops: list[Op] = []
        for i in self._distinct_indices(self.config.tx_size):
            key = self.row_key(i)
            ops.append(Op(False, key))
            ops.append(Op(True, key, compute=_rmw(key, lambda n: n + 1)))
        return TxSpec(tuple(ops))


class SecondaryIndexGenerator(ScenarioGenerator):
    """Every row update atomically maintains a derived index key.

    An update bumps the row's version counter and rewrites the index key
    to ``derive(new version)`` computed from the value read in the same
    transaction; lookups read row + index (write-free, so the runner's
    derived read-only detection kicks in without an explicit flag).
    """

    name = "secondary-index"
    UPDATE_FRACTION = 0.8

    @staticmethod
    def row_key(i: int) -> str:
        return f"user{i:05d}"

    @staticmethod
    def index_key(i: int) -> str:
        return f"index{i:05d}"

    def next_tx(self) -> TxSpec:
        rng = self._rng
        i = self._pick_idx()
        row, idx = self.row_key(i), self.index_key(i)
        if float(rng.random()) < self.UPDATE_FRACTION:
            self._count("updates")
            ops = (Op(False, row),
                   Op(True, row, compute=_rmw(row, lambda n: n + 1)),
                   Op(True, idx, compute=lambda reads, k=row: encode_int(
                       _derive_index(decode_int(reads.get(k)) + 1))))
            return TxSpec(ops)
        self._count("lookups")
        return TxSpec((Op(False, row), Op(False, idx)))


class FlashCrowdGenerator(ScenarioGenerator):
    """Calm/burst phases on a tiny hot set, with a critical class.

    Each client cycles through ``CYCLE`` transactions: the first
    ``CYCLE - BURST_LEN`` are calm increments over the cold key space, the
    rest hammer one of ``HOT_KEYS`` hot counters.  ``critical_fraction``
    of transactions carry the MVTL-Prio class flag; the cluster overrides
    turn on the PR-4 overload controller, so bursts are shed/deadlined
    while criticals bypass the gates.
    """

    name = "flash-crowd"
    HOT_KEYS = 4
    CYCLE = 16
    BURST_LEN = 6

    @staticmethod
    def hot_key(j: int) -> str:
        return f"hot{j:02d}"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._seq = 0

    def next_tx(self) -> TxSpec:
        rng = self._rng
        cfg = self.config
        critical = (cfg.critical_fraction > 0.0
                    and float(rng.random()) < cfg.critical_fraction)
        in_burst = (self._seq % self.CYCLE) >= (self.CYCLE - self.BURST_LEN)
        self._seq += 1
        if in_burst:
            self._count("burst_txs")
            key = self.hot_key(int(rng.integers(self.HOT_KEYS)))
            ops = (Op(False, key),
                   Op(True, key, compute=_rmw(key, lambda n: n + 1)))
        else:
            self._count("calm_txs")
            ops_l: list[Op] = []
            for i in self._distinct_indices(cfg.tx_size):
                key = f"cold{i:05d}"
                ops_l.append(Op(False, key))
                ops_l.append(Op(True, key,
                                compute=_rmw(key, lambda n: n + 1)))
            ops = tuple(ops_l)
        return TxSpec(ops, critical=critical)


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------
# Each check receives a ClusterResult from a run with config.scenario set
# (final_state + scenario_report populated, record_history on) and returns
# a list of failure strings (empty = all invariants hold).

def _committed_key_writers(history: Any) -> dict[str, int]:
    """key -> number of committed transactions that wrote it."""
    counts: dict[str, int] = {}
    for rec in history.committed():
        for key in set(rec.writes):
            counts[key] = counts.get(key, 0) + 1
    return counts


def _base_guard(result: Any) -> list[str]:
    failures = []
    rep = result.scenario_report
    if rep is None:
        return ["run did not record a scenario_report"]
    if not rep.get("quiesced"):
        failures.append("clients did not quiesce before the drain deadline "
                        "(final-state invariants would be meaningless)")
    if result.final_state is None:
        failures.append("no final state captured")
    if result.history is None:
        failures.append("scenario runs must record the history")
    elif not result.final_state and any(
            rec.writes for rec in result.history.committed()):
        # Invariants over an empty state pass vacuously.
        failures.append("committed writes but the final state is empty")
    if not result.committed:
        failures.append("no transaction committed")
    return failures


def check_bank_transfer(result: Any) -> list[str]:
    failures = _base_guard(result)
    if failures:
        return failures
    initial = BankTransferGenerator.INITIAL_BALANCE
    drift = sum(decode_int(v, initial) - initial
                for k, v in result.final_state.items()
                if k.startswith("acct"))
    if drift != 0:
        failures.append(f"balance conservation violated: net drift of "
                        f"{drift:+d} across accounts")
    counters = result.scenario_report["counters"]
    if not counters.get("transfers"):
        failures.append("no transfer transactions were generated")
    if not counters.get("audits"):
        failures.append("no audit transactions were generated")
    return failures


def check_orders(result: Any) -> list[str]:
    failures = _base_guard(result)
    if failures:
        return failures
    final = result.final_state
    writers = _committed_key_writers(result.history)
    for key, value in sorted(final.items()):
        if key.startswith("dist"):
            count, expect = decode_int(value), writers.get(key, 0)
            if count != expect:
                failures.append(
                    f"lost update on {key}: counter {count} but "
                    f"{expect} committed transactions wrote it")
    order_rows = 0
    for rec in result.history.committed():
        dists = [k for k in rec.writes if k.startswith("dist")]
        orders = [k for k in rec.writes if k.startswith("order")]
        if not dists:
            continue
        if len(orders) != 1:
            failures.append(f"tx {rec.tx_id}: wrote {len(orders)} order "
                            f"rows (atomic pipeline expects exactly 1)")
            continue
        order_rows += 1
        [order_key] = orders
        if order_key not in final:
            failures.append(f"committed order row {order_key} missing from "
                            f"the final state (atomicity violated)")
        else:
            d = decode_int(final[order_key], -1)
            if OrdersGenerator.district_key(d) not in dists:
                failures.append(f"order row {order_key} names district "
                                f"{d} but the tx wrote {dists}")
    if not order_rows:
        failures.append("no committed order pipeline found")
    return failures


def check_scan_vs_oltp(result: Any) -> list[str]:
    failures = _base_guard(result)
    if failures:
        return failures
    rep = result.replication_report or {}
    if not rep.get("follower_reads"):
        failures.append("no scan was served by a follower replica "
                        "(read-only routing broken)")
    if not rep.get("snapshot_commits"):
        failures.append("no read-only snapshot transaction committed")
    writers = _committed_key_writers(result.history)
    for key, value in sorted(result.final_state.items()):
        if key.startswith("row"):
            count, expect = decode_int(value), writers.get(key, 0)
            if count != expect:
                failures.append(
                    f"lost update on {key}: counter {count} but "
                    f"{expect} committed transactions wrote it")
    counters = result.scenario_report["counters"]
    if not counters.get("scans"):
        failures.append("no analytic scan was generated")
    if not counters.get("oltp_txs"):
        failures.append("no OLTP transaction was generated")
    return failures


def check_secondary_index(result: Any) -> list[str]:
    failures = _base_guard(result)
    if failures:
        return failures
    final = result.final_state
    for key, value in sorted(final.items()):
        if key.startswith("user"):
            idx_key = "index" + key[len("user"):]
            if idx_key not in final:
                failures.append(f"{key} updated but {idx_key} missing "
                                f"(index maintenance not atomic)")
            else:
                want = _derive_index(decode_int(value))
                got = decode_int(final[idx_key])
                if got != want:
                    failures.append(f"index inconsistency: {idx_key}={got} "
                                    f"but derive({key}) = {want}")
        elif key.startswith("index"):
            if "user" + key[len("index"):] not in final:
                failures.append(f"{key} present without its row "
                                f"(dangling index entry)")
    for rec in result.history.committed():
        rows = {k for k in rec.writes if k.startswith("user")}
        idxs = {k for k in rec.writes if k.startswith("index")}
        if {("index" + k[len("user"):]) for k in rows} != idxs:
            failures.append(f"tx {rec.tx_id}: wrote rows {sorted(rows)} but "
                            f"indexes {sorted(idxs)}")
    if not result.scenario_report["counters"].get("updates"):
        failures.append("no update transaction was generated")
    return failures


def check_flash_crowd(result: Any) -> list[str]:
    failures = _base_guard(result)
    if failures:
        return failures
    over = result.overload_report
    pressure = (over.get("shed", 0) + over.get("expired", 0)
                + over.get("admission_rejects", 0))
    if not pressure:
        failures.append("overload controller never engaged "
                        "(no shed/expired/admission-reject)")
    writers = _committed_key_writers(result.history)
    for key, value in sorted(result.final_state.items()):
        if key.startswith("hot"):
            count, expect = decode_int(value), writers.get(key, 0)
            if count != expect:
                failures.append(
                    f"lost update on hot key {key}: counter {count} but "
                    f"{expect} committed transactions wrote it")
    cls = over.get("class_summary", {})

    def commit_rate(c: dict) -> float:
        total = c.get("committed", 0) + c.get("aborted", 0)
        return c.get("committed", 0) / total if total else 1.0

    crit, norm = cls.get("critical", {}), cls.get("normal", {})
    if crit and norm and commit_rate(crit) < commit_rate(norm):
        failures.append(
            f"critical commit rate {commit_rate(crit):.3f} below normal "
            f"{commit_rate(norm):.3f} under the flash crowd (Thm. 3's "
            f"distributed analogue)")
    if not result.scenario_report["counters"].get("burst_txs"):
        failures.append("no burst-phase transaction was generated")
    return failures


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One named scenario: generator factory, defaults, invariant check."""

    name: str
    factory: type[ScenarioGenerator]
    description: str
    #: Default workload knobs (num_keys doubles as the entity count).
    workload: WorkloadConfig
    #: ClusterConfig field overrides applied by :func:`scenario_config`.
    overrides: dict = field(default_factory=dict)
    #: ClusterResult -> list of invariant-failure strings.
    check: Callable[[Any], list[str]] = lambda result: []


def _scan_vs_oltp_overrides() -> dict:
    from ..sim.testbed import LOCAL_TESTBED
    # Short GC horizon + period: the purge floor is the snapshot timestamp
    # follower reads lock, so it must advance well inside the run; warmup
    # outlasts the first floor broadcast so measured scans hit followers.
    return dict(protocol="mvtil-early", num_clients=8, num_servers=3,
                replication=3, follower_reads=True,
                profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
                gc_period=0.2, warmup=1.2, measure=1.5,
                record_history=True)


#: The overload testbed (``ClusterConfig`` fields): deliberately scarce
#: capacity -- 4 single-slot servers at 1 ms/request saturate under a few
#: dozen closed-loop clients -- and clients that time out and retry fast.
OVERLOAD_TESTBED = dict(
    profile=replace(CLOUD_TESTBED, num_servers=4, service_time=1e-3),
    read_timeout=0.04, rpc_timeout=0.08, rpc_retries=1)
#: The overload controls on top of it: bounded queues, per-transaction
#: deadlines, admission control with fast-cooling breakers.
OVERLOAD_CONTROLS = dict(queue_capacity=16, tx_budget=0.15,
                         admission_control=True, breaker_cooldown=0.1)


def _registry() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="bank-transfer",
            factory=BankTransferGenerator,
            description="atomic transfers + audits; balance conservation",
            workload=WorkloadConfig(num_keys=32, tx_size=4,
                                    write_fraction=0.5, zipf_s=0.6),
            overrides=dict(protocol="mvtil-early", num_clients=8,
                           warmup=0.3, measure=1.2, record_history=True),
            check=check_bank_transfer),
        Scenario(
            name="orders",
            factory=OrdersGenerator,
            description="RMW order pipelines on hot district counters",
            workload=WorkloadConfig(num_keys=200, tx_size=5,
                                    write_fraction=0.5, zipf_s=0.8),
            overrides=dict(protocol="mvtil-early", num_clients=8,
                           warmup=0.3, measure=1.2, record_history=True),
            check=check_orders),
        Scenario(
            name="scan-vs-oltp",
            factory=ScanVsOltpGenerator,
            description="read-only scans on follower replicas vs "
                        "OLTP increment writers",
            workload=WorkloadConfig(num_keys=400, tx_size=3,
                                    write_fraction=1.0),
            overrides=_scan_vs_oltp_overrides(),
            check=check_scan_vs_oltp),
        Scenario(
            name="secondary-index",
            factory=SecondaryIndexGenerator,
            description="atomic derived-index maintenance on every update",
            workload=WorkloadConfig(num_keys=150, tx_size=3,
                                    write_fraction=0.8),
            overrides=dict(protocol="mvtil-early", num_clients=6,
                           warmup=0.3, measure=1.2, record_history=True),
            check=check_secondary_index),
        Scenario(
            name="flash-crowd",
            factory=FlashCrowdGenerator,
            description="hot-key burst phases on the overload controller",
            workload=WorkloadConfig(num_keys=2_000, tx_size=3,
                                    write_fraction=0.5,
                                    critical_fraction=0.15),
            # Burst phases on the overload testbed hit real shedding and
            # deadlines.
            overrides=dict(protocol="mvtil-early", num_clients=24,
                           warmup=0.4, measure=1.2, record_history=True,
                           **OVERLOAD_TESTBED, **OVERLOAD_CONTROLS),
            check=check_flash_crowd),
    ]
    return {s.name: s for s in scenarios}


#: The scenario registry, keyed by name.
SCENARIOS: dict[str, Scenario] = _registry()


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def make_scenario_generator(name: str, config: WorkloadConfig,
                            rng: np.random.Generator, *,
                            client_index: int = 0,
                            num_clients: int = 1) -> ScenarioGenerator:
    """Instantiate the named scenario's per-client generator."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         f"{sorted(SCENARIOS)}") from None
    return scenario.factory(config, rng, client_index=client_index,
                            num_clients=num_clients)


def scenario_config(name: str, *, seed: int = 0, **kwargs: Any) -> Any:
    """The named scenario's reference ClusterConfig (seed + overrides).

    ``kwargs`` override the scenario defaults (e.g. shorter ``measure``
    for smoke tests).  A ``workload`` kwarg replaces the scenario's
    default workload knobs wholesale.
    """
    from ..dist.cluster import ClusterConfig  # local: avoid import cycle
    scenario = SCENARIOS[name]  # KeyError -> caller's problem, names public
    fields = dict(scenario.overrides)
    fields.update(kwargs)
    fields.setdefault("workload", scenario.workload)
    return ClusterConfig(scenario=name, seed=seed, **fields)


def check_scenario(name: str, result: Any) -> list[str]:
    """Run the named scenario's invariants; returns failure strings."""
    return SCENARIOS[name].check(result)


# ---------------------------------------------------------------------------
# Theorem duels (centralized engine)
# ---------------------------------------------------------------------------

class _SteppingTime:
    """Controllable time source for the skewed-clock duel."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t

    def __call__(self) -> float:
        return self.t


def _duel_workload(name: str, num_keys: int) -> WorkloadConfig:
    """The scenario's workload shrunk onto a tiny key space.

    Duels run a serial/batched schedule of a few hundred transactions, so
    the pathologies need contention density the full-size key spaces would
    dilute away.
    """
    scenario = SCENARIOS[name]
    return replace(scenario.workload,
                   num_keys=min(scenario.workload.num_keys, num_keys))


def _apply_spec(engine: Any, tx: Any, spec: TxSpec) -> None:
    """Execute a TxSpec's ops against the centralized engine."""
    reads: dict[str, Any] = {}
    for op in spec.ops:
        if op.is_write:
            value = op.value if op.compute is None else op.compute(reads)
            engine.write(tx, op.key, value)
        else:
            reads[op.key] = engine.read(tx, op.key)


def serial_skew_duel(name: str = "bank-transfer", *, seed: int = 101,
                     num_txs: int = 150, epsilon: float = 0.05,
                     num_pids: int = 4, num_keys: int = 8,
                     policies: Sequence[str] | None = None) -> dict:
    """Theorem 4 duel: serial execution under epsilon-skewed clocks.

    The named scenario's transaction stream runs strictly serially (each
    transaction commits or aborts before the next begins) on the
    centralized engine, with per-process clocks skewed by fixed offsets
    drawn from ``[-epsilon, +epsilon]`` — i.e. epsilon-synchronized, the
    theorem's premise.  In a serial execution *every* abort is a serial
    abort.  MVTL-epsilon-clock must finish with zero; MVTL-TO (which
    behaves as MVTO+, Theorem 5) must abort at least once when a later
    transaction draws a smaller timestamp and collides with an earlier
    transaction's persistent read locks.

    ``policies`` selects registered policy names (plus ``"bohm"``, which
    runs the batched baseline on the same spec stream — one-transaction
    batches, so the execution is serial too); the default pairing
    preserves the original theorem duel.
    """
    from ..clocks.clock import SkewedClock
    from ..core.engine import MVTLEngine
    from ..core.exceptions import TransactionAborted
    from ..policies.registry import make_policy

    workload = _duel_workload(name, num_keys)
    if policies is None:
        policies = ("mvtl-epsilon-clock", "mvtl-to")
    results: dict[str, dict[str, int]] = {}
    for policy_name in policies:
        # Identical seeded schedule per policy: same skews, same advances,
        # same transaction stream.
        rng = np.random.default_rng(seed)
        src = _SteppingTime()
        offsets = [float(rng.uniform(-epsilon, epsilon))
                   for _ in range(num_pids)]
        gen = make_scenario_generator(name, workload, rng)
        commits = aborts = 0
        if policy_name == "bohm":
            from ..baselines.bohm import BohmEngine
            bohm = BohmEngine()
            for n in range(num_txs):
                src.advance(float(rng.uniform(0.2, 1.5)) * epsilon)
                bohm.submit(gen.next_tx(), pid=1 + n % num_pids)
                batch = bohm.run_batch()
                commits += sum(1 for tx in batch if tx.committed)
                aborts += sum(1 for tx in batch if not tx.committed)
            results[policy_name] = {"commits": commits,
                                    "serial_aborts": aborts}
            continue
        clocks = {pid: SkewedClock(src, offsets[pid - 1])
                  for pid in range(1, num_pids + 1)}
        engine = MVTLEngine(make_policy(policy_name, epsilon=epsilon),
                            clock_for_pid=lambda pid: clocks[pid],
                            default_timeout=0.2)
        for n in range(num_txs):
            # Advances comparable to the skew spread, so transaction order
            # and timestamp order frequently invert.
            src.advance(float(rng.uniform(0.2, 1.5)) * epsilon)
            tx = engine.begin(pid=1 + n % num_pids)
            try:
                _apply_spec(engine, tx, gen.next_tx())
                ok = engine.commit(tx)
            except TransactionAborted:
                ok = False
            if ok:
                commits += 1
            else:
                aborts += 1
        results[policy_name] = {"commits": commits, "serial_aborts": aborts}
    return results


def ghost_abort_duel(name: str = "orders", *, seed: int = 202,
                     rounds: int = 40, batch: int = 6,
                     abort_fraction: float = 0.4,
                     num_keys: int = 8,
                     policies: Sequence[str] | None = None) -> dict:
    """Theorem 7 duel: aborts caused by already-dead transactions.

    Each round begins a batch of scenario transactions together (ascending
    timestamps from the shared logical clock), executes their operations,
    user-aborts a seeded fraction — the earliest transaction always
    survives — and commits the survivors in reverse begin order.  Under
    MVTL-TO the aborted transactions' read locks persist (MVTO+'s
    read-timestamps), so a surviving lower-timestamp writer can be killed
    by locks whose owners are all dead: a *ghost abort*, classified via
    the NO_COMMON_TIMESTAMP abort reason plus the conflict holders the
    policy reports at commit-lock failure (the
    :meth:`~repro.core.policy.MVTLPolicy.conflict_holders` surface).
    MVTL-Ghostbuster GCs dead transactions eagerly, so its ghost count must
    be zero (it may still abort against *live or committed* conflicts —
    that is allowed).

    ``policies`` selects registered policy names (plus ``"bohm"``: dooms
    map to Bohm's explicit user aborts, whose placeholders every reader
    skips, so it can never ghost-abort either); the default pairing
    preserves the original theorem duel.
    """
    from ..core.engine import MVTLEngine
    from ..core.exceptions import TransactionAborted
    from ..policies.registry import make_policy

    workload = _duel_workload(name, num_keys)
    if policies is None:
        policies = ("mvtl-ghostbuster", "mvtl-to")
    results: dict[str, dict[str, int]] = {}
    for policy_name in policies:
        rng = np.random.default_rng(seed)
        gen = make_scenario_generator(name, workload, rng)
        if policy_name == "bohm":
            from ..baselines.bohm import BohmEngine
            bohm = BohmEngine()
            commits = aborts = 0
            for _ in range(rounds):
                specs = [gen.next_tx() for _ in range(batch)]
                doomed = [i > 0 and float(rng.random()) < abort_fraction
                          for i in range(batch)]
                for spec, doom in zip(specs, doomed):
                    bohm.submit(spec, doomed=doom)
                for tx in bohm.run_batch():
                    if tx.committed:
                        commits += 1
                    elif not tx.doomed:
                        aborts += 1
            results[policy_name] = {"commits": commits, "aborts": aborts,
                                    "ghost_aborts": 0}
            continue
        engine = MVTLEngine(make_policy(policy_name), default_timeout=0.2)
        dead_ids: set[Any] = set()
        commits = aborts = ghost_aborts = 0
        for _ in range(rounds):
            txs = [engine.begin(pid=i + 1) for i in range(batch)]
            live = []
            for tx in txs:
                try:
                    _apply_spec(engine, tx, gen.next_tx())
                    live.append(tx)
                except TransactionAborted:
                    dead_ids.add(tx.id)
                    aborts += 1
            doomed = [tx for tx in live[1:]
                      if float(rng.random()) < abort_fraction]
            for tx in doomed:
                engine.abort(tx)
                dead_ids.add(tx.id)
            survivors = [tx for tx in live if tx not in doomed]
            for tx in reversed(survivors):
                if engine.commit(tx):
                    commits += 1
                    continue
                aborts += 1
                holders = engine.policy.conflict_holders(tx)
                if holders and all(h in dead_ids for h in holders):
                    ghost_aborts += 1
                dead_ids.add(tx.id)
        results[policy_name] = {"commits": commits, "aborts": aborts,
                                "ghost_aborts": ghost_aborts}
    return results


# ---------------------------------------------------------------------------
# Policy arena: adaptive vs its fixed constituents vs Bohm
# ---------------------------------------------------------------------------

#: The four fixed policies the adaptive selector switches between.
ARENA_FIXED_POLICIES = ("mvtl-to", "mvtl-pref", "mvtl-prio",
                        "mvtl-epsilon-clock")

#: Everything the arena compares, in cell order.
ARENA_POLICIES = ("mvtl-adaptive",) + ARENA_FIXED_POLICIES + ("bohm",)


def policy_arena(name: str, policy_name: str, *, seed: int = 303,
                 rounds: int = 100, batch: int = 6, epsilon: float = 0.05,
                 skew: float = 0.05, num_keys: int = 8,
                 doom_fraction: float = 0.15, check: bool = True) -> dict:
    """One arena cell: the named scenario's stream under one policy.

    The schedule combines both duel pathologies at moderate intensity so no
    single fixed policy wins everywhere: each round begins a batch of
    scenario transactions concurrently on epsilon-skewed per-process clocks
    (Theorem 4 pressure on TO's single timestamp), user-aborts a seeded
    fraction after execution (Theorem 7 ghost pressure on policies that
    keep dead read locks), and commits the survivors in reverse begin order
    (commit-point collisions, Theorem 2's regime).  The stream, the skews
    and the doom draws are identical for every policy — the doom indices
    are drawn up front, per round, so the RNG consumption cannot depend on
    policy-specific abort behaviour.

    ``commit_rate`` is commits over *decided* transactions (dooms are user
    decisions, not policy failures, and their count is seed-fixed).  With
    ``check`` the full history is recorded and MVSG-checked — every policy,
    adaptive mid-run switches and Bohm included, must stay serializable.
    """
    from ..baselines.bohm import BohmEngine
    from ..clocks.clock import SkewedClock
    from ..core.engine import MVTLEngine
    from ..core.exceptions import TransactionAborted
    from ..policies.registry import make_policy
    from ..verify.history import HistoryRecorder
    from ..verify.mvsg import check_serializable

    rng = np.random.default_rng(seed)
    src = _SteppingTime()
    offsets = [float(rng.uniform(-skew, skew)) for _ in range(batch)]
    gen = make_scenario_generator(name, _duel_workload(name, num_keys), rng)
    recorder = HistoryRecorder() if check else None
    commits = aborts = decided = 0

    if policy_name == "bohm":
        engine: Any = BohmEngine(history=recorder)
        for _ in range(rounds):
            src.advance(float(rng.uniform(0.2, 1.5)) * skew)
            specs = [gen.next_tx() for _ in range(batch)]
            doomed = [i > 0 and float(rng.random()) < doom_fraction
                      for i in range(batch)]
            decided += sum(1 for d in doomed if not d)
            for i, (spec, doom) in enumerate(zip(specs, doomed)):
                engine.submit(spec, pid=i + 1, doomed=doom)
            for tx in engine.run_batch():
                if tx.committed:
                    commits += 1
                elif not tx.doomed:
                    aborts += 1
        switches = 0
    else:
        clocks = {pid: SkewedClock(src, offsets[pid - 1])
                  for pid in range(1, batch + 1)}
        engine = MVTLEngine(make_policy(policy_name, epsilon=epsilon),
                            clock_for_pid=lambda pid: clocks[pid],
                            default_timeout=0.005, history=recorder)
        for _ in range(rounds):
            src.advance(float(rng.uniform(0.2, 1.5)) * skew)
            specs = [gen.next_tx() for _ in range(batch)]
            doomed = [i > 0 and float(rng.random()) < doom_fraction
                      for i in range(batch)]
            decided += sum(1 for d in doomed if not d)
            txs = [engine.begin(pid=i + 1, priority=bool(spec.critical))
                   for i, spec in enumerate(specs)]
            live: list[tuple[int, Any]] = []
            for i, (tx, spec) in enumerate(zip(txs, specs)):
                try:
                    _apply_spec(engine, tx, spec)
                    live.append((i, tx))
                except TransactionAborted:
                    if not doomed[i]:
                        aborts += 1
            for i, tx in live:
                if doomed[i]:
                    engine.abort(tx)
            survivors = [(i, tx) for i, tx in live if not doomed[i]]
            for _i, tx in reversed(survivors):
                if engine.commit(tx):
                    commits += 1
                else:
                    aborts += 1
        switches = len(getattr(engine.policy, "switches", ()))

    serializable = True
    if recorder is not None:
        report = check_serializable(recorder)
        serializable = report.serializable
    return {"commits": commits, "aborts": aborts, "decided": decided,
            "commit_rate": commits / max(1, decided),
            "serializable": serializable, "switches": switches}


# -- Bohm chaos validation (the arena's correctness cells) -------------------

#: Scenarios compatible with the single-sequencer Bohm cluster (no
#: replication/follower reads, no overload controller knobs).
BOHM_CHAOS_SCENARIOS = ("bank-transfer", "orders", "secondary-index")


def bohm_chaos_config(name: str, *, seed: int = 0) -> Any:
    """The named scenario's cluster config on the Bohm protocol with link
    faults (loss + duplicates) and retry-friendly RPC timeouts.

    ``rpc_timeout`` must sit well inside the measure window: the default
    5 s timeout means one lost message stalls a client past the whole run.
    """
    from ..sim.network import LinkFaults
    return scenario_config(
        name, seed=seed, protocol="bohm",
        faults=LinkFaults(loss=0.02, duplicate=0.02),
        rpc_timeout=0.2, rpc_retries=2, record_history=True)
