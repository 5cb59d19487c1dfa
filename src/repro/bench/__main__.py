"""Command-line figure regeneration.

Usage::

    python -m repro.bench fig1            # one figure
    python -m repro.bench all             # everything
    python -m repro.bench figures --workers 8   # everything, in parallel
    REPRO_FULL=1 python -m repro.bench fig2   # the paper's full sweep
    python -m repro.bench fig1 --seeds 1 2 3 --out results/
    python -m repro.bench fig4 --workers 4    # one figure, 4 worker procs
    python -m repro.bench smoke           # batched-vs-unbatched CI check
    python -m repro.bench engine          # threaded striped-engine bench
    python -m repro.bench chaos           # seeded fault-injection check
    python -m repro.bench overload        # graceful-degradation ramp
    python -m repro.bench failover        # replicated leader-crash check
    python -m repro.bench selfheal        # anti-entropy self-healing check
    python -m repro.bench scenario bank-transfer   # one zoo scenario
    python -m repro.bench scenario        # the whole workload zoo
    python -m repro.bench policies        # registry-wide theorem duels

Prints each figure as an ASCII table and saves the raw points as JSON.
``smoke``, ``engine``, ``chaos`` and ``scenario`` print their report and
exit non-zero on failure instead of writing files.

``--workers N`` fans each figure's (config x seed) grid over N crash-
isolated worker processes via :mod:`repro.exp`; the merged results are
byte-identical to a serial run (see DESIGN.md §5d), so it is purely a
wall-clock lever.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import replace

from .figures import (figure1_concurrency_local, figure2_concurrency_cloud,
                      figure3_write_fraction, figure4_small_transactions,
                      figure5_num_servers, figure6_7_state_and_gc)
from .reporting import (RunObservations, format_figure, save_figure,
                        save_observability)

FIGURES = {
    "fig1": figure1_concurrency_local,
    "fig2": figure2_concurrency_cloud,
    "fig3": figure3_write_fraction,
    "fig4": figure4_small_transactions,
    "fig5": figure5_num_servers,
}


def run_smoke(seed: int = 7) -> int:
    """CI check: batching must change the wire cost, not the outcomes.

    Runs each MVTL-family protocol twice with the same seed — commit-path
    batching on and off — on a low-contention workload where every attempt
    commits, and asserts (a) both runs produce identical commit/abort
    outcomes (all commits, zero aborts: the strongest outcome equality that
    survives batching's different message timing) and (b) batching strictly
    lowers messages per commit.
    """
    from ..dist.cluster import ClusterConfig, run_cluster
    from ..sim.testbed import LOCAL_TESTBED
    from ..workload.generator import WorkloadConfig

    base = ClusterConfig(
        profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=200_000, tx_size=6,
                                write_fraction=0.25),
        num_clients=12, seed=seed, warmup=0.25, measure=1.0)
    print("== smoke: batched vs unbatched commit path (same seed) ==")
    print(f"{'protocol':>12s} {'mode':>10s} {'committed':>10s} "
          f"{'aborted':>8s} {'msgs/commit':>12s}")
    failures = []
    for proto in ("mvtil-early", "mvtil-late", "mvto"):
        results = {}
        for batching in (True, False):
            res = run_cluster(replace(base, protocol=proto,
                                      batching=batching))
            results[batching] = res
            mode = "batched" if batching else "unbatched"
            print(f"{proto:>12s} {mode:>10s} {res.committed:>10d} "
                  f"{res.aborted:>8d} {res.messages_per_commit:>12.1f}")
        for batching, res in results.items():
            if res.aborted or not res.committed:
                failures.append(
                    f"{proto} batching={batching}: expected all-commit "
                    f"outcomes, got {res.committed} commits / "
                    f"{res.aborted} aborts")
        if (results[True].messages_per_commit
                >= results[False].messages_per_commit):
            failures.append(
                f"{proto}: batching did not reduce messages per commit "
                f"({results[True].messages_per_commit:.1f} >= "
                f"{results[False].messages_per_commit:.1f})")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_chaos(seed: int = 11) -> int:
    """CI check: seeded chaos runs survive faults correctly (§H, Thms 8-10).

    Each scenario runs a cluster under a lossy/duplicating/spiking network
    with coordinator crashes and (where the backend supports it) server
    crash/restart pairs, twice with the same seed, and asserts:

    * determinism — both runs produce identical outcomes and identical
      injected-fault counters (same seed, same chaos);
    * safety — every surviving committed history is MVSG-serializable
      (Theorem 8 carries over to the surviving transactions);
    * liveness — after the settle window no unfrozen write lock is still
      owned by a crashed coordinator: the write-lock timeout + commitment
      object reclaimed them all (Theorems 9-10).
    """
    from ..dist.cluster import ClusterConfig, run_cluster
    from ..dist.failure import ChaosConfig
    from ..sim.network import LinkFaults
    from ..sim.testbed import LOCAL_TESTBED
    from ..verify import check_serializable
    from ..workload.generator import WorkloadConfig

    faults = LinkFaults(loss=0.05, duplicate=0.02, delay_spike=0.01)
    base = ClusterConfig(
        profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=5_000, tx_size=4,
                                write_fraction=0.5),
        num_clients=10, seed=seed, warmup=0.25, measure=1.5,
        write_lock_timeout=0.4, rpc_timeout=0.15, rpc_retries=3,
        faults=faults, record_history=True)
    scenarios = [
        ("mvtil-early+restarts",
         replace(base, protocol="mvtil-early",
                 chaos=ChaosConfig(client_crashes=2, server_restarts=2,
                                   downtime=0.25))),
        ("mvto+restarts",
         replace(base, protocol="mvto",
                 chaos=ChaosConfig(client_crashes=2, server_restarts=2,
                                   downtime=0.25))),
        ("mvtil-early+paxos",
         replace(base, protocol="mvtil-early", commitment="paxos",
                 chaos=ChaosConfig(client_crashes=2))),
    ]

    print("== chaos: seeded fault injection (same seed, two runs) ==")
    print(f"{'scenario':>22s} {'committed':>10s} {'aborted':>8s} "
          f"{'lost':>6s} {'dups':>6s} {'retries':>8s} {'orphans':>8s}")
    failures = []
    for label, config in scenarios:
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        rep = res.chaos_report
        print(f"{label:>22s} {res.committed:>10d} {res.aborted:>8d} "
              f"{rep['messages_lost']:>6d} "
              f"{rep['messages_duplicated']:>6d} "
              f"{rep['rpc_retries']:>8d} "
              f"{rep['orphaned_write_locks']:>8d}")

        def outcome(r):
            return (r.committed, r.aborted, r.chaos_report)

        if outcome(runs[0]) != outcome(runs[1]):
            failures.append(f"{label}: same-seed runs diverged")
        if not res.committed:
            failures.append(f"{label}: no transaction survived the chaos")
        if rep["messages_lost"] == 0:
            failures.append(f"{label}: fault model injected no loss")
        if len(rep["crashed_clients"]) < config.chaos.client_crashes:
            failures.append(f"{label}: expected "
                            f"{config.chaos.client_crashes} coordinator "
                            f"crashes, got {len(rep['crashed_clients'])}")
        if rep["server_restarts"] < config.chaos.server_restarts:
            failures.append(f"{label}: expected "
                            f"{config.chaos.server_restarts} server "
                            f"restarts, got {rep['server_restarts']}")
        if rep["orphaned_write_locks"]:
            failures.append(f"{label}: {rep['orphaned_write_locks']} write "
                            f"locks still owned by crashed coordinators "
                            f"after the settle window (Thms 9-10)")
        for i, r in enumerate(runs):
            report = check_serializable(r.history)
            if not report.serializable:
                failures.append(f"{label} run {i}: history not "
                                f"MVSG-serializable: {report.error}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("chaos: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_failover(seed: int = 17) -> int:
    """CI check: replicated key ranges survive a leader crash (repro.repl).

    One cluster, replication factor 3 with WAL durability and follower
    reads, runs a write-heavy closed loop while chaos crashes the current
    leader of a random key group mid-measurement.  Runs twice with the
    same seed and asserts:

    * determinism — identical outcomes, promotions and counters;
    * zero lost committed writes — every committed write inside the
      measurement window is present on its group's *current* leader
      (modulo legitimate GC purging below the stable floor);
    * bounded failover — the controller promoted an up-to-date follower
      within ``heartbeat_interval * (miss_limit + 2)`` plus one ping of
      slack after the crash;
    * version-clean follower reads — snapshot transactions were actually
      served by followers, and both surviving histories (interval-locked
      writers *and* locked-timestamp snapshot readers together) are
      MVSG-serializable;
    * liveness — no unfrozen write lock (leader or mirrored follower
      hold) survives the settle window owned by a crashed coordinator.
    """
    from ..dist.cluster import ClusterConfig, run_cluster
    from ..dist.failure import ChaosConfig
    from ..sim.testbed import LOCAL_TESTBED
    from ..verify import check_serializable
    from ..workload.generator import WorkloadConfig

    config = ClusterConfig(
        protocol="mvtil-early",
        # Short GC horizon: the purge floor is the snapshot timestamp
        # follower reads lock, so it must advance well inside the run.
        profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
        workload=WorkloadConfig(num_keys=2_000, tx_size=4,
                                write_fraction=0.3),
        num_servers=3, num_clients=10, seed=seed,
        warmup=1.5, measure=2.5, gc_period=0.2,
        write_lock_timeout=0.25, rpc_timeout=0.15,
        replication=3, durability="wal", checkpoint_every=64,
        follower_reads=True, record_history=True,
        chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.6))
    latency_bound = (config.heartbeat_interval
                     * (config.heartbeat_miss_limit + 2)
                     + config.heartbeat_interval)

    print("== failover: replicated leader crash (same seed, two runs) ==")
    runs = [run_cluster(config) for _ in range(2)]
    res = runs[0]
    rep = res.replication_report
    stale = rep["read_staleness"]
    print(f"committed={res.committed} aborted={res.aborted} "
          f"commit_rate={res.commit_rate:.3f}")
    print(f"promotions={len(rep['promotions'])} "
          f"failover_latency={[round(v, 4) for v in rep['failover_latencies']]} "
          f"bound={latency_bound:.3f}")
    print(f"commits_checked={rep['commits_checked']} "
          f"lost_commits={rep['lost_commits']} "
          f"replica_missing={rep['replica_missing']}")
    print(f"follower_reads={rep['follower_reads']} "
          f"snapshot_commits={rep['snapshot_commits']} "
          f"snapshot_fallbacks={rep['snapshot_fallbacks']} "
          f"staleness_mean={stale['mean']:.4f} "
          f"staleness_max={stale['max']:.4f}")
    print(f"holds_mirrored={rep['holds_mirrored']} "
          f"wal_records={rep['wal_records']} "
          f"checkpoints={rep['checkpoints']} "
          f"heartbeats={rep['heartbeats_sent']} "
          f"orphans={res.chaos_report['orphaned_write_locks']}")

    failures = []

    def outcome(r):
        return (r.committed, r.aborted, r.messages_sent,
                r.chaos_report, r.replication_report)

    if outcome(runs[0]) != outcome(runs[1]):
        failures.append("same-seed runs diverged")
    if not res.committed:
        failures.append("no transaction survived the leader crash")
    if rep["lost_commits"]:
        failures.append(f"{rep['lost_commits']} committed writes missing "
                        f"from their group's current leader")
    if not rep["promotions"]:
        failures.append("leader crashed but no follower was promoted")
    for lat in rep["failover_latencies"]:
        if lat > latency_bound:
            failures.append(f"failover took {lat:.3f}s "
                            f"(bound {latency_bound:.3f}s)")
    if not rep["follower_reads"]:
        failures.append("no read was served by a follower replica")
    if not rep["snapshot_commits"]:
        failures.append("no read-only snapshot transaction committed")
    if res.chaos_report["orphaned_write_locks"]:
        failures.append(f"{res.chaos_report['orphaned_write_locks']} "
                        f"orphaned write locks after settle (Thms 9-10)")
    for i, r in enumerate(runs):
        report = check_serializable(r.history)
        if not report.serializable:
            failures.append(f"run {i}: history not MVSG-serializable: "
                            f"{report.error}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("failover: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_selfheal(seed: int = 17) -> int:
    """CI check: self-healing replication under compound chaos (repro.repl).

    One cluster, replication factor 3 over four servers (one outsider is
    available as recruitment stock), WAL durability, follower reads,
    anti-entropy sync, recruitment and reliable commit fan-out, runs under
    lossy links (loss + duplication + delay spikes) while chaos crashes a
    group leader *and* restarts a follower mid-measurement.  Runs twice
    with the same seed and asserts:

    * determinism — identical outcomes and counters across runs;
    * zero lost committed writes, audited by ``scan_lost_commits`` against
      the post-chaos membership (recruited replicas are only charged for
      commits after their join cutoff);
    * self-healing — every restarted server completed anti-entropy resync
      (no server still dirty at the end) and a replacement replica was
      recruited for the demoted leader's group;
    * non-vacuous recovery — resynced servers actually served follower
      reads afterwards, and dirty-refusals were observed before the sync
      (so the servability gate was exercised, not bypassed);
    * quorum safety — detector-observed live membership never dropped
      below the write quorum of 2 (of 3);
    * liveness + isolation — no orphaned write locks, and both surviving
      histories are MVSG-serializable.
    """
    from ..dist.cluster import ClusterConfig, run_cluster
    from ..dist.failure import ChaosConfig
    from ..repl import write_quorum
    from ..sim.network import LinkFaults
    from ..sim.testbed import LOCAL_TESTBED
    from ..verify import check_serializable
    from ..workload.generator import WorkloadConfig

    config = ClusterConfig(
        protocol="mvtil-early",
        profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
        workload=WorkloadConfig(num_keys=2_000, tx_size=4,
                                write_fraction=0.3),
        num_servers=4, num_clients=10, seed=seed,
        warmup=1.5, measure=3.5, gc_period=0.2,
        write_lock_timeout=0.25, rpc_timeout=0.15, rpc_retries=3,
        replication=3, durability="wal", checkpoint_every=64,
        follower_reads=True, record_history=True,
        # Small sync batches stretch catch-up over many visible rounds so
        # the dirty-refusal path is actually exercised mid-run.
        anti_entropy=True, recruitment=True, reliable_fanout=True,
        sync_batch=1, heartbeat_miss_limit=5,
        faults=LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01),
        chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.6,
                          follower_restarts=1, follower_downtime=0.3))
    quorum = write_quorum(config.replication)

    print("== selfheal: leader crash + follower restart + lossy links ==")
    runs = [run_cluster(config) for _ in range(2)]
    res = runs[0]
    rep = res.replication_report
    refused = rep["snapshot_refused_by_reason"]
    print(f"committed={res.committed} aborted={res.aborted} "
          f"commit_rate={res.commit_rate:.3f}")
    print(f"promotions={len(rep['promotions'])} "
          f"recruitments={rep['recruitments']} "
          f"min_live_members={rep['min_live_members']} quorum={quorum}")
    print(f"resyncs={rep['resyncs']} "
          f"resync_latencies={[round(v, 4) for v in rep['resync_latencies']]} "
          f"sync_rounds={rep['sync_rounds']} "
          f"sync_installs={rep['sync_installs']} "
          f"sync_aborted={rep['sync_aborted']} "
          f"wal_sync_records={rep['wal_sync_records']}")
    print(f"refused_by_reason={refused} dirty_at_end={rep['dirty_at_end']} "
          f"served_resynced={rep['snapshot_served_resynced_by_server']}")
    print(f"commits_checked={rep['commits_checked']} "
          f"lost_commits={rep['lost_commits']} "
          f"replica_missing={rep['replica_missing']} "
          f"fanout_acked={rep['fanout_acked']} "
          f"fanout_unacked={rep['fanout_unacked']} "
          f"orphans={res.chaos_report['orphaned_write_locks']}")

    failures = []

    def outcome(r):
        return (r.committed, r.aborted, r.messages_sent,
                r.chaos_report, r.replication_report)

    if outcome(runs[0]) != outcome(runs[1]):
        failures.append("same-seed runs diverged")
    if not res.committed:
        failures.append("no transaction survived the chaos")
    if not rep["commits_checked"]:
        failures.append("lost-commit audit checked nothing (vacuous)")
    if rep["lost_commits"]:
        failures.append(f"{rep['lost_commits']} committed writes missing "
                        f"from their group's current leader")
    if not rep["promotions"]:
        failures.append("leader crashed but no follower was promoted")
    if not rep["recruitments"]:
        failures.append("no replacement replica was recruited after the "
                        "promotion")
    if rep["resyncs"] < 2:
        failures.append(f"expected >= 2 anti-entropy resyncs (restarted "
                        f"follower + crashed ex-leader), got "
                        f"{rep['resyncs']}")
    if rep["dirty_at_end"]:
        failures.append(f"servers still snapshot-dirty at end: "
                        f"{rep['dirty_at_end']}")
    if not refused["dirty"]:
        failures.append("no snapshot read was refused for dirtiness — the "
                        "servability gate was never exercised")
    served = rep["snapshot_served_resynced_by_server"]
    for sid in rep["resyncs_by_server"]:
        if not served.get(sid):
            failures.append(f"server {sid} resynced but never served a "
                            f"follower read afterwards (vacuous recovery)")
    if rep["min_live_members"] < quorum:
        failures.append(f"live membership dropped to "
                        f"{rep['min_live_members']} < write quorum {quorum}")
    if not rep["follower_reads"]:
        failures.append("no read was served by a follower replica")
    if res.chaos_report["orphaned_write_locks"]:
        failures.append(f"{res.chaos_report['orphaned_write_locks']} "
                        f"orphaned write locks after settle (Thms 9-10)")
    for i, r in enumerate(runs):
        report = check_serializable(r.history)
        if not report.serializable:
            failures.append(f"run {i}: history not MVSG-serializable: "
                            f"{report.error}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfheal: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_overload(seed: int = 13) -> int:
    """CI check: overload control degrades gracefully; unbounded collapses.

    Ramps closed-loop client counts well past the saturation point of a
    deliberately scarce cluster (few single-slot servers), twice: once with
    the overload controls on (bounded priority queues + deadlines +
    admission control) and once with the unbounded-queue baseline.
    Asserts:

    * graceful degradation — the controlled config keeps most of its peak
      goodput at the deepest overload, while the baseline loses most of
      its own peak to timeout-and-retry work amplification;
    * priority protection — the critical class (10% of transactions,
      MVTL-Prio-style) keeps its goodput and beats the normal class's
      commit rate at saturation (Theorem 3 carried into the wire
      substrate: criticals are never shed, never gated);
    * determinism — the deepest-overload controlled run, repeated with the
      same seed, reproduces identical commit/abort/shed/expired counters.
    """
    from ..dist.cluster import ClusterConfig, run_cluster
    from ..sim.testbed import CLOUD_TESTBED
    from ..workload.generator import WorkloadConfig

    # Scarce capacity on purpose: 4 single-slot servers at 1 ms/request
    # saturate near 650 txs/s for 6-op transactions — a handful of
    # closed-loop clients already fills that, so the ramp's tail is deep
    # overload, not mild pressure.
    profile = replace(CLOUD_TESTBED, num_servers=4, service_time=1e-3)
    base = ClusterConfig(
        profile=profile,
        workload=WorkloadConfig(num_keys=50_000, tx_size=6,
                                write_fraction=0.25,
                                critical_fraction=0.2),
        seed=seed, warmup=0.5, measure=2.0, protocol="mvtil-early",
        read_timeout=0.04, rpc_timeout=0.08, rpc_retries=1)
    controlled = replace(base, queue_capacity=16, tx_budget=0.15,
                         admission_control=True, breaker_threshold=8,
                         breaker_cooldown=0.1)
    loads = (4, 8, 16, 32, 64)

    print("== overload: ramp past saturation, controlled vs unbounded ==")
    print(f"{'mode':>10s} {'clients':>8s} {'goodput':>9s} {'commit%':>8s} "
          f"{'shed':>6s} {'expired':>8s} {'rejects':>8s} "
          f"{'crit g/put':>10s} {'norm g/put':>10s}")
    curves: dict[str, list] = {"controlled": [], "unbounded": []}
    for mode, cfg in (("controlled", controlled), ("unbounded", base)):
        for n in loads:
            res = run_cluster(replace(cfg, num_clients=n))
            rep = res.overload_report
            cls = rep["class_summary"]
            curves[mode].append((n, res))
            print(f"{mode:>10s} {n:>8d} {res.throughput:>9.1f} "
                  f"{res.commit_rate * 100:>7.1f}% {rep['shed']:>6d} "
                  f"{rep['expired']:>8d} {rep['admission_rejects']:>8d} "
                  f"{cls['critical']['goodput']:>10.1f} "
                  f"{cls['normal']['goodput']:>10.1f}")

    failures = []

    def retention(curve):
        peak = max(r.throughput for _, r in curve)
        final = curve[-1][1].throughput
        return final / peak if peak > 0 else 0.0

    ctrl_ret = retention(curves["controlled"])
    base_ret = retention(curves["unbounded"])
    print(f"goodput retention at {loads[-1]} clients: "
          f"controlled {ctrl_ret:.2f} vs unbounded {base_ret:.2f}")
    if ctrl_ret < 0.6:
        failures.append(
            f"controlled config lost its peak goodput under overload: "
            f"retained {ctrl_ret:.2f} of peak (need >= 0.6)")
    if base_ret >= ctrl_ret:
        failures.append(
            f"unbounded baseline did not degrade worse than the "
            f"controlled config ({base_ret:.2f} >= {ctrl_ret:.2f})")

    # Priority protection at the deepest overload point.
    deepest = curves["controlled"][-1][1]
    peak_idx = max(range(len(curves["controlled"])),
                   key=lambda i: curves["controlled"][i][1].throughput)
    peak_res = curves["controlled"][peak_idx][1]
    crit_deep = deepest.overload_report["class_summary"]["critical"]
    norm_deep = deepest.overload_report["class_summary"]["normal"]
    crit_peak = peak_res.overload_report["class_summary"]["critical"]
    if crit_deep["goodput"] < 0.9 * crit_peak["goodput"]:
        failures.append(
            f"critical goodput fell under overload: "
            f"{crit_deep['goodput']:.1f}/s at {loads[-1]} clients vs "
            f"{crit_peak['goodput']:.1f}/s at the goodput peak "
            f"(need >= 90%)")

    def commit_rate(cls):
        total = cls["committed"] + cls["aborted"]
        return cls["committed"] / total if total else 1.0

    if commit_rate(crit_deep) < commit_rate(norm_deep):
        failures.append(
            f"critical commit rate {commit_rate(crit_deep):.3f} below "
            f"normal {commit_rate(norm_deep):.3f} at saturation "
            f"(Theorem 3's distributed analogue)")

    # Seed determinism of the deepest-overload controlled run.
    rerun = run_cluster(replace(controlled, num_clients=loads[-1]))

    def fingerprint(res):
        return (res.committed, res.aborted, res.overload_report)

    if fingerprint(rerun) != fingerprint(deepest):
        failures.append("same-seed overload runs diverged "
                        "(shed/abort counters not deterministic)")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("overload: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_scenarios(names: list[str] | None = None, seed: int = 1) -> int:
    """CI check: the workload zoo's invariants and theorem duels.

    Each named scenario (default: all five) runs its reference cluster
    config twice with the same seed and asserts:

    * determinism — identical outcomes, final states and scenario/overload/
      replication reports across the two runs;
    * scenario invariants — the per-scenario semantic checks (balance
      conservation for ``bank-transfer``, dense counters and order-row
      atomicity for ``orders``, follower-read engagement and no lost
      increments for ``scan-vs-oltp``, index == derive(row) for
      ``secondary-index``, controller engagement plus hot-key integrity
      and critical-class protection for ``flash-crowd``);
    * serializability — both runs' recorded histories pass the MVSG
      checker (Theorem 1 / Theorem 8);
    * the paper's per-policy theorems, as *duels* on the centralized
      engine driven by the scenario's own transaction stream:
      MVTL-epsilon-clock finishes a serial skewed-clock schedule with
      **zero** serial aborts where MVTL-TO (= MVTO+, Theorem 5) aborts
      (Theorem 4), and MVTL-Ghostbuster suffers **zero** ghost aborts
      where MVTL-TO's persistent dead read locks kill live writers
      (Theorem 7).
    """
    from ..dist.cluster import run_cluster
    from ..verify import check_serializable
    from ..workload.scenarios import (SCENARIOS, check_scenario,
                                      ghost_abort_duel, scenario_config,
                                      serial_skew_duel)

    wanted = list(SCENARIOS) if not names else list(names)
    print(f"== scenario: workload zoo (seed {seed}, two runs each) ==")
    print(f"{'scenario':>16s} {'committed':>10s} {'aborted':>8s} "
          f"{'commit%':>8s} {'quiesced':>9s} {'eps-ser':>8s} {'to-ser':>7s} "
          f"{'gb-ghost':>9s} {'to-ghost':>9s}")
    failures = []
    for name in wanted:
        config = scenario_config(name, seed=seed)
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]

        def fingerprint(r):
            return (r.committed, r.aborted, r.messages_sent,
                    r.scenario_report, r.final_state,
                    r.overload_report, r.replication_report)

        if fingerprint(runs[0]) != fingerprint(runs[1]):
            failures.append(f"{name}: same-seed runs diverged")
        for msg in check_scenario(name, res):
            failures.append(f"{name}: {msg}")
        for i, r in enumerate(runs):
            report = check_serializable(r.history)
            if not report.serializable:
                failures.append(f"{name} run {i}: history not "
                                f"MVSG-serializable: {report.error}")

        # Theorem duels, driven by this scenario's transaction stream on
        # the centralized engine (duel seeds are fixed per duel: they pin
        # a schedule known to make the susceptible policy misbehave).
        skew = serial_skew_duel(name)
        ghost = ghost_abort_duel(name)
        eps_ser = skew["mvtl-epsilon-clock"]["serial_aborts"]
        to_ser = skew["mvtl-to"]["serial_aborts"]
        gb_ghost = ghost["mvtl-ghostbuster"]["ghost_aborts"]
        to_ghost = ghost["mvtl-to"]["ghost_aborts"]
        if eps_ser:
            failures.append(
                f"{name}: Theorem 4 violated — mvtl-epsilon-clock aborted "
                f"{eps_ser} transactions in a *serial* epsilon-synchronized "
                f"schedule")
        if not to_ser:
            failures.append(
                f"{name}: the skew duel induced no mvtl-to (MVTO+) serial "
                f"abort, so the Theorem 4 comparison is vacuous")
        if gb_ghost:
            failures.append(
                f"{name}: Theorem 7 violated — mvtl-ghostbuster suffered "
                f"{gb_ghost} ghost aborts (conflicts with dead "
                f"transactions)")
        if not to_ghost:
            failures.append(
                f"{name}: the ghost duel induced no mvtl-to ghost abort, "
                f"so the Theorem 7 comparison is vacuous")
        print(f"{name:>16s} {res.committed:>10d} {res.aborted:>8d} "
              f"{res.commit_rate * 100:>7.1f}% "
              f"{str(res.scenario_report['quiesced']):>9s} {eps_ser:>8d} "
              f"{to_ser:>7d} {gb_ghost:>9d} {to_ghost:>9d}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("scenario: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_policies(seed: int = 1) -> int:
    """CI check: the theorem duels across the *whole* policy registry.

    Runs the Theorem 4 (serial skewed-clock) and Theorem 7 (ghost abort)
    duels with ``policies = registered_policies() + ("bohm",)`` — every
    name the registry exposes plus the batched deterministic baseline —
    and prints one deterministic matrix row per policy.  Asserts the
    theorem guarantees on the policies that make them:

    * ``mvtl-epsilon-clock`` and ``bohm`` finish the serial duel with
      zero aborts (Theorem 4; Bohm is conflict-abort-free by design);
    * ``mvtl-to`` aborts in both duels — otherwise the comparisons are
      vacuous;
    * ``mvtl-ghostbuster`` and ``bohm`` score zero ghost aborts
      (Theorem 7), and ``mvtl-adaptive`` is sanity-bounded by its worst
      constituent in both duels.

    The output is byte-deterministic for a given seed: the CI job runs
    this twice and diffs the transcripts.
    """
    from ..policies.registry import registered_policies
    from ..workload.scenarios import ghost_abort_duel, serial_skew_duel

    policies = tuple(registered_policies()) + ("bohm",)
    print(f"== policies: registry-wide theorem duels (seed {seed}) ==")
    skew = serial_skew_duel(seed=100 + seed, policies=policies)
    ghost = ghost_abort_duel(seed=200 + seed, policies=policies)
    print(f"{'policy':>20s} {'serial-commits':>14s} {'serial-aborts':>13s} "
          f"{'ghost-commits':>13s} {'aborts':>7s} {'ghosts':>7s}")
    for name in policies:
        print(f"{name:>20s} {skew[name]['commits']:>14d} "
              f"{skew[name]['serial_aborts']:>13d} "
              f"{ghost[name]['commits']:>13d} "
              f"{ghost[name].get('aborts', 0):>7d} "
              f"{ghost[name]['ghost_aborts']:>7d}")

    failures = []
    for name in ("mvtl-epsilon-clock", "bohm"):
        if skew[name]["serial_aborts"]:
            failures.append(f"{name}: {skew[name]['serial_aborts']} serial "
                            f"aborts in an epsilon-synchronized serial "
                            f"schedule (Theorem 4)")
    if not skew["mvtl-to"]["serial_aborts"]:
        failures.append("mvtl-to induced no serial abort: the Theorem 4 "
                        "comparison is vacuous")
    for name in ("mvtl-ghostbuster", "bohm"):
        if ghost[name]["ghost_aborts"]:
            failures.append(f"{name}: {ghost[name]['ghost_aborts']} ghost "
                            f"aborts (Theorem 7)")
    if not ghost["mvtl-to"]["ghost_aborts"]:
        failures.append("mvtl-to induced no ghost abort: the Theorem 7 "
                        "comparison is vacuous")
    worst_serial = max(skew[p]["serial_aborts"]
                       for p in ("mvtl-to", "mvtl-pref", "mvtl-prio",
                                 "mvtl-epsilon-clock"))
    if skew["mvtl-adaptive"]["serial_aborts"] > worst_serial:
        failures.append(
            f"mvtl-adaptive scored {skew['mvtl-adaptive']['serial_aborts']} "
            f"serial aborts, worse than its worst constituent "
            f"({worst_serial})")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("policies: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_engine_bench(threads: int = 8, duration: float = 1.0,
                     keys_per_thread: int = 64) -> int:
    """Threaded MVTLEngine throughput, single-stripe vs striped.

    Two workloads: *disjoint* (each thread owns its keyset — the workload
    striping is built to parallelize) and *pairwise* (thread pairs contend
    on a shared key, exercising the blocking path where a single global
    condition wakes every waiter on every release).  Prints commits per
    second with ``stripes=1`` (the old single-condition behaviour) and the
    default stripe count, and the speedup.
    """
    from ..core.engine import DEFAULT_STRIPES, MVTLEngine
    from ..core.exceptions import TransactionAborted
    from ..policies import MVTIL, MVTLPessimistic

    def measure(stripes: int, policy, keyset_of) -> tuple[float, dict]:
        engine = MVTLEngine(policy(), default_timeout=2.0, stripes=stripes)
        commits = [0] * threads
        barrier = threading.Barrier(threads)
        deadline = [0.0]

        def worker(i: int) -> None:
            keyset = keyset_of(i)
            barrier.wait()
            n = 0
            while time.monotonic() < deadline[0]:
                tx = engine.begin(pid=i)
                try:
                    for key in {keyset[n % len(keyset)],
                                keyset[(n + 1) % len(keyset)]}:
                        engine.read(tx, key)
                        engine.write(tx, key, n)
                    if engine.commit(tx):
                        commits[i] += 1
                except TransactionAborted:
                    pass
                n += 1

        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads)]
        # Set the deadline just before releasing the barrier so thread
        # start-up cost is not measured.
        deadline[0] = time.monotonic() + duration + 0.05
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return sum(commits) / duration, engine.stripe_contention()

    workloads = (
        ("disjoint", MVTIL,
         lambda i: [f"w{i}-{j}" for j in range(keys_per_thread)]),
        ("pairwise", MVTLPessimistic,
         lambda i: [f"pair{i // 2}"]),
    )
    print(f"== engine: {threads} threads, {duration:.1f}s per config ==")
    for label, policy, keyset_of in workloads:
        throughput = {}
        for stripes in (1, DEFAULT_STRIPES):
            thr, contention = measure(stripes, policy, keyset_of)
            throughput[stripes] = thr
            print(f"  {label:>9s} stripes={stripes:>2d}: {thr:>10.0f} "
                  f"commits/s  (waits={sum(contention['waits'])}, "
                  f"conflicts={sum(contention['conflicts'])})")
        speedup = throughput[DEFAULT_STRIPES] / max(1e-9, throughput[1])
        print(f"  {label:>9s} striped speedup: {speedup:.2f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures (§8).")
    parser.add_argument("figure",
                        choices=sorted(FIGURES) + ["fig6", "fig7", "all",
                                                   "figures", "smoke",
                                                   "engine", "chaos",
                                                   "overload", "failover",
                                                   "selfheal",
                                                   "scenario", "policies"],
                        help="which figure to regenerate ('figures' = all "
                             "figures, intended with --workers; or: 'smoke' "
                             "= batched-vs-unbatched outcome check, 'engine' "
                             "= threaded striped-engine throughput, 'chaos' "
                             "= seeded fault-injection safety/liveness "
                             "check, 'overload' = graceful-degradation "
                             "ramp past saturation, 'failover' = "
                             "replicated leader-crash recovery check, "
                             "'selfheal' = anti-entropy + recruitment "
                             "chaos-hardening check, "
                             "'scenario' = workload-zoo invariant + "
                             "theorem-duel check, 'policies' = registry-"
                             "wide theorem-duel matrix incl. the adaptive "
                             "selector and the Bohm baseline)")
    parser.add_argument("name", nargs="?", default=None,
                        help="scenario name for 'scenario' (omit or 'all' "
                             "= every registered scenario)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="seeds to average over (paper: 5 repetitions)")
    parser.add_argument("--out", default="benchmarks/results",
                        help="directory for raw JSON output")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan each figure's runs over N worker "
                             "processes through repro.exp (0 = in-process "
                             "serial, the default; results are identical "
                             "either way)")
    parser.add_argument("--trace", action="store_true",
                        help="attach a repro.obs tracer to every run and "
                             "write <figure>.trace.jsonl + "
                             "<figure>.metrics.json sidecars "
                             "(inspect with `python -m repro.obs report`)")
    args = parser.parse_args(argv)

    if args.figure == "smoke":
        return run_smoke(seed=args.seeds[0])
    if args.figure == "engine":
        return run_engine_bench()
    if args.figure == "chaos":
        return run_chaos(seed=args.seeds[0])
    if args.figure == "overload":
        return run_overload(seed=args.seeds[0])
    if args.figure == "failover":
        return run_failover(seed=args.seeds[0])
    if args.figure == "selfheal":
        return run_selfheal(seed=args.seeds[0])
    if args.figure == "policies":
        return run_policies(seed=args.seeds[0])
    if args.figure == "scenario":
        from ..workload.scenarios import SCENARIOS
        if args.name in (None, "all"):
            names = None
        elif args.name in SCENARIOS:
            names = [args.name]
        else:
            parser.error(f"unknown scenario {args.name!r}; expected one of "
                         f"{sorted(SCENARIOS)} or 'all'")
        return run_scenarios(names=names, seed=args.seeds[0])
    if args.name is not None:
        parser.error("a scenario name is only valid with 'scenario'")

    wanted = (sorted(FIGURES) + ["fig6"]
              if args.figure in ("all", "figures") else [args.figure])

    def run_fn(fn, obs):
        """One figure sweep: in-process, or fanned over the worker pool."""
        if args.workers > 0:
            from ..exp.harness import print_progress, run_figures
            result, _outcomes = run_figures(
                fn, tuple(args.seeds), args.workers, obs=obs,
                progress=print_progress)
            return result
        kwargs = {"seeds": tuple(args.seeds)}
        if obs is not None:
            kwargs["obs"] = obs
        return fn(**kwargs)

    for name in wanted:
        start = time.time()
        obs = RunObservations() if args.trace else None
        if name in ("fig6", "fig7"):
            fig6, fig7 = run_fn(figure6_7_state_and_gc, obs)
            sidecar_anchor = None
            for result in (fig6, fig7):
                print(format_figure(result))
                path = save_figure(result, args.out)
                sidecar_anchor = sidecar_anchor or path
                print(f"  -> {path}  [{time.time() - start:.0f}s]\n")
            path = sidecar_anchor
        else:
            result = run_fn(FIGURES[name], obs)
            print(format_figure(result))
            path = save_figure(result, args.out)
            print(f"  -> {path}  [{time.time() - start:.0f}s]\n")
        if obs is not None and not obs.empty:
            trace_path, metrics_path = save_observability(obs, path)
            print(f"  -> {trace_path}")
            print(f"  -> {metrics_path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
