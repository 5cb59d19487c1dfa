"""What a run imports: networkx on the first MVSG build, and of repro itself
only the modules its config names.

The MVSG checker is the offline oracle; a simulated run never calls it, so
importing the library and running a cluster must not pay for networkx
(~14.5 MB of every run's peak RSS).  Likewise a plain MVTIL or MVTO+ run
never calls 2PL, Bohm, the replica roles, the WAL, trace export or the
seven other policies, and compiling them was about a third of a cluster
run's set-up time when no bytecode is cached: the packages export lazily,
and a ``ClusterConfig`` loads what it names when it is built, so
``run_cluster`` imports nothing (DESIGN.md, "A run loads what its config
names").  Each check runs in a fresh interpreter because the pytest process
has loaded everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _run(script: str) -> None:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_NETWORKX = """
import sys

import repro
import repro.dist
import repro.policies
import repro.sim
import repro.workload
from repro.dist import ClusterConfig, run_cluster
from repro.verify import check_serializable

res = run_cluster(ClusterConfig(num_clients=2, warmup=0.05, measure=0.15,
                                record_history=True, seed=3))
assert "networkx" not in sys.modules, "a simulated run loaded networkx"

report = check_serializable(res.history)
assert report.serializable, report
assert report.num_committed > 0, report
assert "networkx" in sys.modules, "the MVSG check did not load networkx"
print("ok")
"""


def test_networkx_loads_on_first_mvsg_build_only():
    _run(_NETWORKX)


#: Shared by the scripts below: the deferred modules and a check that
#: ``run_cluster`` leaves ``sys.modules`` as the config left it.  numpy
#: imports ``numpy.random`` on its first use, which is the first run's
#: ``RngFactory``; that is numpy's, not repro's, so the scripts load it first.
_PRELUDE = """
import sys

import numpy.random

POLICIES = ("adaptive", "epsilon_clock", "ghostbuster", "pessimistic",
            "pref", "prio", "to")
DEFERRED = {"repro." + m for m in (
    "dist.member", "dist.twopl", "dist.bohm", "baselines.bohm",
    "repl.replica", "repl.checkpoint", "repl.wal",
    "obs.export", "obs.profile", "obs.metrics",
    *("policies." + p for p in POLICIES))}
REPLICATED = {"repro." + m for m in (
    "dist.member", "repl.replica", "repl.checkpoint", "repl.wal",
    "obs.metrics")}


def loaded():
    return DEFERRED & set(sys.modules)


def run_loads_nothing(config):
    from repro.dist import run_cluster
    before = set(sys.modules)
    result = run_cluster(config)
    assert result.committed > 0, config
    assert set(sys.modules) == before, (
        config.protocol, sorted(set(sys.modules) ^ before))
"""

_PERFLAB_SHAPES = _PRELUDE + """
import repro
import repro._fastcore
import repro.baselines
import repro.clocks
import repro.core
import repro.dist
import repro.exp
import repro.obs
import repro.policies
import repro.repl
import repro.sim
import repro.verify
import repro.workload
from repro.core import BackgroundCollector, MVTLEngine
from repro.dist import ChaosConfig, ClusterConfig
from repro.policies import MVTIL
from repro.sim import LOCAL_TESTBED, LinkFaults
from repro.workload import WorkloadConfig
assert not loaded(), sorted(loaded())

# perflab's workloads: mvtil-hotpath, mvtil-contended, mvto-grid and the
# engine of engine-threads ...
ClusterConfig(protocol="mvtil-early", profile=LOCAL_TESTBED, num_servers=4,
              num_clients=12, warmup=0.5, measure=0.85,
              workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                      write_fraction=0.25))
ClusterConfig(protocol="mvtil-early", profile=LOCAL_TESTBED, num_servers=4,
              num_clients=60, warmup=0.15, measure=0.25,
              workload=WorkloadConfig(num_keys=200, tx_size=8,
                                      write_fraction=0.7))
ClusterConfig(protocol="mvto", profile=LOCAL_TESTBED, num_clients=30,
              warmup=0.25, measure=0.42,
              workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                      write_fraction=0.25))
BackgroundCollector(MVTLEngine(MVTIL()), purge_horizon=50)
assert not loaded(), sorted(loaded())

# ... and selfheal-chaos, which names replication and the WAL.
ClusterConfig(protocol="mvtil-early", profile=LOCAL_TESTBED, num_servers=4,
              num_clients=40, warmup=1.0, measure=4.0,
              workload=WorkloadConfig(num_keys=2_000, tx_size=4,
                                      write_fraction=0.3),
              gc_period=0.2, write_lock_timeout=0.25, rpc_timeout=0.15,
              rpc_retries=3, replication=3, durability="wal",
              checkpoint_every=64, follower_reads=True, anti_entropy=True,
              recruitment=True, reliable_fanout=True, sync_batch=16,
              heartbeat_miss_limit=5,
              faults=LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01),
              chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.6,
                                follower_restarts=1, follower_downtime=0.3))
assert loaded() == REPLICATED, sorted(loaded() ^ REPLICATED)
print("ok")
"""


def test_no_deferred_module_loads_with_the_packages_and_perflab_configs():
    _run(_PERFLAB_SHAPES)


_RUNS_IMPORT_NOTHING = _PRELUDE + """
from repro.dist import ClusterConfig
from repro.workload import WorkloadConfig

small = dict(num_servers=3, num_clients=4, seed=5, warmup=0.05, measure=0.2,
             workload=WorkloadConfig(num_keys=200, tx_size=4,
                                     write_fraction=0.5))
run_loads_nothing(ClusterConfig(protocol="mvtil-early", **small))
run_loads_nothing(ClusterConfig(protocol="mvto", **small))
assert not loaded(), sorted(loaded())
run_loads_nothing(ClusterConfig(protocol="mvtil-early", replication=3,
                                durability="wal", checkpoint_every=16,
                                **small))
assert loaded() == REPLICATED, sorted(loaded() ^ REPLICATED)
print("ok")
"""


def test_run_cluster_imports_nothing():
    _run(_RUNS_IMPORT_NOTHING)


_CONFIG_LOADS = _PRELUDE + """
from repro.dist import ClusterConfig
from repro.workload import WorkloadConfig

small = dict(num_servers=3, num_clients=4, seed=5, warmup=0.05, measure=0.2,
             workload=WorkloadConfig(num_keys=200, tx_size=4,
                                     write_fraction=0.5))
for named, modules in (
        (dict(protocol="2pl"), {"dist.twopl"}),
        (dict(protocol="bohm"), {"dist.bohm", "baselines.bohm"}),
        (dict(commitment="paxos"), {"dist.paxos"}),
        (dict(scenario="flash-crowd"), {"workload.scenarios"}),
        (dict(trace=True), {"obs.metrics"})):
    modules = {"repro." + m for m in modules}
    assert not modules & set(sys.modules), named
    config = ClusterConfig(**named, **small)
    assert modules <= set(sys.modules), named
    run_loads_nothing(config)
print("ok")
"""


def test_a_config_loads_the_modules_it_names():
    _run(_CONFIG_LOADS)


PACKAGES = ("repro", "repro._fastcore", "repro.baselines", "repro.bench",
            "repro.clocks", "repro.core", "repro.dist", "repro.exp",
            "repro.obs", "repro.policies", "repro.repl", "repro.sim",
            "repro.verify", "repro.workload")

_EXPORTS = """
import importlib

pkg = importlib.import_module({name!r})
listed = dir(pkg)
for export in pkg.__all__:
    assert export in listed, export
    assert getattr(pkg, export) is not None, export
namespace = {{}}
exec("from {name} import *", namespace)
missing = set(pkg.__all__) - set(namespace)
assert not missing, sorted(missing)
try:
    pkg.no_such_export
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    _run(_EXPORTS.format(name=name))
