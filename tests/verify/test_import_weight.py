"""networkx stays off the run path: it loads on the first MVSG build.

The MVSG checker is the offline oracle; a simulated run never calls it, so
importing the library and running a cluster must not pay for networkx
(~14.5 MB of every run's peak RSS).  The check runs in a fresh interpreter
because the pytest process has loaded networkx already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
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
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
