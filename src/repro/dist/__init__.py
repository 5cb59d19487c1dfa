"""Distributed MVTL (§7, §H) and the §8 prototype protocols over the DES."""

from .. import _lazy_exports

__all__ = [
    "MVTILClient", "ReplicaClient", "MVTOClient", "TwoPLClient",
    "BaseClient",
    "MVTLServer", "ReplicaServer", "TwoPLServer",
    "CommitmentObject", "CommitmentRegistry", "ABORT",
    "TimestampService", "CrashInjector",
    "ChaosConfig", "ChaosEvent", "ChaosSchedule",
    "ClusterConfig", "ClusterResult", "run_cluster", "PROTOCOLS",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".client": ("BaseClient", "MVTILClient", "MVTOClient"),
    ".cluster": ("PROTOCOLS", "ClusterConfig", "ClusterResult", "run_cluster"),
    ".commitment": ("ABORT", "CommitmentObject", "CommitmentRegistry"),
    ".failure": ("ChaosConfig", "ChaosEvent", "ChaosSchedule",
                 "CrashInjector"),
    ".gc_service": ("TimestampService",),
    ".member": ("ReplicaClient", "ReplicaServer"),
    ".server": ("MVTLServer",),
    ".twopl": ("TwoPLClient", "TwoPLServer"),
})
