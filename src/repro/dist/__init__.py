"""Distributed MVTL (§7, §H) and the §8 prototype protocols over the DES."""

from .client import BaseClient, MVTILClient, MVTOClient
from .cluster import PROTOCOLS, ClusterConfig, ClusterResult, run_cluster
from .commitment import ABORT, CommitmentObject, CommitmentRegistry
from .failure import ChaosConfig, ChaosEvent, ChaosSchedule, CrashInjector
from .gc_service import TimestampService
from .member import ReplicaClient, ReplicaServer
from .server import MVTLServer
from .twopl import TwoPLClient, TwoPLServer

__all__ = [
    "MVTILClient", "ReplicaClient", "MVTOClient", "TwoPLClient",
    "BaseClient",
    "MVTLServer", "ReplicaServer", "TwoPLServer",
    "CommitmentObject", "CommitmentRegistry", "ABORT",
    "TimestampService", "CrashInjector",
    "ChaosConfig", "ChaosEvent", "ChaosSchedule",
    "ClusterConfig", "ClusterResult", "run_cluster", "PROTOCOLS",
]
