"""Core MVTL machinery: timestamps, intervals, locks, versions, engine."""

from .. import _lazy_exports

__all__ = [
    "MVTLEngine", "EngineAcquireResult", "MVTLPolicy", "BackgroundCollector",
    "Transaction", "TxStatus",
    "Timestamp", "TS_ZERO", "TS_INF", "BOTTOM", "Bottom",
    "TsInterval", "IntervalSet", "EMPTY_SET", "FULL_INTERVAL",
    "LockMode", "LockTable", "KeyLockState", "AcquireResult", "Conflict",
    "FrozenConflictError",
    "VersionStore", "MVTLStore", "Version", "PENDING", "Pending",
    "AbortReason", "MVTLError", "TransactionAborted",
    "TransactionStateError", "DeadlockError", "LockTimeout", "PolicyError",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".collector": ("BackgroundCollector",),
    ".engine": ("EngineAcquireResult", "MVTLEngine"),
    ".exceptions": ("AbortReason", "DeadlockError", "LockTimeout",
                    "MVTLError", "PolicyError", "TransactionAborted",
                    "TransactionStateError"),
    ".intervals": ("EMPTY_SET", "FULL_INTERVAL", "IntervalSet", "TsInterval"),
    ".locks": ("AcquireResult", "Conflict", "FrozenConflictError",
               "KeyLockState", "LockMode", "LockTable"),
    ".policy": ("MVTLPolicy",),
    ".timestamp": ("BOTTOM", "TS_INF", "TS_ZERO", "Bottom", "Timestamp"),
    ".transaction": ("Transaction", "TxStatus"),
    ".versions": ("MVTLStore", "PENDING", "Pending", "Version",
                  "VersionStore"),
})
