"""repro — Multiversion Timestamp Locking (MVTL).

A faithful, full-scope Python reproduction of *"Locking Timestamps versus
Locking Objects"* (Aguilera, David, Guerraoui, Wang — PODC 2018): the generic
MVTL algorithm, the §5 policy family (MVTO+ and pessimistic locking among
them, as MVTL-TO and MVTL-Pessimistic: Theorems 5 and 6), the Bohm
baseline, the distributed MVTL protocol with commitment objects, a
deterministic discrete-event substrate standing in for the paper's
testbeds, and a benchmark harness regenerating Figures 1-7.

Quickstart
----------
>>> from repro import MVTLEngine
>>> from repro.policies import MVTIL
>>> engine = MVTLEngine(MVTIL(delta=0.005))
>>> tx = engine.begin()
>>> engine.write(tx, "x", 1)
>>> engine.commit(tx)
True
"""

from .core import (BOTTOM, TS_INF, TS_ZERO, AbortReason, DeadlockError,
                   IntervalSet, LockMode, MVTLEngine, MVTLError, MVTLPolicy,
                   Timestamp, Transaction, TransactionAborted, TsInterval,
                   TxStatus)

__version__ = "1.0.0"

__all__ = [
    "MVTLEngine", "MVTLPolicy", "Transaction", "TxStatus",
    "Timestamp", "TS_ZERO", "TS_INF", "BOTTOM",
    "TsInterval", "IntervalSet", "LockMode",
    "AbortReason", "MVTLError", "TransactionAborted", "DeadlockError",
    "__version__",
]
