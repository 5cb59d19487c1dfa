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

import sys
from importlib.util import resolve_name

__version__ = "1.0.0"

__all__ = [
    "MVTLEngine", "MVTLPolicy", "Transaction", "TxStatus",
    "Timestamp", "TS_ZERO", "TS_INF", "BOTTOM",
    "TsInterval", "IntervalSet", "LockMode",
    "AbortReason", "MVTLError", "TransactionAborted", "DeadlockError",
    "__version__",
]


def _load(name: str, package: str):
    """Import the module ``name`` (absolute, or relative to ``package``).

    Through ``__import__`` rather than ``importlib.import_module``:
    ``python -X importtime`` lists only imports made by the import
    statement's machinery, and a module loaded on demand should show there
    under its own name, not inside its importer's self time.
    """
    module = resolve_name(name, package)
    __import__(module)
    return sys.modules[module]


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` / ``__dir__`` for a re-exporting package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule (relative, ``".engine"``) to the names the package re-exports
    from it.  A name's submodule is imported on the first lookup of the
    name, which then stays in ``namespace`` as a plain attribute, so a run
    compiles only the modules it asks for (DESIGN.md, "A run loads what its
    config names").  It lives in the package root rather than in a module
    of its own because ``perflab/layers.py`` maps every file under
    ``src/repro`` to a profiling layer, and the root's layer is ``other``.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(_load(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    ".core": ("BOTTOM", "TS_INF", "TS_ZERO", "AbortReason", "DeadlockError",
              "IntervalSet", "LockMode", "MVTLEngine", "MVTLError",
              "MVTLPolicy", "Timestamp", "Transaction", "TransactionAborted",
              "TsInterval", "TxStatus"),
})
