"""The Bohm baseline engine (§8), which :mod:`repro.dist.bohm` hosts.

MVTO+ and pessimistic locking are not separate engines: they are the
MVTL-TO and MVTL-Pessimistic policies (Theorems 5 and 6), run by
``MVTLEngine(MVTLTimestampOrdering())`` and ``MVTLEngine(MVTLPessimistic())``.
"""

from .. import _lazy_exports

__all__ = ["BohmEngine"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".bohm": ("BohmEngine",),
})
