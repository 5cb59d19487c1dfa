"""The Bohm baseline engine (§8), which :mod:`repro.dist.bohm` hosts.

MVTO+ and pessimistic locking are not separate engines: they are the
MVTL-TO and MVTL-Pessimistic policies (Theorems 5 and 6), run by
``MVTLEngine(MVTLTimestampOrdering())`` and ``MVTLEngine(MVTLPessimistic())``.
"""

from .bohm import BohmEngine

__all__ = ["BohmEngine"]
