"""Flat-array kernels behind the interval and version structures.

``repro._fastcore`` exports the kernels in :mod:`repro._fastcore.kernels`
that back :mod:`repro.core.intervals` and :mod:`repro.core.versions`.
There is one implementation, in pure Python; the differential test suites
pin it against the object-level algebra and a naive version-chain model.

``BACKEND`` names that implementation (always ``"pure"``) for benchmark
records.
"""

from __future__ import annotations

from .kernels import (iv_contains, iv_intersect, iv_normalize, iv_seek,
                      iv_subtract, iv_union, vc_floor)

__all__ = ["BACKEND", "iv_contains", "iv_intersect", "iv_normalize",
           "iv_seek", "iv_subtract", "iv_union", "vc_floor"]

BACKEND = "pure"
