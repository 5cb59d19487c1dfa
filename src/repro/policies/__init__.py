"""The MVTL policies of §5 and §8.

Every class here specializes the generic Algorithm 2 policy; by Theorem 1
each yields a serializable engine.  They differ in which workloads commit:

============================  ==========================================
:class:`MVTLTimestampOrdering`  emulates MVTO+ (Thm. 5)
:class:`MVTLPessimistic`        emulates pessimistic locking (Thm. 6)
:class:`MVTLPreferential`       commits strictly more than MVTO+ (Thm. 2)
:class:`MVTLPrioritizer`        critical txs never aborted by normal (Thm. 3)
:class:`MVTLEpsilonClock`       no serial aborts with eps-clocks (Thm. 4)
:class:`MVTLGhostbuster`        no ghost aborts (Thm. 7)
:class:`MVTIL`                  the §8 prototype (early/late variants)
:class:`MVTLAdaptive`           per-stripe runtime selector over the above
============================  ==========================================

Policies register declaratively in :mod:`repro.policies.registry`; harness
and cluster code enumerates :func:`registered_policies` and instantiates via
:func:`make_policy` instead of naming classes.
"""

from .. import _lazy_exports

__all__ = [
    "MVTLTimestampOrdering",
    "MVTLGhostbuster",
    "MVTLPessimistic",
    "MVTLPreferential",
    "offset_alternatives",
    "MVTLPrioritizer",
    "MVTLEpsilonClock",
    "MVTIL",
    "MVTLAdaptive",
    "MODES",
    "PolicySpec",
    "register_policy",
    "policy_spec",
    "policy_specs",
    "make_policy",
    "registered_policies",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".adaptive": ("MODES", "MVTLAdaptive"),
    ".epsilon_clock": ("MVTLEpsilonClock",),
    ".ghostbuster": ("MVTLGhostbuster",),
    ".mvtil": ("MVTIL",),
    ".pessimistic": ("MVTLPessimistic",),
    ".pref": ("MVTLPreferential", "offset_alternatives"),
    ".prio": ("MVTLPrioritizer",),
    ".registry": ("PolicySpec", "make_policy", "policy_spec", "policy_specs",
                  "register_policy", "registered_policies"),
    ".to": ("MVTLTimestampOrdering",),
})
