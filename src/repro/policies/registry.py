"""Declarative policy registry — the narrow policy decision surface.

Theorem 1 makes the locking policy a pure performance knob: *any*
:class:`~repro.core.policy.MVTLPolicy` yields a serializable engine.  The
code should reflect that — engine, server, cluster and harness code must be
policy-agnostic, and a new policy should drop in by registering here rather
than by teaching call sites about its private state.

Each :class:`PolicySpec` couples a constructor with the **capability flags**
the rest of the system is allowed to ask about:

``defers_writes``
    Write locks are taken at commit time, not at ``write()`` — the
    distributed layer batches such policies' commit-time lock pass.
``waits``
    The policy parks on unfrozen conflicting locks (pessimistic idiom)
    instead of failing/shrinking; harnesses use this to budget timeouts.
``critical_bypass``
    The policy gives ``priority=True`` transactions extra locks (Theorem 3);
    the distributed layer maps this onto queue priority + admission bypass.
``critical_delta_factor``
    How much wider the distributed layer makes a critical transaction's
    interval relative to ``delta`` (1.0 = no widening).  This replaces the
    old reach-in where the MVTIL client imported MVTL-Prio's module
    constant directly.

Anything a harness needs beyond these flags goes through the policy-surface
accessors on :class:`~repro.core.policy.MVTLPolicy` itself
(``conflict_holders``, ``on_finish``) — never through ``tx.state``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from .. import _load
from ..core.policy import MVTLPolicy

__all__ = ["PolicySpec", "register_policy", "policy_spec", "make_policy",
           "registered_policies", "policy_specs", "CRITICAL_DELTA_FACTOR"]

#: How much wider the distributed layer makes a critical MVTIL
#: transaction's interval relative to a normal one's ``delta``.  In-process,
#: MVTL-Prio gives criticals *all* the locks (writes lock everything, reads
#: lock ``(tr, +inf]``); over the wire that would serialize every critical
#: behind every lock on every key it touches.  A widened-but-finite interval
#: is the practical middle ground: more timestamps to survive shrinking
#: (fewer interval-empty aborts, the Theorem 3 direction) without the
#: unbounded blocking of true pessimism.  The distributed critical class
#: additionally bypasses admission control and is never shed or displaced in
#: server queues — which is where Theorem 3's "never aborted by normals"
#: actually bites under overload.
CRITICAL_DELTA_FACTOR = 4.0


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: constructor plus declared capabilities."""

    name: str
    #: The policy's constructor, or the ``"module:Class"`` path of one
    #: (the module absolute, or relative to :mod:`repro.policies`),
    #: imported on the first :meth:`make`: registering a policy loads
    #: nothing.
    factory: Callable[..., MVTLPolicy] | str
    description: str = ""
    #: Constructor defaults applied by :meth:`make` (overridable per call).
    defaults: Mapping[str, Any] = field(default_factory=dict)
    defers_writes: bool = False
    waits: bool = False
    critical_bypass: bool = False
    critical_delta_factor: float = 1.0

    def make(self, **overrides: Any) -> MVTLPolicy:
        """Instantiate the policy with ``defaults`` merged under overrides.

        Unknown override keys are dropped rather than passed through, so a
        harness can say "epsilon=0.05 for whoever takes one" when sweeping
        every registered policy with one parameter dict.
        """
        params = dict(self.defaults)
        for key, value in overrides.items():
            if key in params:
                params[key] = value
        factory = self.factory
        if isinstance(factory, str):
            module, _, name = factory.partition(":")
            factory = getattr(_load(module, __package__), name)
        return factory(**params)


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"policy {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def policy_spec(name: str) -> PolicySpec:
    """Look up one registered policy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; registered: "
                       f"{sorted(_REGISTRY)}") from None


def make_policy(name: str, **overrides: Any) -> MVTLPolicy:
    """Instantiate a registered policy by name."""
    return policy_spec(name).make(**overrides)


def registered_policies() -> tuple[str, ...]:
    """Registered policy names, in registration order (deterministic)."""
    return tuple(_REGISTRY)


def policy_specs() -> Iterator[PolicySpec]:
    """Iterate the registered specs in registration order."""
    return iter(tuple(_REGISTRY.values()))


register_policy(PolicySpec(
    name="mvtl-to", factory=".to:MVTLTimestampOrdering",
    description="MVTO+ emulation: clock timestamp, commit-time point "
                "write locks, keeps read locks on abort (Thm. 5)",
    defers_writes=True))
register_policy(PolicySpec(
    name="mvtl-ghostbuster", factory=".ghostbuster:MVTLGhostbuster",
    description="TO that waits at commit and always collects — zero "
                "ghost aborts (Thm. 7)",
    defers_writes=True, waits=True))
register_policy(PolicySpec(
    name="mvtl-pessimistic", factory=".pessimistic:MVTLPessimistic",
    description="pessimistic emulation: writes lock everything, reads "
                "lock (tr, +inf] (Thm. 6)",
    waits=True))
register_policy(PolicySpec(
    name="mvtl-pref", factory=".pref:MVTLPreferential",
    description="preferred + alternative timestamps; commits strictly "
                "more than MVTO+ (Thm. 2)",
    defaults={"alternatives": None}, defers_writes=True))
register_policy(PolicySpec(
    name="mvtl-prio", factory=".prio:MVTLPrioritizer",
    description="critical transactions never aborted by normals "
                "(Thm. 3)",
    defers_writes=True, waits=True, critical_bypass=True,
    critical_delta_factor=CRITICAL_DELTA_FACTOR))
register_policy(PolicySpec(
    name="mvtl-epsilon-clock", factory=".epsilon_clock:MVTLEpsilonClock",
    description="interval [now-eps, now+eps]: zero serial aborts under "
                "eps-synchronized clocks (Thm. 4)",
    defaults={"epsilon": 0.05}, waits=True))
register_policy(PolicySpec(
    name="mvtil-early", factory=".mvtil:MVTIL",
    description="the §8 prototype interval policy, earliest viable "
                "commit timestamp",
    defaults={"delta": 0.005, "late": False},
    critical_bypass=True,
    critical_delta_factor=CRITICAL_DELTA_FACTOR))
register_policy(PolicySpec(
    name="mvtil-late", factory=".mvtil:MVTIL",
    description="MVTIL picking the latest viable commit timestamp",
    defaults={"delta": 0.005, "late": True},
    critical_bypass=True,
    critical_delta_factor=CRITICAL_DELTA_FACTOR))
register_policy(PolicySpec(
    name="mvtl-adaptive", factory=".adaptive:MVTLAdaptive",
    description="per-stripe selector switching between TO, Pref, Prio "
                "and eps-clock from observed contention",
    defaults={"epsilon": 0.05, "seed": 0, "decision_interval": 32},
    defers_writes=True, waits=True, critical_bypass=True,
    critical_delta_factor=CRITICAL_DELTA_FACTOR))

