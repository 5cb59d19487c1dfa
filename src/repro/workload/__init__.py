"""Workload generation, closed-loop driving, and measurement (§8.3).

Besides the knob-driven :class:`WorkloadGenerator`, the package ships a
registry of named *scenarios* (``repro.workload.scenarios``): seeded
generators with per-scenario invariants and theorem duels, runnable via
``python -m repro.bench scenario <name>``.
"""

from .. import _lazy_exports

__all__ = ["Op", "TxSpec", "WorkloadConfig", "WorkloadGenerator",
           "zipf_probabilities",
           "closed_loop_client", "run_tx",
           "SCENARIOS", "Scenario", "ScenarioGenerator",
           "make_scenario_generator", "scenario_config", "check_scenario",
           "scenario_names", "serial_skew_duel", "ghost_abort_duel",
           "RunStats", "StateSample", "StateSampler"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".generator": ("Op", "TxSpec", "WorkloadConfig", "WorkloadGenerator",
                   "zipf_probabilities"),
    ".runner": ("closed_loop_client", "run_tx"),
    ".scenarios": ("SCENARIOS", "Scenario", "ScenarioGenerator",
                   "check_scenario", "ghost_abort_duel",
                   "make_scenario_generator", "scenario_config",
                   "scenario_names", "serial_skew_duel"),
    ".stats": ("RunStats", "StateSample", "StateSampler"),
})
