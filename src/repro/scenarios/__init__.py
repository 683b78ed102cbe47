"""Seeded chaos scenarios with pass/fail SLO gates.

See DESIGN.md §11: :mod:`repro.scenarios.spec` declares timelines,
:mod:`repro.scenarios.engine` executes them against both substrates,
:mod:`repro.scenarios.library` holds the committed named scenarios and
:mod:`repro.scenarios.report` turns a batch into
``BENCH_scenarios.json`` for the regression gate.
"""

from repro.scenarios.engine import (
    ScenarioResult,
    SLOCheck,
    price_replacement,
    run_scenario,
)
from repro.scenarios.library import SCENARIOS, get_scenario, scenario_names
from repro.scenarios.report import (
    SCENARIOS_ARTIFACT,
    emit_scenarios,
    render_results,
)
from repro.scenarios.spec import (
    ElasticResize,
    ExpertDeath,
    LinkBrownout,
    NonFiniteStep,
    RankLoss,
    Scenario,
    SimClockFault,
    SLOSpec,
)

__all__ = [
    "ElasticResize",
    "ExpertDeath",
    "LinkBrownout",
    "NonFiniteStep",
    "RankLoss",
    "Scenario",
    "SimClockFault",
    "SLOSpec",
    "SLOCheck",
    "ScenarioResult",
    "SCENARIOS",
    "SCENARIOS_ARTIFACT",
    "emit_scenarios",
    "get_scenario",
    "price_replacement",
    "render_results",
    "run_scenario",
    "scenario_names",
]
