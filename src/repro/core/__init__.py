"""The paper's contribution: the three-step trade-off analysis.

* :func:`run_single` / :class:`RunResult` — one (application, placement,
  routing) simulation with full metrics;
* :class:`TradeoffStudy` — the Section IV-A application study over the
  placement x routing grid (Figures 3-6);
* :func:`sensitivity_sweep` — the Section IV-B communication-intensity
  sweep (Figure 7);
* :func:`interference_study` + :class:`BackgroundSpec` — the Section
  IV-C external-traffic study (Table II, Figures 8-10);
* :mod:`repro.core.report` — paper-style text rendering (Table I,
  finding extraction).
"""

from repro.core.runner import RunResult, run_single, build_topology
from repro.core.study import StudyResult, TradeoffStudy
from repro.core.sensitivity import SensitivityResult, sensitivity_sweep
from repro.core.interference import (
    BackgroundSpec,
    background_load_table,
    interference_study,
)
from repro.core.report import (
    config_label,
    key_findings,
    nomenclature_table,
    format_box_table,
)
from repro.core.advisor import (
    Recommendation,
    TraceProfile,
    characterize,
    recommend,
)
from repro.core.resilience import ResilienceResult, resilience_study
from repro.core.variability import VariabilityResult, variability_study

__all__ = [
    "RunResult",
    "run_single",
    "build_topology",
    "StudyResult",
    "TradeoffStudy",
    "SensitivityResult",
    "sensitivity_sweep",
    "BackgroundSpec",
    "background_load_table",
    "interference_study",
    "config_label",
    "key_findings",
    "nomenclature_table",
    "format_box_table",
    "Recommendation",
    "TraceProfile",
    "characterize",
    "recommend",
    "ResilienceResult",
    "resilience_study",
    "VariabilityResult",
    "variability_study",
]
