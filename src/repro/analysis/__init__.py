"""Static analysis for the compiled fast path and the serving stack.

Three passes plus an API audit, one diagnostic currency, one CI ratchet:

* :mod:`~repro.analysis.plan_verifier` — abstract interpretation over
  :class:`~repro.core.fast_plan.CompiledStagePlan` stages (shape/dtype/
  layout integrity, epilogue legality, independent clip-elision
  re-derivation); results attach to the plan as ``plan.verification``.
* :mod:`~repro.analysis.hotpath_lint` — AST lint flagging per-iteration
  allocations inside the hot loops of ``core/fast_*.py`` / ``serve/*.py``.
* :mod:`~repro.analysis.concurrency_lint` — no-blocking-calls-in-async and
  unbounded pool-future wait checks over the serving stack.
* :mod:`~repro.analysis.api_lint` — ``__all__`` consistency and
  cross-module privacy audit.

Entry points: ``repro-tpc analyze`` (human text / ``--json``) and
``tools/analyze.py`` (CI gate against ``tools/analysis_baseline.json``).
See ``docs/ARCHITECTURE.md`` § Static analysis for the baseline-ratchet
workflow.
"""

from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    GATING_SEVERITIES,
    load_baseline,
    write_baseline,
)
from .plan_verifier import verify_plan
from .runner import SMOKE_WEDGE, analyze_model_plans, run_analysis

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "GATING_SEVERITIES",
    "SMOKE_WEDGE",
    "analyze_model_plans",
    "load_baseline",
    "run_analysis",
    "verify_plan",
    "write_baseline",
]
