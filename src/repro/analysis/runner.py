"""Analyzer driver: all passes over the code base and the Table-1 plans.

:func:`run_analysis` is what ``repro-tpc analyze`` and ``tools/analyze.py``
call: it compiles all four model-zoo configurations at a smoke geometry,
statically verifies every resulting plan (encoder + both decoder heads)
with :func:`~repro.analysis.plan_verifier.verify_plan`, runs the hot-path
and concurrency lints over the scoped sources and the public-API audit
over the whole package, and returns one
:class:`~repro.analysis.diagnostics.AnalysisReport`.

Plan verification is end-to-end static: the encoder plan's inferred output
shape (channels × spatial) is fed forward as the decoder plans' input —
no tensor is ever materialised, so the whole run costs model construction
plus AST walks.
"""

from __future__ import annotations

from pathlib import Path

from .concurrency_lint import (
    default_async_targets,
    default_result_targets,
    lint_async_paths,
    lint_result_timeout_paths,
)
from .api_lint import audit_package
from .diagnostics import AnalysisReport, Diagnostic
from .hotpath_lint import default_targets as hotpath_targets
from .hotpath_lint import lint_paths as hotpath_lint_paths
from .plan_verifier import verify_plan

__all__ = ["SMOKE_WEDGE", "analyze_model_plans", "run_analysis"]

#: Wedge geometry the plan pass compiles the zoo at — the bench smoke
#: shape: every model family builds and all stage shapes stay non-trivial,
#: while construction takes milliseconds instead of the paper grid's
#: seconds.
SMOKE_WEDGE = (16, 48, 62)


def _package_root() -> Path:
    """``src/repro`` — the root the source lints scan."""

    return Path(__file__).resolve().parent.parent


def analyze_model_plans(names=None, half: bool = True,
                        wedge_spatial: tuple[int, int, int] = SMOKE_WEDGE,
                        ) -> tuple[list[Diagnostic], list[dict]]:
    """Verify encoder + decoder plans of the zoo models; returns
    ``(diagnostics, verification records)``.

    The 2D family's radial axis rides as channels (input ``(B, R, A, H)``
    with the horizontal padded to the encoder's ``2**d`` grid); the 3D
    families consume a single-channel volume at the model's own spatial
    shape.  Decoder inputs are the encoder's *inferred* output — the
    chain is fully static.  Each record additionally carries the plan's
    :meth:`~repro.core.fast_plan.CompiledStagePlan.plan_stats` summary
    under ``"stats"`` (``analyze --stats`` prints it); GEMM execution
    entries stay empty here because verification never runs the plan.
    """

    from repro.core import MODEL_NAMES, build_model
    from repro.core.fast_decode import make_fast_decoder, supports_fast_decode
    from repro.core.fast_encode import (
        LOG_INPUT_BOUND,
        make_fast_encoder,
        supports_fast_encode,
    )
    from repro.core.fast_plan import FP16_MAX

    diags: list[Diagnostic] = []
    records: list[dict] = []
    for name in (MODEL_NAMES if names is None else names):
        model = build_model(name, wedge_spatial=wedge_spatial, seed=0)
        model.eval()
        if not (supports_fast_encode(model) and supports_fast_decode(model)):
            diags.append(Diagnostic(
                pass_name="plan", rule="PV100", severity="error",
                location=name, scope=name,
                message="model is outside the compiled vocabulary — the "
                        "fast path silently falls back to the module graph",
                token="vocabulary",
            ))
            continue
        enc = make_fast_encoder(model, half=half)
        if hasattr(enc, "spatial"):           # 3D: single-channel volume
            in_channels, in_spatial = 1, tuple(enc.spatial)
        else:                                 # 2D: radial axis as channels
            r, a, h = wedge_spatial
            grid = 2 ** enc.d
            in_channels = r
            in_spatial = (a, -(-h // grid) * grid)
        rec = verify_plan(enc.plan, in_channels, in_spatial,
                          LOG_INPUT_BOUND, label=f"{name}.encoder")
        rec["stats"] = enc.plan.plan_stats()
        records.append(rec)
        diags.extend(rec["diagnostic_objects"])

        dec = make_fast_decoder(model, half=half)
        code = rec["out"]
        entry = FP16_MAX if half else rec["out"]["bound"]
        for head, plan in dec.plans.items():
            rec_d = verify_plan(plan, code["channels"], code["spatial"],
                                entry, label=f"{name}.decoder.{head}")
            rec_d["stats"] = plan.plan_stats()
            records.append(rec_d)
            diags.extend(rec_d["diagnostic_objects"])
    return diags, records


def run_analysis(passes=("plan", "hotpath", "concurrency", "api"),
                 extra_sources=(), half: bool = True,
                 ) -> tuple[AnalysisReport, list[dict]]:
    """Run the selected passes; returns ``(report, plan records)``.

    ``extra_sources`` are additional file paths fed to the hot-path and
    concurrency lints — the CI injected-finding fixture uses this to prove
    the gate fails on a fresh finding.
    """

    root = _package_root()
    diags: list[Diagnostic] = []
    records: list[dict] = []
    extra = [Path(p) for p in extra_sources]
    if "plan" in passes:
        plan_diags, records = analyze_model_plans(half=half)
        diags.extend(plan_diags)
    if "hotpath" in passes:
        diags.extend(hotpath_lint_paths(hotpath_targets(root),
                                        rel_to=root.parent))
        if extra:
            diags.extend(hotpath_lint_paths(extra))
    if "concurrency" in passes:
        diags.extend(lint_async_paths(default_async_targets(root),
                                      rel_to=root.parent))
        diags.extend(lint_result_timeout_paths(default_result_targets(root),
                                               rel_to=root.parent))
        if extra:
            diags.extend(lint_async_paths(extra))
            diags.extend(lint_result_timeout_paths(extra))
    if "api" in passes:
        diags.extend(audit_package(root.parent))
    return AnalysisReport(diags), records
