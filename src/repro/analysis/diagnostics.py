"""Diagnostic / report / baseline model shared by every analysis pass.

All three static passes (plan verifier, hot-path allocation lint,
concurrency lint) and the public-API audit emit the same currency: a
:class:`Diagnostic` with a *pass*, a *rule* id, a *severity*, a *scope*
(what part of the code or plan it is about) and a line-number-stable
*fingerprint*.  :class:`AnalysisReport` aggregates them, renders the human
text / machine JSON forms ``repro-tpc analyze`` prints, and diffs against a
checked-in :func:`load_baseline` so CI can ratchet: existing findings are
grandfathered, new ones fail the build, and fixing one shrinks the
baseline (``tools/analyze.py --write-baseline``).

Severity semantics
------------------
``error``
    A legality violation — a corrupted plan, a blocking call in async code.
``warning``
    A finding worth ratcheting down — a hot-loop allocation, a private
    cross-module import.  Gates through the baseline like ``error``.
``info``
    Explanatory record only (BN-fold decisions, clip-elision intervals).
    Never gates, never enters the baseline.

Fingerprints deliberately exclude line numbers: they hash the pass, rule,
lexical scope (``module:function`` or ``plan[stage]``), the offending
source token and an occurrence index, so reformatting or adding unrelated
lines does not churn the baseline.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "GATING_SEVERITIES",
    "load_baseline",
    "write_baseline",
]

#: Severities that participate in baseline gating (``info`` never gates).
GATING_SEVERITIES = frozenset({"warning", "error"})

_SEVERITIES = ("info", "warning", "error")


@dataclasses.dataclass
class Diagnostic:
    """One finding from one analysis pass.

    Parameters
    ----------
    pass_name:
        Which pass produced it (``plan`` / ``hotpath`` / ``concurrency`` /
        ``api``).
    rule:
        Stable rule id (``PV102``, ``HP001``, ``CL010``, ``AP001``).
    severity:
        ``info`` | ``warning`` | ``error`` — see the module docstring.
    location:
        Human-facing anchor, e.g. ``src/repro/core/fast_plan.py:1432`` or
        ``bcae.encoder[stage 3:conv3d]``.  *Not* part of the fingerprint.
    scope:
        Lexical scope the finding belongs to — ``module:qualname`` for AST
        lints, ``label[stage i:kind]`` for plan findings.  Fingerprint key.
    message:
        One-sentence statement of the finding.
    token:
        Short source/operand token identifying the finding inside its
        scope (``np.empty``, ``time.sleep``, a spec field name).
    occurrence:
        Index among identical ``(rule, scope, token)`` findings, so two
        ``np.empty`` calls in one loop get distinct fingerprints.
    details:
        Free-form structured payload for the JSON report.
    """

    pass_name: str
    rule: str
    severity: str
    location: str
    scope: str
    message: str
    token: str = ""
    occurrence: int = 0
    details: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Line-number-stable identity used for baseline gating."""

        return (f"{self.pass_name}:{self.rule}:{self.scope}:"
                f"{self.token}#{self.occurrence}")

    def as_dict(self) -> dict:
        """JSON-ready form (fingerprint included)."""

        d = dataclasses.asdict(self)
        d["fingerprint"] = self.fingerprint
        return d

    def format(self) -> str:
        """One human-readable report line."""

        return (f"{self.severity.upper():7s} {self.rule} [{self.pass_name}] "
                f"{self.location}: {self.message}")


def assign_occurrences(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Number identical ``(rule, scope, token)`` findings in emission order.

    Passes emit diagnostics with ``occurrence=0``; this post-pass makes
    fingerprints unique without the passes having to coordinate.
    """

    seen: dict[tuple[str, str, str], int] = {}
    for d in diags:
        key = (d.rule, d.scope, d.token)
        d.occurrence = seen.get(key, 0)
        seen[key] = d.occurrence + 1
    return diags


class AnalysisReport:
    """Aggregated findings of one analyzer run, with rendering and gating.

    >>> report = AnalysisReport([])
    >>> report.counts()
    {'info': 0, 'warning': 0, 'error': 0}
    >>> report.new_findings(set())
    []
    """

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = assign_occurrences(list(diagnostics))

    # -- queries --------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Finding counts per severity."""

        out = {s: 0 for s in _SEVERITIES}
        for d in self.diagnostics:
            out[d.severity] += 1
        return out

    def gating(self) -> list[Diagnostic]:
        """Findings that participate in baseline gating (warning+error)."""

        return [d for d in self.diagnostics if d.severity in GATING_SEVERITIES]

    def new_findings(self, baseline: set[str]) -> list[Diagnostic]:
        """Gating findings whose fingerprint is not grandfathered."""

        return [d for d in self.gating() if d.fingerprint not in baseline]

    def fixed_fingerprints(self, baseline: set[str]) -> list[str]:
        """Baseline entries no longer reported — candidates for ratcheting."""

        live = {d.fingerprint for d in self.gating()}
        return sorted(baseline - live)

    # -- rendering ------------------------------------------------------
    def to_json(self, baseline: set[str] | None = None) -> str:
        """Machine-readable report (one JSON document)."""

        payload: dict = {
            "counts": self.counts(),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
        if baseline is not None:
            payload["baseline"] = {
                "size": len(baseline),
                "new": [d.fingerprint for d in self.new_findings(baseline)],
                "fixed": self.fixed_fingerprints(baseline),
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_text(self, baseline: set[str] | None = None,
                    verbose: bool = False) -> str:
        """Human-readable report.

        Without a baseline every finding prints.  With one, only *new*
        gating findings print (plus ``info`` lines under ``verbose``) —
        the shape CI consumes.
        """

        lines: list[str] = []
        if baseline is None:
            shown = [d for d in self.diagnostics
                     if verbose or d.severity != "info"]
        else:
            shown = self.new_findings(baseline)
            if verbose:
                shown = shown + [d for d in self.diagnostics
                                 if d.severity == "info"]
        lines.extend(d.format() for d in shown)
        counts = self.counts()
        summary = (f"{counts['error']} error(s), {counts['warning']} "
                   f"warning(s), {counts['info']} info")
        if baseline is not None:
            new = self.new_findings(baseline)
            fixed = self.fixed_fingerprints(baseline)
            summary += (f"; baseline {len(baseline)} entries, "
                        f"{len(new)} new, {len(fixed)} fixed")
        lines.append(summary)
        return "\n".join(lines)


def load_baseline(path: str | Path) -> set[str]:
    """Grandfathered fingerprints from a baseline JSON file.

    A missing file is an empty baseline (useful for bootstrap and for the
    CI fixture that must fail on its injected finding).
    """

    path = Path(path)
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return set(data.get("fingerprints", []))


def write_baseline(path: str | Path, report: AnalysisReport) -> None:
    """Write the report's gating fingerprints as the new baseline."""

    payload = {
        "version": 1,
        "comment": "Grandfathered static-analysis findings. Ratchet only "
                   "downward: remove entries as they are fixed; never add "
                   "by hand (run tools/analyze.py --write-baseline).",
        "fingerprints": sorted({d.fingerprint for d in report.gating()}),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
