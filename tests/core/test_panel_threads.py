"""Slot-parallel panel executor: determinism across widths.

The executor's contract is *bit-identity at any width*: slot ``s`` of ``T``
owns panels ``s, s+T, …`` with per-slot workspace slabs and deterministic
output placement, so the payload and reconstruction bytes cannot depend on
the thread count.
"""

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.core import BCAECompressor, build_model
from repro.core.fast_plan import PANEL_THREADS_ENV
from repro.core.model_zoo import MODEL_NAMES


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the blocked-GEMM engagement thresholds so the panel-blocked
    im2col paths (and with them the parallel executor) run at test scale."""

    monkeypatch.setattr(fp, "_BLOCKED_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 12)


def _build(name, seed=3):
    kw = (dict(wedge_spatial=(16, 24, 30), m=2, n=2, d=2)
          if name == "bcae_2d" else dict(wedge_spatial=(8, 16, 14)))
    model = build_model(name, seed=seed, **kw)
    model.eval()
    sp = (3, 16, 24, 30) if name == "bcae_2d" else (3, 8, 16, 14)
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 1024, size=sp, dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


def _all_plans(comp):
    """(label, plan) for the compressor's compiled encoder + decoder heads."""

    plans = [("encoder", comp._fast_encoder().plan)]
    plans += [(f"decoder.{head}", plan)
              for head, plan in comp._fast_decoder().plans.items()]
    return plans


class TestThreadInvariance:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bits_identical_across_widths(self, small_blocks, name):
        """Payload and reconstruction bytes match at widths 1/2/4 for
        every Table-1 model."""

        model, raw = _build(name)
        payloads, recons = [], []
        for t in (1, 2, 4):
            comp = BCAECompressor(model, half=True, panel_threads=t)
            cw = comp.compress_into(raw)
            payloads.append(bytes(cw.payload))
            recons.append(np.array(comp.decompress_into(cw), copy=True))
        assert all(p == payloads[0] for p in payloads[1:]), \
            f"{name}: payload depends on panel width"
        assert all(np.array_equal(r, recons[0]) for r in recons[1:]), \
            f"{name}: reconstruction depends on panel width"

    def test_repeated_runs_stable(self, small_blocks):
        """The threaded path is deterministic run to run, not just
        width to width."""

        model, raw = _build("bcae_ht")
        comp = BCAECompressor(model, half=True, panel_threads=4)
        first = bytes(comp.compress_into(raw).payload)
        for _ in range(3):
            assert bytes(comp.compress_into(raw).payload) == first


class TestPanelThreadsKnob:
    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(PANEL_THREADS_ENV, "3")
        assert fp._resolve_panel_threads(None) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(PANEL_THREADS_ENV, "3")
        assert fp._resolve_panel_threads(2) == 2

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(PANEL_THREADS_ENV, raising=False)
        assert fp._resolve_panel_threads(None) == 1

    def test_floor_is_one(self):
        assert fp._resolve_panel_threads(0) == 1
        assert fp._resolve_panel_threads(-2) == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(PANEL_THREADS_ENV, "fast")
        with pytest.raises(ValueError):
            fp._resolve_panel_threads(None)

    def test_env_reaches_plan(self, monkeypatch):
        monkeypatch.setenv(PANEL_THREADS_ENV, "2")
        model, _raw = _build("bcae_ht")
        comp = BCAECompressor(model, half=True)
        assert comp._fast_encoder().plan.panel_threads == 2


class TestPlanStats:
    def test_stats_record_execution(self, small_blocks):
        model, raw = _build("bcae_ht")
        comp = BCAECompressor(model, half=True, panel_threads=2)
        comp.decompress_into(comp.compress_into(raw))
        for label, plan in _all_plans(comp):
            stats = plan.plan_stats()
            assert stats["panel_threads"] == 2
            assert stats["stage_kinds"]
            assert stats["workspace_bytes"] > 0
        dec_stats = [plan.plan_stats()
                     for _l, plan in _all_plans(comp)[1:]]
        gemms = [g for s in dec_stats for g in s["gemms"].values()]
        assert gemms, "decoder ran no recorded GEMM sites"
        assert {g["formulation"] for g in gemms} <= {
            "blocked", "blocked_pad", "blocked_ref", "transposed",
            "reference"}
        blocked = [g for g in gemms if g["formulation"].startswith("blocked")]
        assert blocked, "no panel-blocked site engaged at test scale"
        assert all(g["threads"] >= 1 for g in blocked)
