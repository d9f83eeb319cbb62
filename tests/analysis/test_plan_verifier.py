"""Static plan verifier: green on the zoo, loud on corrupted plans.

The acceptance contract: every Table-1 plan verifies clean with its
clip-elision intervals re-derived, and a deliberately corrupted plan
(mutated stride / dtype / weight values) produces an error diagnostic
*naming the stage*.
"""

import numpy as np
import pytest

from repro.core import MODEL_NAMES, build_model
from repro.core.fast_decode import make_fast_decoder
from repro.core.fast_encode import LOG_INPUT_BOUND, make_fast_encoder
from repro.core.fast_plan import FP16_MAX
from repro.analysis import analyze_model_plans, verify_plan
from repro.analysis.runner import SMOKE_WEDGE

WEDGE = (8, 16, 14)


def _encoder_2d(seed=0):
    model = build_model("bcae_2d", wedge_spatial=WEDGE, seed=seed,
                        m=2, n=2, d=2)
    model.eval()
    return make_fast_encoder(model)


def _verify_2d(enc):
    r, a, h = WEDGE
    grid = 2 ** enc.d
    return verify_plan(enc.plan, r, (a, -(-h // grid) * grid),
                       LOG_INPUT_BOUND, label="t.encoder")


def _errors(record):
    return [d for d in record["diagnostic_objects"] if d.severity == "error"]


class TestCleanPlans:
    def test_all_zoo_plans_verify(self):
        """All four models, encoder + both decoder heads: zero errors,
        intervals re-derived at every quantize site."""

        diags, records = analyze_model_plans(wedge_spatial=SMOKE_WEDGE)
        assert len(records) == 3 * len(MODEL_NAMES)
        assert all(r["ok"] for r in records), [
            r["label"] for r in records if not r["ok"]]
        assert not [d for d in diags if d.severity == "error"]
        for rec in records:
            assert rec["clip_sites"], f"{rec['label']} derived no intervals"
            for site in rec["clip_sites"]:
                # The independent float64 chain must agree with the plan's
                # own fp32 chain away from the saturation boundary.
                if site["bound"] < FP16_MAX and site["bound"] > 0:
                    assert site["bound64"] == pytest.approx(
                        site["bound"], rel=1e-4)
                assert site["clip_elided"] == (site["bound"] < FP16_MAX)

    def test_record_attaches_to_plan(self):
        enc = _encoder_2d()
        assert enc.plan.verification is None
        rec = _verify_2d(enc)
        assert enc.plan.verification is rec
        assert rec["ok"] and rec["label"] == "t.encoder"
        # bn_folds decisions surface as info diagnostics (explainability).
        assert rec["bn_folds"] == enc.bn_folds

    def test_static_shape_chain_matches_runtime(self):
        """The inferred output shape equals what run() actually produces."""

        enc = _encoder_2d()
        rec = _verify_2d(enc)
        r, a, h = WEDGE
        grid = 2 ** enc.d
        x = np.random.default_rng(0).normal(
            size=(2, r, a, h)).astype(np.float32)
        code = enc.encode(x, horizontal_target=-(-h // grid) * grid)
        out = rec["out"]
        assert code.shape == (2, out["channels"]) + tuple(out["spatial"])


class TestCorruptedPlans:
    def test_mutated_stride_flagged_with_stage_name(self):
        enc = _encoder_2d()
        idx = next(i for i, (kind, _op) in enumerate(enc.plan._ops)
                   if kind == "res")
        enc.plan._ops[idx][1][0].stride = (2, 2)  # conv1 of the res block
        rec = _verify_2d(enc)
        assert not rec["ok"]
        errs = _errors(rec)
        assert any(f"stage {idx}:res" in d.scope and d.rule == "PV103"
                   for d in errs)

    def test_mutated_dtype_flagged_with_stage_name(self):
        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.wt = np.asfortranarray(spec.wt, dtype=np.float64)
        rec = _verify_2d(enc)
        errs = _errors(rec)
        assert any(f"stage {idx}:conv" in d.scope and d.rule == "PV001"
                   for d in errs)

    def test_diverged_gemm_orientations_flagged(self):
        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.wtT = np.ascontiguousarray(spec.wtT * np.float32(1.5))
        rec = _verify_2d(enc)
        assert any(d.rule == "PV003" and f"stage {idx}" in d.scope
                   for d in _errors(rec))

    def test_understated_bound_slope_flagged(self):
        """An understated w_l1 could wrongly elide a saturating clip —
        the exact corruption the independent re-derivation exists for."""

        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.w_l1 = spec.w_l1 * 0.5
        rec = _verify_2d(enc)
        assert any(d.rule == "PV005" and f"stage {idx}" in d.scope
                   for d in _errors(rec))

    def test_channel_mismatch_flagged(self):
        enc = _encoder_2d()
        rec = verify_plan(enc.plan, 3, (16, 16), LOG_INPUT_BOUND,
                          label="bad-channels")
        assert any(d.rule == "PV102" for d in _errors(rec))

    def test_pool_divisibility_flagged(self):
        enc = _encoder_2d()
        r, _a, _h = WEDGE
        rec = verify_plan(enc.plan, r, (15, 17), LOG_INPUT_BOUND,
                          label="odd-spatial")
        assert any(d.rule == "PV104" for d in _errors(rec))

    def test_stage_after_head_flagged(self):
        """Epilogue legality: run() applies heads to the result stream, so
        any canvas-consuming op after a head silently drops the head."""

        model = build_model("bcae_2d", wedge_spatial=WEDGE, seed=0,
                            m=2, n=2, d=2)
        model.eval()
        dec = make_fast_decoder(model)
        plan = dec.plans["seg"]
        conv_op = next(op for kind, op in plan._ops if kind == "conv")
        plan._ops.append(("conv", conv_op))
        rec = verify_plan(plan, 2 ** (2 * 2), (4, 4), FP16_MAX,
                          label="t.seg")
        assert any(d.rule == "PV105" for d in _errors(rec))
