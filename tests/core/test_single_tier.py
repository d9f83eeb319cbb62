"""One exact compile tier: no precision option, bit-decided GEMM probes.

The engine compiles exactly one tier, bit-identical to the module graph.
These tests pin that surface: no compile, compressor, serving or CLI entry
point accepts a precision selector, ``plan_stats()`` reports no tier or
ulp ledger, and the blocked-GEMM calibration probe keeps a formulation
exactly when every panel matches the per-sample reference bit for bit.
"""

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.cli import build_parser
from repro.core import BCAECompressor, build_model
from repro.core.fast_decode import FastDecoder2D, make_fast_decoder
from repro.core.fast_encode import FastEncoder2D, make_fast_encoder
from repro.core.model_zoo import MODEL_NAMES
from repro.rate.tier import AdaptiveCompressor
from repro.serve import ServiceConfig

PLAN_STATS_KEYS = {"half", "panel_threads", "stage_kinds", "bn_folds",
                   "gemms", "workspace_bytes"}


def _tiny(name, seed=5):
    kw = (dict(wedge_spatial=(16, 24, 30), m=2, n=2, d=2)
          if name == "bcae_2d" else dict(wedge_spatial=(8, 16, 14)))
    model = build_model(name, seed=seed, **kw)
    model.eval()
    sp = (2, 16, 24, 30) if name == "bcae_2d" else (2, 8, 16, 14)
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 1024, size=sp, dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


@pytest.fixture(scope="module")
def model_2d():
    return _tiny("bcae_2d")[0]


_ENTRY_POINTS = {
    "make_fast_encoder": lambda m: make_fast_encoder(m, precision="bit"),
    "make_fast_decoder": lambda m: make_fast_decoder(m, precision="bit"),
    "FastEncoder2D": lambda m: FastEncoder2D(m.encoder, precision="bit"),
    "FastDecoder2D": lambda m: FastDecoder2D(m, precision="bit"),
    "BCAECompressor": lambda m: BCAECompressor(m, precision="bit"),
    "ServiceConfig": lambda m: ServiceConfig(precision="bit"),
}


class TestNoPrecisionOption:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_entry_point_rejects_precision(self, model_2d, entry):
        with pytest.raises(TypeError, match="precision"):
            _ENTRY_POINTS[entry](model_2d)

    def test_adaptive_compressor_has_no_precision(self, model_2d):
        comp = AdaptiveCompressor(BCAECompressor(model_2d))
        assert not hasattr(comp, "precision")

    @pytest.mark.parametrize("argv", [
        ["serve"],
        ["decompress", "--archive", "codes.npz"],
        ["analyze"],
    ], ids=lambda argv: argv[0])
    def test_cli_rejects_precision_flag(self, argv, capsys):
        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--precision", "bit"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


class TestPlanStatsLedger:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_stats_carry_no_tier_keys(self, name):
        """After a run every plan reports the documented keys only, and each
        GEMM site records a formulation but no ulp bound."""

        model, raw = _tiny(name)
        comp = BCAECompressor(model, half=True)
        comp.decompress_into(comp.compress_into(raw))
        plans = [comp._fast_encoder().plan]
        plans += list(comp._fast_decoder().plans.values())
        for plan in plans:
            stats = plan.plan_stats()
            assert set(stats) == PLAN_STATS_KEYS
            assert stats["gemms"], "a run records its GEMM sites"
            for site in stats["gemms"].values():
                assert "formulation" in site
                assert "max_ulp" not in site


def _every_panel_equal(n, rows, K, o, P):
    """The probe's decision computed without early exit: every full panel
    and the tail panel equal the per-sample reference on raw bits."""

    rng = np.random.default_rng(0xB10C)
    m = n * rows
    a = rng.standard_normal((m, K), dtype=np.float32)
    b = np.asfortranarray(rng.standard_normal((K, o), dtype=np.float32))
    ref = np.empty((m, o), dtype=np.float32)
    for i in range(n):
        np.dot(a[i * rows:(i + 1) * rows], b, out=ref[i * rows:(i + 1) * rows])
    bt = np.ascontiguousarray(b.T)
    verdicts = []
    for c0 in range(0, m, P):
        panel = np.ascontiguousarray(a[c0:c0 + P].T)
        verdicts.append(np.array_equal((bt @ panel).T, ref[c0:c0 + P]))
    return all(verdicts)


class TestBlockedGemmProbe:
    @pytest.mark.parametrize("shape", [
        (2, 24, 18, 4, 16),     # panels divide the column count
        (3, 20, 27, 8, 32),     # ragged tail panel
        (1, 64, 72, 16, 48),    # single sample, tail panel
    ], ids=["even", "tail", "single"])
    def test_decision_matches_exhaustive_check(self, monkeypatch, shape):
        monkeypatch.setattr(fp, "_BLOCKED_GEMM_OK", {})
        got = fp._blocked_gemm_matches(*shape)
        assert isinstance(got, bool)
        assert got == _every_panel_equal(*shape)

    def test_decision_is_cached_per_shape(self, monkeypatch):
        monkeypatch.setattr(fp, "_BLOCKED_GEMM_OK", {})
        shape = (2, 24, 18, 4, 16)
        first = fp._blocked_gemm_matches(*shape)
        assert fp._BLOCKED_GEMM_OK == {shape: first}
        monkeypatch.setattr(fp.np.random, "default_rng",
                            lambda *_: pytest.fail("cached shape re-probed"))
        assert fp._blocked_gemm_matches(*shape) is first
