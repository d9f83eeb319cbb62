"""BCAECompressor: ratios (§3.1), payload format, round trips."""

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.io import load_compressed, save_compressed


@pytest.fixture(scope="module")
def small_model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def raw_wedges(small_model):
    rng = np.random.default_rng(0)
    w = rng.integers(0, 1024, size=(3, 16, 24, 30)).astype(np.uint16)
    w[w < 600] = 0
    return w


class TestCompressionRatio:
    def test_paper_ratio_new_variants(self):
        """§3.1: 31.125 for BCAE-2D / BCAE++ / BCAE-HT on the paper wedge."""

        for name in ("bcae_2d", "bcae_pp", "bcae_ht"):
            model = build_model(name, wedge_spatial=(16, 192, 249), seed=0)
            ratio = BCAECompressor(model).compression_ratio((16, 192, 249))
            assert ratio == pytest.approx(31.125), name

    def test_paper_ratio_original(self):
        """§3.1: 27.041 for the original BCAE."""

        model = build_model("bcae", wedge_spatial=(16, 192, 249), seed=0)
        ratio = BCAECompressor(model).compression_ratio((16, 192, 249))
        assert ratio == pytest.approx(27.041, abs=1e-3)


class TestRoundTrip:
    def test_payload_is_fp16(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        expected = raw_wedges.shape[0] * int(np.prod(c.code_shape)) * 2
        assert c.nbytes == expected
        assert c.codes().dtype == np.float16

    def test_decompress_shape_clips_padding(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        recon, c = comp.roundtrip(raw_wedges)
        assert recon.shape == raw_wedges.shape  # horizontal 30, not padded 32

    def test_single_wedge_accepted(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges[0])
        assert c.n_wedges == 1

    def test_deterministic_payload(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        assert comp.compress(raw_wedges).payload == comp.compress(raw_wedges).payload

    def test_half_and_full_modes_close(self, small_model, raw_wedges):
        """Table 2: half-precision inference ≈ full-precision inference.

        Compared on the raw head outputs — the masked reconstruction of an
        *untrained* model is dominated by mask flips at seg ≈ 0.5, which is
        a thresholding artifact, not a precision one.  (The trained-model
        parity check lives in tests/train/test_trainer.py.)
        """

        from repro import nn
        from repro.nn import Tensor
        from repro.tpc import log_transform, pad_horizontal

        x = Tensor(pad_horizontal(log_transform(raw_wedges), 32))
        small_model.eval()
        with nn.no_grad():
            full = small_model(x)
            with nn.amp.autocast(True):
                half = small_model(x)
        denom = max(float(np.abs(full.reg.data).max()), 1.0)
        assert float(np.abs(full.reg.data - half.reg.data).max()) / denom < 0.02
        # The untrained seg head has O(10²) logits, so voxels near the
        # sigmoid zero-crossing shift visibly under fp16; parity is asserted
        # at the distribution level (mean and 99th percentile).
        seg_diff = np.abs(full.seg.data - half.seg.data)
        assert float(seg_diff.mean()) < 0.01
        assert float(np.quantile(seg_diff, 0.99)) < 0.12

    def test_decompress_adc_is_integer_10bit(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        adc = comp.decompress_adc(comp.compress(raw_wedges))
        assert adc.dtype == np.uint16
        assert adc.max() <= 1023

    def test_3d_model_roundtrip(self, raw_wedges):
        model = build_model("bcae_ht", wedge_spatial=(16, 24, 30), seed=0)
        recon, c = BCAECompressor(model).roundtrip(raw_wedges)
        assert recon.shape == raw_wedges.shape


class TestCodesMutability:
    def test_codes_returns_writable_copy(self, small_model, raw_wedges):
        """Regression: codes() used to return a read-only frombuffer view —
        callers mutating codes got a ValueError."""

        c = BCAECompressor(small_model).compress(raw_wedges)
        arr = c.codes()
        arr *= 0.5  # must not raise
        arr[0] = 0
        # The payload itself must be untouched by edits to the copy.
        assert c.codes_view().any()

    def test_codes_view_is_readonly_and_zero_copy(self, small_model, raw_wedges):
        c = BCAECompressor(small_model).compress(raw_wedges)
        view = c.codes_view()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1
        np.testing.assert_array_equal(view, c.codes())


class TestAnalyticRatio:
    def test_ratio_runs_no_forward_pass(self):
        """compression_ratio must be pure geometry — no encoder execution."""

        for name in ("bcae_2d", "bcae_pp", "bcae_ht", "bcae"):
            model = build_model(name, wedge_spatial=(16, 192, 249), seed=0)

            def boom(*_a, **_k):
                raise AssertionError("encoder must not run")

            model.encoder.forward = boom
            model.encode = boom
            ratio = BCAECompressor(model).compression_ratio((16, 192, 249))
            expected = 27.041 if name == "bcae" else 31.125
            assert ratio == pytest.approx(expected, abs=1e-3), name

    def test_code_shape_matches_actual_compression(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        analytic = comp.code_shape_for(raw_wedges.shape[1:])
        assert tuple(comp.compress(raw_wedges).code_shape) == analytic

    def test_3d_incompatible_spatial_rejected(self):
        model = build_model("bcae_ht", wedge_spatial=(16, 24, 30), seed=0)
        comp = BCAECompressor(model)
        with pytest.raises(ValueError):
            comp.code_shape_for((16, 48, 30))


class TestServingPath:
    """compress_into / compress_stream: the allocation-free hot path."""

    def test_compress_into_matches_compress(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        assert comp.compress_into(raw_wedges).payload == comp.compress(raw_wedges).payload

    def test_compress_into_3d_fallback(self, raw_wedges):
        model = build_model("bcae_ht", wedge_spatial=(16, 24, 30), seed=0)
        comp = BCAECompressor(model)
        assert comp.compress_into(raw_wedges).payload == comp.compress(raw_wedges).payload

    def test_batch_invariance(self, small_model, raw_wedges):
        """Payload bytes must not depend on how wedges are batched."""

        comp = BCAECompressor(small_model)
        singles = b"".join(comp.compress(w).payload for w in raw_wedges)
        assert comp.compress(raw_wedges).payload == singles
        assert comp.compress_into(raw_wedges).payload == singles

    def test_fast_path_tracks_weight_updates(self, small_model, raw_wedges):
        """Regression: the compiled fast path must not serve stale weights
        after an (in-place) parameter update."""

        comp = BCAECompressor(small_model)
        before = comp.compress_into(raw_wedges).payload
        try:
            for p in small_model.encoder.parameters():
                p.data *= 1.01
            after = comp.compress_into(raw_wedges).payload
            assert after == comp.compress(raw_wedges).payload
            assert after != before
        finally:
            for p in small_model.encoder.parameters():
                p.data /= 1.01

    def test_compress_stream_chunks_and_order(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        ref = b"".join(comp.compress(w).payload for w in raw_wedges)
        chunks = list(comp.compress_stream(iter(raw_wedges), batch_size=2))
        assert [c.n_wedges for c in chunks] == [2, 1]
        assert b"".join(bytes(c.payload) for c in chunks) == ref

    def test_compress_stream_rejects_bad_input(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        with pytest.raises(ValueError):
            list(comp.compress_stream(iter(raw_wedges), batch_size=0))
        with pytest.raises(ValueError):
            list(comp.compress_stream([raw_wedges], batch_size=2))  # 4-dim item

    def test_repeated_calls_reuse_scratch(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        first = comp.compress_into(raw_wedges).payload
        second = comp.compress_into(raw_wedges).payload
        assert first == second


class TestDecompressServingPath:
    """decompress_into / decompress_stream: the analysis hot path."""

    def test_decompress_into_matches_decompress(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        np.testing.assert_array_equal(
            comp.decompress(c), np.asarray(comp.decompress_into(c))
        )

    def test_decompress_into_3d_fallback(self, raw_wedges):
        model = build_model("bcae_ht", wedge_spatial=(16, 24, 30), seed=0)
        comp = BCAECompressor(model)
        c = comp.compress(raw_wedges)
        np.testing.assert_array_equal(
            comp.decompress(c), np.asarray(comp.decompress_into(c))
        )

    def test_decompress_into_out_buffer(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        ref = comp.decompress(c)
        out = np.empty(ref.shape, dtype=np.float32)
        result = comp.decompress_into(c, out=out)
        assert result is out  # aliases the caller's buffer
        np.testing.assert_array_equal(out, ref)

    def test_repeated_calls_reuse_workspace(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        first = comp.decompress_into(c)
        ref = np.array(first)
        second = comp.decompress_into(c)
        assert np.shares_memory(first, second)  # documented reuse: copy first
        np.testing.assert_array_equal(np.asarray(second), ref)

    def test_fast_decode_tracks_weight_updates(self, small_model, raw_wedges):
        """The compiled decoder must not serve stale weights after an
        in-place parameter update (mirrors the encoder fingerprint test)."""

        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        before = np.array(comp.decompress_into(c))
        params = [
            *small_model.seg_decoder.parameters(),
            *small_model.reg_decoder.parameters(),
        ]
        try:
            for p in params:
                p.data *= 1.01
            after = np.array(comp.decompress_into(c))
            np.testing.assert_array_equal(after, comp.decompress(c))
            assert not np.array_equal(after, before)
        finally:
            for p in params:
                p.data /= 1.01

    def test_fast_decode_tracks_threshold_updates(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        original = small_model.threshold
        try:
            small_model.threshold = 0.05
            np.testing.assert_array_equal(
                np.asarray(comp.decompress_into(c)), comp.decompress(c)
            )
        finally:
            small_model.threshold = original

    def test_decode_batch_invariance(self, small_model, raw_wedges):
        """Reconstruction bytes must not depend on batch composition —
        the decode-side twin of payload batch invariance, through the
        Upsample2d + decoder ResBlock2d stacks and both decode paths."""

        comp = BCAECompressor(small_model)
        singles = [comp.compress(w) for w in raw_wedges]
        batch = comp.compress(raw_wedges)
        ref = np.concatenate([comp.decompress(c) for c in singles])
        np.testing.assert_array_equal(comp.decompress(batch), ref)
        # np.array, not np.asarray: decompress_into returns a reused
        # workspace view — accumulating requires a copy (documented).
        fast = np.concatenate([np.array(comp.decompress_into(c)) for c in singles])
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(np.asarray(comp.decompress_into(batch)), ref)

    def test_decompress_stream_yields_owned_copies(self, small_model, raw_wedges):
        comp = BCAECompressor(small_model)
        batches = [comp.compress(raw_wedges[:2]), comp.compress(raw_wedges[2:])]
        recons = list(comp.decompress_stream(batches))
        assert len(recons) == 2
        assert not np.shares_memory(recons[0], recons[1])
        np.testing.assert_array_equal(
            np.concatenate(recons), comp.decompress(comp.compress(raw_wedges))
        )


class TestRoundTripZoo:
    """Compress→decompress across the model zoo, including a horizontal
    size that is not a multiple of 8 (exercises pad/unpad end to end)."""

    @pytest.mark.parametrize("name,kwargs", [
        ("bcae_2d", dict(m=2, n=2, d=2)),
        ("bcae_pp", {}),
        ("bcae_ht", {}),
        ("bcae", {}),
    ])
    def test_roundtrip_non_multiple_of_8(self, name, kwargs):
        spatial = (16, 24, 27)  # 27 → padded to 32 inside the pipeline
        rng = np.random.default_rng(11)
        w = rng.integers(0, 1024, size=(2,) + spatial).astype(np.uint16)
        w[w < 700] = 0
        model = build_model(name, wedge_spatial=spatial, seed=0, **kwargs)
        comp = BCAECompressor(model)
        recon, c = comp.roundtrip(w)
        assert recon.shape == w.shape
        assert np.isfinite(recon).all()
        adc = comp.decompress_adc(c)
        assert adc.shape == w.shape and adc.dtype == np.uint16


class TestArchiveIO:
    def test_save_load(self, small_model, raw_wedges, tmp_path):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges)
        path = save_compressed(c, tmp_path / "codes.npz", model_name="bcae_2d")
        loaded, name = load_compressed(path)
        assert name == "bcae_2d"
        assert loaded.payload == c.payload
        assert loaded.code_shape == c.code_shape
        np.testing.assert_array_equal(
            comp.decompress(loaded), comp.decompress(c)
        )
