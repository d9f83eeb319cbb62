"""io.codes: archive round trips, metadata validation, rechunking."""

import dataclasses

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.io import concat_compressed, load_compressed, save_compressed, split_compressed
from repro.serve import DecompressionService, ServiceConfig


@pytest.fixture(scope="module")
def small_model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def raw_wedges():
    rng = np.random.default_rng(3)
    w = rng.integers(0, 1024, size=(5, 16, 24, 30)).astype(np.uint16)
    w[w < 600] = 0
    return w


@pytest.fixture(scope="module")
def compressed(small_model, raw_wedges):
    return BCAECompressor(small_model).compress(raw_wedges)


class TestRoundTrips:
    def test_empty_model_name(self, compressed, tmp_path):
        path = save_compressed(compressed, tmp_path / "c.npz")
        loaded, name = load_compressed(path)
        assert name == ""
        assert loaded.payload == compressed.payload

    def test_single_wedge_batch(self, small_model, raw_wedges, tmp_path):
        comp = BCAECompressor(small_model)
        c = comp.compress(raw_wedges[0])
        loaded, _ = load_compressed(save_compressed(c, tmp_path / "one.npz"))
        assert loaded.n_wedges == 1
        np.testing.assert_array_equal(comp.decompress(loaded), comp.decompress(c))

    def test_oversized_payload(self, small_model, raw_wedges, tmp_path):
        """A payload buffer longer than the codes still archives and
        decodes correctly (codes_view reads exactly n_wedges records)."""

        comp = BCAECompressor(small_model)
        ref = comp.compress(raw_wedges)
        padded = dataclasses.replace(ref, payload=ref.payload + bytes(128))
        loaded, _ = load_compressed(save_compressed(padded, tmp_path / "pad.npz"))
        np.testing.assert_array_equal(loaded.codes_view(), ref.codes_view())
        np.testing.assert_array_equal(comp.decompress(loaded), comp.decompress(ref))

    def test_precision_mode_round_trips(self, small_model, raw_wedges, tmp_path):
        for half in (True, False):
            comp = BCAECompressor(small_model, half=half)
            c = comp.compress(raw_wedges)
            loaded, _ = load_compressed(save_compressed(c, tmp_path / f"h{half}.npz"))
            assert loaded.half is half
            assert loaded.code_dtype == "<f2"
            np.testing.assert_array_equal(comp.decompress(loaded), comp.decompress(c))


class TestValidation:
    def test_half_mismatch_rejected_at_decode(self, small_model, compressed, tmp_path):
        """The motivating bug: a half payload into a full compressor used to
        decode silently wrong — now it raises."""

        path = save_compressed(compressed, tmp_path / "half.npz")
        loaded, _ = load_compressed(path)
        full = BCAECompressor(small_model, half=False)
        with pytest.raises(ValueError, match="precision"):
            full.decompress(loaded)
        with pytest.raises(ValueError, match="precision"):
            full.decompress_into(loaded)

    def test_legacy_archive_loads_unchecked(self, compressed, small_model, tmp_path):
        """Archives from before the metadata fields keep working."""

        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            payload=np.frombuffer(compressed.payload, dtype=np.uint8),
            code_shape=np.array(compressed.code_shape, dtype=np.int64),
            n_wedges=np.array([compressed.n_wedges], dtype=np.int64),
            original_horizontal=np.array([compressed.original_horizontal], dtype=np.int64),
            model_name=np.frombuffer(b"bcae_2d", dtype=np.uint8),
        )
        loaded, name = load_compressed(path)
        assert name == "bcae_2d"
        assert loaded.half is None  # unknown mode: accepted by either compressor
        for half in (True, False):
            BCAECompressor(small_model, half=half).decompress(loaded)

    def test_truncated_archive_fails_at_load(self, compressed, tmp_path):
        bad = dataclasses.replace(compressed, payload=compressed.payload[:-8])
        path = save_compressed(bad, tmp_path / "trunc.npz")
        with pytest.raises(ValueError, match="truncated"):
            load_compressed(path)

    def test_bad_dtype_rejected_at_decode(self, small_model, compressed):
        bad = dataclasses.replace(compressed, code_dtype="<f4")
        with pytest.raises(ValueError, match="dtype"):
            BCAECompressor(small_model).decompress(bad)


def _poisoned_archive(compressed, tmp_path, **fields):
    """Save ``compressed``, then overwrite header fields in the npz."""

    path = save_compressed(compressed, tmp_path / "good.npz")
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    for key, value in fields.items():
        arrays[key] = np.array(value, dtype=np.int64)
    bad = tmp_path / "poisoned.npz"
    np.savez_compressed(bad, **arrays)
    return bad


class TestPoisonedHeaders:
    """Header fields no encoder can produce fail loudly, never decode."""

    @pytest.mark.parametrize("n_wedges", [-1, -5])
    def test_negative_wedge_count_rejected_at_load(self, compressed, tmp_path,
                                                   n_wedges):
        path = _poisoned_archive(compressed, tmp_path, n_wedges=[n_wedges])
        with pytest.raises(ValueError, match="n_wedges"):
            load_compressed(path)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_degenerate_code_shape_rejected_at_load(self, compressed, tmp_path,
                                                    dim):
        shape = list(compressed.code_shape)
        shape[1] = dim
        path = _poisoned_archive(compressed, tmp_path, code_shape=shape)
        with pytest.raises(ValueError, match="code_shape"):
            load_compressed(path)

    @pytest.mark.parametrize("horizontal", [0, -5])
    def test_nonpositive_horizontal_rejected_at_load(self, compressed,
                                                     tmp_path, horizontal):
        path = _poisoned_archive(compressed, tmp_path,
                                 original_horizontal=[horizontal])
        with pytest.raises(ValueError, match="original_horizontal"):
            load_compressed(path)

    def test_too_wide_horizontal_rejected_at_decode(self, small_model,
                                                    compressed, tmp_path):
        path = _poisoned_archive(compressed, tmp_path,
                                 original_horizontal=[10**6])
        loaded, _ = load_compressed(path)
        comp = BCAECompressor(small_model)
        with pytest.raises(ValueError, match="original_horizontal"):
            comp.decompress(loaded)
        with pytest.raises(ValueError, match="original_horizontal"):
            comp.decompress_into(loaded)

    def test_padded_width_still_decodes(self, small_model, compressed,
                                        tmp_path):
        """The widest legal value is the decoder's own output width."""

        comp = BCAECompressor(small_model)
        extent = compressed.code_shape[-1] * 2 ** small_model.encoder.d
        path = _poisoned_archive(compressed, tmp_path,
                                 original_horizontal=[extent])
        loaded, _ = load_compressed(path)
        assert comp.decompress_into(loaded).shape[-1] == extent

    def test_one_past_padded_width_rejected(self, small_model, compressed,
                                            tmp_path):
        comp = BCAECompressor(small_model)
        extent = compressed.code_shape[-1] * 2 ** small_model.encoder.d
        path = _poisoned_archive(compressed, tmp_path,
                                 original_horizontal=[extent + 1])
        loaded, _ = load_compressed(path)
        with pytest.raises(ValueError, match="original_horizontal"):
            comp.decompress_into(loaded)

    @pytest.mark.parametrize("config", [
        ServiceConfig(max_batch=2, workers=0),
        ServiceConfig(max_batch=2, workers=1, backend="process"),
    ], ids=["inline", "process"])
    def test_too_wide_horizontal_rejected_by_service(self, small_model,
                                                     compressed, tmp_path,
                                                     config):
        """The served decode path validates the header like the serial
        one, on either side of the process boundary."""

        path = _poisoned_archive(compressed, tmp_path,
                                 original_horizontal=[10**6])
        loaded, _ = load_compressed(path)
        service = DecompressionService(small_model, config)
        with pytest.raises(ValueError, match="original_horizontal"):
            service.run(loaded)

    def test_constructor_rejects_the_same_fields(self, compressed):
        for fields in ({"n_wedges": -1}, {"code_shape": (8, 0, 4)},
                       {"original_horizontal": 0}):
            with pytest.raises(ValueError):
                dataclasses.replace(compressed, **fields)


class TestRechunking:
    def test_split_concat_roundtrip(self, compressed):
        chunks = list(split_compressed(compressed, 2))
        assert [c.n_wedges for c in chunks] == [2, 2, 1]
        back = concat_compressed(chunks)
        assert bytes(back.payload) == compressed.payload
        assert back.n_wedges == compressed.n_wedges
        assert back.half == compressed.half

    def test_split_chunks_decode_like_the_whole(self, small_model, compressed):
        comp = BCAECompressor(small_model)
        whole = comp.decompress(compressed)
        parts = np.concatenate(
            [comp.decompress(c) for c in split_compressed(compressed, 3)]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_concat_rejects_mismatched_metadata(self, compressed):
        other = dataclasses.replace(compressed, original_horizontal=7)
        with pytest.raises(ValueError):
            concat_compressed([compressed, other])

    def test_split_validates_batch_size(self, compressed):
        with pytest.raises(ValueError):
            list(split_compressed(compressed, 0))

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_compressed([])
