"""The process backend's hand-off: byte parity with the serial path.

Process workers receive each work unit and return its result by pickle.
The contract is that every byte that comes out is the byte the serial
path would have produced, across every model family and both precision
modes, that every record says how the unit crossed, and that no worker
process outlives its stream.
"""

import asyncio
import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.serve import DecompressionService, ServiceConfig, StreamingCompressionService

WEDGE_SPATIAL = (16, 24, 32)
ALL_MODELS = ("bcae_2d", "bcae_pp", "bcae_ht", "bcae")


@pytest.fixture(scope="module")
def wedges():
    rng = np.random.default_rng(11)
    w = rng.integers(0, 1024, size=(5,) + WEDGE_SPATIAL).astype(np.uint16)
    w[w < 600] = 0
    return w


def _model(name):
    kwargs = dict(m=2, n=2, d=2) if name == "bcae_2d" else {}
    model = build_model(name, wedge_spatial=WEDGE_SPATIAL, seed=0, **kwargs)
    # BatchNorm models (the original BCAE) must serve from running
    # statistics or payloads would depend on batch composition.
    model.eval()
    return model


class TestBitIdentity:
    """Process backend vs serial — all four models, both precision modes."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    def test_compress_payloads_identical(self, name, half, wedges):
        model = _model(name)
        serial = BCAECompressor(model, half=half)
        reference = b"".join(serial.compress(w).payload for w in wedges)

        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=2, workers=1, backend="process", half=half,
        ))
        payloads, stats = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == reference, name
        assert {r.transport for r in stats.records} == {"pickle"}

    @pytest.mark.parametrize("name", ALL_MODELS)
    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    def test_decompress_recons_identical(self, name, half, wedges):
        model = _model(name)
        serial = BCAECompressor(model, half=half)
        batch = serial.compress(wedges)
        reference = serial.decompress(batch)
        service = DecompressionService(model, ServiceConfig(
            max_batch=2, workers=1, backend="process", half=half,
        ))
        recons, stats = service.run(batch)
        np.testing.assert_array_equal(np.concatenate(recons), reference)
        assert {r.transport for r in stats.records} == {"pickle"}


BACKENDS = [
    pytest.param(dict(workers=0), "local", id="inline"),
    pytest.param(dict(workers=1, backend="thread"), "local", id="thread"),
    pytest.param(dict(workers=1, backend="process"), "pickle", id="process"),
]


class TestCrossingRecords:
    """``BatchRecord.transport`` names how each unit reached its worker."""

    @pytest.mark.parametrize("backend, crossing", BACKENDS)
    def test_compress_records(self, backend, crossing, wedges):
        model = _model("bcae_2d")
        reference = b"".join(
            BCAECompressor(model).compress(w).payload for w in wedges
        )
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, **backend)
        )
        payloads, stats = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == reference
        assert [r.transport for r in stats.records] == [crossing] * 3

    @pytest.mark.parametrize("backend, crossing", BACKENDS)
    def test_decompress_records(self, backend, crossing, wedges):
        model = _model("bcae_2d")
        serial = BCAECompressor(model)
        batch = serial.compress(wedges)
        service = DecompressionService(
            model, ServiceConfig(max_batch=2, **backend)
        )
        recons, stats = service.run(batch)
        np.testing.assert_array_equal(
            np.concatenate(recons), serial.decompress(batch)
        )
        assert [r.transport for r in stats.records] == [crossing] * 3

    @pytest.mark.parametrize("backend, crossing", BACKENDS)
    def test_fault_counter_keys_unchanged(self, backend, crossing, wedges):
        """A clean stream reports all-zero counters under the stable key
        set; ``shm_fallbacks`` stays, always zero, for existing readers."""

        service = StreamingCompressionService(
            _model("bcae_2d"), ServiceConfig(max_batch=2, **backend)
        )
        _payloads, stats = service.run(wedges)
        counters = stats.faults.to_dict()
        assert set(counters) == {
            "crashes", "timeouts", "retries", "rebuilds", "degraded",
            "failures", "shm_fallbacks",
        }
        assert all(v == 0 for v in counters.values()), counters


class TestPayloadViews:
    """Archive chunks are memoryview slices; every backend decodes them."""

    @pytest.mark.parametrize("backend, crossing", BACKENDS)
    def test_memoryview_payload_decodes_identically(
        self, backend, crossing, wedges
    ):
        model = _model("bcae_2d")
        serial = BCAECompressor(model)
        batch = serial.compress(wedges)
        viewed = dataclasses.replace(
            batch, payload=memoryview(bytearray(batch.payload))
        )
        service = DecompressionService(
            model, ServiceConfig(max_batch=2, **backend)
        )
        recons, stats = service.run(viewed)
        np.testing.assert_array_equal(
            np.concatenate(recons), serial.decompress(batch)
        )
        assert {r.transport for r in stats.records} == {crossing}


class TestUnitShapes:
    def test_full_and_tail_units_cross_alike(self, wedges):
        """A 4-wedge unit and the 1-wedge tail take the same path."""

        model = _model("bcae_2d")
        reference = b"".join(
            BCAECompressor(model).compress(w).payload for w in wedges
        )
        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=4, workers=1, backend="process",
        ))
        payloads, stats = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == reference
        assert [(r.n_wedges, r.transport) for r in stats.records] == [
            (4, "pickle"), (1, "pickle"),
        ]


class TestLifecycle:
    """No worker process outlives the stream that started it."""

    def _config(self):
        return ServiceConfig(max_batch=2, workers=1, backend="process")

    def test_no_workers_after_compress_run(self, wedges):
        StreamingCompressionService(_model("bcae_2d"), self._config()).run(wedges)
        assert multiprocessing.active_children() == []

    def test_no_workers_after_async_run(self, wedges):
        service = StreamingCompressionService(_model("bcae_2d"), self._config())
        payloads, _stats = asyncio.run(service.run_async(wedges))
        assert len(payloads) == 3
        assert multiprocessing.active_children() == []

    def test_no_workers_after_decompress_run(self, wedges):
        model = _model("bcae_2d")
        batch = BCAECompressor(model).compress(wedges)
        DecompressionService(model, self._config()).run(batch)
        assert multiprocessing.active_children() == []
