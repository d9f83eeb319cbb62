"""The model-pool services: ordering, parity, stats, worker backends."""

import dataclasses

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.serve import (
    DecompressionService,
    ServiceConfig,
    StreamingCompressionService,
    iter_wedges,
    replay_stream,
)


@pytest.fixture(scope="module")
def model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def wedges():
    rng = np.random.default_rng(5)
    w = rng.integers(0, 1024, size=(13, 16, 24, 30)).astype(np.uint16)
    w[w < 500] = 0
    return w


@pytest.fixture(scope="module")
def serial_payloads(model, wedges):
    compressor = BCAECompressor(model)
    return [compressor.compress(w).payload for w in wedges]


class TestOrderingAndParity:
    @pytest.mark.parametrize("config", [
        ServiceConfig(max_batch=4, workers=0),
        ServiceConfig(max_batch=4, workers=2),
        ServiceConfig(max_batch=8, workers=3, inflight=2),
        ServiceConfig(max_batch=1, workers=0),
    ], ids=["inline", "pool2", "pool3-tight", "batch1"])
    def test_no_wedge_dropped_order_preserved_bytes_identical(
        self, model, wedges, serial_payloads, config
    ):
        service = StreamingCompressionService(model, config)
        payloads, stats = service.run(wedges)
        assert stats.n_wedges == len(wedges)
        assert sum(p.n_wedges for p in payloads) == len(wedges)
        # Order + parity in one shot: concatenated service bytes must equal
        # the serial single-wedge bytes in stream order.
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    def test_accepts_stream_items_and_lists(self, model, wedges, serial_payloads):
        service = StreamingCompressionService(model, ServiceConfig(max_batch=4))
        payloads, _ = service.run(iter_wedges(list(wedges)))
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)
        payloads, _ = service.run(list(wedges))
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    def test_empty_stream(self, model):
        payloads, stats = StreamingCompressionService(model).run([])
        assert payloads == [] and stats.n_wedges == 0 and stats.n_batches == 0


class TestStats:
    def test_stats_sane(self, model, wedges):
        service = StreamingCompressionService(model, ServiceConfig(max_batch=4))
        _p, stats = service.run(wedges)
        assert stats.n_batches == 4  # 4+4+4+1
        assert stats.wedges_per_second > 0
        assert stats.mean_batch_s > 0
        assert stats.p99_batch_s >= min(r.compress_s for r in stats.records)
        assert stats.mean_batch_size == pytest.approx(13 / 4)
        assert "throughput" in stats.row()

    def test_throughput_result_bridge(self, model, wedges):
        service = StreamingCompressionService(model, ServiceConfig(max_batch=4))
        _p, stats = service.run(wedges)
        tr = stats.to_throughput_result()
        assert tr.wedges_per_second == pytest.approx(stats.wedges_per_second)
        assert tr.seconds_per_batch <= tr.seconds_per_batch_mean
        assert tr.repeats == stats.n_batches

    def test_worker_attribution(self, model, wedges):
        service = StreamingCompressionService(model, ServiceConfig(max_batch=2, workers=2))
        _p, stats = service.run(wedges)
        assert all(r.worker.startswith("w") for r in stats.records)


class TestTimedReplay:
    def test_daq_stream_respects_budget(self, model, wedges, serial_payloads):
        from repro.daq import DAQConfig, StreamingCompressionSim

        sim = StreamingCompressionSim(
            DAQConfig(frame_rate_hz=1000.0, wedges_per_frame=2), seed=3
        )
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=16, max_delay_s=1.5e-3)
        )
        payloads, stats = service.run(replay_stream(sim.wedge_stream(wedges)))
        assert stats.n_wedges == len(wedges)
        assert stats.n_batches >= 3  # budget splits the stream
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)


class TestProcessBackend:
    """ServiceConfig(backend="process"): GIL-sidestepping worker pool."""

    def test_compression_parity(self, model, wedges, serial_payloads):
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=2, backend="process")
        )
        payloads, stats = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)
        assert stats.n_wedges == len(wedges)
        assert all(r.worker.startswith("p") for r in stats.records)

    def test_decompression_parity(self, model, wedges):
        comp = BCAECompressor(model)
        batch = comp.compress(wedges)
        ref = comp.decompress(batch)
        service = DecompressionService(
            model, ServiceConfig(max_batch=4, workers=2, backend="process")
        )
        recons, stats = service.run(batch)
        np.testing.assert_array_equal(np.concatenate(recons), ref)
        assert stats.n_wedges == len(wedges)

    def test_inline_ignores_backend(self, model, wedges, serial_payloads):
        """workers=0 runs inline regardless of the configured backend."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0, backend="process")
        )
        payloads, _ = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)


class TestDecompressionService:
    @pytest.fixture(scope="class")
    def payload_batches(self, model, wedges):
        comp = BCAECompressor(model)
        return [comp.compress(wedges[:5]), comp.compress(wedges[5:])]

    @pytest.fixture(scope="class")
    def serial_recons(self, model, wedges):
        comp = BCAECompressor(model)
        return np.concatenate([comp.decompress(comp.compress(w)) for w in wedges])

    @pytest.mark.parametrize("config", [
        ServiceConfig(max_batch=4, workers=0),
        ServiceConfig(max_batch=4, workers=2),
        ServiceConfig(max_batch=1, workers=0),
        ServiceConfig(max_batch=64, workers=0),
    ], ids=["inline", "pool2", "batch1", "batch-all"])
    def test_order_and_parity(self, model, payload_batches, serial_recons, config):
        service = DecompressionService(model, config)
        recons, stats = service.run(payload_batches)
        assert stats.n_wedges == 13
        got = np.concatenate(recons)
        np.testing.assert_array_equal(got, serial_recons)

    def test_single_payload_accepted(self, model, payload_batches):
        service = DecompressionService(model, ServiceConfig(max_batch=4))
        recons, stats = service.run(payload_batches[0])
        assert stats.n_wedges == 5
        assert sum(r.shape[0] for r in recons) == 5

    def test_rechunking_respects_max_batch(self, model, payload_batches):
        service = DecompressionService(model, ServiceConfig(max_batch=2))
        _recons, stats = service.run(payload_batches)
        assert all(r.n_wedges <= 2 for r in stats.records)
        assert stats.n_batches == 7  # 3+4 chunks from the 5+8 wedge batches

    def test_recons_are_owned(self, model, payload_batches):
        """Emitted arrays must not alias worker workspaces."""

        service = DecompressionService(model, ServiceConfig(max_batch=4))
        recons, _ = service.run(payload_batches)
        for a in recons:
            for b in recons:
                assert a is b or not np.shares_memory(a, b)

    def test_empty_source(self, model):
        recons, stats = DecompressionService(model).run([])
        assert recons == [] and stats.n_wedges == 0 and stats.n_batches == 0

    def test_half_mismatch_surfaces(self, model, payload_batches):
        import dataclasses

        bad = dataclasses.replace(payload_batches[0], half=False)
        service = DecompressionService(model, ServiceConfig(max_batch=4))
        with pytest.raises(ValueError, match="precision"):
            service.run(bad)


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=-1)

    def test_zero_inflight_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(inflight=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(backend="fiber")

    @pytest.mark.parametrize("max_batch", [0, -3])
    def test_nonpositive_max_batch_rejected(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            ServiceConfig(max_batch=max_batch)

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            ServiceConfig(max_delay_s=-0.001)

    @pytest.mark.parametrize("field, value", [
        ("max_delay_s", float("nan")),
        ("unit_timeout_s", 0),
        ("unit_timeout_s", -1.0),
        ("unit_timeout_s", float("nan")),
        ("max_retries", -1),
        ("backoff_base_s", -0.01),
        ("backoff_base_s", float("nan")),
        ("degrade_after", 0),
        ("rate_policy", "fastest"),
    ])
    def test_bad_knob_rejected_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_budget_without_policy_rejected(self):
        with pytest.raises(ValueError, match="requires a rate_policy"):
            ServiceConfig(rate_budget_mbps=100.0)

    @pytest.mark.parametrize("budget", [0.0, -5.0, float("nan")])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="rate_budget_mbps"):
            ServiceConfig(rate_policy="occupancy", rate_budget_mbps=budget)

    def test_unbounded_delay_budget_flushes_on_size(
        self, model, wedges, serial_payloads
    ):
        """An infinite accumulation budget is legal: batches close on size
        (and end of stream) only, with unchanged bytes."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, max_delay_s=float("inf"))
        )
        # Arrivals a day apart would each close a batch under any finite
        # budget.
        timed = [(86400.0 * i, w) for i, w in enumerate(wedges)]
        payloads, stats = service.run(replay_stream(timed))
        assert [r.n_wedges for r in stats.records] == [4, 4, 4, 1]
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    @pytest.mark.parametrize("knob", ["transport", "shm_slab_mb"])
    def test_retired_handoff_knobs_are_gone(self, knob):
        """Process workers have one hand-off (pickle); its former
        selectors are no longer configuration."""

        assert knob not in {f.name for f in dataclasses.fields(ServiceConfig)}
        with pytest.raises(TypeError, match=knob):
            ServiceConfig(**{knob: 1})
