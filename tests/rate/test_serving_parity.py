"""Serving parity for the adaptive tier: every backend, same bytes.

Selection is a pure per-wedge function and the BCAE sub-batch path is
batch-composition independent, so the inline, thread, process and
gateway paths must produce byte-identical archives *and* identical
:class:`RateDecision` ledgers — including after an injected worker crash
(the SIGKILL hook).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.rate import AdaptiveCompressor, make_policy
from repro.rate.records import is_record_frame, records_to_compressed
from repro.serve import (
    DecompressionService,
    GatewayConfig,
    ServiceConfig,
    ServingGateway,
    StreamingCompressionService,
    read_wedge_frame,
    write_wedge_frame,
)

from conftest import make_mixed_wedges


def _config(**overrides) -> ServiceConfig:
    base = dict(max_batch=4, rate_policy="occupancy")
    base.update(overrides)
    return ServiceConfig(**base)


def _flat(payloads):
    """(payload bytes, codec ids, decisions) of a served payload stream."""

    return (
        b"".join(bytes(p.payload) for p in payloads),
        sum((p.codec_ids for p in payloads), ()),
        sum((p.decisions for p in payloads), ()),
    )


@pytest.fixture(scope="module")
def model():
    m = build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2,
                    seed=0)
    m.eval()
    return m


@pytest.fixture(scope="module")
def wedges():
    return make_mixed_wedges(10)


@pytest.fixture(scope="module")
def inline_payloads(model, wedges):
    service = StreamingCompressionService(model, _config(workers=0))
    payloads, _ = service.run(wedges)
    return payloads


class TestBackendParity:
    def test_inline_reference_is_mixed(self, inline_payloads):
        _, codec_ids, decisions = _flat(inline_payloads)
        assert len(set(codec_ids)) > 1, "stream must exercise both routes"
        assert len(decisions) == len(codec_ids)

    def test_thread_backend_parity(self, model, wedges, inline_payloads):
        service = StreamingCompressionService(
            model, _config(workers=2, backend="thread")
        )
        payloads, _ = service.run(wedges)
        assert _flat(payloads) == _flat(inline_payloads)

    def test_process_backend_parity(self, model, wedges, inline_payloads):
        service = StreamingCompressionService(
            model, _config(workers=1, backend="process")
        )
        payloads, _ = service.run(wedges)
        assert _flat(payloads) == _flat(inline_payloads)

    def test_decompression_service_parity(self, model, wedges, inline_payloads):
        from repro.io import concat_compressed

        archive = concat_compressed(inline_payloads)
        reference = AdaptiveCompressor(
            BCAECompressor(model, half=True)
        ).decompress(archive)
        for backend, workers in (("thread", 0), ("thread", 2), ("process", 1)):
            service = DecompressionService(
                model, _config(workers=workers, backend=backend)
            )
            recons, _ = service.run(archive)
            np.testing.assert_array_equal(
                np.concatenate(recons), reference
            ), backend


class TestCrashRecoveryParity:
    def _kill_token(self, tmp_path, seq: int):
        path = tmp_path / "kill-token"
        path.write_text("")
        os.environ["REPRO_SERVE_KILL_FILE"] = str(path)
        os.environ["REPRO_SERVE_KILL_SEQ"] = str(seq)

    def _clear_token(self):
        os.environ.pop("REPRO_SERVE_KILL_FILE", None)
        os.environ.pop("REPRO_SERVE_KILL_SEQ", None)

    def test_sigkill_mid_stream_ledger_survives(
        self, model, wedges, inline_payloads, tmp_path
    ):
        """A SIGKILLed worker is replaced and the retried unit reproduces
        the exact payload *and* RateDecision ledger of the inline path."""

        service = StreamingCompressionService(model, _config(
            workers=1, backend="process",
            max_retries=1, backoff_base_s=0.0,
        ))
        self._kill_token(tmp_path, seq=1)
        try:
            payloads, stats = service.run(wedges)
        finally:
            self._clear_token()
        assert _flat(payloads) == _flat(inline_payloads)
        killed = [r for r in stats.records if r.seq == 1][0]
        assert killed.attempts == 2
        assert stats.faults.crashes >= 1
        # Follow-up clean run on the rebuilt pool: still byte-identical.
        payloads, stats = service.run(wedges)
        assert _flat(payloads) == _flat(inline_payloads)
        assert stats.faults.crashes == 0


class TestGatewayParity:
    async def _produce(self, port, wedge_list):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for w in wedge_list:
                write_wedge_frame(writer, w)
                await writer.drain()
            writer.write_eof()
            out = []
            while True:
                frame = await read_wedge_frame(reader)
                if frame is None:
                    return out
                out.append(frame)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def test_gateway_rebuilds_identical_archive_and_ledger(
        self, model, wedges, inline_payloads
    ):
        """Record frames over the socket rebuild a byte-identical archive
        and the full decision ledger, per producer."""

        services = [StreamingCompressionService(model, _config(workers=0))
                    for _ in range(2)]
        gateway = ServingGateway(services, GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                self._produce(gateway.port, list(wedges)),
                self._produce(gateway.port, list(wedges)),
            )
            await gateway.drain()
            await gateway.aclose()
            return results

        results = asyncio.run(run())
        compressor = BCAECompressor(model, half=True)
        code_shape = compressor.code_shape_for(wedges.shape[1:])
        want_payload, want_ids, want_decisions = _flat(inline_payloads)
        for frames in results:
            assert len(frames) == len(wedges)
            assert all(is_record_frame(f) for f in frames)
            rebuilt = records_to_compressed(
                frames, code_shape, wedges.shape[-1], half=True
            )
            assert bytes(rebuilt.payload) == want_payload
            assert rebuilt.codec_ids == want_ids
            assert rebuilt.decisions == want_decisions
            # And the rebuilt archive decodes like the inline one.
            recon = AdaptiveCompressor(compressor).decompress(rebuilt)
            assert recon.shape == wedges.shape
