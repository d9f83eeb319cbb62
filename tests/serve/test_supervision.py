"""The supervision layer: crash recovery, deadlines, retry, degrade, drain.

The full fault matrix on every backend — {kill, hang, poison} ×
{retry-succeeds, retries-exhausted, degraded-fallback} — each case
asserting the service afterwards serves byte-identical results to the
inline backend.  Faults are injected deterministically through
:class:`ProbeItem` (every backend) and the ``REPRO_SERVE_KILL_FILE`` hook
(a real SIGKILL inside a real compress worker).
"""

import json
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import build_model
from repro.serve import (
    HandoffProbeService,
    ServiceConfig,
    StreamingCompressionService,
    UnitTimeoutError,
    WorkerCrashError,
    iter_wedges,
    start_health_server,
)


def _arrays(n=6):
    return [np.full((3, 4), i, dtype=np.uint16) for i in range(n)]


def _checksums(arrays):
    return [float(a.sum()) for a in arrays]


def _config(backend: str, **kw) -> ServiceConfig:
    base = dict(max_batch=2, backoff_base_s=0.0, inflight=3)
    if backend == "inline":
        base.update(workers=0)
    elif backend == "thread":
        base.update(workers=2)
    else:  # process
        base.update(workers=1, backend="process")
    base.update(kw)
    return ServiceConfig(**base)


def _assert_clean(probe: HandoffProbeService, arrays) -> None:
    """The post-fault invariant every matrix case ends on: the same
    service instance serves a full follow-up run identical to the inline
    backend."""

    results, stats = probe.run(arrays, keep_results=True)
    assert results == _checksums(arrays)
    assert [r.seq for r in stats.records] == list(range(len(arrays)))


# On inline/thread the injected kill raises WorkerCrashError (threads
# cannot be SIGKILLed); on process it is a real SIGKILL -> broken pool.
# Either way the supervisor charges the owning unit the same way.
BACKENDS = ["inline", "thread", "process"]


class TestRetrySucceeds:
    """Fault on the first attempt only -> the unit succeeds on retry."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", ["poison", "kill"])
    def test_one_shot_fault_retries_to_success(self, backend, fault):
        probe = HandoffProbeService(_config(backend, max_retries=2))
        arrays = _arrays()
        items = probe.items(arrays, faults={2: fault}, fail_attempts=1)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        retried = [r for r in stats.records if r.seq == 2][0]
        assert retried.attempts == 2
        assert all(r.attempts == 1 for r in stats.records if r.seq != 2)
        assert stats.faults.retries == 1
        assert stats.faults.failures == 0
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hang_times_out_then_retry_succeeds(self, backend):
        # Thread workers cannot be interrupted, so the hang must be short
        # enough to finish before interpreter exit joins the abandoned
        # pool; process workers are SIGKILLed, so any length works.
        hang_s = 10.0 if backend == "process" else 0.5
        probe = HandoffProbeService(
            _config(backend, unit_timeout_s=0.15, max_retries=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={2: "hang"}, hang_s=hang_s,
                            fail_attempts=1)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        if backend == "inline":
            # Inline executes at submit time on the caller's thread: the
            # deadline is unenforceable, the unit just takes longer.
            assert stats.faults.timeouts == 0
        else:
            assert stats.faults.timeouts >= 1
            assert [r for r in stats.records if r.seq == 2][0].attempts == 2
        _assert_clean(probe, arrays)


class TestRetriesExhausted:
    """A persistent fault surfaces on the owning unit once the budget is
    spent — and only there; the service stays serviceable."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault,exc", [
        ("poison", RuntimeError),
        ("kill", WorkerCrashError),
    ])
    def test_persistent_fault_surfaces_on_owner(self, backend, fault, exc):
        probe = HandoffProbeService(_config(backend, max_retries=1))
        arrays = _arrays()
        items = probe.items(arrays, faults={3: fault})
        with pytest.raises(exc):
            probe.run(items)
        totals = probe.health().faults
        assert totals.failures == 1
        assert totals.retries == 1
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_persistent_hang_raises_unit_timeout(self, backend):
        hang_s = 10.0 if backend == "process" else 0.3
        probe = HandoffProbeService(
            _config(backend, unit_timeout_s=0.15, max_retries=1,
                    degrade_after=10)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "hang"}, hang_s=hang_s)
        with pytest.raises(UnitTimeoutError, match="deadline"):
            probe.run(items)
        assert probe.health().faults.timeouts >= 2  # initial + retry
        _assert_clean(probe, arrays)

    def test_zero_retries_is_fail_fast(self):
        probe = HandoffProbeService(_config("process"))
        arrays = _arrays()
        with pytest.raises(WorkerCrashError):
            probe.run(probe.items(arrays, faults={0: "kill"}))
        assert probe.health().faults.retries == 0
        _assert_clean(probe, arrays)

    def test_crash_charged_only_to_owner(self):
        # A broken pool fails every in-flight future; units other than
        # the killer must be re-driven uncharged and emit attempts=1.
        probe = HandoffProbeService(_config("process", max_retries=1))
        arrays = _arrays(6)
        items = probe.items(arrays, faults={2: "kill"}, fail_attempts=1)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        assert all(r.attempts == 1 for r in stats.records if r.seq != 2)


class TestDegradedFallback:
    """The circuit breaker steps the backend down instead of dying."""

    def test_process_degrades_to_thread_and_succeeds(self):
        probe = HandoffProbeService(
            _config("process", max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        # Crashes twice (trips the breaker at degrade_after=2), then the
        # third attempt runs on the thread level and succeeds.
        items = probe.items(arrays, faults={1: "kill"}, fail_attempts=2)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        assert stats.faults.degraded == 1
        assert stats.level == "thread"
        health = probe.health()
        assert health.state == "degraded"
        assert health.level == "thread"
        # The step-down is sticky: the follow-up stream reports it too.
        results, stats = probe.run(arrays, keep_results=True)
        assert results == _checksums(arrays)
        assert stats.level == "thread"

    def test_thread_degrades_to_inline(self):
        probe = HandoffProbeService(
            _config("thread", max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "kill"}, fail_attempts=2)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        assert stats.level == "inline"
        assert probe.health().state == "degraded"

    def test_inline_has_no_lower_level(self):
        probe = HandoffProbeService(
            _config("inline", max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "kill"}, fail_attempts=3)
        results, stats = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        assert stats.faults.degraded == 0
        assert stats.level == "inline"


class TestRealServiceCrashRecovery:
    """A real compress worker SIGKILLed mid-batch on the process
    backend."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)

    @pytest.fixture(scope="class")
    def wedges(self):
        rng = np.random.default_rng(7)
        w = rng.integers(0, 1024, size=(10, 16, 24, 32)).astype(np.uint16)
        w[w < 700] = 0
        return w

    @pytest.fixture(scope="class")
    def inline_payloads(self, model, wedges):
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0)
        )
        payloads, _ = service.run(wedges)
        return payloads

    def _kill_token(self, tmp_path, seq: int):
        path = tmp_path / "kill-token"
        path.write_text("")
        os.environ["REPRO_SERVE_KILL_FILE"] = str(path)
        os.environ["REPRO_SERVE_KILL_SEQ"] = str(seq)

    def _clear_token(self):
        os.environ.pop("REPRO_SERVE_KILL_FILE", None)
        os.environ.pop("REPRO_SERVE_KILL_SEQ", None)

    def test_sigkill_mid_batch_recovers_byte_identical(
        self, model, wedges, inline_payloads, tmp_path
    ):
        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=4, workers=1, backend="process",
            max_retries=1, backoff_base_s=0.0,
        ))
        self._kill_token(tmp_path, seq=1)
        try:
            payloads, stats = service.run(wedges)
        finally:
            self._clear_token()
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]
        killed = [r for r in stats.records if r.seq == 1][0]
        assert killed.attempts == 2
        assert stats.faults.crashes >= 1
        # Same instance, full follow-up run, byte-identical.
        payloads, stats = service.run(wedges)
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]
        assert stats.faults.crashes == 0

    def test_sigkill_without_retry_budget_fails_owner_only(
        self, model, wedges, inline_payloads, tmp_path
    ):
        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=4, workers=1, backend="process",
        ))
        self._kill_token(tmp_path, seq=1)
        try:
            with pytest.raises(WorkerCrashError, match="seq=1"):
                service.run(wedges)
        finally:
            self._clear_token()
        payloads, _ = service.run(wedges)
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]


class TestDrain:
    def test_drain_stops_intake_and_flushes(self):
        probe = HandoffProbeService(_config("inline"))
        arrays = _arrays(8)

        def source():
            for i, item in enumerate(probe.items(arrays)):
                if i == 3:
                    probe.drain(wait=False)
                yield item

        emitted = list(probe._serve(source()))
        assert 0 < len(emitted) < len(arrays)
        assert probe.health().state == "drained"
        assert not probe.health().ok
        with pytest.raises(RuntimeError, match="drain"):
            probe.run(probe.items(arrays))

    def test_drain_flushes_partial_batch_as_drain(self):
        model = build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0)
        )
        rng = np.random.default_rng(0)
        wedges = rng.integers(0, 1024, size=(10, 16, 24, 32)).astype(np.uint16)

        def source():
            for i, item in enumerate(iter_wedges(wedges)):
                if i == 5:
                    service.drain(wait=False)
                yield item

        records = [record for record, _ in service.compress_stream(source())]
        assert records[-1].closed_by == "drain"
        assert sum(r.n_wedges for r in records) < len(wedges)
        assert service.health().state == "drained"

    def test_drain_wait_returns_true_when_idle(self):
        probe = HandoffProbeService(_config("inline"))
        probe.run(probe.items(_arrays(2)))
        assert probe.drain(wait=True, timeout=1.0)
        assert probe.health().state == "drained"


class TestHealth:
    def test_healthy_service_reports_state(self):
        probe = HandoffProbeService(_config("process"))
        health = probe.health()
        assert health.state == "healthy"
        assert health.ok
        assert health.backend == "process"
        assert health.level == "process"
        probe.run(probe.items(_arrays(2)))
        health = probe.health()
        assert health.last_unit_latency_s >= 0.0
        assert health.faults.total == 0

    def test_health_counts_faults_across_streams(self):
        probe = HandoffProbeService(_config("inline", max_retries=1))
        arrays = _arrays()
        probe.run(probe.items(arrays, faults={1: "poison"}, fail_attempts=1))
        probe.run(probe.items(arrays, faults={2: "poison"}, fail_attempts=1))
        totals = probe.health().faults
        assert totals.retries == 2

    def test_health_server_serves_json_and_503_on_drain(self):
        probe = HandoffProbeService(_config("inline"))
        server = start_health_server(probe)
        port = server.server_address[1]
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["state"] == "healthy"
            assert body["faults"]["crashes"] == 0
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
            assert err.value.code == 404
            probe.drain()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/health", timeout=5
                )
            assert err.value.code == 503
            assert json.loads(err.value.read())["state"] == "drained"
        finally:
            server.shutdown()


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"unit_timeout_s": 0.0},
        {"unit_timeout_s": -1.0},
        {"max_retries": -1},
        {"backoff_base_s": -0.1},
        {"degrade_after": 0},
    ])
    def test_supervision_fields_validate(self, kw):
        with pytest.raises(ValueError):
            ServiceConfig(**kw)

    def test_bad_fault_kind_rejected(self):
        probe = HandoffProbeService(_config("inline"))
        items = probe.items(_arrays(2))
        items[0].fault = "segfault"
        with pytest.raises(ValueError, match="fault must be one of"):
            probe.run(items)
