"""The sharded gateway: multi-producer ingest, routing, shard loss, drain.

The promises under test are exact even where tolerances are loose:

* every delivered unit is **byte-identical** to the single-service inline
  path (batch invariance makes per-wedge code frames independent of how
  sessions were batched, sharded or spilled);
* producer faults — clean EOF, mid-frame death, malformed frames — are
  contained **per session**, never touching the shards or other sessions;
* a shard that exhausts its backend ladder is evicted: its innocent
  in-flight units re-route to survivors and only the poisoned unit's
  session fails;
* ``drain()`` quiesces shard-by-shard and is terminal.
"""

import asyncio
import os
import threading

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.serve import (
    MAX_FRAME_BYTES,
    FrameProtocolError,
    GatewayConfig,
    MicroBatcher,
    ServiceConfig,
    ServingGateway,
    ShardLostError,
    StreamingCompressionService,
    StreamRouter,
    WorkerCrashError,
    iter_wedges,
    read_wedge_frame,
    write_wedge_frame,
)


@pytest.fixture(scope="module")
def model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def wedges():
    rng = np.random.default_rng(7)
    w = rng.integers(0, 1024, size=(12, 16, 24, 30)).astype(np.uint16)
    w[w < 500] = 0
    return w


@pytest.fixture(scope="module")
def ref_codes(model, wedges):
    compressor = BCAECompressor(model)
    return [compressor.compress(w[None]).codes()[0] for w in wedges]


POISON_VALUE = 1023


def _poison(wedges):
    return np.full_like(wedges[0], POISON_VALUE)


class CrashyService(StreamingCompressionService):
    """Crashes on any unit containing an all-POISON_VALUE wedge; a
    ``gate`` event (when set on the class instance) delays the crash so a
    test can stack innocent units behind the poisoned one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = None

    def _work(self, compressor, item):
        if bool((item.wedges == POISON_VALUE).all(axis=(1, 2, 3)).any()):
            if self.gate is not None:
                self.gate.wait(timeout=30.0)
            raise WorkerCrashError("poisoned wedge")
        return super()._work(compressor, item)


async def _produce(port, wedge_list, mode="clean"):
    """One producer session.  Returns the response frames it received.

    mode: "clean" sends every wedge then half-closes; "mid-frame" dies
    inside the last frame's body; "malformed" sends garbage after the
    first wedge.
    """

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if mode == "clean":
            for w in wedge_list:
                write_wedge_frame(writer, w)
                await writer.drain()
            writer.write_eof()
        elif mode == "mid-frame":
            for w in wedge_list[:-1]:
                write_wedge_frame(writer, w)
            await writer.drain()
            writer.write(b"WDG1\x03")  # header cut mid-dtype
            await writer.drain()
            writer.write_eof()
        elif mode == "malformed":
            write_wedge_frame(writer, wedge_list[0])
            writer.write(b"GARBAGE-NOT-A-FRAME")
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


def _services(model, n, cfg=None, cls=StreamingCompressionService):
    cfg = cfg or ServiceConfig(max_batch=4, workers=0)
    return [cls(model, cfg) for _ in range(n)]


# ----------------------------------------------------------------------
# Frame-protocol regressions (the serve-layer correctness sweep)
# ----------------------------------------------------------------------


class TestFrameProtocol:
    def test_socket_ingested_wedges_are_writable(self, wedges):
        """np.frombuffer over received bytes is immutable — regression:
        the returned array must behave like every other source under
        in-place ops."""

        async def run():
            reader = asyncio.StreamReader()

            class _Writer:
                def write(self, data):
                    reader.feed_data(data)

            write_wedge_frame(_Writer(), wedges[0])
            reader.feed_eof()
            return await read_wedge_frame(reader)

        wedge = asyncio.run(run())
        assert wedge.flags.writeable
        wedge += 1  # must not raise
        np.testing.assert_array_equal(wedge, wedges[0].astype(wedge.dtype) + 1)

    def test_hostile_header_rejected_before_buffering(self):
        """A header claiming a huge body (255 dims × u32 each) must raise
        at the cap, not drive readexactly into unbounded buffering."""

        import struct

        header = b"WDG1" + struct.pack("<B", 3) + b"<u2"
        header += struct.pack("<B", 4) + struct.pack("<4I", *((2**31,) * 4))

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(header)
            # No body bytes at all: the cap must fire from the header
            # alone, without waiting for (or allocating) the claimed body.
            with pytest.raises(FrameProtocolError, match="cap"):
                await asyncio.wait_for(read_wedge_frame(reader), timeout=5.0)

        asyncio.run(run())

    def test_cap_is_configurable_and_default_generous(self, wedges):
        import io

        buffer = io.BytesIO()

        class _Writer:
            def write(self, data):
                buffer.write(data)

        write_wedge_frame(_Writer(), wedges[0])
        frame = buffer.getvalue()

        async def run(cap):
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_wedge_frame(reader, max_frame_bytes=cap)

        with pytest.raises(FrameProtocolError, match="cap"):
            asyncio.run(run(64))
        np.testing.assert_array_equal(asyncio.run(run(None)), wedges[0])
        np.testing.assert_array_equal(asyncio.run(run(MAX_FRAME_BYTES)), wedges[0])
        assert wedges[0].nbytes < MAX_FRAME_BYTES

    def test_write_frame_rejects_dims_over_u32(self):
        """Dims ≥ 2³² must raise FrameProtocolError, not struct.error.
        (Zero-width trailing axis keeps the array allocation-free.)"""

        huge = np.zeros((2**32, 0), dtype=np.uint16)
        with pytest.raises(FrameProtocolError, match="u32"):
            write_wedge_frame(None, huge)


# ----------------------------------------------------------------------
# Multi-producer round trips
# ----------------------------------------------------------------------


class TestGatewayRoundTrip:
    def _run(self, model, wedges, n_shards, producer_specs, cfg=None,
             gw_cfg=None, services=None):
        services = services or _services(model, n_shards, cfg)
        gateway = ServingGateway(services, gw_cfg or GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                *[_produce(gateway.port, ws, mode) for ws, mode in producer_specs]
            )
            await gateway.drain()
            await gateway.aclose()
            return results

        return asyncio.run(run()), gateway

    def test_concurrent_producers_clean_eof_byte_parity(
            self, model, wedges, ref_codes):
        """4 producers × 2 shards: every producer gets one response frame
        per wedge, in order, byte-identical to the inline path."""

        specs = [(list(wedges), "clean")] * 4
        results, gateway = self._run(model, wedges, 2, specs)
        for out in results:
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        stats = gateway.stats()
        assert stats.n_sessions == 4
        assert stats.n_wedges == 4 * len(wedges)
        assert stats.lost_shards == 0
        assert sum(s.n_wedges for s in stats.per_shard) == stats.n_wedges

    def test_mid_frame_death_contained_per_session(
            self, model, wedges, ref_codes):
        """A producer dying mid-frame fails its own session only; the
        concurrent clean session gets full byte parity."""

        specs = [(list(wedges), "clean"), (list(wedges[:4]), "mid-frame")]
        results, gateway = self._run(model, wedges, 2, specs)
        clean, dead = results
        assert len(clean) == len(wedges)
        for got, want in zip(clean, ref_codes):
            assert got.tobytes() == want.tobytes()
        # The dead session still gets responses for frames completed
        # before the cut (they were already routed), never more.
        assert len(dead) <= 3
        health = gateway.health()
        assert health.lost == []  # producer faults never evict shards

    def test_malformed_frame_contained_per_session(
            self, model, wedges, ref_codes):
        specs = [(list(wedges), "clean"), (list(wedges), "malformed"),
                 (list(wedges), "clean")]
        results, gateway = self._run(model, wedges, 2, specs)
        for out in (results[0], results[2]):
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        assert len(results[1]) <= 1
        assert gateway.stats().lost_shards == 0

    def test_sharded_bytes_match_single_service_inline(
            self, model, wedges, ref_codes):
        """Byte parity is invariant to shard count: 1 shard and 3 shards
        deliver identical frames for identical sessions."""

        specs = [(list(wedges), "clean")] * 2
        one, _ = self._run(model, wedges, 1, specs)
        three, _ = self._run(model, wedges, 3, specs)
        for a, b in zip(one, three):
            assert b"".join(f.tobytes() for f in a) == \
                b"".join(f.tobytes() for f in b)
            assert b"".join(f.tobytes() for f in a) == \
                b"".join(c.tobytes() for c in ref_codes)

    def test_process_shards_start_together_byte_parity(
            self, model, wedges, ref_codes):
        """Two process-backend shards fork their pools at the same time
        (no staggered start) and still serve byte-identical frames."""

        cfg = ServiceConfig(max_batch=4, workers=1, backend="process")
        gateway = ServingGateway(_services(model, 2, cfg), GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                *[_produce(gateway.port, list(wedges), "clean")
                  for _ in range(2)]
            )
            await gateway.drain()
            await gateway.aclose()
            return results

        results = asyncio.run(asyncio.wait_for(run(), timeout=120))
        for out in results:
            assert b"".join(f.tobytes() for f in out) == \
                b"".join(c.tobytes() for c in ref_codes)
        stats = gateway.stats()
        assert stats.lost_shards == 0
        assert sum(s.n_wedges for s in stats.per_shard) == 2 * len(wedges)


# ----------------------------------------------------------------------
# Router policy: placement, backpressure, health-awareness
# ----------------------------------------------------------------------


class GatedService(StreamingCompressionService):
    """Blocks every unit on an event, so tests can hold units in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def _work(self, compressor, item):
        self.gate.wait(timeout=30.0)
        return super()._work(compressor, item)


class TestRouterPolicy:
    def test_sessions_stick_to_home_shard(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            router = StreamRouter(_services(model, 2))
            router.start()
            futs = [await router.submit(b, session=11) for b in batches]
            await asyncio.gather(*futs)
            per_shard = [s.n_batches for s in router.stats().per_shard]
            await router.drain()
            return per_shard

        per_shard = asyncio.run(run())
        # One session, healthy uncontended home: no spill.
        assert sorted(per_shard) == [0, len(batches)]

    def test_full_home_spills_to_least_loaded(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            services = [GatedService(model, ServiceConfig(max_batch=2, workers=0))
                        for _ in range(2)]
            router = StreamRouter(services, inflight_per_shard=1)
            router.start()
            f0 = await router.submit(batches[0], session=5)  # home assigned
            f1 = await router.submit(batches[1], session=5)  # home full: spill
            spilled = router.rerouted
            for service in services:
                service.gate.set()
            await asyncio.gather(f0, f1)
            await router.drain()
            return spilled

        assert asyncio.run(run()) == 1

    def test_backpressure_awaits_capacity(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:6])))

        async def run():
            services = [GatedService(model, ServiceConfig(max_batch=2, workers=0))]
            router = StreamRouter(services, inflight_per_shard=2)
            router.start()
            f0 = await router.submit(batches[0])
            f1 = await router.submit(batches[1])
            # Third submit must await capacity, not place over the bound.
            third = asyncio.ensure_future(router.submit(batches[2]))
            await asyncio.sleep(0.1)
            assert not third.done()
            services[0].gate.set()
            f2 = await asyncio.wait_for(third, timeout=30.0)
            await asyncio.gather(f0, f1, f2)
            await router.drain()

        asyncio.run(run())

    def test_routes_around_draining_shard(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            services = _services(model, 2)
            router = StreamRouter(services)
            router.start()
            # wait=False: the latch flips shard 1's health to draining;
            # its idle pump stream only observes the latch at its next
            # item, which health-aware placement ensures never comes.
            services[1].drain(wait=False)
            futs = [await router.submit(b, session=i)
                    for i, b in enumerate(batches)]
            await asyncio.gather(*futs)
            per_shard = [s.n_batches for s in router.stats().per_shard]
            await router.drain()
            return per_shard

        per_shard = asyncio.run(run())
        assert per_shard[1] == 0
        assert per_shard[0] == len(batches)


# ----------------------------------------------------------------------
# Shard loss
# ----------------------------------------------------------------------


class TestShardLoss:
    def test_innocent_inflight_units_reroute(self, model, wedges, ref_codes):
        """Units queued behind a poisoned unit on the dying shard re-route
        to the survivor and still deliver byte-correct results."""

        poison = _poison(wedges)
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:6])))

        async def run():
            cfg = ServiceConfig(max_batch=2, workers=0, max_retries=0)
            services = [CrashyService(model, cfg) for _ in range(2)]
            services[0].gate = threading.Event()
            router = StreamRouter(services, inflight_per_shard=8)
            router.start()
            # Force everything onto shard 0 by making shard 1 look busy.
            router._homes[1] = router._shards[0]
            poison_batch = next(iter(
                MicroBatcher(max_batch=1).batches(iter_wedges([poison]))))
            bad = await router.submit(poison_batch, session=1)
            innocents = [await router.submit(b, session=1) for b in batches]
            await asyncio.sleep(0.1)  # let innocents queue behind the poison
            services[0].gate.set()     # now crash shard 0
            with pytest.raises(WorkerCrashError):
                await bad
            results = await asyncio.gather(*innocents)
            state = (router.lost_shards, router.rerouted,
                     [s.level for s in router.stats().per_shard])
            await router.drain()
            return results, state

        results, (lost, rerouted, levels) = asyncio.run(run())
        assert lost == 1
        assert rerouted >= len(batches)
        assert levels[0] == "lost"
        flat = [w for _r, payload in results for w in payload.codes()]
        for got, want in zip(flat, ref_codes):
            assert got.tobytes() == want.tobytes()

    def test_no_survivor_fails_per_session_not_globally(self, model, wedges):
        """Last shard lost: queued units fail with ShardLostError and new
        submits raise it too — no hang, no global crash."""

        poison = _poison(wedges)

        async def run():
            cfg = ServiceConfig(max_batch=2, workers=0, max_retries=0)
            services = [CrashyService(model, cfg)]
            services[0].gate = threading.Event()
            router = StreamRouter(services)
            router.start()
            poison_batch = next(iter(
                MicroBatcher(max_batch=1).batches(iter_wedges([poison]))))
            clean_batch = next(iter(
                MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:2]))))
            bad = await router.submit(poison_batch)
            orphan = await router.submit(clean_batch)
            await asyncio.sleep(0.05)
            services[0].gate.set()
            with pytest.raises(WorkerCrashError):
                await bad
            with pytest.raises(ShardLostError):
                await orphan
            with pytest.raises(ShardLostError):
                await router.submit(clean_batch)
            await router.drain()

        asyncio.run(run())

    def test_socket_sessions_survive_shard_loss(self, model, wedges, ref_codes):
        """End-to-end: the poisoned producer's session fails alone; clean
        concurrent sessions get full byte parity from the survivors."""

        poison = _poison(wedges)
        cfg = ServiceConfig(max_batch=4, workers=0, max_retries=0)
        services = [CrashyService(model, cfg) for _ in range(2)]
        gateway = ServingGateway(services, GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                _produce(gateway.port, [poison]),
                _produce(gateway.port, list(wedges)),
                _produce(gateway.port, list(wedges)),
            )
            health = gateway.health()
            stats = gateway.stats()
            await gateway.drain()
            await gateway.aclose()
            return results, health, stats

        (bad, *clean), health, stats = asyncio.run(run())
        assert bad == []
        for out in clean:
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        assert stats.lost_shards == 1
        assert len(health.lost) == 1
        assert health.state == "degraded"
        lost_health = health.shards[health.lost[0]]
        assert lost_health.state == "lost"
        assert stats.faults.crashes >= 1

    def test_process_shard_sigkill_walks_ladder_to_eviction(
            self, model, wedges, tmp_path):
        """A process-backend shard whose worker is SIGKILLed walks its
        ladder down to eviction while the gateway keeps serving."""

        poison = _poison(wedges)
        # degrade_after=1: each crash steps the ladder down immediately,
        # so three crashed units walk process → thread → inline → lost.
        cfg = ServiceConfig(max_batch=2, workers=1, backend="process",
                            max_retries=0, degrade_after=1)
        services = [CrashyService(model, cfg), CrashyService(
            model, ServiceConfig(max_batch=2, workers=0))]
        # One batcher stream so every unit has a distinct seq: primer is
        # seq 0, the three poisons are seqs 1-3, the closer is seq 4.
        feed = [wedges[0], poison, poison, poison, wedges[1]]
        batches = list(MicroBatcher(max_batch=1).batches(iter_wedges(feed)))
        primer, poisons, closer = batches[0], batches[1:4], batches[4]
        # The process rung runs the *real* compressor inside the worker
        # (the subclass ``_work`` override only executes on the
        # thread/inline rungs), so the first crash must be a genuine
        # worker SIGKILL — armed via the kill-token hook for the first
        # poison's seq, before the pool forks.
        token = tmp_path / "kill-token"
        token.write_text("")
        os.environ["REPRO_SERVE_KILL_FILE"] = str(token)
        os.environ["REPRO_SERVE_KILL_SEQ"] = "1"

        async def run():
            router = StreamRouter(services)
            router.start()
            router._homes[1] = router._shards[0]
            # One clean unit first, so the process pool is up.
            await (await router.submit(primer, session=1))
            # SIGKILL at the process rung, then the ``_work`` override
            # crashes the thread and inline rungs.
            for batch in poisons:
                fut = await router.submit(batch, session=1)
                with pytest.raises(WorkerCrashError):
                    await fut
            assert router.lost_shards == 1
            # Survivor still serves.
            ok = await router.submit(closer, session=1)
            await ok
            await router.drain()

        try:
            asyncio.run(run())
        finally:
            os.environ.pop("REPRO_SERVE_KILL_FILE", None)
            os.environ.pop("REPRO_SERVE_KILL_SEQ", None)


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_quiesces_shard_by_shard_and_is_terminal(
            self, model, wedges, ref_codes):
        services = _services(model, 2)
        gateway = ServingGateway(services, GatewayConfig())

        async def run():
            await gateway.start()
            out = await _produce(gateway.port, list(wedges))
            drained = await gateway.drain()
            health = gateway.health()
            # Terminal: new units are refused on every shard.
            with pytest.raises((RuntimeError, ShardLostError)):
                await gateway.router.submit(None)
            await gateway.aclose()
            return out, drained, health

        out, drained, health = asyncio.run(run())
        assert drained is True
        assert health.state == "drained"
        assert not health.ok
        assert all(h.state == "drained" for h in health.shards)
        for got, want in zip(out, ref_codes):
            assert got.tobytes() == want.tobytes()
        # Per-service drains were issued shard-by-shard underneath.
        for service in services:
            assert service.health().state == "drained"

    def test_stats_aggregate_service_stats_across_shards(self, model, wedges):
        specs_batches = list(
            MicroBatcher(max_batch=3).batches(iter_wedges(wedges)))

        async def run():
            router = StreamRouter(_services(model, 3))
            router.start()
            futs = [await router.submit(b, session=i % 3)
                    for i, b in enumerate(specs_batches)]
            await asyncio.gather(*futs)
            stats = router.stats()
            await router.drain()
            return stats

        stats = asyncio.run(run())
        assert len(stats.per_shard) == 3
        assert stats.n_units == len(specs_batches)
        assert stats.n_wedges == len(wedges)
        assert stats.faults.total == 0
        assert "wedges=" in stats.row()
