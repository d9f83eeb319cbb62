#!/usr/bin/env python
"""Async serving demo: the ingestion gateway, end to end.

Where ``serving_demo.py`` replays a stream through the *sync* service,
this demo runs the asyncio gateway the way a counting-house deployment
would sit behind a live feed:

1. a producer task pushes wedges into an :class:`AsyncQueueSource` on a
   (sped-up) DAQ arrival schedule — real wall-clock pacing, not labels;
2. the :class:`AsyncMicroBatcher` closes batches on ``max_batch`` or on a
   **monotonic-clock deadline** (``--budget-ms`` after a batch's first
   wedge arrives, whether or not the link keeps producing);
3. the service compresses batches through its worker backend while the
   event loop keeps ingesting — ordered, bounded in-flight emission;
4. payload bytes are verified identical to the serial path.

With ``--backend process`` work units and payloads cross the worker
boundary by pickle; each worker process builds its own compressor once.

Usage::

    python examples/async_serving_demo.py [--wedges 48] [--batch 8]
        [--budget-ms 5] [--workers 0] [--backend thread|process]
"""

import argparse
import asyncio
import collections
import time

from repro.core import BCAECompressor, build_model
from repro.daq import DAQConfig, StreamingCompressionSim
from repro.serve import AsyncQueueSource, ServiceConfig, StreamingCompressionService
from repro.tpc import TINY_GEOMETRY, generate_wedge_stream


async def serve(args, model, wedges) -> None:
    service = StreamingCompressionService(model, ServiceConfig(
        max_batch=args.batch,
        max_delay_s=args.budget_ms / 1e3,
        workers=args.workers,
        backend=args.backend,
    ))
    if args.backend != "process":
        # Warm the pooled compressors (process workers die with their
        # pool, so there is nothing durable to warm there).
        service.run(wedges[: args.batch])

    sim = StreamingCompressionSim(
        DAQConfig(frame_rate_hz=2000.0, wedges_per_frame=4), seed=args.seed
    )
    source = AsyncQueueSource()

    async def produce() -> None:
        """Push wedges on the simulated arrival schedule (4x speed)."""

        start = time.monotonic()
        t0 = None
        for arrival, wedge in sim.wedge_stream(wedges):
            t0 = arrival if t0 is None else t0
            delay = (start + (arrival - t0) / 4.0) - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            await source.put(wedge)
        source.close()

    producer = asyncio.ensure_future(produce())
    t0 = time.perf_counter()
    payloads, stats = await service.run_async(source)
    elapsed = time.perf_counter() - t0
    await producer

    serial = BCAECompressor(model)
    same = b"".join(bytes(p.payload) for p in payloads) == b"".join(
        serial.compress(w).payload for w in wedges
    )
    closed_by = collections.Counter(r.closed_by for r in stats.records)

    print(f"async gateway: {stats.n_wedges} wedges in {stats.n_batches} batches, "
          f"{stats.wedges_per_second:8.1f} w/s ({elapsed * 1e3:.0f} ms wall)")
    print(f"  payloads vs serial path: {'identical' if same else 'MISMATCH'}")
    print(f"  batch close reasons: {dict(closed_by)}")
    print(f"  batch latency (wait+compute): {stats.batch_latency().row()}")
    if not same:
        raise SystemExit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wedges", type=int, default=48)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--budget-ms", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--backend", choices=("thread", "process"), default="thread")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    wedges = generate_wedge_stream(args.wedges, geometry=TINY_GEOMETRY, seed=args.seed)
    model = build_model("bcae_2d", wedge_spatial=TINY_GEOMETRY.wedge_shape,
                        seed=args.seed)
    print(f"stream: {wedges.shape[0]} wedges {wedges.shape[1:]}, "
          f"budget {args.budget_ms:.1f} ms (wall clock), "
          f"workers {args.workers} [{args.backend}]")
    asyncio.run(serve(args, model, wedges))


if __name__ == "__main__":
    main()
