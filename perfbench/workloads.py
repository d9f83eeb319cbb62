"""The benchmark's workloads: served ingest and archive decode.

Each workload builds its inputs from the seed, sets the serving side up
``SETUPS`` times (the last set-up serves the timed phase), times one
phase with tracing off and, in a traced run, a second phase with tracing
on, then checks every output against a direct call of the program's
public fast path.  See ``perfbench/README.md`` for why each exists.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

from perfbench import inputs, layers
from perfbench.host import PANEL_THREADS, PssSampler, pin_threads
from perfbench.spans import clock
from repro.perf.timing import FaultCounters

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "ingest" or "decode"
    max_batch: int = 4
    max_delay_s: float = 1.0
    loop: str = "closed"           # ingest: "closed" or "open"
    window: int = 8                # closed loop: wedges outstanding per producer
    rate: float = 0.0              # open loop: offered wedges/s
    inflight_per_shard: int = 2
    rate_policy: str | None = None
    warm_sizes: tuple[int, ...] = (4,)
    archive_wedges: int = 2        # decode: distinct wedges in the archive


#: Two gateway shards of one process worker each, or one two-worker pool.
SHARDS = 2
DECODE_WORKERS = 2
CONNECTIONS = 2
WARM_STAGGER_S = 0.3

#: Open-loop event pattern, repeated: two central events per peripheral
#: one, central first (its slow first unit sends the second connection to
#: the other shard).  The fixed order keeps the window's mix the same on
#: every seed (the seed draws the events' contents), so the median wedge is
#: always an encoder-routed one.
EVENT_PATTERN = ("central", "central", "peripheral")

WORKLOADS = {
    w.name: w for w in (
        Workload("ingest_burst", "ingest"),
        Workload("ingest_paced_mixed", "ingest", max_batch=2,
                 max_delay_s=0.05, loop="open", rate=4.8,
                 inflight_per_shard=1, rate_policy="occupancy",
                 warm_sizes=(1, 2)),
        Workload("archive_decode_2d", "decode", max_batch=1),
    )
}


@dataclasses.dataclass
class Context:
    root: Path
    run_dir: Path
    seed: int
    seconds: float
    scale: str
    tracer: object | None          # spans.Tracer in a traced run
    source_digest: str


@dataclasses.dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    correct: bool
    end_to_end: dict               # name -> value
    per_layer: dict                # name -> value (traced run only)
    notes: dict


def build(spatial):
    """``bcae_2d`` at the paper's Table-1 configuration (ratio 31.125)."""

    from repro.core import build_model

    return build_model("bcae_2d", wedge_spatial=spatial, seed=0,
                       m=4, n=8, d=3)


def direct_compressor(model):
    from repro.core import BCAECompressor

    return BCAECompressor(model, half=True, panel_threads=PANEL_THREADS)


# ----------------------------------------------------------------------
# References (reused across runs of the same source and inputs only)
# ----------------------------------------------------------------------


class References:
    """Direct fast-path outputs, cached per source digest and input."""

    def __init__(self, ctx: Context, model) -> None:
        # Bit-identity holds per BLAS build and thread count, so those are
        # part of the key next to the program source.
        self._dir = ctx.root / ".perfbench_cache" / ctx.source_digest / (
            f"{ctx.scale}-blas"
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
        self._dir.mkdir(parents=True, exist_ok=True)
        self._model = model
        self._compressor = None

    def _direct(self):
        if self._compressor is None:
            self._compressor = direct_compressor(self._model)
        return self._compressor

    def codes(self, wedge: np.ndarray) -> bytes:
        path = self._dir / f"enc-{inputs.digest(wedge)}.bin"
        if path.exists():
            return path.read_bytes()
        payload = bytes(self._direct().compress_into(wedge[None]).payload)
        path.write_bytes(payload)
        return payload

    def release(self) -> None:
        """Drop the direct compressor (and its workspaces) before the
        serving side starts, so they stay out of its memory footprint."""

        self._compressor = None
        gc.collect()

    def recon(self, compressed) -> np.ndarray:
        path = self._dir / f"dec-{inputs.digest(compressed.payload)}.npy"
        if path.exists():
            return np.load(path)
        recon = np.array(self._direct().decompress_into(compressed))
        np.save(path, recon)
        return recon


# ----------------------------------------------------------------------
# Ingest through the gateway
# ----------------------------------------------------------------------


def _ingest_inputs(ctx: Context, w: Workload):
    """Pool of input wedges plus the send order for the workload."""

    rng = np.random.default_rng([ctx.seed, 1])
    central = inputs.event("central", ctx.seed, 0, ctx.scale)
    if w.loop == "closed":
        # Half the event's wedges, in a fresh random order per pass: enough
        # distinct inputs, and half the reference encodes to check them.
        picks = rng.choice(len(central), size=len(central) // 2,
                           replace=False)
        order = np.concatenate([rng.permutation(picks) for _ in range(64)])
        return central, order, {"occupancy": inputs.occupancy(central)}
    peripheral = inputs.event("peripheral", ctx.seed, 1, ctx.scale)
    pool = np.concatenate([central, peripheral])
    n_sends = int(round(w.rate * ctx.seconds))
    order: list[int] = []
    e = 0
    while len(order) < n_sends:
        kind = EVENT_PATTERN[e % len(EVENT_PATTERN)]
        base = 0 if kind == "central" else len(central)
        order.extend(range(base, base + len(central)))
        e += 1
    return pool, np.array(order[:n_sends]), {
        "occupancy_central": inputs.occupancy(central),
        "occupancy_peripheral": inputs.occupancy(peripheral),
    }


async def _warm_session(port: int, wedges: np.ndarray) -> None:
    from repro.serve.source import read_wedge_frame, write_wedge_frame

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for wedge in wedges:
            write_wedge_frame(writer, wedge)
        await writer.drain()
        for _ in range(len(wedges)):
            if await read_wedge_frame(reader, max_frame_bytes=None) is None:
                raise RuntimeError("gateway closed a warm-up session early")
        writer.write_eof()
        while await read_wedge_frame(reader, max_frame_bytes=None) is not None:
            pass
    finally:
        writer.close()
        await writer.wait_closed()


async def _warm_gateway(gateway, wedges: np.ndarray, sizes) -> None:
    """Serve each warm-up batch size once on every shard (first-call
    compilation is per batch shape and per worker process).

    A new session goes to the least-loaded shard.  The first attempt
    starts the sessions ``WARM_STAGGER_S`` apart, so no two shards create
    their slab ring and fork their pool at the same instant: a pool worker
    forked while another thread holds the multiprocessing resource
    tracker's lock inherits the held lock and hangs when it attaches its
    ring.  If the first session's unit finished before the second arrived
    (both then land on one shard), the retry starts them together; the
    shard that already has its pool takes no lock then.
    """

    async def session(delay: float, size: int) -> None:
        await asyncio.sleep(delay)
        await _warm_session(gateway.port, wedges[:size])

    for size in sizes:
        for attempt in range(4):
            stagger = WARM_STAGGER_S if attempt == 0 else 0.0
            before = [s.n_batches for s in gateway.stats().per_shard]
            await asyncio.gather(*(session(i * stagger, size)
                                   for i in range(SHARDS)))
            after = [s.n_batches for s in gateway.stats().per_shard]
            if all(a > b for a, b in zip(after, before)):
                break
        else:
            raise RuntimeError(f"warm-up of batch size {size} did not "
                               "reach every shard")


async def _start_gateway(ctx: Context, w: Workload, spatial, wedges):
    from repro.serve import (GatewayConfig, ServiceConfig, ServingGateway,
                             StreamingCompressionService)

    model = build(spatial)
    config = ServiceConfig(max_batch=w.max_batch, max_delay_s=w.max_delay_s,
                           workers=1, backend="process", half=True,
                           panel_threads=PANEL_THREADS,
                           rate_policy=w.rate_policy)
    services = [StreamingCompressionService(model, config)
                for _ in range(SHARDS)]
    gateway = ServingGateway(services, GatewayConfig(
        inflight_per_shard=w.inflight_per_shard))
    await gateway.start()
    try:
        await _warm_gateway(gateway, wedges, w.warm_sizes)
    except BaseException:
        await _close_gateway(gateway)
        raise
    return gateway


async def _close_gateway(gateway) -> None:
    if not await gateway.drain(timeout=60.0):
        raise RuntimeError("gateway did not drain")
    await gateway.aclose()


async def _run_loadgen(ctx: Context, sampler: PssSampler, phase: str,
                       cfg: dict) -> dict:
    cfg_path = ctx.run_dir / f"loadgen-{phase}.json"
    out = ctx.run_dir / f"loadgen-{phase}"
    cfg = dict(cfg, out=str(out))
    if phase == "traced":
        cfg["trace_dir"] = str(ctx.tracer.out_dir)
    cfg_path.write_text(json.dumps(cfg))
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(ctx.root / "perfbench" / "loadgen.py"),
        str(cfg_path), env=pin_threads(dict(os.environ)),
        stdout=asyncio.subprocess.DEVNULL)
    sampler.exclude.add(proc.pid)
    try:
        code = await asyncio.wait_for(proc.wait(), ctx.seconds + 120.0)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()
        raise RuntimeError("load generator timed out") from None
    if code != 0:
        raise RuntimeError(f"load generator exited with {code}")
    with np.load(out.with_suffix(".npz")) as data:
        result = {k: data[k] for k in data.files}
    result.update(json.loads(out.with_suffix(".json").read_text()))
    blob, offsets = result["frame_blob"], result["frame_offsets"]
    result["frames"] = [
        np.frombuffer(blob[offsets[i]:offsets[i + 1]].tobytes(),
                      dtype=np.dtype(dt)).reshape(shape)
        for i, (dt, shape) in enumerate(zip(result["frame_dtypes"],
                                            result["frame_shapes"]))
    ]
    return result


def _check_codes(pool, sent, refs) -> list[bool]:
    """Per wedge: the code frame equals a direct compress_into."""

    ok = []
    for idx, frame, got in zip(sent["idx"], sent["frames"], sent["recv"]):
        if not np.isfinite(got) or frame.dtype != np.float16:
            ok.append(False)
            continue
        ok.append(frame.tobytes() == refs.codes(pool[idx]))
    return ok


def _check_records(pool, sent, refs, spatial, code_shape):
    """Per wedge: the record frame decodes, routes as the policy does,
    BCAE records equal the fixed-rate path, sparse ones decode within the
    codec's bound.  Returns (ok list, archive rebuilt from the frames)."""

    from repro.rate import OccupancyPolicy
    from repro.rate.records import decode_record_frame, records_to_compressed
    from repro.rate.registry import (BCAE_CODEC_ID, classical_codec,
                                     codec_error_bound)
    from repro.tpc.transforms import log_transform

    policy = OccupancyPolicy()
    bcae_record = int(np.prod(code_shape)) * 2
    ok = []
    decoded = []
    for idx, frame, got in zip(sent["idx"], sent["frames"], sent["recv"]):
        wedge = pool[idx]
        try:
            if not np.isfinite(got):
                raise ValueError("no response")
            codec_id, decision, record = decode_record_frame(frame)
            decoded.append(frame)
            want_id, _occ, _act, est = policy.select(wedge, bcae_record)
            good = (codec_id == want_id and decision.est_bytes == est
                    and decision.actual_bytes == len(record))
            if good and codec_id == BCAE_CODEC_ID:
                good = record == refs.codes(wedge)
            elif good:
                recon = classical_codec(codec_id).decompress(record)
                err = np.abs(recon - log_transform(wedge)).max()
                good = err <= codec_error_bound(codec_id) + 1e-6
        except ValueError:
            good = False
        ok.append(bool(good))
    # The ledger rebuilt from every frame that decodes must be complete.
    archive = records_to_compressed(decoded, code_shape, spatial[-1], True)
    if not archive.n_wedges == len(archive.decisions) == len(decoded):
        ok = [False] * len(ok)
    return ok, archive


async def run_ingest(ctx: Context, w: Workload) -> Outcome:
    from repro.core import CompressedWedges
    from repro.rate import aggregate_ratio

    spatial = inputs.spatial_for(ctx.scale)
    pool, order, notes = _ingest_inputs(ctx, w)
    notes["input_digest"] = inputs.digest(pool)
    np.save(ctx.run_dir / "inputs.npy", pool)
    model = build(spatial)
    code_shape = direct_compressor(model).code_shape_for(spatial)
    refs = References(ctx, model)
    central = [i for i in sorted(set(order.tolist()))
               if w.loop == "closed" or i < inputs.WEDGES_PER_EVENT]
    for i in central:
        refs.codes(pool[i])
    refs.release()

    setups = []
    sampler = PssSampler()
    faults = FaultCounters()
    for i in range(SETUPS):
        last = i == SETUPS - 1
        if last:
            sampler.__enter__()
            if ctx.tracer is not None:
                ctx.tracer.enable()     # record first-call compilation
        start = clock()
        gateway = await _start_gateway(ctx, w, spatial, pool)
        setups.append(clock() - start)
        if not last:
            faults.merge(gateway.stats().faults)
            await _close_gateway(gateway)
    sampler.settle()
    cfg = {"host": "127.0.0.1", "port": gateway.port,
           "inputs": str(ctx.run_dir / "inputs.npy"),
           "order": order.tolist(), "connections": CONNECTIONS,
           "mode": w.loop, "window": w.window, "group": w.max_batch,
           "rate": w.rate,
           "seconds": ctx.seconds}
    phases = {}
    try:
        for phase in ("untraced", "traced") if ctx.tracer else ("untraced",):
            if ctx.tracer is not None:
                ctx.tracer.enable(phase == "traced")
            phases[phase] = await _run_loadgen(ctx, sampler, phase, cfg)
            phases[phase]["gateway"] = gateway.stats()
    finally:
        stats = gateway.stats()
        faults.merge(stats.faults)
        await _close_gateway(gateway)
        sampler.__exit__(None, None, None)

    sent = phases["untraced"]
    if w.rate_policy is None:
        ok = _check_codes(pool, sent, refs)
        good = [f for f, g in zip(sent["frames"], ok) if g]
        ratio = aggregate_ratio([CompressedWedges(
            payload=b"".join(f.tobytes() for f in good),
            code_shape=good[0].shape, n_wedges=len(good),
            original_horizontal=spatial[-1], half=True)],
            spatial) if good else float("nan")
    else:
        ok, archive = _check_records(pool, sent, refs, spatial, code_shape)
        ratio = aggregate_ratio([archive], spatial)
    n_failed = ok.count(False)
    e2e, valid = layers.ingest_end_to_end(sent, ok, w.loop, w.rate)
    e2e.update(setup_s=float(np.median(setups)), compression_ratio=ratio,
               peak_pss_mb=sampler.peak_mb)
    notes.update(setups_s=setups, backlog_grew=not valid,
                 faults=faults.to_dict(),
                 shard_wedges=[s.n_wedges for s in stats.per_shard],
                 **layers.loadgen_summary(sent, w.loop))
    per_layer = {}
    if ctx.tracer is not None:
        per_layer = layers.ingest_per_layer(ctx, w, phases, spatial, model,
                                            notes["faults"])
    return Outcome(
        attempted=len(ok), failed=n_failed,
        correct=(n_failed == 0 and valid
                 and not any(faults.to_dict().values())),
        end_to_end=e2e, per_layer=per_layer, notes=notes)


# ----------------------------------------------------------------------
# Archive decode
# ----------------------------------------------------------------------


def _decode_stream(ctx, w, warm, archive_path, units, timed: bool,
                   sampler: PssSampler | None = None):
    """One decode job on a fresh two-worker pool.

    The first two units (one per worker) are the set-up; when ``timed``,
    the job then loads the archive and keeps decoding its wedges for
    ``ctx.seconds`` (settling ``sampler`` when that window starts).  Appends ``(pulled, emitted, record, recon, chunk)``
    per unit to ``units`` and returns ``(setup_s, t_start, faults)``.
    """

    from repro.io.codes import load_compressed, split_compressed
    from repro.serve import DecompressionService, ServiceConfig

    tracer = ctx.tracer
    start = clock()
    service = DecompressionService(build(inputs.spatial_for(ctx.scale)),
                                   ServiceConfig(
            max_batch=w.max_batch, workers=DECODE_WORKERS, backend="process",
            half=True, inflight=DECODE_WORKERS, panel_threads=PANEL_THREADS))
    fed: list = []
    marks = {}

    def source():
        for compressed in warm:
            fed.append((clock(), compressed))
            yield compressed
        if not timed:
            return
        if sampler is not None:
            sampler.settle()
        marks["t_start"] = clock()
        archive, _name = load_compressed(archive_path)
        if tracer is not None and tracer.on:
            tracer.record("io.codes.load", marks["t_start"], clock(),
                          bytes=archive_path.stat().st_size)
        while True:
            chunks = split_compressed(archive, w.max_batch)
            while True:
                t0 = clock()
                chunk = next(chunks, None)
                if tracer is not None and tracer.on:
                    tracer.record("io.codes.split", t0, clock())
                if chunk is None:
                    break
                # Stop on a whole round of units so every worker is busy
                # until the end (one unit per worker per round).
                n_timed = len(fed) - len(warm)
                if (clock() - marks["t_start"] >= ctx.seconds
                        and n_timed % DECODE_WORKERS == 0):
                    return
                fed.append((clock(), chunk))
                yield chunk

    setup_s = None
    for i, (record, recon) in enumerate(service.decompress_stream(source())):
        now = clock()
        if i == len(warm) - 1:
            setup_s = now - start
        pulled, chunk = fed[i]
        units.append((pulled, now, record, recon, chunk))
        if tracer is not None and tracer.on:
            tracer.record("serve.service.unit", pulled, now,
                          uid=f"u{i}", n=record.n_wedges,
                          compute_s=record.compress_s, worker=record.worker)
    return setup_s, marks.get("t_start"), service.health().faults


def run_decode(ctx: Context, w: Workload) -> Outcome:
    from repro.io.codes import concat_compressed, save_compressed
    from repro.rate import aggregate_ratio

    spatial = inputs.spatial_for(ctx.scale)
    central = inputs.event("central", ctx.seed, 0, ctx.scale)
    rng = np.random.default_rng([ctx.seed, 2])
    picks = rng.choice(len(central), size=w.archive_wedges, replace=False)
    model = build(spatial)
    direct = direct_compressor(model)
    codes = [direct.compress_into(central[i][None]) for i in picks]
    codes = [dataclasses.replace(c, payload=bytes(c.payload)) for c in codes]
    del direct
    archive = concat_compressed(codes)
    archive_path = ctx.run_dir / "archive.npz"
    save_compressed(archive, archive_path, model_name="bcae_2d")
    notes = {"input_digest": inputs.digest(central[np.sort(picks)]),
             "archive_bytes": archive_path.stat().st_size}
    refs = References(ctx, model)
    expected = {inputs.digest(c.payload): refs.recon(c) for c in codes}
    refs.release()
    warm = codes[:DECODE_WORKERS]

    setups = []
    phases = {}
    sampler = PssSampler()
    faults = FaultCounters()
    for i in range(SETUPS):
        last = i == SETUPS - 1
        units: list = []
        if last:
            with sampler:
                setup_s, t_start, stream_faults = _decode_stream(
                    ctx, w, warm, archive_path, units, timed=True,
                    sampler=sampler)
            phases["untraced"] = {"units": units, "t_start": t_start}
        else:
            setup_s, _t, stream_faults = _decode_stream(
                ctx, w, warm, archive_path, units, timed=False)
        setups.append(setup_s)
        faults.merge(stream_faults)
    if ctx.tracer is not None:
        ctx.tracer.enable()
        units = []
        _s, t_start, stream_faults = _decode_stream(
            ctx, w, warm, archive_path, units, timed=True)
        ctx.tracer.enable(False)
        faults.merge(stream_faults)
        phases["traced"] = {"units": units, "t_start": t_start}

    # Every reconstruction must be bit-equal to a direct decompress_into
    # of the payload the unit carried.
    ok = []
    for _pulled, _emitted, _record, recon, chunk in phases["untraced"]["units"]:
        ref = expected.get(inputs.digest(chunk.payload))
        ok.append(ref is not None and ref.shape == recon.shape
                  and np.array_equal(ref.view(np.uint32),
                                     recon.view(np.uint32)))
    n_failed = ok.count(False)
    e2e = layers.decode_end_to_end(phases["untraced"], ok, len(warm))
    e2e.update(setup_s=float(np.median(setups)),
               compression_ratio=aggregate_ratio([archive], spatial),
               peak_pss_mb=sampler.peak_mb)
    notes.update(setups_s=setups, faults=faults.to_dict())
    per_layer = {}
    if ctx.tracer is not None:
        per_layer = layers.decode_per_layer(ctx, phases, spatial, model,
                                            len(warm), DECODE_WORKERS, notes)
    return Outcome(attempted=len(ok), failed=n_failed,
                   correct=n_failed == 0 and not any(faults.to_dict().values()),
                   end_to_end=e2e, per_layer=per_layer, notes=notes)
