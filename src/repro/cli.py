"""``repro-tpc`` command line.

Subcommands mirror the reproduction workflow::

    repro-tpc generate  --events 4 --scale small --out data/wedges.npz
    repro-tpc train     --model bcae_2d --data data/wedges.npz --epochs 5
    repro-tpc evaluate  --model bcae_2d --checkpoint ckpt.npz --data data/wedges.npz
    repro-tpc throughput --model bcae_2d            # roofline + CPU timing
    repro-tpc compare   --data data/wedges.npz      # learning-free baselines
    repro-tpc serve     --wedges 64 --batch 8 --archive codes.npz
    repro-tpc compress  --wedges 64 --rate-policy occupancy --archive codes.npz
    repro-tpc decompress --archive codes.npz --out recon.npz --verify

Every command runs offline on CPU; ``--scale paper`` switches to the full
(16, 192, 249) wedge geometry.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

_SCALES = {
    "paper": "PAPER_GEOMETRY",
    "small": "SMALL_GEOMETRY",
    "tiny": "TINY_GEOMETRY",
}


def _geometry(scale: str):
    from . import tpc

    return getattr(tpc, _SCALES[scale])


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-tpc`` argument parser (all subcommands)."""

    parser = argparse.ArgumentParser(
        prog="repro-tpc",
        description="BCAE TPC-compression reproduction (SC-W 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic wedge dataset")
    g.add_argument("--events", type=int, default=4)
    g.add_argument("--scale", choices=_SCALES, default="small")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="data/wedges.npz")

    t = sub.add_parser("train", help="train a BCAE variant")
    t.add_argument("--model", default="bcae_2d")
    t.add_argument("--data", default=None, help="npz from `generate` (default: fresh tiny dataset)")
    t.add_argument("--epochs", type=int, default=5)
    t.add_argument("--batch-size", type=int, default=4)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--checkpoint", default="ckpt.npz")
    t.add_argument("--m", type=int, default=4, help="BCAE-2D encoder blocks")
    t.add_argument("--n", type=int, default=8, help="BCAE-2D decoder blocks")
    t.add_argument("--d", type=int, default=None,
                   help="down/upsampling steps (default: min(m, n, 3))")

    e = sub.add_parser("evaluate", help="evaluate a checkpoint")
    e.add_argument("--model", default="bcae_2d")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--half", action="store_true")
    e.add_argument("--m", type=int, default=4)
    e.add_argument("--n", type=int, default=8)
    e.add_argument("--d", type=int, default=None)

    p = sub.add_parser("throughput", help="roofline model + CPU timing")
    p.add_argument("--model", default="bcae_2d")
    p.add_argument("--batches", default="1,16,64")
    p.add_argument("--measure", action="store_true", help="also time this CPU implementation")

    c = sub.add_parser("compare", help="compare learning-free baselines")
    c.add_argument("--data", default=None)
    c.add_argument("--wedges", type=int, default=2)

    s = sub.add_parser("search", help="BCAE-2D(m, n, d) architecture search (§3.5 grid)")
    s.add_argument("--ms", default="3,4,5,6,7")
    s.add_argument("--ns", default="3,5,7,9,11")
    s.add_argument("--batch", type=int, default=64)

    q = sub.add_parser("daq", help="streaming-DAQ sizing (77 kHz x 24 wedges)")
    q.add_argument("--rate", type=float, default=6900.0,
                   help="per-GPU throughput [wedges/s] (Table 1 values)")
    q.add_argument("--headroom", type=float, default=1.2)
    q.add_argument("--frames", type=int, default=3000)

    v = sub.add_parser(
        "serve", help="run the micro-batching compression service",
        epilog="--gateway-port/--shards runs the multi-producer sharded "
               "gateway front door instead of the single in-process "
               "stream.",
    )
    v.add_argument("--model", default="bcae_2d")
    v.add_argument("--scale", choices=_SCALES, default="tiny")
    v.add_argument("--wedges", type=int, default=64)
    v.add_argument("--batch", type=int, default=8, help="micro-batch size cap")
    v.add_argument("--budget-ms", type=float, default=0.0,
                   help="accumulation budget (0 = never wait); stream-time "
                        "for the sync service, wall-clock under --async")
    v.add_argument("--workers", type=int, default=0,
                   help="worker pool size (0 = inline, best on one core)")
    v.add_argument("--backend", choices=("thread", "process"), default="thread")
    v.add_argument("--shards", type=int, default=1,
                   help="number of ModelPoolService shards behind the "
                        "gateway (>1 implies gateway mode)")
    v.add_argument("--gateway-port", type=int, default=None,
                   help="run the multi-producer socket gateway on this "
                        "TCP port (0 = ephemeral) and feed it over "
                        "loopback from --producers concurrent clients")
    v.add_argument("--producers", type=int, default=4,
                   help="concurrent loopback producers in gateway mode")
    v.add_argument("--async", dest="use_async", action="store_true",
                   help="run the asyncio ingestion gateway (wall-clock "
                        "latency budget, paced arrival replay)")
    v.add_argument("--full", action="store_true", help="fp32 instead of fp16 inference")
    v.add_argument("--panel-threads", type=int, default=None,
                   help="intra-plan panel executor width (default: the "
                        "REPRO_PANEL_THREADS env knob; bytes identical at "
                        "any value)")
    v.add_argument("--unit-timeout-s", type=float, default=None,
                   help="per-unit completion deadline; a hung worker is "
                        "killed, the pool rebuilt, and the unit retried "
                        "(default: no deadline)")
    v.add_argument("--max-retries", type=int, default=0,
                   help="resubmissions per unit after a crash or timeout "
                        "before its error surfaces (default: fail fast)")
    v.add_argument("--health-port", type=int, default=None,
                   help="serve GET /health JSON on this localhost port for "
                        "the stream's lifetime (0 = ephemeral port)")
    v.add_argument("--baseline", action="store_true",
                   help="also time serial single-wedge compress + verify parity")
    v.add_argument("--rate-policy", choices=("occupancy",), default=None,
                   help="adaptive per-wedge codec selection: route sparse "
                        "wedges to the classical coordinate-list codec and "
                        "dense ones to the BCAE, recording a RateDecision "
                        "per wedge (default: fixed-rate BCAE only)")
    v.add_argument("--rate-budget-mbps", type=float, default=None,
                   help="stream bandwidth budget [Mbps] resolved to a "
                        "stateless per-wedge byte allowance (requires "
                        "--rate-policy)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--m", type=int, default=4)
    v.add_argument("--n", type=int, default=8)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--archive", default=None,
                   help="save the served payloads as one io.codes npz archive")

    o = sub.add_parser(
        "compress",
        help="one-shot compression of wedges to an io.codes archive",
        epilog="the batch-mode twin of `serve --archive`: no worker pools "
               "or gateways, just the compressor (optionally the adaptive "
               "rate tier) over a dataset or synthetic wedges.",
    )
    o.add_argument("--data", default=None,
                   help="npz from `generate` (default: synthetic wedges)")
    o.add_argument("--wedges", type=int, default=64,
                   help="synthetic wedge count when --data is not given")
    o.add_argument("--scale", choices=_SCALES, default="tiny")
    o.add_argument("--model", default="bcae_2d")
    o.add_argument("--batch", type=int, default=8, help="compression batch size")
    o.add_argument("--full", action="store_true",
                   help="fp32 instead of fp16 inference")
    o.add_argument("--rate-policy", choices=("occupancy",), default=None,
                   help="adaptive per-wedge codec selection (see "
                        "`serve --rate-policy`)")
    o.add_argument("--rate-budget-mbps", type=float, default=None,
                   help="stream bandwidth budget [Mbps] (requires "
                        "--rate-policy)")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--m", type=int, default=4)
    o.add_argument("--n", type=int, default=8)
    o.add_argument("--d", type=int, default=None)
    o.add_argument("--archive", required=True,
                   help="destination io.codes npz archive")

    x = sub.add_parser(
        "decompress",
        help="decompress an io.codes archive (analysis side)",
    )
    x.add_argument("--archive", required=True, help="npz from `serve --archive`")
    x.add_argument("--out", default=None, help="write reconstructions to npz")
    x.add_argument("--model", default="bcae_2d")
    x.add_argument("--batch", type=int, default=8, help="decode micro-batch size")
    x.add_argument("--workers", type=int, default=0,
                   help="worker pool size (0 = inline)")
    x.add_argument("--backend", choices=("thread", "process"), default="thread")
    x.add_argument("--full", action="store_true", help="fp32 instead of fp16 inference")
    x.add_argument("--panel-threads", type=int, default=None,
                   help="intra-plan panel executor width (default: the "
                        "REPRO_PANEL_THREADS env knob)")
    x.add_argument("--adc", action="store_true",
                   help="also invert the log transform back to integer ADC")
    x.add_argument("--verify", action="store_true",
                   help="check parity against the module-graph decompress")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--m", type=int, default=4)
    x.add_argument("--n", type=int, default=8)
    x.add_argument("--d", type=int, default=None)

    z = sub.add_parser(
        "analyze",
        help="static analysis: plan verifier + hot-path/concurrency lints",
        epilog="runs the plan verifier over all four Table-1 model plans "
               "plus the hot-path allocation, async-blocking, unbounded-"
               "wait and public-API lints; with --baseline only NEW "
               "findings (vs tools/analysis_baseline.json) fail.",
    )
    z.add_argument("--json", action="store_true",
                   help="machine-readable JSON report instead of text")
    z.add_argument("--passes", default="plan,hotpath,concurrency,api",
                   help="comma-separated pass subset to run")
    z.add_argument("--baseline", default=None,
                   help="baseline JSON path; gate only new findings")
    z.add_argument("--extra-source", action="append", default=[],
                   help="additional source file for the lint passes "
                        "(repeatable; used by the CI injected-finding "
                        "fixture)")
    z.add_argument("--verbose", action="store_true",
                   help="include info-severity diagnostics in text output")
    z.add_argument("--full", action="store_true",
                   help="verify the fp32 plans instead of fp16")
    z.add_argument("--stats", action="store_true",
                   help="print each verified plan's plan_stats() summary "
                        "(stage kinds, GEMM formulations, panel/thread "
                        "counts, fold decisions)")

    return parser


def _load_or_generate(path: str | None, scale: str = "tiny", events: int = 2, seed: int = 0):
    from .tpc import WedgeDataset, generate_wedge_dataset

    if path:
        full = WedgeDataset.load(path)
        n = len(full)
        split = max(1, int(n * 0.8))
        return (
            WedgeDataset(full.wedges[:split], full.geometry),
            WedgeDataset(full.wedges[split:], full.geometry),
        )
    return generate_wedge_dataset(events, geometry=_geometry(scale), seed=seed)


def _model_kwargs(args) -> dict:
    """BCAE-2D structural arguments from CLI flags (d defaults to min(m,n,3))."""

    if args.model != "bcae_2d":
        return {}
    d = args.d if getattr(args, "d", None) is not None else min(args.m, args.n, 3)
    return {"m": args.m, "n": args.n, "d": d}


def _cmd_generate(args) -> int:
    """``generate``: write a synthetic wedge dataset to npz."""

    from .tpc import HijingLikeGenerator, WedgeDataset

    geometry = _geometry(args.scale)
    if args.scale == "paper":
        generator = HijingLikeGenerator()
    else:
        generator = HijingLikeGenerator.calibrated(geometry, seed=args.seed)
    seeds = np.random.SeedSequence(args.seed).spawn(args.events)
    wedges = np.concatenate(
        [generator.wedges(np.random.default_rng(s)) for s in seeds], axis=0
    )
    dataset = WedgeDataset(wedges, geometry)
    out = dataset.save(args.out)
    print(f"wrote {len(dataset)} wedges {dataset.wedges.shape} to {out}")
    print(f"occupancy: {dataset.occupancy():.4f} (paper: ~0.108)")
    return 0


def _cmd_train(args) -> int:
    """``train``: run the paper training loop and save a checkpoint."""

    from .core import build_model
    from .nn import save_checkpoint
    from .train import TrainConfig, Trainer

    train, test = _load_or_generate(args.data, seed=args.seed)
    kwargs = _model_kwargs(args)
    model = build_model(
        args.model, wedge_spatial=train.geometry.wedge_shape, seed=args.seed, **kwargs
    )
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    trainer = Trainer(model, cfg)
    trainer.fit(train, verbose=True)
    metrics = trainer.evaluate(test)
    print(f"test: {metrics}")
    save_checkpoint(model, trainer.optimizer, args.epochs, args.checkpoint,
                    extra={"model": args.model})
    print(f"checkpoint -> {args.checkpoint}")
    return 0


def _cmd_evaluate(args) -> int:
    """``evaluate``: Table-1 metrics of a checkpoint on a dataset."""

    from .core import build_model
    from .nn import load_checkpoint
    from .train import evaluate_model

    _train, test = _load_or_generate(args.data)
    kwargs = _model_kwargs(args)
    model = build_model(args.model, wedge_spatial=test.geometry.wedge_shape, **kwargs)
    meta = load_checkpoint(model, args.checkpoint)
    metrics = evaluate_model(model, test, half=args.half)
    mode = "half" if args.half else "full"
    print(f"checkpoint meta: {meta}")
    print(f"[{mode}] {metrics}")
    return 0


def _cmd_throughput(args) -> int:
    """``throughput``: roofline curves (and optional CPU timing)."""

    from .core import build_model
    from .perf import (
        estimate_throughput,
        measure_encoder_throughput,
        speedup_half,
        trace_encoder,
    )

    batches = [int(b) for b in args.batches.split(",")]
    model = build_model(args.model, wedge_spatial=(16, 192, 249), seed=0)
    trace = trace_encoder(model, (16, 192, 256), name=args.model)
    print(trace.summary())
    print(f"{'batch':>6s} {'half [w/s]':>12s} {'full [w/s]':>12s}")
    for b in batches:
        h = estimate_throughput(trace, b, half=True)
        f = estimate_throughput(trace, b, half=False)
        print(f"{b:6d} {h:12.0f} {f:12.0f}")
    print(f"modeled fp16 speedup @64: {speedup_half(trace, 64):.2f}x")
    if args.measure:
        r = measure_encoder_throughput(model, (16, 192, 256), batch_size=1, repeats=2)
        print(f"measured on this CPU: {r.wedges_per_second:.2f} wedges/s (batch 1)")
    return 0


def _cmd_compare(args) -> int:
    """``compare``: learning-free codec sweep on a wedge dataset."""

    from .baselines import MGARDLikeCodec, SZLikeCodec, ZFPLikeCodec, evaluate_codec
    from .tpc import log_transform

    _train, test = _load_or_generate(args.data)
    wedges = log_transform(test.wedges[: args.wedges])
    print(f"evaluating on {wedges.shape[0]} wedges {wedges.shape[1:]}, "
          f"occupancy {(wedges > 0).mean():.4f}")
    for codec in (
        SZLikeCodec(0.25),
        SZLikeCodec(1.0),
        ZFPLikeCodec(1),
        ZFPLikeCodec(2),
        MGARDLikeCodec(0.25),
        MGARDLikeCodec(1.0),
    ):
        print(evaluate_codec(codec, wedges).row())
    print("(BCAE reference: ratio 31.125 at MAE 0.112–0.152 after training — Table 1)")
    return 0


def _cmd_search(args) -> int:
    """``search``: structural BCAE-2D(m, n, d) architecture ranking."""

    from .core import enumerate_candidates, pareto_front, search, throughput_frontier

    ms = tuple(int(v) for v in args.ms.split(","))
    ns = tuple(int(v) for v in args.ns.split(","))
    cands = enumerate_candidates(ms=ms, ns=ns, ds=(3,))
    throughput_frontier(cands, batch=args.batch)
    ranked = search(cands)
    print(f"{len(cands)} candidates (d=3, ratio 31.125), ranked by modeled throughput:")
    for c in ranked[:10]:
        print("  " + c.row())
    print("pareto frontier (encoder size vs throughput):")
    for c in pareto_front(cands):
        print("  " + c.row())
    print("note: accuracy is the missing axis — pair with training (Figure 7)")
    return 0


def _cmd_daq(args) -> int:
    """``daq``: GPU-farm sizing for the sPHENIX stream."""

    from .daq import (
        SPHENIX_FRAME_RATE_HZ,
        WEDGES_PER_FRAME,
        DAQConfig,
        StreamingCompressionSim,
        gpus_required,
    )

    demand = SPHENIX_FRAME_RATE_HZ * WEDGES_PER_FRAME
    n = gpus_required(args.rate, headroom=args.headroom)
    print(f"offered load: {demand / 1e6:.3f} M wedges/s (77 kHz x 24)")
    print(f"per-GPU rate: {args.rate:.0f} wedges/s -> {n} GPUs "
          f"({args.headroom:.0%} headroom)")
    cfg = DAQConfig(
        frame_rate_hz=SPHENIX_FRAME_RATE_HZ / 1000.0,
        server_rate_wps=args.rate,
        n_servers=max(1, n // 1000 + 1),
    )
    stats = StreamingCompressionSim(cfg, seed=0).run(args.frames)
    print(f"1/1000-scale simulation: {stats.row()}")
    return 0


def _cmd_serve(args) -> int:
    """``serve``: micro-batched streaming compression on synthetic wedges."""

    import asyncio
    import time

    from .core import BCAECompressor, build_model
    from .serve import ServiceConfig, StreamingCompressionService, async_replay_stream
    from .tpc import generate_wedge_stream

    geometry = _geometry(args.scale)
    wedges = generate_wedge_stream(args.wedges, geometry=geometry, seed=args.seed)

    kwargs = _model_kwargs(args)
    model = build_model(args.model, wedge_spatial=geometry.wedge_shape,
                        seed=args.seed, **kwargs)
    # Inference mode: BatchNorm models (the original BCAE) must use their
    # running statistics, or payloads would depend on batch composition.
    model.eval()
    config = ServiceConfig(
        max_batch=args.batch,
        max_delay_s=args.budget_ms / 1e3,
        workers=args.workers,
        backend=args.backend,
        half=not args.full,
        panel_threads=args.panel_threads,
        unit_timeout_s=args.unit_timeout_s,
        max_retries=args.max_retries,
        rate_policy=args.rate_policy,
        rate_budget_mbps=args.rate_budget_mbps,
    )
    if args.gateway_port is not None or args.shards > 1:
        return _run_gateway(args, model, config, wedges)
    service = StreamingCompressionService(model, config)
    health_server = None
    if args.health_port is not None:
        from .serve import start_health_server

        health_server = start_health_server(service, port=args.health_port)
        print(f"health endpoint: http://127.0.0.1:"
              f"{health_server.server_address[1]}/health")
    if config.workers == 0 or config.backend == "thread":
        # Warm the pooled parent-side compressors.  Pointless for the
        # process backend: its workers live only as long as one stream's
        # pool, so a warm-up run would just fork and discard one.
        service.run(wedges[: min(args.batch, len(wedges))])
    if args.use_async:
        # The asyncio gateway: arrivals replayed on the wall clock from the
        # DAQ process, batches closed by monotonic-deadline budget.
        from .daq import DAQConfig, StreamingCompressionSim

        sim = StreamingCompressionSim(
            DAQConfig(frame_rate_hz=2000.0, wedges_per_frame=4), seed=args.seed
        )
        source = async_replay_stream(sim.wedge_stream(wedges))
        payloads, stats = asyncio.run(service.run_async(source))
    else:
        payloads, stats = service.run(wedges)
    if health_server is not None:
        health_server.shutdown()
    gateway = "async gateway" if args.use_async else "sync service"
    print(f"served {wedges.shape[0]} wedges {wedges.shape[1:]} "
          f"[{args.model}, {'fp32' if args.full else 'fp16'}, {gateway}]")
    print(stats.row())
    if args.use_async:
        print(f"batch latency (wait+compute): {stats.batch_latency().row()}")
    if stats.n_batches:
        tr = stats.to_throughput_result()
        print(f"best batch: {tr.seconds_per_batch * 1e3:.2f} ms "
              f"(mean {tr.seconds_per_batch_mean * 1e3:.2f} ms)")
    if args.rate_policy:
        _print_rate_summary(payloads, wedges.shape[1:])

    if args.baseline:
        if args.rate_policy:
            from .rate import AdaptiveCompressor, make_policy

            compressor = AdaptiveCompressor(
                BCAECompressor(model, half=not args.full),
                make_policy(args.rate_policy,
                            budget_mbps=args.rate_budget_mbps),
            )
        else:
            compressor = BCAECompressor(model, half=not args.full)
        t0 = time.perf_counter()
        serial = [compressor.compress(w) for w in wedges]
        dt = time.perf_counter() - t0
        serial_wps = wedges.shape[0] / dt
        print(f"serial single-wedge compress: {serial_wps:8.1f} w/s "
              f"-> service speedup {stats.wedges_per_second / serial_wps:.2f}x")
        if args.rate_policy:
            # Mixed payloads have no uniform code view; selection is a
            # pure per-wedge function, so records, codec ids and decision
            # ledgers must match the serial path byte-for-byte.
            parity = (
                b"".join(bytes(p.payload) for p in payloads)
                == b"".join(bytes(p.payload) for p in serial)
                and sum((p.codec_ids for p in payloads), ())
                == sum((p.codec_ids for p in serial), ())
                and sum((p.decisions for p in payloads), ())
                == sum((p.decisions for p in serial), ())
            )
            print(f"adaptive payload/ledger parity with serial path: "
                  f"{'OK' if parity else 'MISMATCH'}")
            if not parity:
                return 1
            if args.archive:
                from .io import concat_compressed, save_compressed

                path = save_compressed(concat_compressed(payloads),
                                       args.archive, model_name=args.model)
                print(f"archived {sum(p.n_wedges for p in payloads)} "
                      f"wedges -> {path}")
            return 0
        got = np.concatenate([np.asarray(p.codes_view()) for p in payloads])
        ref = np.concatenate([np.asarray(p.codes_view()) for p in serial])
        parity = got.tobytes() == ref.tobytes()
        print(f"payload parity with serial path: "
              f"{'OK' if parity else 'MISMATCH'}")
        if not parity:
            return 1

    if args.archive:
        from .io import concat_compressed, save_compressed

        path = save_compressed(concat_compressed(payloads), args.archive,
                               model_name=args.model)
        print(f"archived {sum(p.n_wedges for p in payloads)} wedges -> {path}")
    return 0


def _print_rate_summary(payloads, wedge_spatial) -> None:
    """Per-codec routing counts + aggregate ratio of adaptive payloads."""

    from collections import Counter

    from .rate import aggregate_ratio, codec_name

    counts: Counter = Counter()
    for p in payloads:
        counts.update(p.codec_ids or ())
    routed = ", ".join(
        f"{codec_name(cid)}:{n}" for cid, n in sorted(counts.items())
    )
    ratio = aggregate_ratio(payloads, wedge_spatial)
    print(f"rate tier: routed [{routed}] -> aggregate ratio {ratio:.2f}")


def _cmd_compress(args) -> int:
    """``compress``: one-shot (optionally adaptive) archive production."""

    from .core import BCAECompressor, build_model
    from .io import concat_compressed, save_compressed
    from .tpc import generate_wedge_stream

    if args.data:
        from .tpc import WedgeDataset

        dataset = WedgeDataset.load(args.data)
        wedges = dataset.wedges
        spatial = dataset.geometry.wedge_shape
    else:
        geometry = _geometry(args.scale)
        wedges = generate_wedge_stream(args.wedges, geometry=geometry,
                                       seed=args.seed)
        spatial = geometry.wedge_shape
    kwargs = _model_kwargs(args)
    model = build_model(args.model, wedge_spatial=spatial, seed=args.seed,
                        **kwargs)
    model.eval()
    compressor = BCAECompressor(model, half=not args.full)
    if args.rate_policy:
        from .rate import AdaptiveCompressor, make_policy

        compressor = AdaptiveCompressor(
            compressor,
            make_policy(args.rate_policy, budget_mbps=args.rate_budget_mbps),
        )
    payloads = [
        compressor.compress(wedges[start:start + args.batch])
        for start in range(0, wedges.shape[0], max(1, args.batch))
    ]
    combined = concat_compressed(payloads)
    path = save_compressed(combined, args.archive, model_name=args.model)
    print(f"compressed {combined.n_wedges} wedges {wedges.shape[1:]} "
          f"[{args.model}, {'fp32' if args.full else 'fp16'}] -> {path}")
    if args.rate_policy:
        _print_rate_summary(payloads, wedges.shape[1:])
    else:
        ratio = compressor.compression_ratio(wedges.shape[1:])
        print(f"fixed-rate BCAE: compression ratio {ratio:.3f}")
    return 0


def _run_gateway(args, model, config, wedges) -> int:
    """Gateway mode of ``serve``: N shards behind one socket front door,
    fed over loopback by ``--producers`` concurrent wedge-frame clients."""

    import asyncio

    from .serve import (
        GatewayConfig,
        ServingGateway,
        StreamingCompressionService,
        read_wedge_frame,
        write_wedge_frame,
    )

    shards = max(1, args.shards)
    services = [StreamingCompressionService(model, config) for _ in range(shards)]
    gateway = ServingGateway(
        services, GatewayConfig(port=args.gateway_port or 0)
    )
    producers = max(1, args.producers)
    splits = np.array_split(wedges, producers)

    async def produce(port: int, ws) -> int:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for w in ws:
            write_wedge_frame(writer, w)
            await writer.drain()
        writer.write_eof()
        n = 0
        while True:
            frame = await read_wedge_frame(reader)
            if frame is None:
                break
            n += 1
        writer.close()
        return n

    async def run():
        import time as _time

        await gateway.start()
        port = gateway.port
        print(f"gateway listening on 127.0.0.1:{port} "
              f"({shards} shard(s), {producers} producer(s))")
        t0 = _time.perf_counter()
        answered = await asyncio.gather(
            *[produce(port, ws) for ws in splits if len(ws)]
        )
        elapsed = _time.perf_counter() - t0
        await gateway.drain()
        await gateway.aclose()
        return sum(answered), elapsed

    answered, elapsed = asyncio.run(run())
    stats = gateway.stats()
    health = gateway.health()
    print(f"served {answered}/{wedges.shape[0]} wedges in {elapsed:.2f} s "
          f"({answered / max(elapsed, 1e-9):.1f} w/s aggregate)")
    print(f"gateway: {stats.row()}")
    for i, (shard_stats, shard_health) in enumerate(
            zip(stats.per_shard, health.shards)):
        print(f"  shard {i}: state={shard_health.state} "
              f"level={shard_stats.level or 'inline'} "
              f"units={shard_stats.n_batches} wedges={shard_stats.n_wedges}")
    return 0 if answered == wedges.shape[0] else 1


def _cmd_decompress(args) -> int:
    """``decompress``: serve an io.codes archive back to reconstructions."""

    from .core import build_model
    from .io import load_compressed
    from .serve import DecompressionService, ServiceConfig
    from .tpc import inverse_log_transform

    from .core import BCAECompressor

    compressed, model_name = load_compressed(args.archive)
    name = model_name or args.model
    kwargs = _model_kwargs(args) if name == "bcae_2d" else {}
    # Recover the wedge geometry the archive describes (weights are
    # synthetic — the producer and consumer must agree on
    # --model/--m/--n/--d/--seed; the code-shape check below catches
    # family/geometry mismatches loudly).
    if name == "bcae_2d":
        # 2D: the decoder upsamples the code spatial shape by 2^d, the
        # horizontal unpads to the recorded original size.
        d = kwargs.get("d", 3)
        azim = compressed.code_shape[1]
        candidates = [(16, azim * 2 ** d, compressed.original_horizontal)]
    elif len(compressed.code_shape) == 4:
        # 3D: codes are (C, r, a, h) with the radial axis untouched and
        # four ×2 azimuthal stages — a·16 for the padded variants, the
        # legacy-tail inversions (output_padding 0/1) for the original.
        _c, r, a, _h = compressed.code_shape
        candidates = [
            (r, az, compressed.original_horizontal)
            for az in (a * 16, (2 * a - 3) * 8, (2 * a - 2) * 8)
            if az > 0
        ]
    else:
        print(
            f"archive code shape {tuple(compressed.code_shape)} is not a 3D "
            f"code; pass the producer's --model/--m/--n/--d flags"
        )
        return 1
    model = None
    for spatial in candidates:
        try:
            candidate = build_model(name, wedge_spatial=spatial, seed=args.seed,
                                    **kwargs)
            expected = BCAECompressor(candidate).code_shape_for(spatial)
        except ValueError:
            continue
        if tuple(expected) == tuple(compressed.code_shape):
            model = candidate
            # Inference mode: BatchNorm models (the original BCAE) must
            # decode from running statistics, batch-composition-free.
            model.eval()
            break
    if model is None:
        print(
            f"archive code shape {tuple(compressed.code_shape)} does not match "
            f"any {name} geometry (tried wedge shapes "
            f"{', '.join(str(c) for c in candidates)}); pass the producer's "
            "--model/--m/--n/--d flags"
        )
        return 1

    config = ServiceConfig(
        max_batch=args.batch,
        workers=args.workers,
        backend=args.backend,
        half=not args.full,
        panel_threads=args.panel_threads,
        # Mixed archives need the adaptive tier on the decode side too —
        # the policy itself is irrelevant for decoding, but the wrapper
        # routes each record to its codec.
        rate_policy="occupancy" if compressed.mixed else None,
    )
    service = DecompressionService(model, config)
    recons, stats = service.run(compressed)
    recon = np.concatenate(recons) if recons else np.empty((0,) + spatial, np.float32)
    print(f"decompressed {stats.n_wedges} wedges {recon.shape[1:]} "
          f"[{name}, {'fp32' if args.full else 'fp16'}] from {args.archive}")
    print(stats.row())

    if args.verify:
        reference_compressor = BCAECompressor(model, half=not args.full)
        if compressed.mixed:
            from .rate import AdaptiveCompressor

            reference = AdaptiveCompressor(
                reference_compressor
            ).decompress(compressed)
        else:
            reference = reference_compressor.decompress(compressed)
        parity = np.array_equal(reference, recon)
        print(f"parity with module-graph decompress: "
              f"{'OK' if parity else 'MISMATCH'}")
        if not parity:
            return 1

    if args.out:
        arrays = {"recon_log": recon}
        if args.adc:
            arrays["recon_adc"] = inverse_log_transform(recon)
        np.savez_compressed(args.out, **arrays)
        print(f"reconstructions -> {args.out}")
    return 0


def _print_plan_stats(rec: dict) -> None:
    """Pretty-print one verification record's ``plan_stats()`` summary."""

    stats = rec.get("stats")
    if not stats:
        return
    kinds = " ".join(f"{k}:{v}" for k, v in
                     sorted(stats["stage_kinds"].items()))
    folds = stats["bn_folds"]
    print(f"  stats  half={stats['half']} panel_threads={stats['panel_threads']}")
    print(f"  stats  stages  {kinds}")
    print(f"  stats  bn-folds  {folds['folded']} folded / "
          f"{folds['kept']} kept")
    gemms = stats.get("gemms", {})
    if gemms:
        for key, g in gemms.items():
            print(f"  stats  gemm {key}: {g['formulation']} "
                  f"m={g['m']} K={g['K']} o={g['o']} "
                  f"panels={g['panels']} threads={g['threads']}")
    else:
        print("  stats  gemm  (static verification only — no execution)")


def _cmd_analyze(args) -> int:
    """Run the static analyzer; exit 1 on (new) gating findings."""

    from .analysis import load_baseline, run_analysis

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    report, records = run_analysis(passes=passes,
                                   extra_sources=args.extra_source,
                                   half=not args.full)
    baseline = None if args.baseline is None else load_baseline(args.baseline)
    if args.json:
        print(report.to_json(baseline))
    else:
        if "plan" in passes:
            for rec in records:
                out = rec["out"]
                sites = rec["clip_sites"]
                elided = sum(1 for s in sites if s["clip_elided"])
                status = "ok" if rec["ok"] else "FAIL"
                print(f"plan {rec['label']:24s} {status}  out "
                      f"{out['channels']}x{out['spatial']}  "
                      f"{elided}/{len(sites)} clips elided")
                if args.stats:
                    _print_plan_stats(rec)
        print(report.format_text(baseline, verbose=args.verbose))
    failing = (report.new_findings(baseline) if baseline is not None
               else report.gating())
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-tpc`` console script."""

    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "throughput": _cmd_throughput,
        "compare": _cmd_compare,
        "search": _cmd_search,
        "daq": _cmd_daq,
        "serve": _cmd_serve,
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "analyze": _cmd_analyze,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
