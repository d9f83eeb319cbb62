"""Serving bench — the micro-batched service, fault recovery and gateways.

The paper's deployment argument (§1, §3.2) is throughput under a wall-clock
budget: the encoder must keep up with streaming readout.  This bench
measures four slices of the serving system:

1. **service vs serial** — :class:`repro.serve.StreamingCompressionService`
   (micro-batching + persistent fast-path workspaces + optional pool)
   against the naive loop a non-serving user would write, one
   ``BCAECompressor.compress`` call per wedge;
2. **fault recovery** — the supervised process backend, measured through
   :class:`repro.serve.HandoffProbeService` (the pool engine with the
   model call replaced by a checksum), with every N-th unit SIGKILLing
   its own worker (``fail_attempts=1``, so each retry succeeds) against
   the same stream fault-free: the gap is pure recovery overhead — pool
   rebuild, serial re-drive of the in-flight window, and the charged
   retry;
3. **async gateway** — the asyncio ingestion path on a wall-clock-paced
   replay: byte parity with the serial path plus batch-latency percentiles
   under the monotonic deadline budget;
4. **sharded gateway** — N socket producers against the multi-shard
   :class:`repro.serve.ServingGateway`: aggregate throughput at 1 vs 4
   shards, every response frame byte-identical to the inline per-wedge
   codes.

Acceptance gates:

* service ≥ 2× serial wedges/s on the deep Figure-6E/7 encoder, payloads
  byte-identical (as before);
* fault recovery: all checksums correct and the degraded run ≥ 0.5×
  fault-free throughput;
* async gateway payloads byte-identical to the serial path;
* sharded gateway: response frames byte-identical under every shard
  count, and (full mode, multi-core) ≥ 1.5× aggregate throughput going
  1 → 4 shards with 8 producers.

Every run (including ``--smoke``) writes machine-readable sections to
``BENCH_serving.json`` so future PRs can diff perf trajectories.  Runs
under pytest (tier-2 bench suite) and as a script::

    python benchmarks/bench_serving.py [--smoke]

``--smoke`` shrinks streams and relaxes the speed gates (CI exercises the
wiring on busy shared runners; the 2×/1.5× claims are the bench's).
Older runs in ``BENCH_serving.json`` also carry ``process_handoff`` and
``process_end_to_end_paper_scale`` sections: a shared-memory slab
transport measured against pickling, since deleted (it did not win end to
end).
"""

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

_N_WEDGES = 48
_REPEATS = 3
_FAULT_UNITS = 24
#: Trajectory depth: runs kept in BENCH_serving.json before the oldest drop.
_MAX_RUNS = 20

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _stream(n=_N_WEDGES, seed=7):
    """A fixed synthetic sparse-wedge stream on the tiny geometry."""

    from repro.tpc import TINY_GEOMETRY, generate_wedge_stream

    return generate_wedge_stream(n, geometry=TINY_GEOMETRY, seed=seed)


def _best_of(fn, repeats=_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_interleaved(fns, repeats):
    """Interleaved best-of rounds: every contender samples the same machine
    states instead of one side monopolizing the warm (or noisy) phase."""

    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# section 1: micro-batched service vs serial single-wedge compression
# ----------------------------------------------------------------------

def measure_service(model_kwargs, wedges, service_configs, repeats=_REPEATS):
    from repro.core import BCAECompressor, build_model
    from repro.serve import StreamingCompressionService

    model = build_model("bcae_2d", wedge_spatial=wedges.shape[1:], seed=0, **model_kwargs)
    compressor = BCAECompressor(model)

    serial: list = []

    def run_serial():
        serial.clear()
        serial.extend(compressor.compress(w) for w in wedges)

    run_serial()  # warm
    serial_s = _best_of(run_serial, repeats)
    serial_wps = len(wedges) / serial_s
    serial_bytes = b"".join(c.payload for c in serial)

    rows = []
    for label, config in service_configs:
        service = StreamingCompressionService(model, config)
        service.run(wedges)  # warm workspaces
        payloads, _ = service.run(wedges)
        service_bytes = b"".join(bytes(p.payload) for p in payloads)
        identical = service_bytes == serial_bytes

        def run_service():
            service.run(wedges, keep_payloads=False)

        service_s = _best_of(run_service, repeats)
        rows.append({
            "label": label,
            "wedges_per_second": len(wedges) / service_s,
            "speedup_vs_serial": (len(wedges) / service_s) / serial_wps,
            "bit_identical": bool(identical),
        })
    return {"serial_wps": serial_wps, "rows": rows}


def service_section(wedges, repeats=_REPEATS):
    from repro.serve import ServiceConfig

    configs = [
        ("inline b16", ServiceConfig(max_batch=16, workers=0)),
        ("pool2  b16", ServiceConfig(max_batch=16, workers=2)),
    ]
    return {
        "section": "service_vs_serial",
        "n_wedges": len(wedges),
        "wedge_shape": list(wedges.shape[1:]),
        "deep": measure_service(dict(m=7, n=8, d=3), wedges, configs, repeats),
        "default": measure_service(dict(m=4, n=8, d=3), wedges, configs, repeats),
    }


# ----------------------------------------------------------------------
# section 2: fault recovery — SIGKILLed workers vs a fault-free run
# ----------------------------------------------------------------------

def fault_recovery_section(n_units=_FAULT_UNITS, unit_shape=(4, 16, 96, 128),
                           kill_every=6, repeats=_REPEATS):
    """Cost of surviving worker crashes: kill every ``kill_every``-th unit.

    The probe service runs on the process backend with ``max_retries=2``;
    the injected units SIGKILL their worker on the first attempt only
    (``fail_attempts=1``), so every stream completes with correct
    checksums — the measured gap between the fault-free and degraded runs
    is pure recovery overhead: pool rebuild + serial re-drive of the
    in-flight window + the retry.
    """

    from repro.serve import HandoffProbeService, ServiceConfig

    rng = np.random.default_rng(11)
    arrays = [
        rng.integers(0, 1024, size=unit_shape).astype(np.uint16)
        for _ in range(n_units)
    ]
    unit_mb = arrays[0].nbytes / (1 << 20)
    expected = [float(a.sum(dtype=np.float64)) for a in arrays]
    kill_seqs = list(range(kill_every - 1, n_units, kill_every))
    faults = {seq: "kill" for seq in kill_seqs}

    probe = HandoffProbeService(ServiceConfig(
        workers=1, backend="process", inflight=4,
        max_retries=2, backoff_base_s=0.0,
        degrade_after=len(kill_seqs) + 1,  # stay on the process ladder rung
    ))

    def healthy():
        return probe.run(arrays, keep_results=True)

    def degraded():
        items = HandoffProbeService.items(arrays, faults=faults,
                                          fail_attempts=1)
        return probe.run(items, keep_results=True)

    # Correctness under fire, once, before timing: every checksum right,
    # every crash charged to an injected unit.
    results, stats = degraded()
    assert results == expected, "degraded run checksum mismatch"
    assert stats.faults.crashes >= len(kill_seqs)
    assert stats.faults.failures == 0

    healthy_s, degraded_s = _best_of_interleaved([healthy, degraded], repeats)
    return {
        "section": "fault_recovery",
        "n_units": n_units,
        "unit_mb": unit_mb,
        "kill_every": kill_every,
        "n_kills": len(kill_seqs),
        "healthy": {"units_per_second": n_units / healthy_s,
                    "seconds": healthy_s},
        "degraded": {"units_per_second": n_units / degraded_s,
                     "seconds": degraded_s, "correct": True},
        "throughput_ratio_degraded_vs_healthy": healthy_s / degraded_s,
    }


# ----------------------------------------------------------------------
# section 3: async ingestion gateway on a wall-clock-paced replay
# ----------------------------------------------------------------------

def async_section(n_wedges=30, budget_s=2e-3):
    from repro.core import BCAECompressor, build_model
    from repro.daq import DAQConfig, StreamingCompressionSim
    from repro.serve import ServiceConfig, StreamingCompressionService, async_replay_stream

    wedges = _stream(n=n_wedges)
    model = build_model("bcae_2d", wedge_spatial=wedges.shape[1:], seed=0,
                        m=2, n=2, d=2)
    reference = b"".join(BCAECompressor(model).compress(w).payload
                         for w in wedges)
    sim = StreamingCompressionSim(
        DAQConfig(frame_rate_hz=1000.0, wedges_per_frame=3), seed=1
    )
    service = StreamingCompressionService(
        model, ServiceConfig(max_batch=16, max_delay_s=budget_s)
    )
    service.run(wedges[:16])  # warm
    payloads, stats = asyncio.run(
        service.run_async(async_replay_stream(sim.wedge_stream(wedges), speed=2.0))
    )
    from repro.perf import summarize_latencies

    latency = stats.batch_latency()
    return {
        "section": "async_gateway",
        "n_wedges": stats.n_wedges,
        "n_batches": stats.n_batches,
        "budget_s": budget_s,
        "bit_identical": b"".join(bytes(p.payload) for p in payloads) == reference,
        "wedges_per_second": stats.wedges_per_second,
        "wait_p99_s": summarize_latencies([r.wait_s for r in stats.records]).p99_s,
        "batch_latency_ms": {
            "mean": latency.mean_s * 1e3,
            "p50": latency.p50_s * 1e3,
            "p99": latency.p99_s * 1e3,
        },
    }


# ----------------------------------------------------------------------
# section 4: multi-producer sharded gateway — aggregate scaling
# ----------------------------------------------------------------------

def _run_gateway_once(model, wedges, producers, shards, reference):
    """One timed pass: N socket producers against an M-shard gateway.

    Returns aggregate wedges/s and whether every response frame was
    byte-identical to the inline per-wedge reference codes.
    """

    from repro.serve import (
        GatewayConfig,
        ServiceConfig,
        ServingGateway,
        StreamingCompressionService,
        read_wedge_frame,
        write_wedge_frame,
    )

    # Inline shards: each shard's work runs on its own pump thread, so
    # shard scaling maps onto cores through NumPy's GIL-releasing kernels
    # without paying process-pool forking inside the timed region.
    services = [
        StreamingCompressionService(
            model, ServiceConfig(max_batch=4, max_delay_s=1e-3)
        )
        for _ in range(shards)
    ]

    async def produce(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for w in wedges:
            write_wedge_frame(writer, w)
        await writer.drain()
        writer.write_eof()
        out = []
        while True:
            frame = await read_wedge_frame(reader)
            if frame is None:
                break
            out.append(frame.tobytes())
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return out

    async def run():
        gateway = ServingGateway(services, GatewayConfig())
        await gateway.start()
        t0 = time.perf_counter()
        outs = await asyncio.gather(
            *[produce(gateway.port) for _ in range(producers)]
        )
        dt = time.perf_counter() - t0
        await gateway.drain()
        await gateway.aclose()
        return outs, dt

    outs, dt = asyncio.run(run())
    ok = all(
        len(out) == len(wedges)
        and all(got == want for got, want in zip(out, reference))
        for out in outs
    )
    return producers * len(wedges) / dt, ok


def gateway_section(n_wedges=6, producers=8, shard_counts=(1, 4), repeats=1):
    """Aggregate throughput of the socket gateway at each shard count,
    with per-unit byte parity against the inline single-call path."""

    from repro.core import BCAECompressor, build_model

    wedges = _stream(n=n_wedges)
    model = build_model("bcae_2d", wedge_spatial=wedges.shape[1:], seed=0,
                        m=2, n=2, d=2)
    compressor = BCAECompressor(model)
    reference = [compressor.compress(w[None]).codes()[0].tobytes()
                 for w in wedges]
    rows = []
    for shards in shard_counts:
        best_wps, ok = 0.0, True
        for _ in range(repeats):
            wps, parity = _run_gateway_once(
                model, wedges, producers, shards, reference
            )
            best_wps = max(best_wps, wps)
            ok = ok and parity
        rows.append({"shards": shards, "wedges_per_second": best_wps,
                     "bit_identical": ok})
    lo = min(rows, key=lambda r: r["shards"])
    hi = max(rows, key=lambda r: r["shards"])
    return {
        "section": "gateway_sharding",
        "producers": producers,
        "wedges_per_producer": n_wedges,
        "rows": rows,
        "speedup_max_vs_min_shards": (
            hi["wedges_per_second"] / lo["wedges_per_second"]
        ),
    }


# ----------------------------------------------------------------------
# reporting / gates / entry points
# ----------------------------------------------------------------------

def write_bench_json(sections, smoke, path=_BENCH_JSON, label=None):
    """Append one run to the perf-trajectory record future PRs diff
    against (last :data:`_MAX_RUNS` runs kept under ``"runs"``; a
    pre-trajectory single-run file is absorbed as the first entry)."""

    run = {"smoke": bool(smoke), "sections": sections}
    if label:
        run["label"] = label
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        doc = None
    if isinstance(doc, dict) and isinstance(doc.get("runs"), list):
        runs = doc["runs"]
    elif isinstance(doc, dict) and "sections" in doc:
        runs = [{"smoke": doc.get("smoke", False),
                 "sections": doc["sections"]}]
    else:
        runs = []
    runs = (runs + [run])[-_MAX_RUNS:]
    path.write_text(json.dumps(
        {"benchmark": "bench_serving", "runs": runs}, indent=2) + "\n")
    return path


def _service_lines(section):
    yield ""
    yield "Serving — micro-batched service vs serial single-wedge compress"
    yield (f"  stream: {section['n_wedges']} synthetic wedges "
           f"{tuple(section['wedge_shape'])}")
    for name, mkw in (("deep", "BCAE-2D(m=7,n=8,d=3)"),
                      ("default", "BCAE-2D(m=4,n=8,d=3)")):
        block = section[name]
        yield f"  {mkw}: serial {block['serial_wps']:7.1f} w/s"
        for row in block["rows"]:
            yield (f"    service {row['label']}: "
                   f"{row['wedges_per_second']:7.1f} w/s  "
                   f"speedup {row['speedup_vs_serial']:.2f}x  payloads "
                   f"{'identical' if row['bit_identical'] else 'MISMATCH'}")


def _fault_lines(section):
    yield ""
    yield ("Fault recovery — SIGKILL every "
           f"{section['kill_every']}th unit's worker vs fault-free "
           f"({section['unit_mb']:.1f} MiB x {section['n_units']} units, "
           f"{section['n_kills']} kills)")
    for label in ("healthy", "degraded"):
        row = section[label]
        yield (f"  {label:8s}: {row['units_per_second']:7.1f} units/s")
    yield (f"  degraded throughput: "
           f"{section['throughput_ratio_degraded_vs_healthy']:.2f}x "
           "fault-free; checksums correct")


def _async_lines(section):
    yield ""
    yield (f"Async gateway — wall-clock replay under a "
           f"{section['budget_s'] * 1e3:.0f} ms monotonic budget")
    yield (f"  {section['n_wedges']} wedges in {section['n_batches']} batches, "
           f"{section['wedges_per_second']:7.1f} w/s, payloads "
           f"{'identical' if section['bit_identical'] else 'MISMATCH'}")
    lat = section["batch_latency_ms"]
    yield (f"  batch latency (wait+compute) mean/p50/p99: "
           f"{lat['mean']:.2f}/{lat['p50']:.2f}/{lat['p99']:.2f} ms; "
           f"accumulation p99 {section['wait_p99_s'] * 1e3:.2f} ms")


def _gateway_lines(section):
    yield ""
    yield (f"Sharded gateway — {section['producers']} socket producers x "
           f"{section['wedges_per_producer']} wedges, aggregate throughput")
    for row in section["rows"]:
        yield (f"  {row['shards']} shard(s): "
               f"{row['wedges_per_second']:7.1f} w/s aggregate  frames "
               f"{'identical' if row['bit_identical'] else 'MISMATCH'}")
    yield (f"  scaling {section['rows'][-1]['shards']} vs "
           f"{section['rows'][0]['shards']} shard(s): "
           f"{section['speedup_max_vs_min_shards']:.2f}x")


def test_serving_speedup_and_parity(benchmark):
    from conftest import report

    wedges = _stream()
    results = {}

    def measure_all():
        results["r"] = service_section(wedges)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _service_lines(section):
        report(line)

    # Acceptance: every configuration byte-identical to the serial path.
    for name in ("deep", "default"):
        assert all(r["bit_identical"] for r in section[name]["rows"]), name
    # Acceptance: >= 2x serial throughput on the deep-grid encoder.
    best = max(r["speedup_vs_serial"] for r in section["deep"]["rows"])
    assert best >= 2.0, f"service only {best:.2f}x serial"
    best_d = max(r["speedup_vs_serial"] for r in section["default"]["rows"])
    assert best_d >= 1.5


def test_fault_recovery_throughput(benchmark):
    from conftest import report

    results = {}

    def measure_all():
        results["r"] = fault_recovery_section(n_units=12, kill_every=4,
                                              repeats=1)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _fault_lines(section):
        report(line)
    # Correctness (checksums, crash attribution) is asserted inside the
    # section; the tier-2 gate bounds the overhead.
    assert section["degraded"]["correct"]
    assert section["throughput_ratio_degraded_vs_healthy"] >= 0.3


def test_gateway_shard_scaling(benchmark):
    import os

    from conftest import report

    results = {}

    def measure_all():
        results["r"] = gateway_section(n_wedges=6, producers=8,
                                       shard_counts=(1, 4), repeats=1)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _gateway_lines(section):
        report(line)
    # Acceptance: every response frame byte-identical to the inline
    # per-wedge codes, under every shard count.
    assert all(r["bit_identical"] for r in section["rows"])
    # The scaling gate needs cores for the shards to land on; a 1-core
    # runner measures only scheduler noise, so gate where it can mean
    # something (mirrors the script's full-mode-only gate).
    if (os.cpu_count() or 1) >= 4:
        assert section["speedup_max_vs_min_shards"] >= 1.5, (
            f"gateway only {section['speedup_max_vs_min_shards']:.2f}x "
            "from 1 -> 4 shards"
        )


def test_serving_latency_budget(benchmark):
    """DAQ-timed replay: the batcher respects the accumulation budget."""

    from conftest import report

    from repro.core import build_model
    from repro.daq import DAQConfig, StreamingCompressionSim
    from repro.serve import ServiceConfig, StreamingCompressionService, replay_stream

    wedges = _stream(n=30)
    model = build_model("bcae_2d", wedge_spatial=wedges.shape[1:], seed=0, m=2, n=2, d=2)
    sim = StreamingCompressionSim(
        DAQConfig(frame_rate_hz=1000.0, wedges_per_frame=3), seed=1
    )
    service = StreamingCompressionService(
        model, ServiceConfig(max_batch=16, max_delay_s=2e-3)
    )

    def serve():
        return service.run(replay_stream(sim.wedge_stream(wedges)))

    _payloads, stats = benchmark.pedantic(serve, rounds=1, iterations=1)

    report()
    report("Serving — 1 kHz x 3 replay under a 2 ms accumulation budget")
    report(f"  {stats.row()}")
    report(f"  batch sizes: {[r.n_wedges for r in stats.records]}")
    assert stats.n_wedges == 30
    assert all(r.n_wedges <= 16 for r in stats.records)
    assert stats.n_batches >= 3  # the budget must split a 30-wedge stream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small streams, relaxed speed gates (CI wiring check)")
    args = parser.parse_args(argv)

    repeats = 1 if args.smoke else _REPEATS
    service_gate = 1.1 if args.smoke else 2.0

    wedges = _stream(n=16 if args.smoke else _N_WEDGES)
    sections = []
    failed = False

    section = service_section(wedges, repeats=repeats)
    sections.append(section)
    for line in _service_lines(section):
        print(line)
    identical = all(
        r["bit_identical"] for n in ("deep", "default") for r in section[n]["rows"]
    )
    best = max(r["speedup_vs_serial"] for r in section["deep"]["rows"])
    if not identical:
        print("FAIL: service payload mismatch")
        failed = True
    elif best < service_gate:
        print(f"FAIL: service {best:.2f}x < gate {service_gate}x")
        failed = True
    else:
        print(f"OK: service {best:.2f}x serial (gate {service_gate}x)")

    section = fault_recovery_section(
        n_units=8 if args.smoke else _FAULT_UNITS,
        kill_every=4 if args.smoke else 6,
        repeats=repeats,
    )
    sections.append(section)
    for line in _fault_lines(section):
        print(line)
    ratio = section["throughput_ratio_degraded_vs_healthy"]
    # Correctness (checksums, crash attribution) is asserted inside the
    # section; smoke checks the wiring only — a relative gate on one
    # repeat of eight units would be CI noise.
    fault_gate = None if args.smoke else 0.5
    if fault_gate is None:
        print(f"OK: fault recovery wiring verified ({ratio:.2f}x fault-free; "
              "speed gate is full-mode only)")
    elif ratio < fault_gate:
        print(f"FAIL: degraded only {ratio:.2f}x fault-free "
              f"< gate {fault_gate}x")
        failed = True
    else:
        print(f"OK: degraded {ratio:.2f}x fault-free (gate {fault_gate}x)")

    section = async_section(n_wedges=12 if args.smoke else 30)
    sections.append(section)
    for line in _async_lines(section):
        print(line)
    if not section["bit_identical"]:
        print("FAIL: async gateway payload mismatch")
        failed = True
    else:
        print("OK: async gateway byte-identical under the wall-clock budget")

    # Multi-producer sharded gateway: parity always, scaling full-mode
    # only (shards need cores to land on; a busy 1-core runner measures
    # scheduler noise, not the router).
    gateway_gate = None if args.smoke else 1.5
    section = gateway_section(
        n_wedges=4 if args.smoke else 6,
        producers=4 if args.smoke else 8,
        shard_counts=(1, 2) if args.smoke else (1, 4),
        repeats=repeats,
    )
    sections.append(section)
    for line in _gateway_lines(section):
        print(line)
    scaling = section["speedup_max_vs_min_shards"]
    if not all(r["bit_identical"] for r in section["rows"]):
        print("FAIL: gateway response frames mismatch inline codes")
        failed = True
    elif gateway_gate is None:
        print(f"OK: sharded gateway wiring verified ({scaling:.2f}x "
              "aggregate 1 -> 2 shards; scaling gate is full-mode only)")
    elif scaling < gateway_gate:
        print(f"FAIL: gateway scaling {scaling:.2f}x < gate {gateway_gate}x")
        failed = True
    else:
        print(f"OK: gateway {scaling:.2f}x aggregate 1 -> 4 shards "
              f"(gate {gateway_gate}x)")

    path = write_bench_json(sections, args.smoke)
    print(f"\nwrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
