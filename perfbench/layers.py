"""End-to-end and per-layer metrics from the raw timings and spans.

Every function here runs after the timed phases, on data the load
generator, the workload loop and the tracer recorded.  The per-layer
functions return the metrics of the layers a workload exercises; the
report prints 0 for the others.
"""

from __future__ import annotations

import numpy as np

from perfbench.spans import load_spans

#: Backlog slope (wedges/s, least squares over the schedule) above this
#: share of the offered rate means the gateway fell behind.
BACKLOG_GROWTH_SHARE = 0.1

def tail(values) -> tuple[float, float, int]:
    """``(q, value, n)``: the highest percentile with at least ten samples
    beyond it (the median when there are fewer than twenty samples)."""

    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.5, float("nan"), 0
    q = max(0.5, 1.0 - 10.0 / n)
    return q, _quantile(values, q), n


def _quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    # A failed operation counts as infinitely late; interpolating next to
    # an infinity is undefined, so take an observed sample instead.
    method = "linear" if np.isfinite(values).all() else "inverted_cdf"
    return float(np.quantile(values, q, method=method))


def _ms(values) -> np.ndarray:
    return np.asarray(values, dtype=float) * 1e3


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def backlog_slope(phase: dict) -> float:
    t, n = phase["backlog_t"], phase["backlog_n"]
    if len(t) < 3:
        return 0.0
    return float(np.polyfit(t - t[0], n, 1)[0])


def ingest_end_to_end(phase: dict, ok, loop: str, rate: float):
    """Wedges/s and per-wedge latency (from send, or from due time in the
    open loop, to the response frame's arrival).  Returns the metrics and
    whether the open-loop backlog stayed bounded.

    Closed loop: wedges/s is the completion rate between the first and the
    last response inside the send window, which leaves out the pipeline
    fill and the drain after the producers stop.  Open loop: wedges
    delivered over the time from the first due time to the last response.
    """

    ok = np.asarray(ok, dtype=bool)
    recv = phase["recv"]
    start = phase["due"] if loop == "open" else phase["sent"]
    latency = np.where(ok, recv - start, np.inf)
    done = np.sort(recv[ok])
    if loop == "open":
        per_s = done.size / (done[-1] - phase["t0"]) if done.size else 0.0
    else:
        inside = done[done <= phase["t_end"]]
        per_s = ((inside.size - 1) / (inside[-1] - inside[0])
                 if inside.size > 1 else 0.0)
    _q, tail_s, _n = tail(latency)
    valid = loop != "open" or backlog_slope(phase) <= BACKLOG_GROWTH_SHARE * rate
    return {
        "wedges_per_s": per_s,
        "latency_p50_ms": _quantile(latency, 0.5) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }, valid


def loadgen_summary(phase: dict, loop: str) -> dict:
    q, _v, n = tail(phase["recv"] - phase["sent"])
    late = phase["sent"] - phase["due"] if loop == "open" else np.zeros(1)
    return {
        "latency_tail_percentile": round(q * 100, 2),
        "latency_samples": n,
        "late_ms_p99": float(np.quantile(_ms(late), 0.99)),
        "backlog_max": int(phase["backlog_n"].max()),
        "backlog_slope_per_s": backlog_slope(phase),
    }


def decode_end_to_end(phase: dict, ok, n_warm: int) -> dict:
    """Wedges/s from the archive load to the last reconstruction, and
    per-unit latency from the service pulling the unit to its emission."""

    units = phase["units"][n_warm:]
    ok = np.asarray(ok[n_warm:], dtype=bool)
    emitted = np.array([u[1] for u in units])
    latency = np.where(ok, emitted - np.array([u[0] for u in units]), np.inf)
    wedges = sum(u[2].n_wedges for u, good in zip(units, ok) if good)
    span = emitted.max() - phase["t_start"] if units else float("nan")
    _q, tail_s, _n = tail(latency)
    return {
        "wedges_per_s": wedges / span if wedges else 0.0,
        "latency_p50_ms": _quantile(latency, 0.5) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------


def _select(spans, name, t0=None, t1=None):
    return [s for s in spans if s["name"] == name
            and (t0 is None or s["start"] >= t0)
            and (t1 is None or s["end"] <= t1)]


def _dur(spans) -> np.ndarray:
    return np.array([s["end"] - s["start"] for s in spans], dtype=float)


def _p50_ms(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values) * 1e3) if values.size else 0.0


def _core(spans, name, t0, t1, flops_per_wedge) -> dict:
    """Steady per-wedge time, first-call compilation and computed rate."""

    steady = [s for s in _select(spans, name, t0, t1) if not s["first"]]
    wedges = sum(s["n"] for s in steady)
    busy = float(_dur(steady).sum())
    per_wedge = busy / wedges if wedges else 0.0
    compile_by_pid: dict[int, float] = {}
    for s in _select(spans, name):
        if s["first"]:
            extra = (s["end"] - s["start"]) - s["n"] * per_wedge
            compile_by_pid[s["pid"]] = compile_by_pid.get(s["pid"], 0.0) + extra
    plans = _select(spans, "core.plan")
    return {
        "ms_per_wedge": per_wedge * 1e3,
        "compile_s": max(compile_by_pid.values(), default=0.0),
        "gflops": flops_per_wedge * wedges / busy / 1e9 if busy else 0.0,
        "workspace_mb": max((p["workspace_bytes"] for p in plans),
                            default=0) / 2 ** 20,
        "blocked_pad_sites": max((p["blocked_pad_sites"] for p in plans),
                                 default=0),
    }


def _padded_input_shape(model, spatial) -> tuple[int, int, int]:
    r, a, h = spatial
    grid = 2 ** model.encoder.d
    return r, a, -(-h // grid) * grid


def _overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def ingest_per_layer(ctx, w, phases: dict, spatial, model,
                     faults: dict) -> dict:
    from repro.perf.flops import trace_encoder
    from repro.rate.records import decode_record_frame, is_record_frame

    ctx.tracer.flush()
    spans = load_spans(ctx.tracer.out_dir)
    phase = phases["traced"]
    all_ok = np.isfinite(phase["recv"])
    t0 = phase["t0"]
    t1 = float(np.nanmax(phase["recv"]))
    encoder_flops = trace_encoder(model,
                                  _padded_input_shape(model, spatial)).total_flops
    core = _core(spans, "core.compress_into", t0, t1, encoder_flops)
    out = {
        "core.encode_ms_per_wedge": core["ms_per_wedge"],
        "core.compile_s": core["compile_s"],
        "core.gflops_computed": core["gflops"],
        "core.workspace_mb": core["workspace_mb"],
        "core.blocked_pad_sites": core["blocked_pad_sites"],
    }

    batches = _select(spans, "serve.batcher.batch", t0, t1)
    if batches:
        out["serve.batcher.batch_wedges_mean"] = float(
            np.mean([b["n"] for b in batches]))
        out["serve.batcher.wait_ms_p50"] = _p50_ms(_dur(batches))
        out["serve.batcher.closed_budget_share"] = float(np.mean(
            [b["closed_by"] == "budget" for b in batches]))
    out["serve.gateway.route_wait_ms_p50"] = _p50_ms(
        _dur(_select(spans, "serve.gateway.route", t0, t1)))
    units = [u for u in _select(spans, "serve.gateway.unit", t0, t1)
             if not u.get("failed")]
    unit_s = _dur(units)
    out["serve.gateway.unit_ms_p50"] = _p50_ms(unit_s)
    out["serve.gateway.unit_ms_tail"] = tail(unit_s)[1] * 1e3 if units else 0.0
    before, after = phases["untraced"]["gateway"], phase["gateway"]
    out["serve.gateway.rerouted"] = float(after.rerouted - before.rerouted)
    compute = np.array([u["compute_s"] for u in units], dtype=float)
    out["serve.service.handoff_ms_p50"] = _p50_ms(unit_s - compute)
    out["serve.service.busy_share"] = float(compute.sum() / ((t1 - t0) * len(
        after.per_shard)))
    out["serve.service.retries"] = float(faults["retries"])
    out["serve.service.failures"] = float(faults["failures"])
    out["serve.service.shm_fallbacks"] = float(faults["shm_fallbacks"])

    writes = _select(spans, "serve.source.write", t0)
    reads = _select(spans, "serve.source.read", t0)
    out["serve.source.frames"] = float(len(writes) + len(reads))
    out["serve.source.bytes_out"] = float(sum(s["bytes"] for s in writes))
    out["serve.source.bytes_in"] = float(sum(s["bytes"] for s in reads))

    selects = _select(spans, "rate.select", t0, t1)
    sparse = _select(spans, "rate.sparse_compress", t0, t1)
    if selects:
        out["rate.select_ms_per_wedge"] = float(_dur(selects).mean() * 1e3)
        out["rate.sparse_share"] = len(sparse) / len(selects)
    if sparse:
        out["rate.sparse_encode_ms_per_wedge"] = float(_dur(sparse).mean() * 1e3)
    errors = []
    for frame in phase["frames"]:
        if is_record_frame(frame):
            _codec, decision, _record = decode_record_frame(frame)
            errors.append(abs(decision.est_bytes - decision.actual_bytes)
                          / max(1, decision.actual_bytes))
    if errors:
        out["rate.est_bytes_error"] = float(np.mean(errors))

    summary = loadgen_summary(phase, w.loop)
    out["loadgen.late_ms_p99"] = summary["late_ms_p99"]
    out["loadgen.backlog_max"] = float(summary["backlog_max"])

    untraced, _v = ingest_end_to_end(
        phases["untraced"], np.isfinite(phases["untraced"]["recv"]),
        w.loop, w.rate)
    traced, _v = ingest_end_to_end(phase, all_ok, w.loop, w.rate)
    if w.loop == "open":
        out["trace.overhead_pct"] = _overhead_pct(
            untraced["latency_p50_ms"], traced["latency_p50_ms"])
    else:
        out["trace.overhead_pct"] = _overhead_pct(
            1.0 / untraced["wedges_per_s"], 1.0 / traced["wedges_per_s"])
    return out


def decode_per_layer(ctx, phases: dict, spatial, model, n_warm: int,
                     workers: int, notes: dict) -> dict:
    from repro.perf.flops import trace_encoder, trace_model

    ctx.tracer.flush()
    spans = load_spans(ctx.tracer.out_dir)
    phase = phases["traced"]
    t0 = phase["t_start"]
    t1 = max(u[1] for u in phase["units"])
    shape = _padded_input_shape(model, spatial)
    decoder_flops = (trace_model(model, shape).total_flops
                     - trace_encoder(model, shape).total_flops)
    core = _core(spans, "core.decompress_into", t0, t1, decoder_flops)
    out = {
        "core.decode_ms_per_wedge": core["ms_per_wedge"],
        "core.compile_s": core["compile_s"],
        "core.gflops_computed": core["gflops"],
        "core.workspace_mb": core["workspace_mb"],
        "core.blocked_pad_sites": core["blocked_pad_sites"],
    }
    units = _select(spans, "serve.service.unit", t0)
    unit_s = _dur(units)
    compute = np.array([u["compute_s"] for u in units], dtype=float)
    out["serve.service.handoff_ms_p50"] = _p50_ms(unit_s - compute)
    out["serve.service.busy_share"] = float(
        compute.sum() / ((t1 - t0) * workers))
    faults = notes["faults"]
    out["serve.service.retries"] = float(faults["retries"])
    out["serve.service.failures"] = float(faults["failures"])
    out["serve.service.shm_fallbacks"] = float(faults["shm_fallbacks"])
    out["io.codes.load_s"] = float(_dur(_select(spans, "io.codes.load", t0)).sum())
    out["io.codes.split_s"] = float(
        _dur(_select(spans, "io.codes.split", t0, t1)).sum())
    out["io.codes.archive_bytes"] = float(notes["archive_bytes"])

    ok = [True] * len(phases["untraced"]["units"])
    untraced = decode_end_to_end(phases["untraced"], ok, n_warm)
    traced = decode_end_to_end(phase, [True] * len(phase["units"]), n_warm)
    out["trace.overhead_pct"] = _overhead_pct(
        1.0 / untraced["wedges_per_s"], 1.0 / traced["wedges_per_s"])
    return out
