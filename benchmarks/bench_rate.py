"""Rate bench — occupancy-adaptive codec selection vs the all-BCAE path.

TPC occupancy is far from uniform (paper §1: central-membrane wedges see
the dense tracks; outer sectors are mostly empty), yet the BCAE spends a
fixed-size code on every wedge.  The adaptive tier routes sparse wedges
to a coordinate-list codec and keeps the BCAE for the dense majority; on
a mixed-occupancy stream that buys aggregate compression ratio without
giving up throughput (the sparse route skips model inference entirely).

Sections:

1. **rate tradeoff** — the rate–distortion–throughput trajectory: sweep
   the occupancy threshold from 0 (all-BCAE) upward; each row records the
   codec mix, aggregate ratio, wedges/s and the reconstruction error on
   each route;
2. **adaptive vs all-BCAE** — the acceptance comparison at the default
   threshold, plus byte parity of every BCAE-routed record against the
   plain fixed-rate path (the tier must never change the bytes the model
   produces);
3. **budget sweep** — stream-level bandwidth budgets
   (``--rate-budget-mbps``) tightening until the estimator overrides the
   occupancy route, with the decision ledger staying deterministic.

Acceptance gates:

* every BCAE-routed record byte-identical to the all-BCAE payload, every
  mixed batch decodes, ledger lengths match the stream (always, smoke
  included);
* **full mode** (``REPRO_FULL=1``, paper-geometry wedges, the paper's
  Table-1 BCAE-2D ``m=4, n=8, d=3``): adaptive aggregate ratio ≥ 1.3×
  the all-BCAE ratio at equal-or-better throughput on the 50/50
  mixed-occupancy stream.

Both arms are timed on the same compiled entry point,
``compress_into`` (the adaptive tier routes its BCAE wedges through the
inner compressor's ``compress_into``), fed one wedge per call as a DAQ
stream delivers them.

Every run appends machine-readable sections to ``BENCH_rate.json``.
Runs under pytest (tier-2 bench suite) and as a script::

    python benchmarks/bench_rate.py [--smoke]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

_REPEATS = 3
#: Trajectory depth: runs kept in BENCH_rate.json before the oldest drop.
_MAX_RUNS = 20

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_rate.json"

_SMOKE_SPATIAL = (16, 24, 30)
_FULL_SPATIAL = (16, 192, 249)

#: Thresholds swept for the rate–distortion–throughput trajectory
#: (0.0 = all-BCAE; the policy default is 0.05).
_THRESHOLDS = (0.0, 0.02, 0.05, 0.10)

#: Wedges per compress call.  One keeps the paper-geometry Table-1 model
#: small in memory: its decoder workspace grows by ~1 GB per wedge of batch.
_BATCH = 1


def _mixed_stream(n, spatial, sparse_fraction=0.5, sparse_occ=0.005, seed=7):
    """Fixed-RNG stream: ``sparse_fraction`` of wedges at ``sparse_occ``
    occupancy, the rest dense (~50%), interleaved deterministically.
    Two wedges sit at ~7% occupancy — above the default threshold (BCAE
    route) but cheap classically, so tight budgets and high thresholds
    visibly change the mix."""

    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1024, size=(n,) + tuple(spatial)).astype(np.uint16)
    w[w < 500] = 0
    n_sparse = int(round(n * sparse_fraction))
    for i in range(n_sparse):
        j = (i * 2 + 1) % n  # interleave sparse among dense
        mask = rng.random(spatial) < sparse_occ
        hits = rng.integers(1, 1024, size=spatial)
        w[j] = np.where(mask, hits, 0).astype(np.uint16)
    for j in (n - 2, n - 4):  # mid-occupancy pair (dense slots)
        if j > 0:
            mask = rng.random(spatial) < 0.07
            hits = rng.integers(1, 1024, size=spatial)
            w[j] = np.where(mask, hits, 0).astype(np.uint16)
    return w


def _best_of(fn, repeats=_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _serve(compressor, wedges):
    """Compress the stream in ``_BATCH``-wedge ``compress_into`` calls."""

    return [compressor.compress_into(wedges[i:i + _BATCH])
            for i in range(0, len(wedges), _BATCH)]


def _codec_ids(batches):
    return [c for b in batches for c in b.codec_ids]


def _build(spatial, threshold=None, budget_mbps=None):
    """(inner BCAE compressor, adaptive tier) on the bench model: a
    small BCAE-2D at smoke geometry, the ``build_model`` defaults (Table-1
    ``m=4, n=8, d=3``) at paper geometry."""

    from repro.core import BCAECompressor, build_model
    from repro.rate import AdaptiveCompressor, OccupancyPolicy, RateBudget

    kwargs = dict(m=2, n=2, d=2) if spatial == _SMOKE_SPATIAL else {}
    model = build_model("bcae_2d", wedge_spatial=spatial, seed=0, **kwargs)
    model.eval()
    inner = BCAECompressor(model, half=True)
    policy = OccupancyPolicy(
        sparse_occupancy=0.05 if threshold is None else threshold,
        budget=RateBudget(budget_mbps) if budget_mbps else None,
    )
    return inner, AdaptiveCompressor(
        BCAECompressor(model, half=True), policy
    )


# ----------------------------------------------------------------------
# section 1: rate–distortion–throughput trajectory over the threshold
# ----------------------------------------------------------------------

def tradeoff_section(wedges, thresholds=_THRESHOLDS, repeats=_REPEATS):
    from repro.rate import BCAE_CODEC_ID, aggregate_ratio
    from repro.tpc import log_transform

    spatial = wedges.shape[1:]
    logged = log_transform(wedges)
    rows = []
    for threshold in thresholds:
        _inner, adaptive = _build(spatial, threshold=threshold)
        compressed = _serve(adaptive, wedges)  # warm + measured artifact
        seconds = _best_of(lambda: _serve(adaptive, wedges), repeats)
        recon = np.concatenate([adaptive.decompress(c) for c in compressed])
        err = np.abs(recon - logged)
        classical = [i for i, c in enumerate(_codec_ids(compressed))
                     if c != BCAE_CODEC_ID]
        rows.append({
            "threshold": threshold,
            "n_classical": len(classical),
            "n_bcae": len(wedges) - len(classical),
            "aggregate_ratio": aggregate_ratio(compressed, spatial),
            "wedges_per_second": len(wedges) / seconds,
            "mse_log": float(np.mean(err ** 2)),
            "classical_max_err_log": (
                float(max(err[i].max() for i in classical))
                if classical else 0.0
            ),
        })
    return {
        "section": "rate_tradeoff",
        "n_wedges": len(wedges),
        "wedge_shape": list(spatial),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# section 2: adaptive vs all-BCAE — the acceptance comparison
# ----------------------------------------------------------------------

def adaptive_vs_bcae_section(wedges, repeats=_REPEATS):
    """Default-threshold adaptive tier against the plain fixed-rate path:
    ratio gain, throughput gain, and byte parity of every routed record."""

    from repro.rate import BCAE_CODEC_ID, aggregate_ratio
    from repro.rate.records import record_views

    spatial = wedges.shape[1:]
    inner, adaptive = _build(spatial)

    # Warm both paths and take the parity bytes before any timing.
    mixed = _serve(adaptive, wedges)
    full = _serve(inner, wedges)
    parity = True
    for m, f in zip(mixed, full):
        record = f.nbytes // f.n_wedges
        views = record_views(m)
        payload = bytes(f.payload)
        parity = parity and all(
            bytes(views[i]) == payload[i * record:(i + 1) * record]
            for i, c in enumerate(m.codec_ids) if c == BCAE_CODEC_ID
        )
    routed = [c for c in _codec_ids(mixed) if c == BCAE_CODEC_ID]
    decodes = all(
        adaptive.decompress(m).shape == (m.n_wedges,) + tuple(spatial)
        for m in mixed
    )

    bcae_s = _best_of(lambda: _serve(inner, wedges), repeats)
    adaptive_s = _best_of(lambda: _serve(adaptive, wedges), repeats)
    bcae_ratio = aggregate_ratio(full, spatial)
    adaptive_ratio = aggregate_ratio(mixed, spatial)
    return {
        "section": "adaptive_vs_bcae",
        "n_wedges": len(wedges),
        "wedge_shape": list(spatial),
        "n_sparse_routed": len(wedges) - len(routed),
        "bcae": {"aggregate_ratio": bcae_ratio,
                 "wedges_per_second": len(wedges) / bcae_s},
        "adaptive": {"aggregate_ratio": adaptive_ratio,
                     "wedges_per_second": len(wedges) / adaptive_s},
        "ratio_gain": adaptive_ratio / bcae_ratio,
        "throughput_gain": bcae_s / adaptive_s,
        "bcae_records_bit_identical": bool(parity),
        "mixed_batch_decodes": bool(decodes),
        "ledger_complete": (sum(len(m.decisions) for m in mixed)
                            == len(wedges)),
    }


# ----------------------------------------------------------------------
# section 3: bandwidth budgets — estimator-driven overrides, determinism
# ----------------------------------------------------------------------

def budget_section(wedges, budgets_mbps=(None, 50.0, 0.001)):
    from repro.rate import BCAE_CODEC_ID, aggregate_ratio

    spatial = wedges.shape[1:]
    rows = []
    deterministic = True
    for mbps in budgets_mbps:
        _inner, adaptive = _build(spatial, budget_mbps=mbps)
        a = _serve(adaptive, wedges)
        b = _serve(adaptive, wedges)
        deterministic = deterministic and all(
            x.decisions == y.decisions
            and bytes(x.payload) == bytes(y.payload)
            for x, y in zip(a, b)
        )
        rows.append({
            "budget_mbps": mbps,
            "n_classical": sum(1 for c in _codec_ids(a)
                               if c != BCAE_CODEC_ID),
            "aggregate_ratio": aggregate_ratio(a, spatial),
            "mean_record_bytes": (sum(s for x in a for s in x.record_sizes)
                                  / len(wedges)),
        })
    return {
        "section": "rate_budget",
        "n_wedges": len(wedges),
        "rows": rows,
        "deterministic": bool(deterministic),
    }


# ----------------------------------------------------------------------
# reporting / gates / entry points
# ----------------------------------------------------------------------

def write_bench_json(sections, smoke, path=_BENCH_JSON, label=None):
    """Append one run to the perf-trajectory record future PRs diff
    against (last :data:`_MAX_RUNS` runs kept under ``"runs"``)."""

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
    else:
        runs = []
    runs = (runs + [run])[-_MAX_RUNS:]
    path.write_text(json.dumps(
        {"benchmark": "bench_rate", "runs": runs}, indent=2) + "\n")
    return path


def _tradeoff_lines(section):
    yield ""
    yield ("Rate tradeoff — occupancy threshold sweep "
           f"({section['n_wedges']} wedges {tuple(section['wedge_shape'])})")
    yield ("  thresh  mix (bcae/classical)   ratio    wedges/s   "
           "mse(log)  classical max|err|")
    for row in section["rows"]:
        yield (f"  {row['threshold']:5.2f}   {row['n_bcae']:3d} / "
               f"{row['n_classical']:3d}            "
               f"{row['aggregate_ratio']:7.2f}  {row['wedges_per_second']:8.1f}   "
               f"{row['mse_log']:.2e}  {row['classical_max_err_log']:.3f}")


def _adaptive_lines(section):
    yield ""
    yield ("Adaptive vs all-BCAE — default threshold, "
           f"{section['n_sparse_routed']}/{section['n_wedges']} wedges "
           "routed classical")
    for label in ("bcae", "adaptive"):
        row = section[label]
        yield (f"  {label:8s}: ratio {row['aggregate_ratio']:7.2f}  "
               f"{row['wedges_per_second']:8.1f} w/s")
    yield (f"  gains: {section['ratio_gain']:.2f}x ratio at "
           f"{section['throughput_gain']:.2f}x throughput; BCAE records "
           f"{'identical' if section['bcae_records_bit_identical'] else 'MISMATCH'}")


def _budget_lines(section):
    yield ""
    yield "Bandwidth budgets — estimator overrides as the budget tightens"
    for row in section["rows"]:
        label = ("none" if row["budget_mbps"] is None
                 else f"{row['budget_mbps']:g} Mbps")
        yield (f"  budget {label:>10s}: {row['n_classical']:3d} classical, "
               f"ratio {row['aggregate_ratio']:7.2f}, "
               f"mean record {row['mean_record_bytes']:8.0f} B")
    yield ("  decision ledgers deterministic: "
           + ("yes" if section["deterministic"] else "NO"))


def test_rate_adaptive_parity(benchmark):
    """Tier-2 gate: routed records byte-identical, mixed batches decode,
    and the mixed stream beats the all-BCAE ratio on the tiny geometry."""

    from conftest import report

    wedges = _mixed_stream(12, _SMOKE_SPATIAL)
    results = {}

    def measure_all():
        results["r"] = adaptive_vs_bcae_section(wedges, repeats=1)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _adaptive_lines(section):
        report(line)
    assert section["bcae_records_bit_identical"]
    assert section["mixed_batch_decodes"]
    assert section["ledger_complete"]
    assert section["n_sparse_routed"] > 0
    assert section["ratio_gain"] > 1.0


def main(argv=None) -> int:
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny stream, wiring-only gates (CI check)")
    args = parser.parse_args(argv)

    full = (not args.smoke) and os.environ.get("REPRO_FULL", "0") == "1"
    spatial = _FULL_SPATIAL if full else _SMOKE_SPATIAL
    n_wedges = 16 if full else 12
    repeats = _REPEATS if full else 1
    wedges = _mixed_stream(n_wedges, spatial)

    sections = []
    failed = False

    section = tradeoff_section(wedges, repeats=repeats)
    sections.append(section)
    for line in _tradeoff_lines(section):
        print(line)
    baseline = section["rows"][0]
    best = max(section["rows"], key=lambda r: r["aggregate_ratio"])
    print(f"OK: trajectory swept {len(section['rows'])} thresholds "
          f"(ratio {baseline['aggregate_ratio']:.2f} -> "
          f"{best['aggregate_ratio']:.2f})")

    section = adaptive_vs_bcae_section(wedges, repeats=repeats)
    sections.append(section)
    for line in _adaptive_lines(section):
        print(line)
    if not (section["bcae_records_bit_identical"]
            and section["mixed_batch_decodes"]
            and section["ledger_complete"]):
        print("FAIL: adaptive tier parity (records/decode/ledger)")
        failed = True
    else:
        print("OK: BCAE records byte-identical, mixed batch decodes, "
              "ledger complete")
    # The ratio/throughput claims need paper-geometry records (the tiny
    # BCAE code is already small, so the sparse win is modest there);
    # gate them in full mode only, like the other benches.
    if full:
        if section["ratio_gain"] < 1.3:
            print(f"FAIL: adaptive ratio {section['ratio_gain']:.2f}x "
                  "< gate 1.3x all-BCAE")
            failed = True
        elif section["throughput_gain"] < 1.0:
            print(f"FAIL: adaptive throughput {section['throughput_gain']:.2f}x "
                  "< gate 1.0x all-BCAE")
            failed = True
        else:
            print(f"OK: adaptive {section['ratio_gain']:.2f}x ratio at "
                  f"{section['throughput_gain']:.2f}x throughput "
                  "(gates 1.3x / 1.0x)")
    else:
        print(f"OK: ratio gain wiring verified ({section['ratio_gain']:.2f}x; "
              "1.3x gate is full-mode only)")

    section = budget_section(wedges)
    sections.append(section)
    for line in _budget_lines(section):
        print(line)
    if not section["deterministic"]:
        print("FAIL: budgeted decision ledgers not deterministic")
        failed = True
    else:
        print("OK: budgeted selection deterministic across reruns")

    path = write_bench_json(sections, args.smoke)
    print(f"\nwrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
