"""Self-test of the repository benchmark, at tiny geometry.

    python3 -m pytest perfbench/tests/check_perfbench.py -q

Runs every workload end to end (untraced and traced) and checks that each
metric named in ``BENCHMARK.json`` is printed with its unit; shows that a
corrupted code frame, record frame or reconstruction is counted as a
failed operation; and that one seed always yields the same inputs.  The
file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.host import pin_threads, source_digest  # noqa: E402

# The in-process tests serve and check with the benchmark's thread
# settings; they only take effect if numpy is not loaded yet.
pin_threads(os.environ)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import inputs, layers, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
        # The report lines name every metric with its unit as well.
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in out.stdout.splitlines()), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOAD_NAMES[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _context(tmp_path: Path, seed: int = 3) -> workloads.Context:
    return workloads.Context(root=ROOT, run_dir=tmp_path, seed=seed,
                             seconds=1.0, scale="tiny", tracer=None,
                             source_digest=source_digest(ROOT))


def test_same_seed_same_input_digests(tmp_path):
    for name in ("ingest_burst", "ingest_paced_mixed"):
        w = workloads.WORKLOADS[name]
        pool_a, order_a, _ = workloads._ingest_inputs(_context(tmp_path, 7), w)
        pool_b, order_b, _ = workloads._ingest_inputs(_context(tmp_path, 7), w)
        pool_c, _order, _ = workloads._ingest_inputs(_context(tmp_path, 8), w)
        assert inputs.digest(pool_a) == inputs.digest(pool_b)
        assert np.array_equal(order_a, order_b)
        assert inputs.digest(pool_a) != inputs.digest(pool_c)
    for kind in ("central", "peripheral"):
        assert (inputs.digest(inputs.event(kind, 7, 0, "tiny"))
                == inputs.digest(inputs.event(kind, 7, 0, "tiny")))


def _corrupt_first_frame(monkeypatch):
    original = workloads._run_loadgen

    async def corrupting(ctx, sampler, phase, cfg):
        result = await original(ctx, sampler, phase, cfg)
        frame = result["frames"][0].copy()
        frame.view(np.uint8).reshape(-1)[0] ^= 0xFF
        result["frames"][0] = frame
        return result

    monkeypatch.setattr(workloads, "_run_loadgen", corrupting)


@pytest.mark.parametrize("workload", ["ingest_burst", "ingest_paced_mixed"])
def test_corrupted_frame_is_a_failed_operation(tmp_path, monkeypatch,
                                               workload):
    _corrupt_first_frame(monkeypatch)
    outcome = asyncio.run(workloads.run_ingest(
        _context(tmp_path), workloads.WORKLOADS[workload]))
    assert outcome.failed == 1
    assert outcome.correct is False
    assert outcome.attempted > 1


def test_corrupted_reconstruction_is_a_failed_operation(tmp_path,
                                                        monkeypatch):
    original = workloads._decode_stream

    def corrupting(ctx, w, warm, archive_path, units, timed, **kwargs):
        result = original(ctx, w, warm, archive_path, units, timed, **kwargs)
        if timed:
            pulled, emitted, record, recon, chunk = units[-1]
            recon = recon.copy()
            recon.flat[0] = np.nextafter(recon.flat[0], np.float32(np.inf))
            units[-1] = (pulled, emitted, record, recon, chunk)
        return result

    monkeypatch.setattr(workloads, "_decode_stream", corrupting)
    outcome = workloads.run_decode(_context(tmp_path),
                                   workloads.WORKLOADS["archive_decode_2d"])
    assert outcome.failed == 1
    assert outcome.correct is False


def test_failed_wedge_misses_every_latency_limit():
    phase = {"recv": np.array([1.0, 2.0, 3.0]), "sent": np.zeros(3),
             "due": np.zeros(3), "t0": 0.0, "t_end": 10.0}
    e2e, _valid = layers.ingest_end_to_end(phase, [True, False, False],
                                           "closed", 0.0)
    # Two of three wedges failed: they count as infinitely late, so the
    # median and the tail both miss any limit.
    assert e2e["latency_p50_ms"] == math.inf
    assert e2e["latency_tail_ms"] == math.inf
