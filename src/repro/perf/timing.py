"""Wall-clock throughput measurement on the host CPU.

Complements the GPU roofline model with *measured* numbers for this NumPy
implementation.  Matches the paper's protocol (§3.2): encoder only, inputs
pre-staged in memory (no file I/O in the timed region), throughput reported
as wedges/second.

Timing policy: the headline number is **best-of-N**.  On a shared CPU the
mean over repeats is skewed upward by GC pauses, allocator behaviour and
scheduler noise — the *minimum* is the closest observable to the machine's
actual capability and is what keeps benchmark trajectories stable run over
run.  The mean is kept alongside for reference.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = [
    "ThroughputResult",
    "LatencySummary",
    "FaultCounters",
    "summarize_latencies",
    "measure_encoder_throughput",
    "measure_compress_throughput",
    "measure_curve",
    "throughput_from_batches",
]


@dataclasses.dataclass
class LatencySummary:
    """Percentile summary of a latency sample (seconds).

    The serving currency for tail behaviour: a wall-clock budget is a
    promise about p99, not about the mean — a DAQ link cares whether *any*
    wedge waited too long.
    """

    n: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def row(self) -> str:
        """One-line summary for logs and benches (milliseconds)."""

        return (
            f"n={self.n} mean={self.mean_s * 1e3:.2f} ms "
            f"p50/p95/p99={self.p50_s * 1e3:.2f}/{self.p95_s * 1e3:.2f}/"
            f"{self.p99_s * 1e3:.2f} ms max={self.max_s * 1e3:.2f} ms"
        )


def summarize_latencies(samples: Sequence[float]) -> LatencySummary:
    """Summarize latency samples; an empty sample gives an all-zero row."""

    if len(samples) == 0:
        return LatencySummary(n=0, mean_s=0.0, p50_s=0.0, p95_s=0.0, p99_s=0.0, max_s=0.0)
    arr = np.asarray(samples, dtype=np.float64)
    p50, p95, p99 = (float(q) for q in np.quantile(arr, (0.5, 0.95, 0.99)))
    return LatencySummary(
        n=int(arr.size),
        mean_s=float(arr.mean()),
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        max_s=float(arr.max()),
    )


@dataclasses.dataclass
class FaultCounters:
    """Counts of serving faults and the recovery actions they triggered.

    The currency of the supervision layer in :mod:`repro.serve`: one
    instance rides on each :class:`~repro.serve.ServiceStats` (that
    stream's faults) and the service accumulates lifetime totals for
    :meth:`~repro.serve.ModelPoolService.health`.  All zeros means the
    stream ran fault-free.

    Attributes
    ----------
    crashes:
        Worker deaths observed (a broken pool, or an in-worker
        ``WorkerCrashError``).
    timeouts:
        Units that exceeded ``ServiceConfig.unit_timeout_s``.
    retries:
        Attempts re-submitted after a charged failure (bounded by
        ``ServiceConfig.max_retries`` per unit).
    rebuilds:
        Executor teardown-and-rebuild cycles.
    degraded:
        Circuit-breaker backend step-downs (process → thread → inline).
    failures:
        Units whose error ultimately surfaced to the caller (retry budget
        exhausted or retry not legal).
    shm_fallbacks:
        Always 0.  Process workers receive units and return results by
        pickle only, so nothing can fall back; the field stays because
        the repository benchmark's per-layer metric
        ``serve.service.shm_fallbacks`` reads it from :meth:`to_dict`.
    """

    crashes: int = 0
    timeouts: int = 0
    retries: int = 0
    rebuilds: int = 0
    degraded: int = 0
    failures: int = 0
    shm_fallbacks: int = 0

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate ``other``'s counts into this instance (in place)."""

        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def to_dict(self) -> dict:
        """Plain-dict form (the health endpoint's JSON currency)."""

        return dataclasses.asdict(self)

    @property
    def total(self) -> int:
        """Total fault events (crashes + timeouts + surfaced failures)."""

        return self.crashes + self.timeouts + self.failures

    def row(self) -> str:
        """One-line summary for logs and benches."""

        return (
            f"crashes={self.crashes} timeouts={self.timeouts} "
            f"retries={self.retries} rebuilds={self.rebuilds} "
            f"degraded={self.degraded} failures={self.failures}"
        )


@dataclasses.dataclass
class ThroughputResult:
    """One throughput measurement.

    ``wedges_per_second`` / ``seconds_per_batch`` are best-of-N; the
    ``*_mean`` fields keep the noisier mean for reference.
    """

    batch_size: int
    half: bool
    wedges_per_second: float
    seconds_per_batch: float
    repeats: int
    seconds_per_batch_mean: float = 0.0

    @property
    def wedges_per_second_mean(self) -> float:
        """Mean-based throughput (kept for reference; noisier than best)."""

        if self.seconds_per_batch_mean <= 0.0:
            return self.wedges_per_second
        return self.batch_size / self.seconds_per_batch_mean


def measure_encoder_throughput(
    model,
    input_shape: tuple[int, ...],
    batch_size: int = 1,
    half: bool = True,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 0,
) -> ThroughputResult:
    """Time ``model.encode`` on random wedges of ``input_shape``.

    ``input_shape`` excludes the batch axis (e.g. ``(16, 192, 256)``).
    Each repeat is timed individually; the headline throughput uses the
    best repeat (see module docstring), the mean is reported alongside.
    """

    rng = np.random.default_rng(seed)
    x = Tensor(rng.random((batch_size,) + tuple(input_shape), dtype=np.float32))
    model.eval()
    times: list[float] = []
    with nn.no_grad(), nn.amp.autocast(half):
        for _ in range(warmup):
            model.encode(x)
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.encode(x)
            times.append(time.perf_counter() - t0)
    best = min(times)
    return ThroughputResult(
        batch_size=batch_size,
        half=half,
        wedges_per_second=batch_size / best,
        seconds_per_batch=best,
        repeats=repeats,
        seconds_per_batch_mean=float(np.mean(times)),
    )


def measure_compress_throughput(
    model,
    wedge_shape: tuple[int, ...],
    batch_size: int = 1,
    half: bool = True,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 0,
) -> ThroughputResult:
    """Time ``BCAECompressor.compress_into`` on raw wedges of ``wedge_shape``.

    Unlike :func:`measure_encoder_throughput` (module graph only), this
    measures the *deployable* serving operation: log transform, padding and
    encode through the compiled fast path wherever the model has one —
    every zoo variant in eval mode, the original BCAE's BatchNorm stacks
    included — with the module-graph fallback otherwise, so cross-model
    comparisons are like-for-like engines.  ``wedge_shape`` excludes the
    batch axis (raw ADC, e.g. ``(16, 192, 249)``).
    """

    from ..core.compressor import BCAECompressor  # deferred: perf ← core cycle

    rng = np.random.default_rng(seed)
    wedges = rng.integers(
        0, 1024, size=(batch_size,) + tuple(wedge_shape)
    ).astype(np.uint16)
    wedges[wedges < 700] = 0  # zero-suppressed occupancy, §2.1
    # Inference mode: BatchNorm models (the original BCAE) must encode
    # from running statistics, or the timed op would mutate model state
    # and depend on batch composition.
    model.eval()
    compressor = BCAECompressor(model, half=half)
    times: list[float] = []
    for _ in range(warmup):
        compressor.compress_into(wedges)
    for _ in range(repeats):
        t0 = time.perf_counter()
        compressor.compress_into(wedges)
        times.append(time.perf_counter() - t0)
    best = min(times)
    return ThroughputResult(
        batch_size=batch_size,
        half=half,
        wedges_per_second=batch_size / best,
        seconds_per_batch=best,
        repeats=repeats,
        seconds_per_batch_mean=float(np.mean(times)),
    )


def measure_curve(
    model,
    input_shape: tuple[int, ...],
    batch_sizes: tuple[int, ...] = (1, 2, 4),
    half: bool = True,
    repeats: int = 2,
) -> dict[int, float]:
    """Batch-size → measured wedges/s (CPU analogue of Figure 6)."""

    return {
        b: measure_encoder_throughput(
            model, input_shape, batch_size=b, half=half, repeats=repeats
        ).wedges_per_second
        for b in batch_sizes
    }


def throughput_from_batches(
    batch_sizes: Sequence[int],
    batch_seconds: Sequence[float],
    elapsed_s: float,
    half: bool = True,
) -> ThroughputResult:
    """Service-level throughput from per-batch compress timings.

    Summarizes a served stream (e.g. one
    :class:`repro.serve.StreamingCompressionService` run) in the same
    :class:`ThroughputResult` currency as the encoder microbenchmarks:
    ``wedges_per_second`` is end-to-end (total wedges over wall elapsed,
    which includes batching and hand-off overhead), ``seconds_per_batch``
    is the best observed batch, and the mean is kept alongside.
    """

    if len(batch_sizes) != len(batch_seconds) or not batch_sizes:
        raise ValueError("need matching, non-empty batch_sizes/batch_seconds")
    if elapsed_s <= 0:
        raise ValueError(f"elapsed_s must be positive, got {elapsed_s}")
    total = int(np.sum(batch_sizes))
    return ThroughputResult(
        batch_size=int(max(batch_sizes)),
        half=half,
        wedges_per_second=total / elapsed_s,
        seconds_per_batch=float(np.min(batch_seconds)),
        repeats=len(batch_seconds),
        seconds_per_batch_mean=float(np.mean(batch_seconds)),
    )
