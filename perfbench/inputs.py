"""Seeded benchmark inputs: whole 24-wedge TPC events and their digests.

The workload seed is the only source of randomness.  At paper geometry the
events come from :class:`repro.tpc.HijingLikeGenerator`; the tiny geometry
(used by the self-test) draws zero-suppressed wedges of matching occupancy
directly, because the generator's detector grid is fixed.
"""

from __future__ import annotations

import hashlib

import numpy as np

PAPER_SPATIAL = (16, 192, 249)
TINY_SPATIAL = (16, 24, 30)
WEDGES_PER_EVENT = 24

#: Track multiplicity of a central event (the generator's default, ~9 %
#: occupancy) and of a peripheral one.  Pile-up adds tracks on top, so a
#: peripheral multiplicity of 600 gives the ~1-1.5 % occupancy of a
#: peripheral collision (1200 gives 2-4 %, where some sparse records
#: outgrow a BCAE code).  Both land under the occupancy policy's 5 %
#: threshold only for peripheral events, which the adaptive tier then
#: routes to the sparse codec.
CENTRAL_MULTIPLICITY = 4500.0
PERIPHERAL_MULTIPLICITY = 600.0

#: Occupancies the tiny geometry imitates (the paper-geometry values).
_TINY_OCCUPANCY = {"central": 0.09, "peripheral": 0.015}


def spatial_for(scale: str) -> tuple[int, int, int]:
    if scale == "paper":
        return PAPER_SPATIAL
    if scale == "tiny":
        return TINY_SPATIAL
    raise ValueError(f"unknown scale {scale!r}")


def event(kind: str, seed: int, index: int, scale: str) -> np.ndarray:
    """One event's 24 wedges ``(24, R, A, H)`` uint16, from ``(seed, index)``."""

    if kind not in _TINY_OCCUPANCY:
        raise ValueError(f"unknown event kind {kind!r}")
    rng = np.random.default_rng([seed, index, 0 if kind == "central" else 1])
    if scale == "paper":
        from repro.tpc import HijingLikeGenerator

        multiplicity = (CENTRAL_MULTIPLICITY if kind == "central"
                        else PERIPHERAL_MULTIPLICITY)
        return HijingLikeGenerator(multiplicity=multiplicity).wedges(rng)
    shape = (WEDGES_PER_EVENT,) + spatial_for(scale)
    hits = rng.random(shape) < _TINY_OCCUPANCY[kind]
    adc = rng.integers(64, 1024, size=shape)
    return np.where(hits, adc, 0).astype(np.uint16)


def occupancy(wedges: np.ndarray) -> float:
    return float(np.count_nonzero(wedges)) / wedges.size


def digest(array) -> str:
    """Content digest of an array or bytes (dtype and shape included)."""

    h = hashlib.sha256()
    if isinstance(array, np.ndarray):
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    else:
        h.update(bytes(array))
    return h.hexdigest()
