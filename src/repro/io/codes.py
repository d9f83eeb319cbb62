"""On-disk formats for compressed codes and evaluation artifacts.

The deployment unit is the fp16 code payload produced by
:class:`repro.core.BCAECompressor`; this module adds a simple npz container
for archiving batches of compressed wedges together with the metadata needed
to decompress them later: code shape, original horizontal size, model name,
the compressor's precision mode and the code dtype.  The precision mode
matters — a payload saved by a half-precision compressor and loaded into a
full-precision one would decode silently wrong, so it is recorded on save
and validated by ``BCAECompressor.decompress``.  Archives written before
these fields existed keep loading (their mode is ``None`` = unchecked).

**Format version 2** (the adaptive rate tier, :mod:`repro.rate`) adds a
per-wedge codec record: ``codec_ids`` + ``record_sizes`` describe the
payload as a concatenation of variable-size records (id 0 = BCAE fp16
codes, classical ids per the append-only registry), and ``rate_decisions``
carries the :class:`repro.rate.RateDecision` ledger.  Version-2 archives
are validated **at load**: every codec id must be known to this build
(unknown ids are rejected loudly instead of mis-decoding) and the payload
must hold exactly the declared record bytes.  Version-1 archives —
everything written before the rate tier — keep loading unchanged.

:func:`concat_compressed` / :func:`split_compressed` rechunk payload
batches.  Legacy batches are fixed-size records (pure byte arithmetic);
mixed-codec batches re-index their per-wedge records, and concatenating a
legacy batch with a mixed one promotes the legacy side to all-BCAE records
first, so the result stays self-describing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..core.compressor import CompressedWedges

__all__ = [
    "save_compressed",
    "load_compressed",
    "concat_compressed",
    "split_compressed",
]

#: Archive format written by :func:`save_compressed` when per-wedge codec
#: records are present (1 = fixed-size BCAE-only, 2 = per-wedge codecs).
FORMAT_VERSION = 2


def save_compressed(
    compressed: CompressedWedges, path: str | Path, model_name: str = ""
) -> Path:
    """Archive a compressed batch to ``path`` (npz)."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    half_flag = -1 if compressed.half is None else int(bool(compressed.half))
    arrays = dict(
        payload=np.frombuffer(compressed.payload, dtype=np.uint8),
        code_shape=np.array(compressed.code_shape, dtype=np.int64),
        n_wedges=np.array([compressed.n_wedges], dtype=np.int64),
        original_horizontal=np.array([compressed.original_horizontal], dtype=np.int64),
        model_name=np.frombuffer(model_name.encode("utf-8"), dtype=np.uint8),
        half=np.array([half_flag], dtype=np.int8),
        code_dtype=np.frombuffer(
            np.dtype(compressed.code_dtype).str.encode("ascii"), dtype=np.uint8
        ),
    )
    if compressed.codec_ids is not None:
        arrays["format_version"] = np.array([FORMAT_VERSION], dtype=np.int64)
        arrays["codec_ids"] = np.array(compressed.codec_ids, dtype=np.int64)
        arrays["record_sizes"] = np.array(compressed.record_sizes, dtype=np.int64)
        decisions = compressed.decisions or ()
        if decisions:
            arrays["rate_decisions"] = np.array(
                [d.as_row() for d in decisions], dtype=np.float64
            )
    np.savez_compressed(path, **arrays)
    return path


def _load_codec_fields(data, path, n_wedges: int, payload: bytes):
    """Validate and extract the version-2 per-wedge codec record."""

    codec_ids = tuple(int(v) for v in data["codec_ids"])
    record_sizes = tuple(int(v) for v in data["record_sizes"])
    if len(codec_ids) != n_wedges or len(record_sizes) != n_wedges:
        raise ValueError(
            f"archive {path} declares {n_wedges} wedges but carries "
            f"{len(codec_ids)} codec ids / {len(record_sizes)} record sizes"
        )
    # Reject ids this build cannot decode *here*, where the archive is
    # opened, instead of producing garbage at decompress time.
    from ..rate.registry import validate_codec_ids

    validate_codec_ids(codec_ids, context=f"archive {path}")
    need = sum(record_sizes)
    if len(payload) < need:
        raise ValueError(
            f"archive {path} is truncated: payload holds {len(payload)} "
            f"bytes but the per-wedge records declare {need}"
        )
    decisions = None
    if "rate_decisions" in data.files:
        from ..rate.policy import RateDecision

        rows = np.asarray(data["rate_decisions"], dtype=np.float64)
        if rows.shape[0] != n_wedges:
            raise ValueError(
                f"archive {path} carries {rows.shape[0]} rate decisions "
                f"for {n_wedges} wedges"
            )
        decisions = tuple(RateDecision.from_row(row) for row in rows)
    return codec_ids, record_sizes, decisions


def load_compressed(path: str | Path) -> tuple[CompressedWedges, str]:
    """Load an archived compressed batch; returns (payload, model name).

    Validates the archive's self-description: the code dtype must parse and
    the payload must hold ``n_wedges`` complete code records (a truncated
    or mislabeled archive fails here, not at decode time).  Legacy archives
    without the ``half``/``code_dtype`` fields load with ``half=None``
    (precision unchecked) and the fp16 default; version-2 archives
    additionally validate their per-wedge codec ids against the registry
    and their payload against the declared record sizes.
    """

    with np.load(Path(path)) as data:
        half: bool | None = None
        if "half" in data.files:
            flag = int(data["half"][0])
            half = None if flag < 0 else bool(flag)
        dtype_str = (
            data["code_dtype"].tobytes().decode("ascii")
            if "code_dtype" in data.files
            else "<f2"
        )
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise ValueError(f"archive {path} has invalid code dtype {dtype_str!r}") from exc
        payload = data["payload"].tobytes()
        code_shape = tuple(int(v) for v in data["code_shape"])
        n_wedges = int(data["n_wedges"][0])
        codec_ids = record_sizes = decisions = None
        if "codec_ids" in data.files:
            codec_ids, record_sizes, decisions = _load_codec_fields(
                data, path, n_wedges, payload
            )
        else:
            need = n_wedges * int(np.prod(code_shape)) * dtype.itemsize
            if len(payload) < need:
                raise ValueError(
                    f"archive {path} is truncated: payload holds {len(payload)} "
                    f"bytes but {n_wedges} wedges of shape {code_shape} "
                    f"({dtype}) need {need}"
                )
        compressed = CompressedWedges(
            payload=payload,
            code_shape=code_shape,
            n_wedges=n_wedges,
            original_horizontal=int(data["original_horizontal"][0]),
            half=half,
            code_dtype=dtype.str,
            codec_ids=codec_ids,
            record_sizes=record_sizes,
            decisions=decisions,
        )
        model_name = data["model_name"].tobytes().decode("utf-8")
    return compressed, model_name


def _record_nbytes(compressed: CompressedWedges) -> int:
    return int(np.prod(compressed.code_shape)) * np.dtype(compressed.code_dtype).itemsize


def _as_records(compressed: CompressedWedges) -> CompressedWedges:
    """Promote a legacy fixed-size batch to explicit per-wedge records.

    All-BCAE by definition (codec id 0, uniform record size); payload
    bytes are reused as-is (trimmed of any bytes past the last record).  Mixed
    batches pass through unchanged.
    """

    if compressed.codec_ids is not None:
        return compressed
    record = _record_nbytes(compressed)
    import dataclasses

    return dataclasses.replace(
        compressed,
        payload=bytes(
            memoryview(compressed.payload)[: compressed.n_wedges * record]
        ),
        codec_ids=(0,) * compressed.n_wedges,
        record_sizes=(record,) * compressed.n_wedges,
    )


def concat_compressed(batches: Sequence[CompressedWedges]) -> CompressedWedges:
    """Concatenate payload batches into one.

    All batches must agree on code shape, horizontal size, precision mode
    and dtype — the metadata under which the payload bytes are meaningful.
    Legacy fixed-size batches concatenate by byte arithmetic as before;
    when any batch carries per-wedge codec records, every batch is
    promoted to record form and the codec ids / record sizes / decision
    ledgers concatenate alongside the payload.
    """

    if not batches:
        raise ValueError("cannot concatenate zero compressed batches")
    first = batches[0]
    for b in batches[1:]:
        meta = (b.code_shape, b.original_horizontal, b.half, b.code_dtype)
        ref = (first.code_shape, first.original_horizontal, first.half, first.code_dtype)
        if meta != ref:
            raise ValueError(f"incompatible compressed batches: {meta} != {ref}")

    if any(b.codec_ids is not None for b in batches):
        recs = [_as_records(b) for b in batches]
        codec_ids: tuple[int, ...] = ()
        record_sizes: tuple[int, ...] = ()
        decisions: list = []
        have_decisions = False
        for b in recs:
            codec_ids += b.codec_ids
            record_sizes += b.record_sizes
            if b.decisions is not None:
                have_decisions = True
                decisions.extend(b.decisions)
            else:
                decisions.extend([None] * b.n_wedges)
        return CompressedWedges(
            payload=b"".join(bytes(memoryview(b.payload)[: sum(b.record_sizes)])
                             for b in recs),
            code_shape=first.code_shape,
            n_wedges=sum(b.n_wedges for b in recs),
            original_horizontal=first.original_horizontal,
            half=first.half,
            code_dtype=first.code_dtype,
            codec_ids=codec_ids,
            record_sizes=record_sizes,
            decisions=tuple(decisions) if have_decisions else None,
        )

    record = _record_nbytes(first)
    payload = b"".join(
        bytes(memoryview(b.payload)[: b.n_wedges * record]) for b in batches
    )
    return CompressedWedges(
        payload=payload,
        code_shape=first.code_shape,
        n_wedges=sum(b.n_wedges for b in batches),
        original_horizontal=first.original_horizontal,
        half=first.half,
        code_dtype=first.code_dtype,
    )


def split_compressed(
    compressed: CompressedWedges, batch_size: int
) -> Iterator[CompressedWedges]:
    """Split a payload batch into chunks of ≤ ``batch_size`` wedges.

    Zero-copy: each chunk's payload is a memoryview into the original
    buffer.  The inverse of :func:`concat_compressed`; the decompression
    service uses it to feed archived payloads to the worker pool in
    micro-batches.  Mixed-codec batches slice their per-wedge codec ids,
    record sizes and decision ledger alongside the payload (offsets come
    from the cumulative record sizes, still zero-copy).
    """

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    view = memoryview(compressed.payload)

    if compressed.codec_ids is not None:
        offsets = [0]
        for size in compressed.record_sizes:
            offsets.append(offsets[-1] + int(size))
        for start in range(0, compressed.n_wedges, batch_size):
            n = min(batch_size, compressed.n_wedges - start)
            yield CompressedWedges(
                payload=view[offsets[start]:offsets[start + n]],
                code_shape=compressed.code_shape,
                n_wedges=n,
                original_horizontal=compressed.original_horizontal,
                half=compressed.half,
                code_dtype=compressed.code_dtype,
                codec_ids=compressed.codec_ids[start:start + n],
                record_sizes=compressed.record_sizes[start:start + n],
                decisions=(compressed.decisions[start:start + n]
                           if compressed.decisions is not None else None),
            )
        return

    record = _record_nbytes(compressed)
    for start in range(0, compressed.n_wedges, batch_size):
        n = min(batch_size, compressed.n_wedges - start)
        yield CompressedWedges(
            payload=view[start * record:(start + n) * record],
            code_shape=compressed.code_shape,
            n_wedges=n,
            original_horizontal=compressed.original_horizontal,
            half=compressed.half,
            code_dtype=compressed.code_dtype,
        )
