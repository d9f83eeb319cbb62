"""End-to-end compression interface around a trained BCAE (paper §3.1).

The deployable artifact is the *encoder* running in the counting house: raw
zero-suppressed wedges come in, fp16 codes go out to permanent storage.  The
decoders run offline at analysis time.  The paper computes the compression
ratio treating both the input and the code as 16-bit floats:

    ratio = (wedge voxels) / (code elements) = 764928 / 24576 = 31.125

for BCAE++/HT/2D on the paper grid, and 27.041 for the original BCAE.

Both directions of the loop expose a reference path and a compiled hot
path, bit-identical to each other:

``compress`` / ``decompress``
    the reference paths through the autograd module graph — simple,
    allocation-heavy, one batch at a time;
``compress_into`` / ``compress_stream``
    the serving hot path: persistent workspaces (no per-batch ``np.pad`` /
    im2col / fp16-cast reallocation) via the compiled encoders of
    :mod:`~repro.core.fast_encode` — :class:`FastEncoder2D` for the 2D
    family, :class:`FastEncoder3D` for every 3D variant including the
    original BCAE (eval-mode BatchNorm compiles to folded convolutions or
    exact affine stages) — with a reusable-buffer fallback through the
    module graph only for genuinely unknown stage stacks (custom modules,
    or BatchNorm still in training mode).  Output bytes are identical to
    ``compress`` for the same input;
``decompress_into`` / ``decompress_stream``
    the analysis hot path: both decoder heads and the masked combine
    compiled by :class:`~repro.core.fast_decode.FastDecoder2D` /
    :class:`~repro.core.fast_decode.FastDecoder3D` (same stage-plan
    engine, same bit-identity contract), with the same
    unknown-stack-only fallback.  Both fast paths re-fingerprint their
    weights per call and recompile after any parameter update.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

import numpy as np

from .. import nn
from ..nn import Tensor
from ..tpc.transforms import (
    log_transform,
    inverse_log_transform,
    pad_horizontal,
    padded_length,
    unpad_horizontal,
)
from .fast_decode import make_fast_decoder, supports_fast_decode
from .fast_encode import Workspace, make_fast_encoder, supports_fast_encode
from .heads import BicephalousAutoencoder

__all__ = ["CompressedWedges", "BCAECompressor"]


@dataclasses.dataclass
class CompressedWedges:
    """A batch of compressed wedges.

    Attributes
    ----------
    payload:
        The fp16 code bytes — what would be written to storage.
    code_shape:
        Per-wedge code shape (without the batch axis).
    n_wedges:
        Number of wedges in the payload.
    original_horizontal:
        Unpadded horizontal size, needed to clip the reconstruction.
    half:
        Precision mode of the compressor that produced the payload
        (``None`` for payloads from before this field existed).  Decoding
        with a compressor in the other mode would silently produce wrong
        reconstructions, so :meth:`BCAECompressor.decompress` validates it.
    code_dtype:
        dtype string of the stored codes (``"<f2"`` — kept explicit so
        archives are self-describing and validated on load).
    codec_ids:
        Per-wedge codec ids (see :mod:`repro.rate.registry`) when the
        batch was produced by the adaptive tier; ``None`` (default) means
        the legacy fixed-size all-BCAE layout.
    record_sizes:
        Per-wedge record sizes in bytes (paired with ``codec_ids``): the
        payload is the concatenation of ``n_wedges`` variable-size
        records.  ``None`` for the legacy layout.
    decisions:
        Per-wedge :class:`repro.rate.RateDecision` ledger (``None`` when
        absent).  Typed loosely here so :mod:`repro.core` never imports
        the rate tier.
    """

    payload: bytes
    code_shape: tuple[int, ...]
    n_wedges: int
    original_horizontal: int
    half: bool | None = None
    code_dtype: str = "<f2"
    codec_ids: tuple[int, ...] | None = None
    record_sizes: tuple[int, ...] | None = None
    decisions: tuple | None = None

    def __post_init__(self) -> None:
        # Header fields come from archives too: reject values no encoder
        # can produce before they reach slicing arithmetic at decode time.
        if self.n_wedges < 0:
            raise ValueError(f"n_wedges must be >= 0, got {self.n_wedges}")
        if any(dim < 1 for dim in self.code_shape):
            raise ValueError(
                f"code_shape dims must be >= 1, got {tuple(self.code_shape)}"
            )
        if self.original_horizontal < 1:
            raise ValueError(
                "original_horizontal must be >= 1, got "
                f"{self.original_horizontal}"
            )
        if (self.codec_ids is None) != (self.record_sizes is None):
            raise ValueError(
                "codec_ids and record_sizes must be given together "
                "(both None for the fixed-size BCAE layout)"
            )
        if self.codec_ids is not None:
            if len(self.codec_ids) != self.n_wedges:
                raise ValueError(
                    f"codec_ids has {len(self.codec_ids)} entries for "
                    f"{self.n_wedges} wedges"
                )
            if len(self.record_sizes) != self.n_wedges:
                raise ValueError(
                    f"record_sizes has {len(self.record_sizes)} entries "
                    f"for {self.n_wedges} wedges"
                )
            if (self.decisions is not None
                    and len(self.decisions) != self.n_wedges):
                raise ValueError(
                    f"decisions has {len(self.decisions)} entries for "
                    f"{self.n_wedges} wedges"
                )

    @property
    def nbytes(self) -> int:
        """Stored payload size in bytes."""

        return len(self.payload)

    @property
    def mixed(self) -> bool:
        """True when the payload holds records from more than one codec
        (variable-size layout; ``codes_view`` refuses such payloads)."""

        return self.codec_ids is not None and any(
            c != 0 for c in self.codec_ids
        )

    def codes(self) -> np.ndarray:
        """The payload as a *writable* fp16 code array.

        Returns a fresh copy: callers may scale, mask or otherwise edit
        codes (e.g. latent-space studies) without tripping over the
        read-only buffer backing ``payload``.  Use :meth:`codes_view` for
        zero-copy read access.
        """

        return self.codes_view().copy()

    def codes_view(self) -> np.ndarray:
        """Zero-copy *read-only* view of the payload as fp16 codes.

        Only meaningful while every record is a BCAE code (the fixed-size
        layout, or an adaptive batch that routed everything to the BCAE);
        a genuinely mixed payload has no single code grid to view and
        raises — decode it through :class:`repro.rate.AdaptiveCompressor`.
        """

        if self.mixed:
            raise ValueError(
                "payload mixes per-wedge codecs "
                f"(ids {sorted(set(self.codec_ids))}) — there is no "
                "uniform code view; decompress it through "
                "repro.rate.AdaptiveCompressor instead"
            )
        count = self.n_wedges * int(np.prod(self.code_shape))
        # count= tolerates payloads longer than the codes: archives are
        # only checked for truncation on load.
        arr = np.frombuffer(self.payload, dtype=np.dtype(self.code_dtype), count=count)
        arr = arr.reshape((self.n_wedges,) + tuple(self.code_shape))
        arr.flags.writeable = False  # frombuffer of a bytearray is writable
        return arr


class BCAECompressor:
    """Compress/decompress raw ADC wedges with a trained bicephalous model.

    Parameters
    ----------
    model:
        A :class:`BicephalousAutoencoder` (any variant).
    half:
        Run inference in the paper's half-precision mode (default True —
        "the most likely computation model for future deployment", §3.3).
    panel_threads:
        Intra-plan panel executor width for the compiled fast paths
        (None → the ``REPRO_PANEL_THREADS`` environment knob, default 1).
        Payload/reconstruction bits are identical at every width.
    """

    def __init__(self, model: BicephalousAutoencoder, half: bool = True,
                 panel_threads: int | None = None) -> None:
        self.model = model
        self.half = bool(half)
        self.panel_threads = panel_threads
        self._fast = None
        self._fast_signature: tuple = ()
        self._fast_dec = None
        self._fast_dec_signature: tuple = ()
        self._scratch = Workspace()

    # ------------------------------------------------------------------
    def _horizontal_target(self, horizontal: int) -> int:
        """Padded horizontal length the encoder consumes."""

        if hasattr(self.model.encoder, "spatial"):
            # 3D models carry their exact input spatial shape.
            return int(self.model.encoder.spatial[-1])
        # 2D models only need divisibility by 2^d.
        return padded_length(horizontal, 2 ** self.model.encoder.d)

    def _prepare(self, wedges: np.ndarray) -> tuple[np.ndarray, int]:
        """Raw ADC (B, R, A, H) → padded log-transformed network input."""

        if wedges.ndim == 3:
            wedges = wedges[None]
        horizontal = wedges.shape[-1]
        x = log_transform(wedges)
        target = self._horizontal_target(horizontal)
        if target != horizontal:
            x = pad_horizontal(x, target)
        return x, horizontal

    # ------------------------------------------------------------------
    def compress(self, wedges: np.ndarray) -> CompressedWedges:
        """Compress raw ADC wedges ``(B, R, A, H)`` (or a single wedge).

        Returns the fp16 code payload — the storage unit of the paper.
        This is the reference path; :meth:`compress_into` produces identical
        bytes without the per-call allocations.
        """

        x, horizontal = self._prepare(wedges)
        with nn.no_grad(), nn.amp.autocast(self.half):
            code = self.model.encode(Tensor(x))
        code16 = code.data.astype(np.float16)
        return CompressedWedges(
            payload=code16.tobytes(),
            code_shape=code16.shape[1:],
            n_wedges=code16.shape[0],
            original_horizontal=horizontal,
            half=self.half,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _state_signature(*modules) -> tuple:
        """Cheap content fingerprint of module parameters *and* buffers.

        Two float64 reductions per array (~0.1 ms for paper-sized
        encoders) — any realistic state update (optimizer step, checkpoint
        load, manual edit, BatchNorm running-statistics refresh) perturbs
        them, so a stale compiled fast path is detected and rebuilt instead
        of silently serving old weights.  Buffers matter since the original
        BCAE compiles: its folded/affine BatchNorm stages snapshot
        ``running_mean``/``running_var``.
        """

        sig = []
        for module in modules:
            for p in module.parameters():
                a = p.data
                sig.append((
                    a.shape,
                    float(a.sum(dtype=np.float64)),
                    float(np.abs(a).sum(dtype=np.float64)),
                ))
            for _name, b in module.named_buffers():
                a = np.asarray(b)
                sig.append((
                    a.shape,
                    float(a.sum(dtype=np.float64)),
                    float(np.abs(a).sum(dtype=np.float64)),
                ))
        return tuple(sig)

    def _weights_signature(self) -> tuple:
        """Encoder state fingerprint (see :meth:`_state_signature`)."""

        return self._state_signature(self.model.encoder)

    def _fast_encoder(self):
        # Support is re-checked per call (an isinstance scan, trivial next
        # to the signature reductions below): eval()/train() flips move
        # BatchNorm models on and off the compiled path.
        if not supports_fast_encode(self.model):
            return None
        signature = self._weights_signature()
        if self._fast is None or signature != self._fast_signature:
            self._fast = make_fast_encoder(self.model, half=self.half,
                                           panel_threads=self.panel_threads)
            self._fast_signature = signature
        return self._fast

    def _log_into(self, wedges: np.ndarray) -> np.ndarray:
        """``log_transform`` into a persistent scratch buffer.

        Replicates ``log2(adc.astype(float32) + 1)`` cast-for-cast so the
        values match the reference path for any input dtype.
        """

        buf = self._scratch.get("log", wedges.shape)
        np.copyto(buf, wedges, casting="unsafe")  # the astype(float32)
        buf += 1.0
        np.log2(buf, out=buf)
        return buf

    def compress_into(self, wedges: np.ndarray) -> CompressedWedges:
        """Compress through persistent workspaces — the serving hot path.

        Byte-identical to :meth:`compress`; no im2col / padding / fp16-cast
        reallocation on repeated same-shape calls.  The payload is owned
        bytes, safe to hand across threads while the workspaces are reused.

        One compressor instance's workspaces are not thread-safe — use one
        instance per worker (as :mod:`repro.serve` does).
        """

        if wedges.ndim == 3:
            wedges = wedges[None]
        horizontal = wedges.shape[-1]
        fast = self._fast_encoder()
        if fast is not None:
            x = self._log_into(wedges)
            code16 = fast.encode(x, horizontal_target=self._horizontal_target(horizontal))
        else:
            # Module-graph fallback (genuinely unknown stage stacks, or
            # training-mode BatchNorm — every zoo model in eval mode
            # compiles): still avoids the per-call log/pad allocations of
            # the reference path.
            x = self._log_into(wedges)
            target = self._horizontal_target(horizontal)
            if target != horizontal:
                xp = self._scratch.get("pad", x.shape[:-1] + (target,))
                xp[..., horizontal:] = 0
                np.copyto(xp[..., :horizontal], x)
                x = xp
            with nn.no_grad(), nn.amp.autocast(self.half):
                code = self.model.encode(Tensor(x))
            code16 = self._scratch.get("code16", code.data.shape, np.float16)
            np.copyto(code16, code.data, casting="unsafe")

        return CompressedWedges(
            payload=code16.tobytes(),
            code_shape=code16.shape[1:],
            n_wedges=code16.shape[0],
            original_horizontal=horizontal,
            half=self.half,
        )

    def compress_stream(
        self, wedges: Iterable[np.ndarray], batch_size: int = 8
    ) -> Iterator[CompressedWedges]:
        """Compress a stream of single wedges ``(R, A, H)`` in micro-batches.

        Chunks the iterable into batches of ``batch_size`` (the tail batch
        may be smaller), stacking into a persistent staging buffer; each
        chunk is compressed with :meth:`compress_into`.  Wedge order is
        preserved.
        """

        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        staged: np.ndarray | None = None
        fill = 0
        for wedge in wedges:
            wedge = np.asarray(wedge)
            if wedge.ndim != 3:
                raise ValueError(f"expected single wedges (R, A, H), got {wedge.shape}")
            if staged is None or staged.shape[1:] != wedge.shape or staged.dtype != wedge.dtype:
                if fill:
                    yield self.compress_into(staged[:fill])
                    fill = 0
                staged = self._scratch.get(
                    ("stage", wedge.dtype.str), (batch_size,) + wedge.shape, wedge.dtype
                )
            staged[fill] = wedge
            fill += 1
            if fill == batch_size:
                yield self.compress_into(staged)
                fill = 0
        if fill:
            yield self.compress_into(staged[:fill])

    # ------------------------------------------------------------------
    def _check_compressed(self, compressed: CompressedWedges) -> None:
        """Validate payload metadata against this compressor.

        A payload produced in the other precision mode decodes *silently
        wrong* (the codes are valid fp16 either way); the recorded ``half``
        flag turns that into a loud error.  Legacy payloads (``half is
        None``) are accepted unchecked.  An ``original_horizontal`` wider
        than the decoder's output cannot be an unpadded size, so it is
        rejected instead of clipped to the full width.
        """

        if compressed.half is not None and bool(compressed.half) != self.half:
            raise ValueError(
                f"payload was compressed in "
                f"{'half' if compressed.half else 'full'} precision but this "
                f"compressor decodes in {'half' if self.half else 'full'}; "
                "rebuild the compressor with the matching half= flag"
            )
        if np.dtype(compressed.code_dtype) != np.float16:
            raise ValueError(
                f"unsupported code dtype {compressed.code_dtype!r}; "
                "BCAE payloads store fp16 codes"
            )
        encoder = self.model.encoder
        if hasattr(encoder, "spatial"):
            extent = int(encoder.spatial[-1])
        else:
            extent = int(compressed.code_shape[-1]) * 2 ** encoder.d
        if compressed.original_horizontal > extent:
            raise ValueError(
                f"original_horizontal {compressed.original_horizontal} is "
                f"wider than the decoded horizontal extent {extent}"
            )

    def decompress(self, compressed: CompressedWedges) -> np.ndarray:
        """Decompress codes to log-ADC reconstructions ``(B, R, A, H)``.

        The horizontal padding is clipped (paper §2.3: metrics are computed
        on the unpadded region only).  This is the reference path;
        :meth:`decompress_into` produces bit-identical values without the
        per-call allocations.
        """

        self._check_compressed(compressed)
        codes = compressed.codes_view().astype(np.float32)
        with nn.no_grad(), nn.amp.autocast(self.half):
            seg, reg = self.model.decode(Tensor(codes))
        recon = reg.data * (seg.data > self.model.threshold)
        return unpad_horizontal(recon, compressed.original_horizontal)

    def decompress_adc(self, compressed: CompressedWedges) -> np.ndarray:
        """Decompress all the way back to integer ADC counts."""

        return inverse_log_transform(self.decompress(compressed))

    # ------------------------------------------------------------------
    def _decoder_signature(self) -> tuple:
        """Content fingerprint of both decoder heads plus the threshold.

        Same two-reduction scheme as :meth:`_state_signature` (parameters
        *and* buffers — the compiled BatchNorm stages snapshot running
        statistics); the threshold is included because the compiled combine
        snapshots it.
        """

        return (("threshold", float(self.model.threshold)),) + \
            self._state_signature(self.model.seg_decoder, self.model.reg_decoder)

    def _fast_decoder(self):
        # Re-checked per call, like the encoder side: eval()/train() flips
        # move BatchNorm models on and off the compiled path.
        if not supports_fast_decode(self.model):
            return None
        signature = self._decoder_signature()
        if self._fast_dec is None or signature != self._fast_dec_signature:
            self._fast_dec = make_fast_decoder(self.model, half=self.half,
                                               panel_threads=self.panel_threads)
            self._fast_dec_signature = signature
        return self._fast_dec

    def decompress_into(
        self, compressed: CompressedWedges, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Decompress through persistent workspaces — the analysis hot path.

        Bit-identical to :meth:`decompress`; no per-call pad / im2col /
        quantize-cast allocations on repeated same-shape calls.  ``out``,
        when given, must be a writable float32 array of the reconstruction
        shape ``(B, R, A, H_orig)``; the result is copied into it and
        ``out`` returned.  Without ``out`` the returned array is a view of
        a reused workspace buffer — copy it before the next call on this
        compressor.  Falls back to the module graph (fresh allocations,
        same values) for models without a compiled decode path.

        One compressor instance's workspaces are not thread-safe — use one
        instance per worker (as :mod:`repro.serve` does).
        """

        self._check_compressed(compressed)
        fast = self._fast_decoder()
        if fast is None:
            # Module-graph fallback (genuinely unknown stage stacks, or
            # training-mode BatchNorm — every zoo model in eval mode
            # compiles, the original BCAE included).
            recon = self.decompress(compressed)
        else:
            recon = fast.decompress(
                compressed.codes_view(), compressed.original_horizontal
            )
        if out is None:
            return recon
        np.copyto(out, recon)
        return out

    def decompress_stream(
        self, compressed: Iterable[CompressedWedges]
    ) -> Iterator[np.ndarray]:
        """Decompress a stream of payload batches to owned recon arrays.

        Each yielded ``(B, R, A, H)`` array is a fresh copy (safe to
        accumulate), produced through the reused fast-path workspaces.
        """

        for batch in compressed:
            yield np.array(self.decompress_into(batch))

    # ------------------------------------------------------------------
    def roundtrip(self, wedges: np.ndarray) -> tuple[np.ndarray, CompressedWedges]:
        """Compress + decompress; returns (reconstruction, compressed)."""

        compressed = self.compress(wedges)
        return self.decompress(compressed), compressed

    # ------------------------------------------------------------------
    def code_shape_for(self, wedge_spatial: tuple[int, int, int]) -> tuple[int, ...]:
        """Per-wedge code shape for a raw wedge shape — *no model execution*.

        Derived from the encoder's stage arithmetic (divisibility for the 2D
        family, the solved stage plans for the 3D family), so it is cheap
        enough for sizing arithmetic at import time.
        """

        r, a, h = (int(v) for v in wedge_spatial)
        encoder = self.model.encoder
        if hasattr(encoder, "spatial"):
            er, ea, eh = encoder.spatial
            if (r, a) != (er, ea) or h > eh:
                raise ValueError(
                    f"wedge spatial {wedge_spatial} incompatible with "
                    f"encoder input {encoder.spatial}"
                )
            return tuple(encoder.code_shape)
        target = padded_length(h, 2 ** encoder.d)
        return tuple(encoder.code_shape((a, target)))

    def compression_ratio(self, wedge_spatial: tuple[int, int, int]) -> float:
        """Paper §3.1 ratio: input elements / code elements (both fp16).

        For the paper grid this is 31.125 (BCAE++/HT/2D) or 27.041 (BCAE).
        Computed analytically from the encoder geometry — no forward pass.
        """

        n_in = int(np.prod(wedge_spatial))
        n_code = int(np.prod(self.code_shape_for(wedge_spatial)))
        return n_in / n_code
