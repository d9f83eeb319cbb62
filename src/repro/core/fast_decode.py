"""Allocation-free batched decoder execution — the analysis-side fast path.

The deployment loop is bicephalous end to end (§1, §3.1): the counting
house compresses the wedge stream online, and offline analysis must
decompress it at comparable throughput.  ``BCAECompressor.decompress`` runs
both decoder heads through the autograd module graph — re-padding,
re-quantizing weights and allocating im2col buffers on every call, exactly
the costs :class:`~repro.core.fast_encode.FastEncoder2D` eliminated on the
encoder side.

:class:`FastDecoder2D` compiles **both** decoder heads of a 2D BCAE through
the shared stage-plan engine of :mod:`repro.core.fast_plan` (Algorithm 2:
``Upsample2d`` + residual stacks, then a 1×1 conv under a sigmoid or
identity head); :class:`FastDecoder3D` does the same for the 3D decoders —
BCAE++/HT and the original BCAE's eval-mode BatchNorm stacks
(transposed-convolution residual up blocks over persistent dilated
canvases, then a 1×1 conv under the sigmoid / ``RegOutputTransform`` head,
with blocked im2col gathers at paper-scale geometry and the BatchNorm
fold/affine machinery of :mod:`repro.core.fast_plan`).  In both wrappers the
two plans share one workspace *and* one key namespace: the heads are
structurally identical (only weights and the output activation differ), so
every buffer the regression pass reads is fully rewritten before use and
the workspace is paid for once, not twice.  Use :func:`make_fast_decoder`
to build the right wrapper for a model.

The contract mirrors the encoder's, *bit-identical output*:

* ``decode`` returns exactly the ``(seg, reg)`` arrays ``model.decode``
  under ``nn.amp.autocast`` produces;
* ``decompress`` additionally replicates the segmentation-gated
  regression combine ``ṽ = v̂ · 1[l̂ > h]`` and the horizontal unpadding of
  ``BCAECompressor.decompress`` (§2.3).

The test suite enforces this across 2D and 3D model-zoo variants, batch
sizes and both fp16 and fp32 modes.
"""

from __future__ import annotations

import numpy as np

from .bcae3d import BCAEDecoder3D
from .decoder2d import BCAEDecoder2D
from .fast_plan import (
    CompiledStagePlan,
    DECODE_ENTRY_KINDS,
    FP16_MAX,
    Workspace,
    entry_kinds_ok,
    stage_kinds,
)

__all__ = [
    "FastDecoder2D",
    "FastDecoder3D",
    "make_fast_decoder",
    "supports_fast_decode",
]

_DECODER2D_KINDS = {"conv", "up", "res", "bnorm", "sigmoid", "identity"}
_DECODER3D_KINDS = {
    "conv3d", "convtranspose3d", "upblock3d", "pool3d", "up3d", "bnorm",
    "sigmoid", "regout", "identity",
}


def _decoder3d_stages(decoder: BCAEDecoder3D) -> list:
    """A 3D decoder's full stage list: its stack plus the output head."""

    return list(decoder.stages) + [decoder.output_activation]


def supports_fast_decode(model) -> bool:
    """Whether ``model``'s decoders have a compiled fast path.

    Covers the BCAE-2D family (Algorithm 2 decoders built from
    nearest-neighbour upsampling, leaky-ReLU residual blocks and a final
    convolution under a sigmoid/identity head) and the 3D family — the
    norm-free BCAE++/HT transposed-convolution up blocks (§2.3) *and* the
    original BCAE's eval-mode BatchNorm up blocks (folded conv or exact
    affine stage), both under a sigmoid / ``RegOutputTransform`` head.  A
    model whose BatchNorm layers are in training mode stays on the module
    path: call ``model.eval()``.
    """

    seg = getattr(model, "seg_decoder", None)
    reg = getattr(model, "reg_decoder", None)
    if isinstance(seg, BCAEDecoder2D) and isinstance(reg, BCAEDecoder2D):
        return all(
            entry_kinds_ok(stage_kinds(d.stages), _DECODER2D_KINDS,
                           entry=DECODE_ENTRY_KINDS)
            for d in (seg, reg)
        )
    if isinstance(seg, BCAEDecoder3D) and isinstance(reg, BCAEDecoder3D):
        return all(
            entry_kinds_ok(stage_kinds(_decoder3d_stages(d)),
                           _DECODER3D_KINDS, entry=DECODE_ENTRY_KINDS)
            for d in (seg, reg)
        )
    return False


def make_fast_decoder(model, half: bool = True, panel_threads: int | None = None):
    """Build the compiled decoder pair for a model that passes
    :func:`supports_fast_decode` (2D and 3D families dispatch to their
    wrapper).  ``panel_threads`` forwards to both head plans
    (:class:`~repro.core.fast_plan.CompiledStagePlan`)."""

    if isinstance(getattr(model, "seg_decoder", None), BCAEDecoder2D):
        return FastDecoder2D(model, half=half, panel_threads=panel_threads)
    return FastDecoder3D(model, half=half, panel_threads=panel_threads)


class FastDecoder2D:
    """Compiled, buffer-reusing twin of both decoder heads of a 2D BCAE.

    Parameters
    ----------
    model:
        A :class:`BicephalousAutoencoder` whose decoders are 2D and pass
        :func:`supports_fast_decode`.  Weights and the classification
        threshold are snapshot at construction — rebuild after training
        (``BCAECompressor`` does this automatically via its weight
        fingerprint).
    half:
        Replicate the fp16 autocast numerics (§3.3 deployment mode); False
        replicates the full-precision module path.
    """

    def __init__(self, model, half: bool = True,
                 panel_threads: int | None = None) -> None:
        if not (isinstance(getattr(model, "seg_decoder", None), BCAEDecoder2D)
                and supports_fast_decode(model)):
            raise TypeError(
                f"FastDecoder2D cannot compile {type(model).__name__}'s decoders; "
                "use supports_fast_decode() / make_fast_decoder() to guard"
            )
        self.half = bool(half)
        self.threshold = float(model.threshold)
        self.d = model.seg_decoder.d
        ws = Workspace()
        # Shared workspace + shared prefix: the heads are structurally
        # identical, so the sequential seg → reg runs reuse every buffer
        # (each op fully rewrites what it reads; see CompiledStagePlan).
        self._seg = CompiledStagePlan(model.seg_decoder.stages, half=self.half,
                                      workspace=ws, prefix="d",
                                      panel_threads=panel_threads)
        self._reg = CompiledStagePlan(model.reg_decoder.stages, half=self.half,
                                      workspace=ws, prefix="d",
                                      panel_threads=panel_threads)
        self._ws = ws

    # ------------------------------------------------------------------
    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (grows to the largest batch seen)."""

        return self._ws.nbytes()

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of both head plans (seg then reg)."""

        return list(self._seg.bn_folds) + list(self._reg.bn_folds)

    @property
    def plans(self) -> dict[str, CompiledStagePlan]:
        """Both head plans keyed ``seg`` / ``reg`` (used by repro.analysis)."""

        return {"seg": self._seg, "reg": self._reg}

    # ------------------------------------------------------------------
    def _input_canvas(self, codes: np.ndarray) -> tuple[np.ndarray, tuple[int, int], float]:
        if codes.ndim != 4:
            raise ValueError(f"expected codes (B, C, a, h), got shape {codes.shape}")
        n, c, a, h = codes.shape
        canvas, interior = self._seg.input_canvas(n, c, (a, h))
        np.copyto(interior, codes.transpose(1, 0, 2, 3))
        return canvas, (a, h), _entry_bound(interior, self.half)

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode fp16/fp32 codes ``(B, C, a, h)`` into ``(seg, reg)`` maps.

        Bit-identical values to ``model.decode`` under autocast.  Both
        returned arrays are zero-copy views of reused workspace buffers
        (transposed from the engine's channel-major layout) — copy before
        the next call.
        """

        canvas, spatial, bound = self._input_canvas(codes)
        seg = self._seg.run(canvas, spatial, bound)
        reg = self._reg.run(canvas, spatial, bound)
        return seg.transpose(1, 0, 2, 3), reg.transpose(1, 0, 2, 3)

    # ------------------------------------------------------------------
    def decompress(self, codes: np.ndarray, original_horizontal: int) -> np.ndarray:
        """Codes → masked log-ADC reconstruction ``(B, R, A, H_orig)``.

        Replicates ``BCAECompressor.decompress`` exactly: the regression
        output gated by ``seg > threshold`` (§2.2), horizontal padding
        clipped (§2.3).  Returns a (transposed) view of a reused fp32
        workspace buffer — copy before the next call.
        """

        canvas, spatial, bound = self._input_canvas(codes)
        seg = self._seg.run(canvas, spatial, bound)
        reg = self._reg.run(canvas, spatial, bound)
        mask = self._ws.get("mask", seg.shape, np.bool_)
        np.greater(seg, self.threshold, out=mask)
        recon = self._ws.get("recon", reg.shape)
        # dtype pins the product to fp32 over the fp16-stored grid values —
        # exactly the module path's ``reg.data * (seg.data > threshold)``.
        np.multiply(reg, mask, out=recon, dtype=np.float32)
        return recon.transpose(1, 0, 2, 3)[..., :int(original_horizontal)]


class FastDecoder3D:
    """Compiled, buffer-reusing twin of both decoder heads of a 3D BCAE.

    Same contract and workspace-sharing scheme as :class:`FastDecoder2D`;
    the decoded volume's singleton channel is dropped exactly like the
    module path's final ``reshape``, so ``decode`` / ``decompress`` return
    ``(B, R, A, H)`` arrays.

    Parameters
    ----------
    model:
        A :class:`BicephalousAutoencoder` whose decoders are
        :class:`BCAEDecoder3D` and pass :func:`supports_fast_decode`.
    half:
        Replicate the fp16 autocast numerics (§3.3 deployment mode); False
        replicates the full-precision module path.
    """

    def __init__(self, model, half: bool = True,
                 panel_threads: int | None = None) -> None:
        if not (isinstance(getattr(model, "seg_decoder", None), BCAEDecoder3D)
                and supports_fast_decode(model)):
            raise TypeError(
                f"FastDecoder3D cannot compile {type(model).__name__}'s decoders; "
                "use supports_fast_decode() / make_fast_decoder() to guard"
            )
        self.half = bool(half)
        self.threshold = float(model.threshold)
        ws = Workspace()
        self._seg = CompiledStagePlan(_decoder3d_stages(model.seg_decoder),
                                      half=self.half, workspace=ws, prefix="d",
                                      panel_threads=panel_threads)
        self._reg = CompiledStagePlan(_decoder3d_stages(model.reg_decoder),
                                      half=self.half, workspace=ws, prefix="d",
                                      panel_threads=panel_threads)
        self._ws = ws

    # ------------------------------------------------------------------
    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (grows to the largest batch seen)."""

        return self._ws.nbytes()

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of both head plans (seg then reg)."""

        return list(self._seg.bn_folds) + list(self._reg.bn_folds)

    @property
    def plans(self) -> dict[str, CompiledStagePlan]:
        """Both head plans keyed ``seg`` / ``reg`` (used by repro.analysis)."""

        return {"seg": self._seg, "reg": self._reg}

    # ------------------------------------------------------------------
    def _input_canvas(self, codes: np.ndarray):
        if codes.ndim != 5:
            raise ValueError(f"expected codes (B, C, r, a, h), got shape {codes.shape}")
        n, c = codes.shape[:2]
        spatial = codes.shape[2:]
        canvas, interior = self._seg.input_canvas(n, c, spatial)
        np.copyto(interior, codes.transpose(1, 0, 2, 3, 4))
        return canvas, spatial, _entry_bound(interior, self.half)

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode fp16/fp32 codes ``(B, C, r, a, h)`` into ``(seg, reg)``.

        Bit-identical values to ``model.decode`` under autocast, shaped
        ``(B, R, A, H)`` like the module path (channel dropped).  Both
        returned arrays are zero-copy views of reused workspace buffers —
        copy before the next call.
        """

        canvas, spatial, bound = self._input_canvas(codes)
        seg = self._seg.run(canvas, spatial, bound)
        reg = self._reg.run(canvas, spatial, bound)
        return seg[0], reg[0]

    # ------------------------------------------------------------------
    def decompress(self, codes: np.ndarray, original_horizontal: int) -> np.ndarray:
        """Codes → masked log-ADC reconstruction ``(B, R, A, H_orig)``.

        Replicates ``BCAECompressor.decompress`` exactly: the regression
        output gated by ``seg > threshold`` (§2.2), horizontal padding
        clipped (§2.3).  Returns a view of a reused fp32 workspace buffer —
        copy before the next call.
        """

        canvas, spatial, bound = self._input_canvas(codes)
        seg = self._seg.run(canvas, spatial, bound)
        reg = self._reg.run(canvas, spatial, bound)
        mask = self._ws.get("mask", seg.shape, np.bool_)
        np.greater(seg, self.threshold, out=mask)
        recon = self._ws.get("recon", reg.shape)
        np.multiply(reg, mask, out=recon, dtype=np.float32)
        return recon[0][..., :int(original_horizontal)]


def _entry_bound(interior: np.ndarray, half: bool) -> float:
    """Exact magnitude bound of the decode entry values (post-clip).

    fp16 payload values are already on the grid, so the first conv's entry
    quantize reduces to the saturating clip — and only ±inf codes (a
    full-precision payload overflow) can move.  The code tensor is tiny
    (spatial / 4^d), so an exact entry bound is nearly free — and it is
    what lets the interval analysis elide the early saturating clips (a
    pessimistic ±65504 entry would never elide anything downstream).
    """

    if half:
        np.clip(interior, -FP16_MAX, FP16_MAX, out=interior)
    with np.errstate(invalid="ignore"):
        bound = float(np.nanmax(np.abs(interior))) if interior.size else 0.0
    if np.isnan(bound):
        bound = 0.0  # all-NaN codes: the clip is the identity on NaN
    return bound
