"""The ``bnorm`` stage on a large stream: bit-equal to eval BatchNorm.

The model-level BatchNorm tests run at tiny geometry, where one channel of
one sample is a few KiB.  Paper-scale streams are hundreds of KiB per
channel and sample; this test pushes a stream over 256 KiB per sample
through the stage and compares it bit for bit with the module's eval-mode
forward.
"""

import numpy as np

from repro import nn
from repro.core.fast_plan import Workspace, _BNSpec
from repro.nn import Tensor
from repro.nn.norm import BatchNorm2d


def test_stage_matches_module_on_large_strided_stream():
    """The stage on a channel-major (strided) view of a batch-major input,
    300 KiB per channel and sample."""

    channels = 3
    nn.init.seed(11)
    bn = BatchNorm2d(channels)
    bn.eval()
    rng = np.random.default_rng(11)
    bn.set_buffer("running_mean", rng.normal(0, 1, channels).astype(np.float32))
    bn.set_buffer("running_var",
                  (0.3 + rng.random(channels)).astype(np.float32))
    bn.weight.data[:] = rng.normal(1, 0.3, channels).astype(np.float32)
    bn.bias.data[:] = rng.normal(0, 0.3, channels).astype(np.float32)

    x = rng.normal(0, 3, (2, channels, 192, 400)).astype(np.float32)
    src = x.transpose(1, 0, 2, 3)
    assert src[0, :1].nbytes > 256 << 10
    with nn.no_grad():
        ref = bn(Tensor(x)).data
    out = _BNSpec.from_module(bn).apply(Workspace(), "bn", src)
    np.testing.assert_array_equal(out.transpose(1, 0, 2, 3), ref)
