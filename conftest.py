import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))
sys.path.insert(0, str(Path(__file__).parent / "tests"))


@pytest.fixture
def corrupt_conv3x3(monkeypatch):
    """Negative control: every 3x3 convolution the per-op gradient suite
    builds hands back its analytic gradients scaled by 1.5."""
    import cefpn.gradcheck as gradcheck
    real = gradcheck.conv2d

    def conv2d(x, spec):
        out = real(x, spec)
        if spec.kernel == 3 and out._grad_fn is not None:
            grad_fn = out._grad_fn
            out._grad_fn = lambda g: tuple(None if t is None else 1.5 * t for t in grad_fn(g))
        return out

    monkeypatch.setattr(gradcheck, "conv2d", conv2d)


def _wrap_neck_conv(monkeypatch, path, corrupt):
    """Make the neck conv running under the module path ``path`` hand back
    ``corrupt(t)`` for each analytic gradient ``t`` it returns."""
    import cefpn.neck as neck
    import cefpn.tensor as tensor
    real = neck.conv2d

    def conv2d(x, spec):
        out = real(x, spec)
        if tensor._scope == path and out._grad_fn is not None:
            grad_fn = out._grad_fn
            out._grad_fn = lambda g: tuple(None if t is None else corrupt(t) for t in grad_fn(g))
        return out

    monkeypatch.setattr(neck, "conv2d", conv2d)


@pytest.fixture(params=["sce.local_3x3", "post_merge.P2"])
def corrupt_neck_conv(request, monkeypatch):
    """Negative control on each side of the neck's stage split: the neck conv
    running under the module path ``request.param`` (a head conv, then a
    pyramid conv) hands back its analytic gradients scaled by 1.5."""
    _wrap_neck_conv(monkeypatch, request.param, lambda t: 1.5 * t)
    return request.param


@pytest.fixture(params=["sce.local_3x3", "post_merge.P2"])
def nan_neck_conv(request, monkeypatch):
    """Negative control like ``corrupt_neck_conv``, but the conv's analytic
    gradients come back all NaN."""
    _wrap_neck_conv(monkeypatch, request.param, lambda t: np.full_like(t, np.nan))
    return request.param
