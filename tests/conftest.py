import sys

import numpy as np
import pytest

from gsteer import linalg


@pytest.fixture
def count_eigvalsh(monkeypatch):
    """Count calls of numpy.linalg.eigvalsh: the returned list grows by one
    entry per call (a batched call on a stack counts once), the number of
    matrices it solves (1 for a single matrix, k for a stack of k)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def count_require_hermitian(monkeypatch):
    """Count calls of gsteer.linalg.require_hermitian through every gsteer
    module that binds it by name: the returned list grows by one entry per call."""
    calls = []
    original = linalg.require_hermitian

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gsteer" and getattr(module, "require_hermitian", None) is original:
            monkeypatch.setattr(module, "require_hermitian", counted)
    return calls
