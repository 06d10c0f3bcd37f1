import sys

import numpy as np
import pytest

from gsteer import linalg


def patch_bindings(monkeypatch, name, replacement):
    """Replace gsteer.linalg's function ``name`` in every gsteer module that
    binds it by name, so that calls through any of them reach ``replacement``."""
    original = getattr(linalg, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "gsteer" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


@pytest.fixture
def count_eigvalsh(monkeypatch):
    """Count calls of gsteer.linalg.hermitian_eigenvalues, the one LAPACK
    eigensolve: the returned list grows by one entry per call (a batched
    call on a stack counts once), the number of matrices it solves (1 for a
    single matrix, k for a stack of k)."""
    calls = []

    def counted(h):
        calls.append(int(np.prod(np.shape(h)[:-2])))
        return original(h)

    original = patch_bindings(monkeypatch, "hermitian_eigenvalues", counted)
    return calls


@pytest.fixture
def count_require_hermitian(monkeypatch):
    """Count calls of gsteer.linalg.require_hermitian through every gsteer
    module that binds it by name: the returned list grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = patch_bindings(monkeypatch, "require_hermitian", counted)
    return calls
