import numpy as np
import pytest


@pytest.fixture
def count_eigvalsh(monkeypatch):
    """Count calls of numpy.linalg.eigvalsh: the returned list grows by one
    entry per call (a batched call on a stack counts once)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs))
    return calls
