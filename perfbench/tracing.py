"""Spans around gsteer's public functions, patched in from outside the package.

gsteer's modules import each other's functions by name (``from .linalg
import is_psd``), so a function is reachable through every ``gsteer.*``
module attribute bound to it.  ``Tracer.install`` replaces each of those
bindings with a wrapper, plus the two numeric kernels on their numpy/scipy
modules, and ``uninstall`` puts the originals back.  Wrappers record only
while ``active`` is set, so the benchmark's own reference code, which also
calls numpy, is never counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# layer -> functions wrapped in that layer's module
LAYERS = {
    "linalg": ("symplectic_form", "require_finite", "require_hermitian",
               "hermitian_eigenvalues", "is_psd", "random_symplectic",
               "random_orthogonal", "random_orthogonal_symplectic"),
    "states": ("make_state", "validate_state", "random_state", "mix_covariances",
               "state_from_json", "state_to_json"),
    "steering": ("is_unsteerable", "j_values", "steering_report",
                 "pure_family_state", "n3_bound_grid"),
    "channels": ("apply", "classify", "sample_verify", "channel_from_json",
                 "random_unsteerable_channel", "tensor_local"),
    "dynamics": ("evolve", "gamma_infinity", "sweep", "stationary_state"),
    "verify": ("faithfulness_trials", "upward_closure_trials", "local_channel_trials",
               "certified_channel_trials", "local_symplectic_trials",
               "mixture_bound_trials", "orthogonal_monotonicity_trials",
               "first_passage_time"),
    "cli": ("main", "build_parser"),
    "fixtures": ("load_state", "load_channel"),
}
# name -> (module, attribute) of the LAPACK-backed kernels gsteer calls
KERNELS = {"eigvalsh": ("numpy.linalg", "eigvalsh"), "expm": ("scipy.linalg", "expm")}


def function_names() -> list[str]:
    return ([f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
            + [f"kernel.{k}" for k in KERNELS])


class Tracer:
    """In-memory spans: function, op id, parent span, start and end."""

    def __init__(self):
        self.names = function_names()
        self.active = False
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.func = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, fid: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.func.append(fid)
            self.op.append(self.op_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def _patch_everywhere(self, fid: int, original, home) -> None:
        wrapper = self._wrap(fid, original)
        for obj in [home] + [m for name, m in list(sys.modules.items())
                             if name.split(".")[0] == "gsteer" and m is not home]:
            for attr, value in list(vars(obj).items()):
                if value is original:
                    self._patches.append((obj, attr, original))
                    setattr(obj, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of the traced functions.  A function the
        program no longer defines is skipped and reports zero calls."""
        targets = [(sys.modules[f"gsteer.{layer}"], fn)
                   for layer, fns in LAYERS.items() for fn in fns]
        targets += [(sys.modules[modname], attr) for modname, attr in KERNELS.values()]
        for fid, (module, attr) in enumerate(targets):
            original = getattr(module, attr, None)
            if original is not None:
                self._patch_everywhere(fid, original, module)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def summary(self, min_op: int = -1):
        """Per-function call counts and self seconds over spans with op id
        >= ``min_op``.  Self time is a span's duration minus its children's."""
        func, op, parent = (np.asarray(a, dtype=np.int_)
                            for a in (self.func, self.op, self.parent))
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        keep = op >= min_op
        n = len(self.names)
        calls = np.bincount(func[keep], minlength=n)
        self_s = np.bincount(func[keep], weights=(dur - child)[keep], minlength=n)
        return dict(zip(self.names, calls.tolist())), dict(zip(self.names, self_s.tolist()))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names, "func": self.func.tolist(),
                       "op": self.op.tolist(), "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()}, fh)
