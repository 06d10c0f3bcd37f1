"""The public API of ``gsteer`` is a deliberate list: a name is added to or
removed from the package, and a parameter to or from an exported callable,
only together with this test."""

import ast
import inspect
import textwrap
import types
from pathlib import Path

import pytest

import gsteer
import gsteer.cli
import gsteer.dynamics
import gsteer.verify

PUBLIC_NAMES = {
    "BathParameters", "BonaFideError", "DEFAULT_PSD_TOL", "GaussianChannel",
    "GaussianState", "PsdReport", "SampleReport", "SamplingAbortError",
    "SteeringReport", "Trajectory", "ValidationError", "apply", "channel_from_json",
    "channel_to_json", "classify", "evolve", "gamma_infinity", "identity_channel",
    "is_steering_breaking", "is_unsteerable", "is_unsteerable_channel",
    "is_valid_gaussian", "j1", "j2", "j_closed_schmidt", "j_closed_standard",
    "j_values", "make_state", "mix_covariances", "n3_bound_grid",
    "n3_upper_bound_pure", "pure_family_state", "random_state",
    "random_unsteerable_channel", "sample_verify", "schmidt_pure_state",
    "side_a_channel", "side_b_channel", "squeezed_vacuum_state",
    "standard_form_state", "state_from_json", "state_to_json", "stationary_state",
    "steering_matrix", "steering_report", "sweep", "symplectic_form",
    "tensor_local", "validate_state",
}


def test_export_list():
    # submodules are bound on the package as they are imported; they are not exports
    names = {name for name, value in vars(gsteer).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


# exported callable -> its parameter names; None for an exception class that
# declares no constructor of its own
SIGNATURES = {
    "BathParameters": ("n_th", "R", "phi", "lam"),
    "BonaFideError": ("message", "min_eigenvalue"),
    "GaussianChannel": ("modes_a", "modes_b", "K", "M", "dbar"),
    "GaussianState": ("modes_a", "modes_b", "cov", "mean"),
    "PsdReport": ("ok", "min_eigenvalue", "max_eigenvalue", "tol"),
    "SampleReport": ("predicate", "n_samples", "violations", "worst_margin",
                     "mean_margin", "draws", "first_counterexample"),
    "SamplingAbortError": None,
    "SteeringReport": ("unsteerable", "j1", "j2", "min_eigenvalue", "tol_used"),
    "Trajectory": ("times", "j2_values", "bound_values"),
    "ValidationError": None,
    "apply": ("ch", "state"),
    "channel_from_json": ("text",),
    "channel_to_json": ("ch",),
    "classify": ("ch", "tol"),
    "evolve": ("state0", "bath", "t"),
    "gamma_infinity": ("bath",),
    "identity_channel": ("modes_a", "modes_b"),
    "is_steering_breaking": ("ch", "tol"),
    "is_unsteerable": ("state", "tol"),
    "is_unsteerable_channel": ("ch", "tol"),
    "is_valid_gaussian": ("ch", "tol"),
    "j1": ("state", "tol", "clamp"),
    "j2": ("state", "tol", "clamp"),
    "j_closed_schmidt": ("modes_a", "modes_b", "gammas"),
    "j_closed_standard": ("a", "b", "c", "d"),
    "j_values": ("state", "tol", "clamp"),
    "make_state": ("modes_a", "modes_b", "cov", "mean"),
    "mix_covariances": ("s1", "s2", "p1"),
    "n3_bound_grid": ("r", "grid_density"),
    "n3_upper_bound_pure": ("r",),
    "pure_family_state": ("r",),
    "random_state": ("modes_a", "modes_b", "max_sympl_eigen", "rng"),
    "random_unsteerable_channel": ("modes_a", "modes_b", "rng"),
    "sample_verify": ("ch", "n_samples", "rng", "predicate", "max_sympl_eigen", "tol"),
    "schmidt_pure_state": ("modes_a", "modes_b", "gammas"),
    "side_a_channel": ("K", "M", "dbar"),
    "side_b_channel": ("K", "M", "dbar"),
    "squeezed_vacuum_state": ("r",),
    "standard_form_state": ("a", "b", "c", "d"),
    "state_from_json": ("text", "require_bona_fide"),
    "state_to_json": ("state",),
    "stationary_state": ("bath",),
    "steering_matrix": ("state",),
    "steering_report": ("state", "tol"),
    "sweep": ("state0", "bath", "t_grid", "tol"),
    "symplectic_form": ("n_modes",),
    "tensor_local": ("ch_a", "ch_b"),
    "validate_state": ("state", "tol"),
}


def parameter_names(value):
    try:
        return tuple(inspect.signature(value).parameters)
    except ValueError:  # a builtin constructor, inherited unchanged
        return None


def test_signatures():
    exported = {name: parameter_names(getattr(gsteer, name))
                for name in PUBLIC_NAMES if callable(getattr(gsteer, name))}
    assert exported == SIGNATURES


def identifier_uses(name):
    """(module, top-level definition) of every place in ``src/gsteer`` that
    defines, imports, names or takes the attribute ``name``; the definition
    is None at module level.  Strings and comments do not count."""
    uses = set()
    for path in Path(gsteer.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                named = (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                         else None)
                if name in named:
                    uses.add((path.stem, where))
    return uses


def test_one_eigensolver_call_site():
    # every eigenvalue of the package comes from the one binding of LAPACK,
    # called only by the one PSD kernel; numpy's eigvalsh wrapper is not used
    assert identifier_uses("eigvalsh_lo") == {("linalg", "hermitian_eigenvalues")}
    assert identifier_uses("hermitian_eigenvalues") == {("linalg", "hermitian_eigenvalues"),
                                                        ("linalg", "psd_spectra")}
    assert identifier_uses("eigvalsh") == set()


def test_one_table_of_channel_certificates():
    # the (F_out, F_in) pairs of the three channel certificates are written
    # once, in the table every certificate judge and engine slices
    in_channels = {where for module, where in identifier_uses("steering_form")
                   if module == "channels"}
    assert in_channels == {None, "_certificate_offsets", "sample_verify"}
    assert identifier_uses("_channel_offsets") == set()
    assert identifier_uses("_unsteerable_offset") == set()


def test_one_seed_reader():
    # every seed reaches numpy through states._generator, which refuses a bool
    assert identifier_uses("default_rng") == {("states", "_generator")}


def test_one_reader_of_caller_arrays():
    # every caller array is read by require_real, which alone refuses a
    # complex one; require_hermitian takes the real arrays it returns
    assert identifier_uses("iscomplexobj") == {("linalg", "require_real")}


def test_psd_kernel_trusts_its_callers_tol():
    # every public tol is read where it enters; the kernel reads none
    assert ("linalg", "psd_spectra") not in identifier_uses("require_number")


def test_relaxation_stays_in_dynamics():
    # both decay scans, sweep and first_passage_time, live beside the relaxation
    assert {module for module, _ in identifier_uses("relaxation_covariances")} == {"dynamics"}
    assert ("dynamics", "first_passage_time") in identifier_uses("relaxation_covariances")


def test_verify_binds_the_dynamics_first_passage():
    # paper_suite, and callers of gsteer.verify.first_passage_time, run the one scan
    assert gsteer.verify.first_passage_time is gsteer.dynamics.first_passage_time


def test_every_trial_engine_counts_through_count():
    # one trial protocol: each *_trials engine of verify reaches _count,
    # directly or through the module's own helpers
    path = Path(gsteer.verify.__file__)
    names = {top.name: {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(top, ast.FunctionDef)}
    engines = [name for name in names if name.endswith("_trials") and not name.startswith("_")]
    assert len(engines) == 7
    for engine in engines:
        reached, todo = set(), [engine]
        while todo:
            name = todo.pop()
            if name in names and name not in reached:
                reached.add(name)
                todo.extend(names[name])
        assert "_count" in reached, engine


@pytest.mark.parametrize("name", ["_in_stacks", "random_local_channel", "random_orthogonal",
                                  "random_orthogonal_symplectic", "random_symplectic"])
def test_test_oracles_stay_out_of_the_package(name):
    # the per-trial loop and the single-draw generators live in tests/oracles.py
    assert identifier_uses(name) == set()


def written_docstring(value):
    """The docstring in ``value``'s own definition; a dataclass's generated
    signature line does not count."""
    return ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(value))).body[0])


@pytest.mark.parametrize("value", [
    *(getattr(gsteer, name) for name in sorted(PUBLIC_NAMES) if callable(getattr(gsteer, name))),
    gsteer.cli.main, gsteer.verify.paper_suite, gsteer.verify.properties_suite,
    gsteer.verify.run_suite], ids=lambda value: value.__name__)
def test_public_callables_have_docstrings(value):
    # each contract is stated once, in the docstring of the code that enforces it
    assert written_docstring(value)
