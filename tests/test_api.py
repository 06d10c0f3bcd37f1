"""The public API of ``gsteer`` is a deliberate list: a name is added to or
removed from the package, and a parameter to or from an exported callable,
only together with this test."""

import ast
import inspect
import types
from pathlib import Path

import gsteer
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
    # every eigenvalue of the package goes through the one PSD kernel
    assert identifier_uses("eigvalsh") == {("linalg", "psd_spectra")}


def test_one_reader_of_caller_arrays():
    # every caller array is read by require_real; require_hermitian takes
    # the adjoint of a complex matrix
    assert identifier_uses("iscomplexobj") == {("linalg", "require_real"),
                                               ("linalg", "require_hermitian")}


def test_relaxation_stays_in_dynamics():
    # both decay scans, sweep and first_passage_time, live beside the relaxation
    assert {module for module, _ in identifier_uses("relaxation_covariances")} == {"dynamics"}
    assert ("dynamics", "first_passage_time") in identifier_uses("relaxation_covariances")


def test_verify_binds_the_dynamics_first_passage():
    # paper_suite, and callers of gsteer.verify.first_passage_time, run the one scan
    assert gsteer.verify.first_passage_time is gsteer.dynamics.first_passage_time
