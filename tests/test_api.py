"""The public API of ``gsteer`` is a deliberate list: a name is added to or
removed from the package only together with this test."""

import types

import gsteer

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
