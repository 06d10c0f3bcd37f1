"""Gaussian steering toolkit at the covariance-matrix level.

Models (m+n)-mode Gaussian states and channels, decides A-to-B Gaussian
unsteerability, computes the optimization-free steering quantifications j1
and j2, classifies channels by PSD certificates, and evolves states through
Markovian squeezed thermal baths.
"""

from .channels import (
    GaussianChannel,
    SampleReport,
    SamplingAbortError,
    apply,
    channel_from_json,
    channel_to_json,
    classify,
    identity_channel,
    is_steering_breaking,
    is_unsteerable_channel,
    is_valid_gaussian,
    random_unsteerable_channel,
    sample_verify,
    side_a_channel,
    side_b_channel,
    tensor_local,
)
from .dynamics import (
    BathParameters,
    Trajectory,
    evolve,
    gamma_infinity,
    stationary_state,
    sweep,
)
from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    symplectic_form,
)
from .states import (
    BonaFideError,
    GaussianState,
    make_state,
    mix_covariances,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    standard_form_state,
    state_from_json,
    state_to_json,
    validate_state,
)
from .steering import (
    SteeringReport,
    is_unsteerable,
    j1,
    j2,
    j_closed_schmidt,
    j_closed_standard,
    j_values,
    n3_bound_grid,
    n3_upper_bound_pure,
    pure_family_state,
    steering_matrix,
    steering_report,
)

__version__ = "0.1.0"
