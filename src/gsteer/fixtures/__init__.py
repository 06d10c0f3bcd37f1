"""Bundled regression fixtures: states and channels with known verdicts.

Each JSON document follows the external state/channel schema plus a free-form
``description`` field, which parsers ignore.
"""

from __future__ import annotations

from importlib import resources

from ..channels import GaussianChannel, channel_from_json
from ..states import GaussianState, state_from_json


def fixture_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def load_state(name: str) -> GaussianState:
    return state_from_json(fixture_text(name))


def load_channel(name: str) -> GaussianChannel:
    return channel_from_json(fixture_text(name))


# (1+1)-mode state whose j2 grows under the shear channel below
STATE_SHEAR_WITNESS = "state_shear_witness.json"
# (1+2)-mode state just past the steering boundary, steerable at tol 1e-9 with
# j2 below tol * Tr(cov): j1 = j2 = 0 must track the verdict, not a j2 threshold
STATE_TOLERANCE_BAND_WITNESS = "state_tolerance_band_witness.json"
# local channel with a non-orthogonal symplectic shear on A
CHANNEL_SHEAR_LOCAL = "channel_shear_local.json"
# passes bona-fide sampling but fails the validity certificate
CHANNEL_NONCERT_BONAFIDE = "channel_noncert_bonafide.json"
# valid channel, preserves unsteerability in sampling, fails the unsteerable certificate
CHANNEL_NONCERT_UNSTEERABLE = "channel_noncert_unsteerable.json"
