"""One table over every public scalar and count parameter.

``linalg.require_number`` reads each real argument once, as a Python float
in its parameter's interval, and ``linalg.require_count`` each count, as a
Python int.  So a bool, ``np.bool_``, NaN, a ``Decimal``, a string, a
complex, ``None``, an out-of-range value and ``10**400`` (inf as a float)
raise ``ValidationError`` naming the parameter, and a function that draws
leaves its Generator where it was.  An in-range ``Fraction``,
``np.float32`` or ``np.int64`` gives the result of the equal float or int.
A count has no upper end: ``10**400`` is a well-formed count, such as a
seed.  A count that sizes an array, ``symplectic_form``'s ``n_modes`` or
``n3_bound_grid``'s ``grid_density``, is refused where numpy cannot size it.
"""

from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from gsteer import fixtures, verify
from gsteer.channels import (
    GaussianChannel,
    classify,
    identity_channel,
    is_steering_breaking,
    is_unsteerable_channel,
    is_valid_gaussian,
    random_unsteerable_channel,
    sample_verify,
)
from gsteer.dynamics import BathParameters, evolve, first_passage_time, sweep
from gsteer.linalg import ValidationError, symplectic_form
from gsteer.states import (
    GaussianState,
    make_state,
    mix_covariances,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    standard_form_state,
    validate_state,
)
from gsteer.steering import (
    is_unsteerable,
    j1,
    j2,
    j_closed_schmidt,
    j_closed_standard,
    j_values,
    n3_bound_grid,
    n3_upper_bound_pure,
    pure_family_state,
    steering_report,
)

STATE = squeezed_vacuum_state(1.0)
VACUUM = make_state(1, 1, np.eye(4))
CHANNEL = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)
BATH = BathParameters(0.0, 0.0, 0.0, 1.0)
INF = float("inf")


class Case(NamedTuple):
    call: Callable  # (value, rng) -> result
    name: str  # the parameter's name in the error
    goods: tuple  # in-range floats (real) or ints (count)
    out: tuple = ()  # out-of-range values


def _tol(call):
    return Case(call, "tol", (0.0, 2.0**-20, 1.0), (-1e-300, -1.0, INF, -INF, 10**400))


def _bath(field, goods, out):
    base = {"n_th": 0.5, "R": 0.5, "phi": 0.0, "lam": 1.0}
    return Case(lambda v, rng: BathParameters(**dict(base, **{field: v})), field, goods, out)


def _standard(build, position, goods, base=(2.0, 2.0, 1.0, -1.0)):
    def call(v, rng):
        params = list(base)
        params[position] = v
        return build(*params)
    return Case(call, "abcd"[position], goods, (INF, -INF, 10**400, -10**400))


def _modes(build, goods, out, position):
    def call(v, rng):
        modes = [1, 1]
        modes[position] = v
        return build(*modes, rng)
    return Case(call, ("modes_a", "modes_b")[position], goods, out)


FAMILY_R = ((1.0, 1.5, 2.0), (0.5, 0.0, -INF, INF, 10**400))
MAX_EIGEN = ((1.0, 2.5, 3.0), (0.5, -1.0, INF, 10**400))
TRIALS = ((0, 2), (-1,))
CLOSED = (2.0, 2.0, 0.5, 0.5)  # c = |d|, as j_closed_standard requires
# each mode count, of either side, the other side 1: (build(modes_a, modes_b,
# rng), in-range counts, out-of-range counts)
MODE_COUNTS = {
    "GaussianState": (lambda m, n, rng: GaussianState(m, n, np.eye(4), np.zeros(4)),
                      (1,), (0, -1)),
    "make_state": (lambda m, n, rng: make_state(m, n, np.eye(4)), (1,), (0, -1)),
    "random_state": (lambda m, n, rng: random_state(m, n, 2.0, rng), (1, 2), (0, -1)),
    "schmidt_pure_state": (lambda m, n, rng: schmidt_pure_state(m, n, [2.0]),
                           (1, 2), (0, -1)),
    "j_closed_schmidt": (lambda m, n, rng: j_closed_schmidt(m, n, [2.0]), (1, 2), (0, -1)),
    "faithfulness_trials": (lambda m, n, rng: verify.faithfulness_trials(m, n, 2, rng),
                            (1, 2), (0, -1)),
    "GaussianChannel": (
        lambda m, n, rng: GaussianChannel(m, n, np.eye(4), np.zeros((4, 4)), np.zeros(4)),
        (1,), (-1,)),
    "identity_channel": (lambda m, n, rng: identity_channel(m, n), (0, 1, 2), (-1,)),
    "random_unsteerable_channel": (random_unsteerable_channel, (0, 1, 2), (-1,)),
}

CASES = {
    # real numbers: every tol
    "validate_state.tol": _tol(lambda v, rng: validate_state(STATE, v)),
    "is_unsteerable.tol": _tol(lambda v, rng: is_unsteerable(STATE, v)),
    "j_values.tol": _tol(lambda v, rng: j_values(STATE, v)),
    "j_values_raw.tol": _tol(lambda v, rng: j_values(STATE, v, clamp=False)),
    "j1.tol": _tol(lambda v, rng: j1(STATE, v)),
    "j2.tol": _tol(lambda v, rng: j2(STATE, v)),
    "steering_report.tol": _tol(lambda v, rng: steering_report(STATE, v)),
    "is_valid_gaussian.tol": _tol(lambda v, rng: is_valid_gaussian(CHANNEL, v)),
    "is_unsteerable_channel.tol": _tol(lambda v, rng: is_unsteerable_channel(CHANNEL, v)),
    "is_steering_breaking.tol": _tol(lambda v, rng: is_steering_breaking(CHANNEL, v)),
    "classify.tol": _tol(lambda v, rng: classify(CHANNEL, v)),
    "sweep.tol": _tol(lambda v, rng: sweep(STATE, BATH, [0.0, 0.5, 1.0], v)),
    "sample_verify.tol": _tol(lambda v, rng: sample_verify(CHANNEL, 3, rng, tol=v)),
    # real numbers: the other parameters
    "squeezed_vacuum_state.r": Case(lambda v, rng: squeezed_vacuum_state(v), "r",
                                    (0.0, 0.5, 1.0), (-0.5, -INF, INF, 10**400)),
    "pure_family_state.r": Case(lambda v, rng: pure_family_state(v), "r", *FAMILY_R),
    "n3_upper_bound_pure.r": Case(lambda v, rng: n3_upper_bound_pure(v), "r", *FAMILY_R),
    "n3_bound_grid.r": Case(lambda v, rng: n3_bound_grid(v, 3), "r", *FAMILY_R),
    "random_state.max_sympl_eigen": Case(lambda v, rng: random_state(1, 1, v, rng),
                                         "max_sympl_eigen", *MAX_EIGEN),
    "sample_verify.max_sympl_eigen": Case(
        lambda v, rng: sample_verify(CHANNEL, 3, rng, "bona-fide", v),
        "max_sympl_eigen", *MAX_EIGEN),
    "mix_covariances.p1": Case(lambda v, rng: mix_covariances(STATE, VACUUM, v), "p1",
                               (0.0, 0.25, 1.0), (-0.25, 1.5, INF, 10**400)),
    "standard_form_state.a": _standard(standard_form_state, 0, (2.0, 2.5, 3.0)),
    "standard_form_state.b": _standard(standard_form_state, 1, (2.0, 2.5, 3.0)),
    "standard_form_state.c": _standard(standard_form_state, 2, (0.0, 0.5, 1.0)),
    "standard_form_state.d": _standard(standard_form_state, 3, (-1.0, -0.5, 0.0)),
    "j_closed_standard.a": _standard(j_closed_standard, 0, (2.0, 2.5, 3.0), CLOSED),
    "j_closed_standard.b": _standard(j_closed_standard, 1, (2.0, 2.5, 3.0), CLOSED),
    "j_closed_standard.c": _standard(j_closed_standard, 2, (0.5,), CLOSED),
    "j_closed_standard.d": _standard(j_closed_standard, 3, (0.5,), CLOSED),
    "BathParameters.n_th": _bath("n_th", (0.0, 0.5, 1.0), (-0.5, INF, 10**400)),
    "BathParameters.R": _bath("R", (-1.0, 0.5, 1.0), (INF, -INF, 10**400, -10**400)),
    "BathParameters.phi": _bath("phi", (-1.0, 0.5, 1.0), (INF, -INF, 10**400, -10**400)),
    "BathParameters.lam": _bath("lam", (0.5, 1.0, 2.0), (0.0, -1.0, INF, 10**400)),
    "evolve.t": Case(lambda v, rng: evolve(STATE, BATH, v), "t",
                     (0.0, 0.5, 1.0), (-0.5, -INF, INF, 10**400)),
    # a threshold is any real but NaN, so 10**400 reads as inf (tested below)
    "first_passage_time.threshold": Case(
        lambda v, rng: first_passage_time(STATE, BATH, v, 2.0, 0.25), "threshold",
        (-1.0, 0.0, 0.5)),
    "first_passage_time.t_max": Case(
        lambda v, rng: first_passage_time(STATE, BATH, 0.5, v, 0.25), "t_max",
        (0.0, 0.5, 2.0), (-0.5, INF, 10**400)),
    "first_passage_time.dt": Case(
        lambda v, rng: first_passage_time(STATE, BATH, 0.5, 2.0, v), "dt",
        (0.25, 0.5, 1.0), (0.0, -0.25, INF, 10**400)),
    # counts
    "symplectic_form.n_modes": Case(lambda v, rng: symplectic_form(v), "n_modes",
                                    (0, 1, 2), (-1, 2**62, 10**400)),
    **{f"{label}.{name}": _modes(*entry, position)
       for label, entry in MODE_COUNTS.items()
       for position, name in enumerate(("modes_a", "modes_b"))},
    "sample_verify.n_samples": Case(lambda v, rng: sample_verify(CHANNEL, v, rng), "n_samples",
                                    (1, 3), (0, -1)),
    "n3_bound_grid.grid_density": Case(lambda v, rng: n3_bound_grid(2.0, v), "grid_density",
                                       (2, 4), (1, 0, -1, 2**62, 10**400)),
    **{f"{engine}.n_trials": Case(
        lambda v, rng, engine=engine, lead=lead: getattr(verify, engine)(*lead, v, rng),
        "n_trials", *TRIALS)
       for engine, lead in (("faithfulness_trials", (1, 1)), ("upward_closure_trials", ()),
                            ("local_channel_trials", ()), ("certified_channel_trials", ()),
                            ("local_symplectic_trials", ()), ("mixture_bound_trials", ()),
                            ("orthogonal_monotonicity_trials", ()))},
}

# refused by either rule's type test
NOT_NUMBERS = (True, False, np.True_, np.False_, Decimal("1"), "1", 1j, np.complex128(1), None)
# refused by the count rule's type test, read as floats by the real rule
NOT_COUNTS = NOT_NUMBERS + (float("nan"), 1.0, np.float64(1.0), np.float32(1.0), Fraction(1))


def _is_count(case: Case) -> bool:
    return isinstance(case.goods[0], int)


def _refused():
    for key, case in CASES.items():
        rule = NOT_COUNTS if _is_count(case) else NOT_NUMBERS + (float("nan"),)
        for value in (*rule, *case.out):
            yield pytest.param(key, value, id=f"{key}-{value!r}")


def _same(a, b) -> bool:
    """Equal results of the same types, arrays and records by value."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("key, value", _refused())
def test_refused(key, value):
    case = CASES[key]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError, match=f"^{case.name} must be "):
        case.call(value, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("key", CASES)
def test_read_as_the_equal_float_or_int(key):
    case = CASES[key]
    for good in case.goods:
        expected = case.call(good, np.random.default_rng(5))
        if _is_count(case):
            same_values = [np.int64(good), np.uint8(good)]
        else:
            assert np.float32(good) == good and Fraction(good) == good
            same_values = [Fraction(good), np.float32(good), np.float64(good)]
            if good.is_integer():
                same_values += [int(good), np.int64(good)]
        for value in same_values:
            got = case.call(value, np.random.default_rng(5))
            assert _same(got, expected), (value, got, expected)


def test_huge_ints_read_as_infinities():
    # an int too large for a float reads as +-inf, which a threshold may be
    for huge, inf in ((10**400, INF), (-10**400, -INF)):
        assert first_passage_time(STATE, BATH, huge, 2.0, 0.25) == \
            first_passage_time(STATE, BATH, inf, 2.0, 0.25)
        assert first_passage_time(STATE, BATH, Fraction(huge), 2.0, 0.25) == \
            first_passage_time(STATE, BATH, inf, 2.0, 0.25)


def test_stored_parameters_are_python_scalars():
    bath = BathParameters(Fraction(1, 2), np.float32(0.5), np.int64(0), np.float64(1.0))
    assert [type(v) for v in (bath.n_th, bath.R, bath.phi, bath.lam)] == [float] * 4
    assert bath == BathParameters(0.5, 0.5, 0.0, 1.0)
    state = GaussianState(np.int64(1), np.uint8(1), np.eye(4), np.zeros(4))
    assert type(state.modes_a) is int and type(state.modes_b) is int
    assert type(sample_verify(CHANNEL, np.int64(2), 0).n_samples) is int
