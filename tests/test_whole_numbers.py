"""One rule for every count, size and index: an int or a numpy integer, never a float.

Each entry point that takes one raises ValidationError naming the parameter
on a float, 2.0 as well as 2.5, and takes a numpy integer as the int it equals.
"""
import numpy as np
import pytest

from outlier_testing.detectors import (
    Coordinate,
    DetectorKind,
    HypothesisFamily,
    ObservationMatrix,
    Subset,
    default_lambda,
)
from outlier_testing.errors import ValidationError, whole
from outlier_testing.exponents import (
    SolverOptions,
    exponent_univ_multi,
    exponent_univ_single,
    grid_exponent_univ_single,
    thm_multi_lower_bound,
    thm_single_lower_bound,
)
from outlier_testing.oracle import coordinate_laws
from outlier_testing.sim import SimConfig, generate, sample_counts
from outlier_testing.simplex import Pmf

MU = Pmf(np.array([0.3, 0.7]))
PI = Pmf(np.array([0.7, 0.3]))
ONE_START = SolverOptions(restarts=1)
DATA = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def sim_config(k):
    return SimConfig(kind=DetectorKind.UNIV_SINGLE, family=HypothesisFamily.single_outlier(3),
                     k=k, n_grid=(10,), trials=100, seed=0, mus=MU, pi=PI)


# entry point, the parameter its message names, and a call taking the value v
ENTRY_POINTS = {
    "ObservationMatrix-k": ("alphabet sizes K", lambda v: ObservationMatrix(DATA, v)),
    "Coordinate-index": ("coordinate indices", lambda v: Coordinate(v)),
    "Subset-members": ("subset members", lambda v: Subset((1, v))),
    "SimConfig-k": ("alphabet sizes K", sim_config),
    "exponent_univ_single-M": (
        "coordinate counts M", lambda v: exponent_univ_single(MU, PI, v, ONE_START)),
    "exponent_univ_multi-T": (
        "outlier-set sizes T", lambda v: exponent_univ_multi([MU] * 5, PI, v, ONE_START)),
    "thm_single_lower_bound-M": ("coordinate counts M", lambda v: thm_single_lower_bound(MU, PI, v)),
    "thm_single_lower_bound-M-array": (
        "coordinate counts M", lambda v: thm_single_lower_bound(MU, PI, np.array([5, v]))),
    "thm_multi_lower_bound-T": (
        "outlier-set sizes T", lambda v: thm_multi_lower_bound([MU] * 5, PI, v, 5)),
    "thm_multi_lower_bound-M": (
        "coordinate counts M", lambda v: thm_multi_lower_bound([MU] * 5, PI, 2, v)),
    "SolverOptions-restarts": ("solver restarts", lambda v: SolverOptions(restarts=v)),
    "SolverOptions-seed": ("solver seeds", lambda v: SolverOptions(seed=v)),
    "grid_exponent_univ_single-steps": (
        "grid steps", lambda v: grid_exponent_univ_single(MU, PI, v)),
    "default_lambda-M": ("coordinate counts M", lambda v: default_lambda(v, 10, 2)),
    "default_lambda-n": ("sample sizes", lambda v: default_lambda(3, v, 2)),
    "default_lambda-K": ("alphabet sizes K", lambda v: default_lambda(3, 10, v)),
    "generate-M": ("coordinate counts M", lambda v: generate(Coordinate(1), MU, PI, v, 5, 2, 0)),
    "sample_counts-M": (
        "coordinate counts M", lambda v: sample_counts(Coordinate(1), MU, PI, v, 5, 2, 0, range(2))),
    "coordinate_laws-M": ("coordinate counts M", lambda v: coordinate_laws(Coordinate(1), v, MU, PI)),
}

# a whole value each entry point accepts, as its ints would be given
ACCEPTED = {name: 2 for name in ENTRY_POINTS}
ACCEPTED.update({
    "exponent_univ_single-M": 3, "thm_single_lower_bound-M": 3,
    "thm_single_lower_bound-M-array": 3, "thm_multi_lower_bound-T": 2,
    "thm_multi_lower_bound-M": 7, "default_lambda-M": 3, "generate-M": 3,
    "sample_counts-M": 3, "coordinate_laws-M": 3, "grid_exponent_univ_single-steps": 20,
})


@pytest.mark.parametrize("value", [2.0, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_float_is_rejected_naming_the_parameter(entry, value):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=f"{name}.*whole numbers"):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integer_is_accepted(entry):
    _, call = ENTRY_POINTS[entry]
    got, want = call(np.int32(ACCEPTED[entry])), call(ACCEPTED[entry])
    if isinstance(want, ObservationMatrix):
        got, want = got.counts, want.counts
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_whole_returns_the_int_and_names_the_bound():
    assert whole(np.uint8(7), "things", 7) == 7 and type(whole(np.int64(7), "things")) is int
    for bad in (6, 7.0, "7", None):
        with pytest.raises(ValidationError, match="things must be whole numbers of at least 7"):
            whole(bad, "things", 7)
