"""random_steps draws numpy's ``default_rng(seed).uniform(lo, hi, k)`` bit for
bit, from a pure-Python PCG64 seeded through SeedSequence; numpy is the
oracle here and nowhere in the tracker.  A step count or seed that is not an
integer, or is below 1 or 0, is a ValidationError; the scenario parser checks
the range."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shocklab.errors import ValidationError
from shocklab.scenario import random_steps
from shocklab.step import step


def numpy_steps(k, lo, hi, seed, A, B):
    """random_steps as numpy draws it."""
    vals = np.random.default_rng(seed).uniform(lo, hi, k)
    return step([float(v) for v in vals], [A + (B - A) * i / k for i in range(1, k)])


# one to seven 32-bit words: SeedSequence mixes words past the fourth apart
SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]),
    st.integers(2**64, 2**224),
)


@st.composite
def ranges(draw):
    a = draw(st.floats(-1e300, 1e300))
    b = draw(st.floats(-1e300, 1e300))
    return min(a, b), max(a, b)


@settings(max_examples=300, deadline=None)
@given(SEEDS, ranges(), st.integers(1, 64))
def test_stream_equals_numpy(seed, lohi, k):
    lo, hi = lohi
    assert random_steps(k, lo, hi, seed, 0.0, 1.0) == numpy_steps(k, lo, hi, seed, 0.0, 1.0)


@pytest.mark.parametrize("seed", range(32))
def test_benchmark_sizes_equal_numpy(seed):
    # the front_tracking workload draws 2000 jumps on (0, 2000)
    assert random_steps(2000, -1.0, 1.0, seed, 0.0, 2000.0) == numpy_steps(
        2000, -1.0, 1.0, seed, 0.0, 2000.0)


@pytest.mark.parametrize("args, field", [
    ((0, 0.0, 1.0, 1), "steps"),
    ((-3, 0.0, 1.0, 1), "steps"),
    ((3, 0.0, 1.0, -1), "seed"),
    ((3, 0.0, 1.0, -2**70), "seed"),
    ((2.0, 0.0, 1.0, 1), "steps"),
    ((3, 0.0, 1.0, 1.5), "seed"),
])
def test_bad_arguments_are_validation_errors(args, field):
    with pytest.raises(ValidationError) as info:
        random_steps(*args, 0.0, 1.0)
    assert info.value.field == field


def test_equal_ends_give_constant_values():
    assert random_steps(3, 0.5, 0.5, 9, 0.0, 1.0).values == (0.5,)
