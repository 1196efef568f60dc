import math
from fractions import Fraction

import pytest

from conftest import everywhere_leq, l1_distance, refused, tv_exact
from shocklab import errors
from shocklab.step import (
    StepFunction,
    assemble_initial_data,
    constant,
    step,
)


def test_normalizing_constructor_merges_equal_values():
    u = step([1.0, 1.0, 2.0, 2.0, 1.0], [0.0, 1.0, 2.0, 3.0])
    assert u.positions == (1.0, 3.0)
    assert u.values == (1.0, 2.0, 1.0)


def test_validation():
    with pytest.raises(errors.ValidationError):
        StepFunction((1.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(errors.ValidationError):
        StepFunction((1.0,), (0.0, 1.0, 2.0))
    with refused("values"):
        step([1.0, 2.0], [0.0, 1.0])
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(errors.ValidationError, match="positions"):
            StepFunction((x,), (0.0, 1.0))
        with pytest.raises(errors.ValidationError, match="positions"):
            StepFunction((0.0, x), (0.0, 1.0, 2.0))


def test_everywhere_leq_without_jumps():
    assert everywhere_leq(constant(0.0), constant(1.0))
    assert not everywhere_leq(constant(1.0), constant(0.0))


def test_assemble_needs_a_at_most_b():
    with refused("A"):
        assemble_initial_data(1.0, 0.0, constant(0.0), constant(0.0), constant(0.0))


def test_right_continuous_evaluation():
    u = step([0.0, 1.0], [0.5])
    assert u(0.4) == 0.0
    assert u(0.5) == 1.0
    assert u(0.6) == 1.0


def test_tv_and_exact_tv():
    u = step([0.1, 0.3, 0.7], [0.0, 1.0])
    assert u.tv() == pytest.approx(0.6)
    assert tv_exact(u) == Fraction(u.values[1]) - Fraction(u.values[0]) + (
        Fraction(u.values[2]) - Fraction(u.values[1])
    )


def test_l1_distance_exact():
    u = step([0.0, 1.0], [0.0])
    v = step([0.0, 2.0], [0.5])
    # |u - v| is 1 on (0, 0.5), 1 on (0.5, 1)... piecewise by hand:
    # x<0: 0; (0,0.5): |1-0|=1; (0.5,1): |1-2|=1; x>1: |0... u=1? u jumps at 0 only
    assert l1_distance(u, v, -1.0, 2.0) == pytest.approx(0.5 + 0.5 + 1.0)


def test_everywhere_leq():
    u = step([0.0, 1.0], [0.0])
    v = step([0.5, 1.5], [-0.2])
    assert everywhere_leq(u, v)
    assert not everywhere_leq(v, u)
    # crossing profiles compare False both ways
    w = step([0.5, 1.5], [0.2])
    assert not everywhere_leq(u, w) and not everywhere_leq(w, u)


def test_assemble_basic():
    u0 = assemble_initial_data(0.0, 1.0, constant(1.0), constant(0.5), constant(0.0))
    assert u0.positions == (0.0, 1.0)
    assert u0.values == (1.0, 0.5, 0.0)


def test_assemble_with_step_pieces():
    u_minus = step([2.5, 2.6], [-3.0])
    ubar = step([9.0, -1.0, 0.5, 9.0], [-0.5, 0.3, 1.7])  # only (0,1) windows matter
    u_plus = step([-2.5, -2.4], [4.0])
    u0 = assemble_initial_data(0.0, 1.0, u_minus, ubar, u_plus)
    assert u0.positions == (-3.0, 0.0, 0.3, 1.0, 4.0)
    assert u0.values == (2.5, 2.6, -1.0, 0.5, -2.5, -2.4)


def test_assemble_degenerate_interval():
    u0 = assemble_initial_data(1.0, 1.0, constant(1.0), constant(9.0), constant(0.0))
    assert u0.positions == (1.0,)
    assert u0.values == (1.0, 0.0)


def test_assemble_merges_equal_neighbors():
    u0 = assemble_initial_data(0.0, 1.0, constant(1.0), constant(1.0), constant(0.0))
    assert u0.positions == (1.0,)
    assert u0.values == (1.0, 0.0)
