from fractions import Fraction as F

import pytest

from portraits import Portrait

# The running examples: a degree-5 portrait with one rotating pair, and the
# degree-2 portrait whose rotating set is the period-2 orbit of 1/3.
DEGREE5_SETS = [[F(0), F(3, 4)], [F(1, 8), F(5, 8)], [F(1, 4)], [F(1, 2)]]
BASILICA_SETS = [[F(0)], [F(1, 3), F(2, 3)]]


def orbit(seed, degree):
    """The sorted forward orbit of a periodic angle."""
    out = [seed]
    while (nxt := degree * out[-1] % 1) != seed:
        out.append(nxt)
    return tuple(sorted(out))


@pytest.fixture
def degree5_portrait():
    return Portrait.create(5, DEGREE5_SETS)


@pytest.fixture
def basilica():
    return Portrait.create(2, BASILICA_SETS)
