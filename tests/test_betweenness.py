from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realityvote import DomainSpec, between, between_union
from realityvote.errors import EmptyTargetSet, InvalidBallot

CAT = DomainSpec.categorical(["r", "a", "b", "q"], "r")
CUBE = DomainSpec.hypercube(3, (0, 0, 0))
LINE = DomainSpec.interval(0)


def cube_members(region):
    return {p for p in CUBE.alternative_list() if region.contains(p)}


class TestBetween:
    def test_categorical_pair(self):
        region = between(CAT, "a", "b")
        assert region.contains("a") and region.contains("b")
        assert not region.contains("r")

    def test_hypercube_box(self):
        region = between(CUBE, (0, 1, 0), (1, 1, 1))
        assert cube_members(region) == {(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)}

    def test_degenerate_interval(self):
        region = between(LINE, 2, 2)
        assert region.lo == region.hi == 2

    def test_interval_is_sorted_hull(self):
        region = between(LINE, 7, Fraction(-3))
        assert (region.lo, region.hi) == (-3, 7)


class TestBetweenUnion:
    def test_interval_hull(self):
        region = between_union(DomainSpec.interval(4), 4, [7, 2])
        assert (region.lo, region.hi) == (2, 7)
        assert region.contains(7) and region.contains(2)
        assert not region.contains(Fraction(15, 2))

    def test_two_element_categorical(self):
        region = between_union(CAT, "r", ["a"])
        assert region.contains("r") and region.contains("a")
        assert not region.contains("q")

    def test_hypercube_union(self):
        region = between_union(CUBE, (0, 0, 0), [(0, 1, 1)])
        hits = {p for p in CUBE.alternative_list() if region.contains(p)}
        assert hits == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}

    def test_empty_targets(self):
        with pytest.raises(EmptyTargetSet):
            between_union(CAT, "r", [])

    def test_box_union_is_not_single_box(self):
        region = between_union(CUBE, (0, 0, 0), [(1, 1, 0), (0, 0, 1)])
        assert region.contains((1, 0, 0))
        assert region.contains((0, 0, 1))
        assert not region.contains((1, 0, 1))


class TestMembership:
    def test_boundary_inclusion(self):
        assert between(LINE, 2, 7).contains(7)

    def test_non_member(self):
        assert not between(CAT, "r", "a").contains("q")

    def test_box_coordinate_check(self):
        region = between(CUBE, (0, 1, 0), (1, 1, 1))
        assert not region.contains((1, 0, 0))

    def test_box_point_of_another_dimension(self):
        with pytest.raises(InvalidBallot, match="point does not match the box dimension"):
            between(CUBE, (0, 1, 0), (1, 1, 1)).contains((1, 1))


cube_points = st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
)


class TestProperties:
    @given(cube_points, cube_points)
    def test_symmetry_and_generators(self, x, y):
        a, b = between(CUBE, x, y), between(CUBE, y, x)
        assert cube_members(a) == cube_members(b)
        assert a.contains(x) and a.contains(y)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_interval_is_min_max(self, x, y):
        region = between(LINE, x, y)
        assert (region.lo, region.hi) == (min(x, y), max(x, y))

    @given(
        st.integers(-20, 20),
        st.sets(st.integers(-20, 20), min_size=1, max_size=5),
        st.sets(st.integers(-20, 20), min_size=0, max_size=5),
    )
    def test_union_monotone_in_targets(self, x, targets, extra):
        small = between_union(LINE, x, sorted(targets))
        large = between_union(LINE, x, sorted(targets | extra))
        assert large.lo <= small.lo and small.hi <= large.hi
