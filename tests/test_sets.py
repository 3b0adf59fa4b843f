import math
import random

import numpy as np
import pytest

from dstab.poly import Polynomial, parse_polynomial
from dstab.sets import (
    RegionPreset,
    Relation,
    SemialgebraicSet,
    StabilityRegionComplement,
    box_set,
    custom_region,
    region_preset,
)


class TestPresets:
    def test_left_half_plane_closure(self):
        region = region_preset("left_half_plane_closure")
        (p, rel), = region.region_set.constraints
        assert rel is Relation.GE
        assert p == parse_polynomial("lre", ["lre", "lim"])

    def test_unit_disk_exterior_boundary(self):
        region = region_preset("unit_disk_exterior_closure")
        assert region.contains(1 + 0j)           # on the circle
        assert region.contains(2.0)
        assert not region.contains(0.5j)

    def test_imaginary_axis(self):
        region = region_preset("imaginary_axis")
        (p, rel), = region.region_set.constraints
        assert rel is Relation.EQ
        assert region.contains(0.7j)
        assert not region.contains(1e-3 + 0.7j)

    def test_origin(self):
        region = region_preset("origin")
        assert len(region.region_set.constraints) == 2
        assert all(rel is Relation.EQ for _p, rel in region.region_set.constraints)
        assert region.known_bounded
        assert region.contains(0j)
        assert not region.contains(1e-4)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            region_preset("right_half_plane")

    def test_boundary_points_exact(self):
        axis = region_preset("imaginary_axis")
        circle = region_preset("unit_disk_exterior_closure")
        for lam in (1 + 0j, -1 + 0j, 1j, -1j):  # exactly representable
            assert circle.contains(lam, tol=0.0)
            assert axis.contains(complex(0.0, lam.imag), tol=0.0)
        for k in range(16):  # generic boundary points within machine epsilon
            angle = 2 * math.pi * k / 16
            lam = complex(math.cos(angle), math.sin(angle))
            assert circle.contains(lam, tol=4e-16)
            assert axis.contains(complex(0.0, lam.imag), tol=0.0)

    def test_restricted_to_real(self):
        region = region_preset("left_half_plane_closure").restricted_to_real()
        assert region.variables == ("lre",)
        assert region.real_spectrum_only
        assert region.contains(0.5) and not region.contains(-0.5)
        origin = region_preset("origin").restricted_to_real()
        assert len(origin.region_set.constraints) == 1  # lim = 0 drops out


class TestBoxSet:
    def test_unit_interval(self):
        box = box_set(("rho",), [0.0], [1.0])
        assert len(box.constraints) == 2
        ps = [p for p, _rel in box.constraints]
        assert ps[0] == parse_polynomial("rho", ["rho"])
        assert ps[1] == parse_polynomial("1 - rho", ["rho"])

    def test_degenerate_interval(self):
        box = box_set(("c",), [0.3], [0.3])
        assert box.contains([0.3], tol=0.0)
        assert not box.contains([0.3001], tol=1e-8)

    def test_scaled_intervals(self):
        # nominal (9, 2, 2) with half-width k = 1 in each coordinate
        box = box_set(("rho1", "rho2", "rho3"), [8.0, 1.0, 1.0], [10.0, 3.0, 3.0])
        assert len(box.constraints) == 6
        assert box.contains([9.0, 2.0, 2.0])
        assert not box.contains([7.5, 2.0, 2.0])

    def test_inverted_bounds(self):
        with pytest.raises(ValueError):
            box_set(("x",), [1.0], [0.0])


class TestContains:
    def test_inside(self):
        box = box_set(("rho",), [0.0], [1.0])
        assert box.contains([0.5], tol=0.0)

    def test_tolerance_semantics(self):
        box = box_set(("rho",), [0.0], [1.0])
        assert box.contains([1.0 + 1e-9], tol=1e-8)
        assert not box.contains([1.0 + 1e-6], tol=1e-8)

    def test_region_point(self):
        region = region_preset("left_half_plane_closure")
        assert not region.contains(-0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            box_set(("x",), [0.0], [1.0]).contains([1.0, 2.0])

    def test_equality_matches_inequality_pair(self):
        rng = random.Random(17)
        p = parse_polynomial("x^2 + y - 1", ["x", "y"])
        q = parse_polynomial("x*y", ["x", "y"])
        s = SemialgebraicSet(("x", "y"), ((p, Relation.EQ), (q, Relation.GE)))
        pair = SemialgebraicSet(
            ("x", "y"), ((p, Relation.GE), (-p, Relation.GE), (q, Relation.GE))
        )
        for _ in range(300):
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            tol = rng.choice([0.0, 1e-8, 1e-3, 0.1])
            assert s.contains(point, tol) == pair.contains(point, tol)

    def test_nan_constraint_value_excludes(self):
        # inf * 0 is NaN at x = 0: no verdict, so the point is not a member
        p = Polynomial(1, {(1,): math.inf})
        for rel in (Relation.GE, Relation.EQ):
            s = SemialgebraicSet(("x",), ((p, rel),))
            assert not s.contains([0.0])
            assert not s.contains(np.zeros((3, 1))).any()
        ge = SemialgebraicSet(("x",), ((p, Relation.GE),))
        assert ge.contains(np.array([[0.0], [1.0]])).tolist() == [False, True]

    def test_stack_matches_points(self):
        names = ["x", "y"]
        disc = SemialgebraicSet(names, box_set(names, [-1.0, -1.0], [1.0, 1.0]).constraints + (
            (parse_polynomial("1 - x^2 - y^2", names), Relation.GE),
            (parse_polynomial("x*y^3 - y", names), Relation.EQ),
        ))
        rng = np.random.default_rng(11)
        stack = rng.uniform(-1.2, 1.2, size=(6, 50, 2))
        stack[0, :, 1] = 0.0  # on the equality's zero set
        for tol in (0.0, 1e-9, 0.5):
            inside = disc.contains(stack, tol)
            assert inside.shape == (6, 50) and inside.dtype == bool
            for index in np.ndindex(6, 50):
                assert inside[index] == disc.contains(stack[index], tol)
            assert inside[0].any() and not inside.all()


class TestRegionValidation:
    def test_custom_region(self):
        p = parse_polynomial("lre - lim", ["lre", "lim"])
        region = custom_region([(p, Relation.GE)])
        assert region.contains(1 + 0.5j)
        assert not region.contains(1 + 2j)

    def test_wrong_variables_rejected(self):
        bad = SemialgebraicSet(("a", "b"))
        with pytest.raises(ValueError):
            StabilityRegionComplement(bad)

    def test_real_restriction_of_empty_slice(self):
        # lim = 1 has no real-spectrum points
        p = parse_polynomial("lim - 1", ["lre", "lim"])
        region = custom_region([(p, Relation.EQ)])
        with pytest.raises(ValueError):
            region.restricted_to_real()


def _rows(names, *rows):
    return tuple((parse_polynomial(text, names), rel) for text, rel in rows)


_AB = ("a", "b")
_BOX = box_set(_AB, [-1.0, 0.0], [3.0, 5.0])
# every kind of set the verifiers ask for slack: supports and regions
SLACK_CASES = {
    "delta_box": _BOX,
    "delta_box_and_polynomial": SemialgebraicSet(
        _AB, _BOX.constraints + _rows(_AB, ("1 - a^2 - b^2", Relation.GE))),
    "delta_with_equality": SemialgebraicSet(
        _AB, _BOX.constraints + _rows(_AB, ("a*b - 0.5", Relation.EQ))),
    **{preset.value: region_preset(preset) for preset in RegionPreset},
    "real_axis": region_preset("unit_disk_exterior_closure").restricted_to_real(),
    "custom_with_equality": custom_region(_rows(
        ["lre", "lim"], ("lre^3 - lim + 0.5", Relation.GE), ("lre*lim^2 - lre", Relation.EQ))),
}


def _reference_slack(s, point):
    """Least row score at one point, row by row: a >= row's value, an
    equality's -|value|, NaN when any row is NaN, +inf without rows."""
    scores = [p.evaluate(point) if rel is Relation.GE else -abs(p.evaluate(point))
              for p, rel in s.constraints]
    if any(math.isnan(v) for v in scores):
        return math.nan
    return min(scores, default=math.inf)


def _reference_contains(s, point, tol):
    """Membership row by row, as the relations read."""
    return all(p.evaluate(point) >= -tol if rel is Relation.GE else abs(p.evaluate(point)) <= tol
               for p, rel in s.constraints)


class TestSlack:
    """One slack rule: `slack` and `contains` of every kind of set against
    a per-row reference, at random points, at each point's own slack as
    the tolerance and one ulp either side, and at NaN and infinite points."""

    @staticmethod
    def _points(case):
        rng = np.random.default_rng(5)
        if isinstance(case, StabilityRegionComplement):
            lam = rng.uniform(-2, 2, 60) + 1j * rng.uniform(-2, 2, 60)
            lam[:6] = [0j, 1, -1, 1j, 0.5j, 2]
            special = [math.nan, math.inf, -math.inf, complex(math.inf, 0),
                       complex(0, -math.inf), complex(math.nan, 1), complex(1, math.nan)]
            return np.concatenate([lam, special])
        x = rng.uniform(-2, 5, size=(60, case.num_vars))
        x[:4] = [[-1.0, 0.0], [3.0, 5.0], [0.5, 1.0], [1.0, 0.5]]  # corners, a*b = 0.5
        special = [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.0], [math.inf, math.nan]]
        return np.concatenate([x, special])

    @staticmethod
    def _coordinates(case, point):
        if not isinstance(case, StabilityRegionComplement):
            return point
        lam = complex(point)
        return [lam.real] if case.real_spectrum_only else [lam.real, lam.imag]

    @pytest.mark.parametrize("name", SLACK_CASES)
    def test_slack_and_contains_match_the_rows(self, name):
        case = SLACK_CASES[name]
        s = case.region_set if isinstance(case, StabilityRegionComplement) else case
        points = self._points(case)
        slack = case.slack(points)
        assert slack.shape == (len(points),)
        for k, point in enumerate(points):
            coords = self._coordinates(case, point)
            expected = _reference_slack(s, coords)
            single = case.slack(point)
            assert isinstance(single, float)
            assert np.array_equal([single, slack[k]], [expected, expected], equal_nan=True)
            if math.isnan(expected):
                assert not case.contains(point, math.inf)
            edge = abs(expected) if math.isfinite(expected) else 1.0
            for tol in (edge, np.nextafter(edge, math.inf), np.nextafter(edge, 0.0), 0.0):
                inside = _reference_contains(s, coords, tol)
                assert case.contains(point, tol) is inside
                assert case.contains(points, tol)[k] == inside
        assert not np.isnan(slack).all() and np.isnan(slack).any()
        inside = case.contains(points, 1e-9)
        assert inside.dtype == bool and inside.any() and not inside.all()


class TestBox:
    @pytest.mark.parametrize("s, expected", [
        (_BOX, ([-1.0, 0.0], [3.0, 5.0], True)),
        # c*v + const with c < 0 bounds from above; an equality from both sides
        (SemialgebraicSet(_AB, _rows(_AB, ("3 - 2*a", Relation.GE), ("-b", Relation.GE),
                                     ("2*b + 6", Relation.GE), ("a + 2", Relation.GE))),
         ([-2.0, -3.0], [1.5, 0.0], True)),
        (SemialgebraicSet(_AB, _BOX.constraints + _rows(
            _AB, ("4 - 2*a", Relation.EQ), ("b - 0.25", Relation.EQ))),
         ([2.0, 0.25], [2.0, 0.25], True)),
        # rows in two variables or of degree 2 bound nothing and make the box inexact
        (SLACK_CASES["delta_box_and_polynomial"], ([-1.0, 0.0], [3.0, 5.0], False)),
        (SemialgebraicSet(_AB, _BOX.constraints + _rows(_AB, ("a + b", Relation.GE))),
         ([-1.0, 0.0], [3.0, 5.0], False)),
        (region_preset("origin").region_set, ([0.0, 0.0], [0.0, 0.0], True)),
        (region_preset("origin").restricted_to_real().region_set, ([0.0], [0.0], True)),
        # an unbounded variable, on one side or both
        (SemialgebraicSet(_AB, _rows(_AB, ("a", Relation.GE), ("1 - a", Relation.GE),
                                     ("b", Relation.GE))), None),
        (SemialgebraicSet(_AB), None),
        (region_preset("left_half_plane_closure").region_set, None),
        (SemialgebraicSet(("a",), _rows(["a"], ("a - a^2", Relation.GE))), None),
    ], ids=["box", "one_sided_rows", "equalities", "polynomial_row", "two_variable_row",
            "origin", "origin_real", "half_unbounded", "no_rows", "half_plane", "quadratic"])
    def test_hand_computed_bounds(self, s, expected):
        box = s.box()
        if expected is None:
            assert box is None
            return
        lower, upper, exact = box
        assert (lower.tolist(), upper.tolist(), exact) == expected
