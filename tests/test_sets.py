import math
import random

import numpy as np
import pytest

from dstab.poly import Polynomial, parse_polynomial
from dstab.sets import (
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
