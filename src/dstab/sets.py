"""Semialgebraic set descriptions: uncertainty supports, instability regions
and membership tests.

A set is a conjunction of polynomial relations (>= 0 or = 0) over an ordered
variable list.  Equality constraints are first-class here and in the
relaxation, which gives each one a localizing form that must vanish entry
by entry (see `relax`).  Instability regions are sets over the eigenvalue coordinates
(lre, lim); the four preset regions use closures so the region is a closed
set, as the moment machinery requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, PolynomialError

REGION_VARS = ("lre", "lim")

DEFAULT_MEMBERSHIP_TOL = 1e-8


class Relation(enum.Enum):
    GE = ">="   # polynomial >= 0
    EQ = "=="   # polynomial == 0


@dataclass(frozen=True)
class SemialgebraicSet:
    """Conjunction of polynomial relations over named variables.

    An empty constraint list describes the whole space.
    """

    variables: tuple[str, ...]
    constraints: tuple[tuple[Polynomial, Relation], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for p, rel in self.constraints:
            if p.num_vars != len(self.variables):
                raise PolynomialError(
                    f"constraint over {p.num_vars} vars in a set with "
                    f"{len(self.variables)} variables"
                )
            if not isinstance(rel, Relation):
                raise TypeError(f"bad relation {rel!r}")

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def contains(self, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
        """Numeric membership: >= constraints may dip to -tol, equalities
        must hold within |value| <= tol.  A bool for one point of shape
        (num_vars,), a bool array of shape (...) for a stack (..., num_vars).
        A constraint that evaluates to NaN (e.g. inf * 0) excludes the point."""
        x = np.asarray(point, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.num_vars:
            raise PolynomialError(
                f"point shape {x.shape} does not match set dimension {self.num_vars}"
            )
        inside = np.ones(x.shape[:-1], dtype=bool)
        for p, rel in self.constraints:
            value = p.evaluate(x)
            inside &= value >= -tol if rel is Relation.GE else abs(value) <= tol
        return bool(inside) if x.ndim == 1 else inside


def box_set(variables, lower, upper) -> SemialgebraicSet:
    """Interval box {lower_i <= v_i <= upper_i} as 2n linear constraints."""
    variables = tuple(variables)
    n = len(variables)
    if len(lower) != n or len(upper) != n:
        raise ValueError("bound vectors must match the variable list")
    constraints = []
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        if lo > hi:
            raise ValueError(f"inverted bounds for {variables[i]}: [{lo}, {hi}]")
        v = Polynomial.variable(n, i)
        constraints.append((v - float(lo), Relation.GE))
        constraints.append((float(hi) - v, Relation.GE))
    return SemialgebraicSet(variables, tuple(constraints))


class RegionPreset(enum.Enum):
    LEFT_HALF_PLANE_CLOSURE = "left_half_plane_closure"
    UNIT_DISK_EXTERIOR_CLOSURE = "unit_disk_exterior_closure"
    IMAGINARY_AXIS = "imaginary_axis"
    ORIGIN = "origin"


@dataclass(frozen=True)
class StabilityRegionComplement:
    """The instability region D^c as a closed set over (lre, lim).

    `real_spectrum_only` marks the real-mode restriction where the lim
    coordinate has been substituted by zero and dropped.  `known_bounded`
    lets the lift builder skip the automatic eigenvalue ball.
    """

    region_set: SemialgebraicSet
    real_spectrum_only: bool = False
    known_bounded: bool = False
    name: str = "custom"

    def __post_init__(self):
        expected = ("lre",) if self.real_spectrum_only else REGION_VARS
        if self.region_set.variables != expected:
            raise ValueError(
                f"region variables must be {expected}, got {self.region_set.variables}"
            )

    @property
    def variables(self) -> tuple[str, ...]:
        return self.region_set.variables

    def contains(self, lam: complex, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        """Membership of a complex eigenvalue in D^c."""
        lam = complex(lam)
        if self.real_spectrum_only:
            return self.region_set.contains((lam.real,), tol)
        return self.region_set.contains((lam.real, lam.imag), tol)

    def restricted_to_real(self) -> "StabilityRegionComplement":
        """Substitute lim = 0 and drop it; trivially-true constraints vanish,
        trivially-false ones are rejected."""
        if self.real_spectrum_only:
            return self
        constraints = []
        for p, rel in self.region_set.constraints:
            q = p.substitute(1, 0.0)
            if q.is_constant():
                value = q.constant_value()
                ok = value >= 0.0 if rel is Relation.GE else value == 0.0
                if not ok:
                    raise ValueError(
                        "region becomes empty on the real axis; use complex mode"
                    )
                continue
            constraints.append((q, rel))
        return StabilityRegionComplement(
            SemialgebraicSet(("lre",), tuple(constraints)),
            real_spectrum_only=True,
            known_bounded=self.known_bounded,
            name=self.name,
        )


def region_preset(name: str | RegionPreset) -> StabilityRegionComplement:
    """Preset instability regions, keyed by their CLI spellings."""
    preset = RegionPreset(name) if not isinstance(name, RegionPreset) else name
    lre = Polynomial.variable(2, 0)
    lim = Polynomial.variable(2, 1)
    if preset is RegionPreset.LEFT_HALF_PLANE_CLOSURE:
        constraints = ((lre, Relation.GE),)
        bounded = False
    elif preset is RegionPreset.UNIT_DISK_EXTERIOR_CLOSURE:
        constraints = ((lre * lre + lim * lim - 1.0, Relation.GE),)
        bounded = False
    elif preset is RegionPreset.IMAGINARY_AXIS:
        constraints = ((lre, Relation.EQ),)
        bounded = False
    else:  # ORIGIN
        constraints = ((lre, Relation.EQ), (lim, Relation.EQ))
        bounded = True
    return StabilityRegionComplement(
        SemialgebraicSet(REGION_VARS, constraints),
        known_bounded=bounded,
        name=preset.value,
    )


def custom_region(constraints) -> StabilityRegionComplement:
    """Instability region from explicit constraints over (lre, lim)."""
    return StabilityRegionComplement(SemialgebraicSet(REGION_VARS, tuple(constraints)))
