"""Semialgebraic set descriptions: uncertainty supports, instability regions,
their slack and membership, and the box bounds their rows state.

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

    def slack(self, points):
        """Least slack of the relations at each point: the smallest of each
        >= row's value and each equality row's -|value|, +inf with no rows,
        NaN where a row evaluates to NaN (e.g. inf * 0).  A float for one
        point of shape (num_vars,), an array of shape (...) for a stack
        (..., num_vars).  Ties keep the earlier row's value."""
        x = np.asarray(points, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.num_vars:
            raise PolynomialError(
                f"point shape {x.shape} does not match set dimension {self.num_vars}"
            )
        least = np.full(x.shape[:-1], np.inf)
        for p, rel in self.constraints:
            value = p.evaluate(x)
            score = value if rel is Relation.GE else -np.abs(value)
            least = np.where((score < least) | np.isnan(score), score, least)
        return float(least) if x.ndim == 1 else least

    def contains(self, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
        """Numeric membership, slack >= -tol: >= rows may dip to -tol,
        equalities must hold within |value| <= tol, and a NaN row excludes
        the point.  A bool for one point, a bool array for a stack."""
        return self.slack(point) >= -float(tol)

    def box(self) -> tuple[np.ndarray, np.ndarray, bool] | None:
        """Per-variable bounds (lower, upper, exact) from the rows
        c*v_i + const (>= 0 or = 0, an equality bounding both sides) in a
        single variable, at -const/c; `exact` when every row is one, so the
        box is the set itself and a coordinate grid enumerates it
        faithfully.  None when some variable is unbounded."""
        n = self.num_vars
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        exact = True
        for p, rel in self.constraints:
            linear = {alpha.index(1): c for alpha, c in p.terms.items() if sum(alpha) == 1}
            if p.degree != 1 or len(linear) != 1:
                exact = False
                continue
            (i, c), = linear.items()
            bound = -p.terms.get((0,) * n, 0.0) / c
            if rel is Relation.EQ or c > 0:
                lower[i] = max(lower[i], bound)
            if rel is Relation.EQ or c < 0:
                upper[i] = min(upper[i], bound)
        if np.any(np.isinf(lower)) or np.any(np.isinf(upper)):
            return None
        return lower, upper, exact


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

    def slack(self, lam):
        """`SemialgebraicSet.slack` of eigenvalues read as (lre, lim), or as
        lre alone on the real axis: a float for one, an array of lam's shape
        for an array."""
        lam = np.asarray(lam, dtype=complex)
        if self.real_spectrum_only:
            return self.region_set.slack(lam.real[..., None])
        return self.region_set.slack(np.stack((lam.real, lam.imag), axis=-1))

    def contains(self, lam, tol: float = DEFAULT_MEMBERSHIP_TOL):
        """Membership of eigenvalues in D^c, slack >= -tol."""
        return self.slack(lam) >= -float(tol)

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
