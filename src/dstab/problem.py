"""Problem definition and the eigenvalue-violation lift.

A D-stability problem bundles an uncertain polynomial matrix A(rho), the
uncertainty support Delta, the instability region, and optional expectation
constraints on polynomial functions of rho.  `build_lifted` rewrites the
worst-case violation probability as a measure optimization over the
augmented variable

    z = (rho_1..rho_k, lre[, lim], x_1..  )        (real mode)
    z = (rho_1..rho_k, lre, lim, xre_1.., xim_1..) (complex mode)

whose support Z collects: the Delta constraints, the region constraints,
the eigenvalue equations (A(rho) - lambda I) x = 0 split into real and
imaginary parts, the eigenvector norm bound ||x||^2 <= 1, and (unless the
region is known to be bounded) a ball |lambda| <= R with R an interval
bound on the spectral radius of A over Delta.  The objective is
h(z) = ||x||^2, whose expectation is the violation probability at the
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, embed
from .sets import Relation, SemialgebraicSet, StabilityRegionComplement


class ProblemError(ValueError):
    """Structural problems in a D-stability problem definition."""


@dataclass(frozen=True)
class UncertainMatrix:
    """Square matrix whose entries are polynomials in the uncertainty vector."""

    variables: tuple[str, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise ProblemError("matrix must have at least one entry")
        for row in rows:
            if len(row) != n:
                raise ProblemError("matrix must be square")
            for p in row:
                if p.num_vars != len(self.variables):
                    raise ProblemError("matrix entry over wrong variable count")

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_symmetric(self) -> bool:
        """Symbolic symmetry: entry (i,j) - entry (j,i) is the zero polynomial."""
        for i in range(self.size):
            for j in range(i + 1, self.size):
                if not (self.entries[i][j] - self.entries[j][i]).is_zero():
                    return False
        return True

    def evaluate(self, rho) -> np.ndarray:
        """A(rho) of shape (n, n) for one point, or (..., n, n) for a stack
        of points of shape (..., p)."""
        rho = np.asarray(rho, dtype=float)
        out = np.empty(rho.shape[:-1] + (self.size, self.size))
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                out[..., i, j] = p.evaluate(rho)
        return out


@dataclass(frozen=True)
class MomentConstraint:
    """Expectation constraint E[f(rho)] (=, <=, >=) target."""

    f: Polynomial
    relation: str
    target: float

    def __post_init__(self):
        if self.relation not in ("=", "<=", ">="):
            raise ProblemError(f"bad moment relation {self.relation!r}")


@dataclass(frozen=True)
class DStabilityProblem:
    """Uncertain matrix + uncertainty support + instability region + moments.

    The normalization constraint E[1] = 1 is implicit and always enforced by
    the relaxation; `moment_constraints` holds only the user's constraints.
    `eigen_space` is "auto", "real" or "complex"; real mode on a matrix that
    is not symbolically symmetric requires `allow_asymmetric_real` since it
    silently ignores complex eigenvalues.  `lambda_radius` overrides the
    interval-arithmetic spectral bound used to compactify the eigenvalue
    coordinates.
    """

    matrix: UncertainMatrix
    delta: SemialgebraicSet
    region: StabilityRegionComplement
    moment_constraints: tuple[MomentConstraint, ...] = ()
    eigen_space: str = "auto"
    allow_asymmetric_real: bool = False
    lambda_radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "moment_constraints", tuple(self.moment_constraints))
        if self.delta.variables != self.matrix.variables:
            raise ProblemError(
                f"delta variables {self.delta.variables} do not match matrix "
                f"variables {self.matrix.variables}"
            )
        if self.eigen_space not in ("auto", "real", "complex"):
            raise ProblemError(f"bad eigen_space {self.eigen_space!r}")
        if self.lambda_radius is not None and not 0 < self.lambda_radius < math.inf:
            raise ProblemError(
                f"lambda_radius must be positive and finite, got {self.lambda_radius}")
        n_rho = len(self.matrix.variables)
        for mc in self.moment_constraints:
            if mc.f.num_vars != n_rho:
                raise ProblemError("moment function must be a polynomial in rho only")

    @property
    def uncertainty_variables(self) -> tuple[str, ...]:
        return self.matrix.variables

    def real_mode(self) -> bool:
        if self.eigen_space == "complex":
            return False
        symmetric = self.matrix.is_symmetric()
        if self.eigen_space == "real":
            if not symmetric and not self.allow_asymmetric_real:
                raise ProblemError(
                    "eigen_space=real on a non-symmetric matrix requires "
                    "allow_asymmetric_real (complex eigenvalues are ignored)"
                )
            return True
        return symmetric

    def is_support_only(self) -> bool:
        return not self.moment_constraints


@dataclass(frozen=True)
class LiftedProblem:
    """The augmented-variable formulation produced by `build_lifted`.

    `support` is the set Z over z_vars, `objective` is ||x||^2, and
    `moment_constraints` holds the user's (f_tilde, relation, target) rows;
    the normalization E[1] = 1 is the relaxation's own (see `relax`).
    `var_scales` are per-coordinate magnitudes used by the relaxation layer
    to rescale the moment variables for numerical conditioning.
    `var_bounds` are a-priori bounds on |z_i| over the support (inf where
    none is known; None when none is known for any coordinate); the
    relaxation layer turns them into the moment bounds behind the rigorous
    upper bound.
    """

    z_vars: tuple[str, ...]
    support: SemialgebraicSet
    objective: Polynomial
    moment_constraints: tuple[tuple[Polynomial, str, float], ...]
    var_scales: tuple[float, ...]
    rho_indices: tuple[int, ...]
    lambda_indices: tuple[int, ...]
    x_indices: tuple[int, ...]
    real_mode: bool
    matrix_size: int
    var_bounds: tuple[float, ...] | None = None

    @property
    def num_vars(self) -> int:
        return len(self.z_vars)


def _interval_pow(lo: float, hi: float, e: int) -> tuple[float, float]:
    if e == 0:
        return 1.0, 1.0
    a, b = lo ** e, hi ** e
    low, high = min(a, b), max(a, b)
    if e % 2 == 0 and lo < 0.0 < hi:
        low = 0.0
    return low, high


def interval_evaluate(p: Polynomial, lower, upper) -> tuple[float, float]:
    """Term-wise interval bound of p over the box [lower, upper]."""
    total_lo = total_hi = 0.0
    for alpha, coeff in p.terms.items():
        lo, hi = 1.0, 1.0
        for i, e in enumerate(alpha):
            if e:
                plo, phi = _interval_pow(float(lower[i]), float(upper[i]), e)
                candidates = (lo * plo, lo * phi, hi * plo, hi * phi)
                lo, hi = min(candidates), max(candidates)
        term_lo, term_hi = (coeff * lo, coeff * hi) if coeff >= 0 else (coeff * hi, coeff * lo)
        total_lo += term_lo
        total_hi += term_hi
    return total_lo, total_hi


def _box_row(p: Polynomial, num_vars: int):
    """Recognize c*v_i + const with a single active variable; returns
    (i, c, const) or None."""
    if p.degree != 1:
        return None
    linear = {}
    const = 0.0
    for alpha, coeff in p.terms.items():
        deg = sum(alpha)
        if deg == 0:
            const = coeff
        else:
            linear[alpha.index(1)] = linear.get(alpha.index(1), 0.0) + coeff
    active = [i for i, c in linear.items() if c != 0.0]
    if len(active) != 1:
        return None
    return active[0], linear[active[0]], const


def is_box(delta: SemialgebraicSet) -> bool:
    """True when every constraint of Delta is a single-variable interval
    bound, so a coordinate grid enumerates the set faithfully."""
    return all(_box_row(p, delta.num_vars) is not None for p, _rel in delta.constraints)


def delta_box_bounds(delta: SemialgebraicSet) -> tuple[np.ndarray, np.ndarray] | None:
    """Recover per-variable interval bounds from the linear one-variable
    constraints of Delta; None when some variable is unbounded."""
    n = delta.num_vars
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for p, rel in delta.constraints:
        row = _box_row(p, n)
        if row is None:
            continue
        i, c, const = row
        # c*v + const >= 0  (equalities give both bounds)
        bound = -const / c
        if rel is Relation.EQ:
            lower[i] = max(lower[i], bound)
            upper[i] = min(upper[i], bound)
        elif c > 0:
            lower[i] = max(lower[i], bound)
        else:
            upper[i] = min(upper[i], bound)
    if np.any(np.isinf(lower)) or np.any(np.isinf(upper)):
        return None
    return lower, upper


def spectral_bound(matrix: UncertainMatrix, delta: SemialgebraicSet) -> float:
    """Radius R with |lambda| <= R for every eigenvalue of A(rho), rho in
    Delta: the max over rows of the interval bound on sum_j |A_ij(rho)|."""
    bounds = delta_box_bounds(delta)
    if bounds is None:
        raise ProblemError(
            "delta has no recoverable box bounds; supply lambda_radius explicitly"
        )
    lower, upper = bounds
    best = 0.0
    for row in matrix.entries:
        row_sum = 0.0
        for p in row:
            lo, hi = interval_evaluate(p, lower, upper)
            row_sum += max(abs(lo), abs(hi))
        best = max(best, row_sum)
    return best


def _eigen_row(a_row, x_idx, extra) -> Polynomial:
    """sum_j a_row[j] z_{x_idx[j]} plus coeff z_a z_b for each (coeff, a, b)
    in `extra`, built in one pass.  The products have disjoint monomials
    (a_row is in rho alone, and the extra terms carry a lambda coordinate),
    so this is the sum that adding them one by one would give, term for
    term and in the same order."""
    terms = {}
    for a, j in zip(a_row, x_idx):
        for alpha, coeff in a.terms.items():
            beta = list(alpha)
            beta[j] += 1
            terms[tuple(beta)] = coeff
    n_z = a_row[0].num_vars
    for coeff, a, b in extra:
        beta = [0] * n_z
        beta[a] += 1
        beta[b] += 1
        terms[tuple(beta)] = coeff
    return Polynomial(n_z, terms)


def build_lifted(problem: DStabilityProblem) -> LiftedProblem:
    """Construct the augmented variable vector z, its support set Z, the
    objective ||x||^2 and the lifted expectation constraints."""
    real = problem.real_mode()
    n_a = problem.matrix.size
    rho_names = list(problem.uncertainty_variables)
    n_rho = len(rho_names)

    if real:
        lam_names = ["lre"]
        x_names = [f"x{i+1}" for i in range(n_a)]
    else:
        lam_names = ["lre", "lim"]
        x_names = [f"xre{i+1}" for i in range(n_a)] + [f"xim{i+1}" for i in range(n_a)]
    z_vars = tuple(rho_names + lam_names + x_names)
    n_z = len(z_vars)

    rho_idx = tuple(range(n_rho))
    lam_idx = tuple(range(n_rho, n_rho + len(lam_names)))
    x_idx = tuple(range(n_rho + len(lam_names), n_z))

    def zvar(i: int) -> Polynomial:
        return Polynomial.variable(n_z, i)

    constraints: list[tuple[Polynomial, Relation]] = []

    # Delta constraints embedded into z-space.
    for p, rel in problem.delta.constraints:
        constraints.append((embed(p, rho_names, z_vars), rel))

    # Region constraints (restricted to the real axis in real mode).
    region = problem.region.restricted_to_real() if real else problem.region
    for p, rel in region.region_set.constraints:
        constraints.append((embed(p, region.variables, z_vars), rel))

    # Eigenvalue equations: A x = lre x in real mode, else
    # A xre = lre xre - lim xim and A xim = lre xim + lim xre.
    a_embedded = [
        [embed(problem.matrix.entries[i][j], rho_names, z_vars) for j in range(n_a)]
        for i in range(n_a)
    ]
    lre = lam_idx[0]
    if real:
        for i in range(n_a):
            constraints.append((_eigen_row(a_embedded[i], x_idx, [(-1.0, lre, x_idx[i])]),
                                Relation.EQ))
    else:
        lim = lam_idx[1]
        xre, xim = x_idx[:n_a], x_idx[n_a:]
        for i in range(n_a):
            extra = [(-1.0, lre, xre[i]), (1.0, lim, xim[i])]
            constraints.append((_eigen_row(a_embedded[i], xre, extra), Relation.EQ))
        for i in range(n_a):
            extra = [(-1.0, lre, xim[i]), (-1.0, lim, xre[i])]
            constraints.append((_eigen_row(a_embedded[i], xim, extra), Relation.EQ))

    # Eigenvector norm bound 1 - ||x||^2 >= 0 and the objective ||x||^2.
    norm_sq = Polynomial.zero(n_z)
    for i in x_idx:
        v = zvar(i)
        norm_sq = norm_sq + v * v
    constraints.append((Polynomial.constant(n_z, 1.0) - norm_sq, Relation.GE))

    # Eigenvalue ball.  Eigenvalues of A(rho) over the compact Delta are
    # bounded by the interval spectral bound, so intersecting the region
    # with this disk loses no violating point while making Z compact.
    radius = problem.lambda_radius
    if radius is None and not problem.region.known_bounded:
        radius = max(spectral_bound(problem.matrix, problem.delta), 1e-6)
    if radius is not None:
        ball = Polynomial.constant(n_z, radius * radius)
        for i in lam_idx:
            v = zvar(i)
            ball = ball - v * v
        constraints.append((ball, Relation.GE))

    support = SemialgebraicSet(z_vars, tuple(constraints))

    # Per-coordinate magnitudes for moment rescaling, and a-priori bounds
    # on |z_i| over Z: the box of Delta for rho, the eigenvalue ball (or the
    # box of a bounded region) for lambda, ||x|| <= 1 for x.
    scales = [1.0] * n_z
    var_bounds = [np.inf] * (n_rho + len(lam_idx)) + [1.0] * len(x_idx)
    bounds = delta_box_bounds(problem.delta)
    if bounds is not None:
        lower, upper = bounds
        for k, i in enumerate(rho_idx):
            var_bounds[i] = float(max(abs(lower[k]), abs(upper[k])))
            scales[i] = max(var_bounds[i], 1e-9)
    if radius is not None:
        for i in lam_idx:
            scales[i] = var_bounds[i] = radius
    else:
        region_box = delta_box_bounds(region.region_set)
        if region_box is not None:
            for k, i in enumerate(lam_idx):
                var_bounds[i] = float(max(abs(region_box[0][k]), abs(region_box[1][k])))

    return LiftedProblem(
        z_vars=z_vars,
        support=support,
        objective=norm_sq,
        moment_constraints=tuple((embed(mc.f, rho_names, z_vars), mc.relation, mc.target)
                                 for mc in problem.moment_constraints),
        var_scales=tuple(scales),
        rho_indices=rho_idx,
        lambda_indices=lam_idx,
        x_indices=x_idx,
        real_mode=real,
        matrix_size=n_a,
        var_bounds=tuple(var_bounds),
    )


def minimal_order(lifted: LiftedProblem) -> int:
    """Smallest admissible relaxation order: ceil(deg/2) over the support
    constraints and lifted moment functions, at least 1, and large enough
    for the degree-2 objective."""
    tau = 1
    for p, _rel in lifted.support.constraints:
        tau = max(tau, math.ceil(p.degree / 2))
    for f, _rel, _target in lifted.moment_constraints:
        tau = max(tau, math.ceil(f.degree / 2))
    tau = max(tau, math.ceil(lifted.objective.degree / 2))
    return tau
