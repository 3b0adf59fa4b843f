"""Independent brute-force verification layer.

Everything here deliberately avoids the moment machinery so it can serve as
a cross-check: spectra from LAPACK's general eigensolver (numpy's eigvals,
stacked over chunks of grid points), a deterministic grid search for
uncertainty values whose spectrum enters the instability region, and a
finite LP over atomic measures solved by a dense two-phase simplex that
prices by Dantzig's rule and falls back to Bland's after a degenerate
pivot, vectorised over the tableau but pivoting one step at a time, so its
path and answer are deterministic.  Everything before the simplex
works on whole point stacks: A(rho), Delta membership, region depths and
the LP's moment rows are evaluated once per grid (or chunk of grid
points), never point by point; polynomial powers are repeated products, so
the same point gives the same bits alone and in a stack.  The simplex is
kept in place of scipy's HiGHS: dstab needs numpy alone, and importing
scipy.optimize alone raised the peak memory of an oracle run by about
21 MB (about 47 MB to 68 MB).  Grid search provides lower-bound semantics
only: a grid can miss thin violation sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import DStabilityProblem

EIG_RESIDUAL_TOL = 1e-8
# An eigenvalue this far outside the instability region still counts as
# inside it: for the grid search's witnesses, and, tighter, for the atomic
# LP's violating atoms.
WITNESS_MEMBERSHIP_TOL = 1e-6
VIOLATION_MEMBERSHIP_TOL = 1e-9
# Region depths closer than this to the deepest one are ties in the grid
# search: depth differences this small are rounding noise of the spectra.
DEPTH_TIE_TOL = 1e-12


class OracleError(RuntimeError):
    pass


class AtomicLPInfeasible(OracleError):
    """No atomic measure on the supplied grid satisfies the moment
    constraints; the caller should refine the grid."""


# ----------------------------------------------------------------------
# Spectra.

def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real square matrix, or of each matrix in a
    stacked (N, n, n) array, from LAPACK's eigvals, sorted by (real, imag)
    along the last axis.  Raises OracleError for a non-square shape or
    non-finite entries."""
    a = np.array(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise OracleError(f"matrix must be square, got shape {a.shape}")
    try:
        eigs = np.linalg.eigvals(a).astype(complex)
    except np.linalg.LinAlgError as err:
        raise OracleError(f"eigenvalues failed: {err}") from err
    order = np.lexsort((eigs.imag, eigs.real), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)


def unit_eigenvector(matrix, lam: complex) -> tuple[np.ndarray, float]:
    """Unit eigenvector for an (approximate) eigenvalue via the smallest
    singular vector of M - lam*I, with its residual ||(M - lam I) v||."""
    a = np.asarray(matrix, dtype=float)
    shifted = a.astype(complex) - lam * np.eye(a.shape[0])
    _u, _s, vh = np.linalg.svd(shifted)
    v = vh[-1].conj()
    residual = float(np.linalg.norm(shifted @ v))
    return v, residual


# ----------------------------------------------------------------------
# Grid search for spectrum violations.

@dataclass(frozen=True)
class ViolationWitness:
    """An uncertainty value whose spectrum enters the instability region."""

    rho: np.ndarray
    lam: complex
    min_region_residual: float
    eig_residual: float


def _region_depth(problem: DStabilityProblem, lam: np.ndarray, tol: float) -> np.ndarray:
    """Depth of each eigenvalue in the array lam inside the instability
    region: its `StabilityRegionComplement.slack`, 0 where that is +inf,
    and NaN where the eigenvalue is outside, that is, where the region's
    `contains` at tol is False (a NaN row excludes it)."""
    slack = problem.region.slack(lam)
    depth = np.where(np.isfinite(slack), slack, 0.0)
    return np.where(slack >= -tol, depth, np.nan)


# A grid of more points than this is replaced by a seeded sample of as many.
MAX_GRID_POINTS = 200_000

# Points per stacked evaluation and eigenvalues call: keeps the (chunk, n, n)
# buffer small on 200 000-point grids.
_SPECTRUM_CHUNK = 4096


def spectra(problem: DStabilityProblem, points) -> np.ndarray:
    """Sorted spectra of A(rho) at each point, shape (N, n), with one matrix
    evaluation and one eigenvalues call per chunk of at most _SPECTRUM_CHUNK
    points.  `deepest_witness` and `atomic_lp_bound` read them, so a caller
    that runs both on one grid computes them once."""
    out = np.empty((len(points), problem.matrix.size), dtype=complex)
    for start in range(0, len(points), _SPECTRUM_CHUNK):
        chunk = slice(start, start + _SPECTRUM_CHUNK)
        out[chunk] = eigenvalues(problem.matrix.evaluate(points[chunk]))
    return out


def grid_points(problem: DStabilityProblem, points_per_axis: int,
                max_points: int = MAX_GRID_POINTS, seed: int = 0) -> np.ndarray:
    """Candidate uncertainty values: a uniform grid over Delta's `box()`,
    membership-filtered unless the box is exact, or, when the full grid
    would pass max_points, a seeded rejection sample of at most max_points
    points, which the `oracle` command's grid search line reports.  A
    sample can miss a thin violation set that a smaller full grid holds:
    on running_example_variance.prob at sigma2 = 0.13 the 200 000-point
    grid holds the witness rho = 1, and the sample that replaces a
    200 001-point grid misses it.

    Raises OracleError for fewer than one point per axis, or when nothing
    can be sampled, e.g. when equality constraints give Delta measure zero
    inside its box."""
    if points_per_axis < 1:
        raise OracleError(f"points per axis must be at least 1, got {points_per_axis}")
    box = problem.delta.box()
    if box is None:
        raise OracleError(
            "delta has no box bounds to sample from; check chosen points with "
            "oracle.deepest_witness and oracle.spectra, or with oracle.atomic_lp_bound"
        )
    lower, upper, exact = box
    n = len(lower)
    if points_per_axis ** n <= max_points:
        axes = [np.linspace(lower[i], upper[i], points_per_axis) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if exact:
            return pts
        pts = pts[problem.delta.contains(pts, 1e-9)]
    else:
        # Seeded rejection sampling against the membership test: at most 20
        # batches of max_points draws, keeping the first max_points accepted
        # in draw order.
        rng = np.random.default_rng(seed)
        accepted = []
        for _ in range(20):
            candidates = rng.uniform(lower, upper, size=(max_points, n))
            accepted.append(candidates[problem.delta.contains(candidates, 1e-9)])
            if sum(map(len, accepted)) >= max_points:
                break
        pts = np.concatenate(accepted)[:max_points]
    if len(pts) == 0:
        raise OracleError(
            "no grid point satisfies the delta constraints; the support is "
            "likely measure-zero (equality constraints) - check chosen points with "
            "oracle.deepest_witness and oracle.spectra, or with oracle.atomic_lp_bound"
        )
    return pts


def grid_violation_search(
    problem: DStabilityProblem,
    points_per_axis: int,
    max_points: int = MAX_GRID_POINTS,
    seed: int = 0,
) -> ViolationWitness | None:
    """Scan the candidate points of `grid_points` over Delta (a full grid,
    or a seeded sample when the grid would pass max_points), compute every
    spectrum, and return the deepest witness of an eigenvalue inside the
    instability region, or None.

    Depths within DEPTH_TIE_TOL of the deepest remaining one count as
    equal (they differ by rounding noise alone, e.g. for eigenvalues on the
    imaginary axis), and among equals the earliest candidate and eigenvalue
    wins, so results depend neither on evaluation order nor on the last
    bits the eigensolver returns.  A returned witness has an eigenpair
    residual of at most EIG_RESIDUAL_TOL; finding one proves that the
    worst-case violation probability is 1 in the support-only setting.
    """
    points = grid_points(problem, points_per_axis, max_points, seed)
    return deepest_witness(problem, points, spectra(problem, points))


def deepest_witness(problem: DStabilityProblem, points,
                    point_spectra) -> ViolationWitness | None:
    """The deepest validated witness among the points, given their sorted
    spectra (`spectra`), or None; see `grid_violation_search`."""
    flat = _region_depth(problem, point_spectra, WITNESS_MEMBERSHIP_TOL).ravel()
    remaining = np.flatnonzero(~np.isnan(flat))
    while remaining.size:
        tied = flat[remaining] >= flat[remaining].max() - DEPTH_TIE_TOL
        for k in remaining[tied]:
            i, j = divmod(int(k), point_spectra.shape[1])
            a = problem.matrix.evaluate(points[i])
            _v, residual = unit_eigenvector(a, point_spectra[i, j])
            if residual <= EIG_RESIDUAL_TOL * max(1.0, np.abs(a).max()):
                return ViolationWitness(
                    rho=points[i].copy(), lam=complex(point_spectra[i, j]),
                    min_region_residual=float(flat[k]), eig_residual=residual,
                )
        remaining = remaining[~tied]
    return None


# ----------------------------------------------------------------------
# Dense two-phase simplex (Dantzig's rule, Bland fallback, deterministic).

_SIMPLEX_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= np.outer(tableau[:, col], pivot_row)
    tableau[row] = pivot_row
    basis[row] = col


def _minimize(tableau, basis, cost, allowed, max_iter=20000):
    """Minimize cost over the tableau.  The entering column is Dantzig's
    (most negative reduced cost, lowest index on ties); after a degenerate
    pivot it is Bland's (first improving column) until the next
    non-degenerate one, so the path cannot cycle."""
    degenerate = False
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        improving = np.flatnonzero(allowed & (reduced < -_SIMPLEX_TOL))
        if improving.size == 0:
            return
        entering = improving[0] if degenerate else improving[np.argmin(reduced[improving])]
        column = tableau[:, entering]
        rows = np.flatnonzero(column > _SIMPLEX_TOL)
        if rows.size == 0:
            raise OracleError("LP is unbounded")
        # smallest ratio, ties by smallest basis index (Bland)
        ratios = tableau[rows, -1] / column[rows]
        row = rows[np.lexsort((basis[rows], ratios))[0]]
        degenerate = tableau[row, -1] <= _SIMPLEX_TOL
        _pivot(tableau, basis, row, entering)
    raise OracleError("simplex iteration limit exceeded")


def simplex_maximize(c, a_eq, b_eq, a_le=(), b_le=()):
    """Maximize c.x subject to a_eq x = b_eq, a_le x <= b_le, x >= 0,
    where the <= rows a_le, b_le may be empty sequences (the default).

    Dense two-phase tableau simplex: Dantzig's rule, with Bland's rule
    after a degenerate pivot against cycling, so the path and the answer
    are deterministic.  Raises AtomicLPInfeasible when the constraints
    admit no feasible point.
    """
    c = np.asarray(c, dtype=float)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, len(c))
    b_eq = np.asarray(b_eq, dtype=float)
    a_le = np.asarray(a_le, dtype=float).reshape(-1, len(c))
    b_le = np.asarray(b_le, dtype=float)

    n = len(c)
    n_le = a_le.shape[0]
    rows = np.vstack([
        np.hstack([a_eq, np.zeros((a_eq.shape[0], n_le))]),
        np.hstack([a_le, np.eye(n_le)]),
    ])
    rhs = np.concatenate([b_eq, b_le])
    m = rows.shape[0]
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs = np.abs(rhs)

    # initial basis: the identity columns of the <= rows where usable,
    # artificials elsewhere
    basis = np.full(m, -1)
    le = np.arange(n_le)
    le = le[rows[a_eq.shape[0] + le, n + le] > 0]
    basis[a_eq.shape[0] + le] = n + le
    art_rows = np.flatnonzero(basis < 0)
    basis[art_rows] = n + n_le + np.arange(len(art_rows))
    width = n + n_le + len(art_rows)
    tableau = np.zeros((m, width + 1))
    tableau[:, :n + n_le] = rows
    tableau[art_rows, basis[art_rows]] = 1.0
    tableau[:, -1] = rhs

    if len(art_rows):
        phase1 = np.zeros(width)
        phase1[n + n_le:] = 1.0
        allowed = np.ones(width, dtype=bool)
        _minimize(tableau, basis, phase1, allowed)
        if phase1[basis] @ tableau[:, -1] > 1e-7:
            raise AtomicLPInfeasible("moment constraints unsatisfiable on this grid")
        # drive any degenerate artificial out of the basis when possible
        for r in np.flatnonzero(basis >= n + n_le):
            nonzero = np.flatnonzero(np.abs(tableau[r, :n + n_le]) > _SIMPLEX_TOL)
            if nonzero.size:
                _pivot(tableau, basis, r, nonzero[0])

    cost = np.zeros(width)
    cost[:n] = -c  # minimize -c.x
    allowed = np.ones(width, dtype=bool)
    allowed[n + n_le:] = False
    _minimize(tableau, basis, cost, allowed)

    x = np.zeros(width)
    x[basis] = tableau[:, -1]
    if np.any((basis >= n + n_le) & (tableau[:, -1] > 1e-7)):
        raise AtomicLPInfeasible("moment constraints unsatisfiable on this grid")
    return x[:n], float(c @ x[:n])


# ----------------------------------------------------------------------
# Atomic-measure lower bound.

@dataclass(frozen=True)
class AtomicLPResult:
    """Best atomic measure on a fixed grid: a valid lower bound on the
    worst-case violation probability."""

    atoms: np.ndarray
    weights: np.ndarray
    lower_bound: float
    violating: np.ndarray  # boolean mask per atom


def atomic_lp_bound(
    problem: DStabilityProblem,
    atoms,
    atom_spectra=None,
) -> AtomicLPResult:
    """Maximize the probability mass on violating atoms over all atomic
    measures supported on the given grid that satisfy the moment
    constraints.  Any feasible atomic measure is admissible for the moment
    problem, so the optimum is a true lower bound on the violation
    probability.  It is reported clipped to [0, 1]: the simplex's rounding
    can carry it just past 1.  The atoms' sorted spectra (`spectra`) are
    computed here unless given."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    n_rho = len(problem.uncertainty_variables)
    if atoms.shape[1] != n_rho:
        raise OracleError(
            f"atoms have dimension {atoms.shape[1]}, expected {n_rho}"
        )
    outside = np.flatnonzero(~problem.delta.contains(atoms, 1e-9))
    if outside.size:
        raise OracleError(f"atom {atoms[outside[0]]} lies outside the uncertainty support")

    if atom_spectra is None:
        atom_spectra = spectra(problem, atoms)
    depths = _region_depth(problem, atom_spectra, VIOLATION_MEMBERSHIP_TOL)
    violating = ~np.isnan(depths).all(axis=1)

    objective = violating.astype(float)
    a_eq = [np.ones(len(atoms))]
    b_eq = [1.0]
    a_le = []
    b_le = []
    for mc in problem.moment_constraints:
        row = mc.f.evaluate(atoms)
        if mc.relation == "=":
            a_eq.append(row)
            b_eq.append(mc.target)
        elif mc.relation == "<=":
            a_le.append(row)
            b_le.append(mc.target)
        else:
            a_le.append(-row)
            b_le.append(-mc.target)

    weights, value = simplex_maximize(objective, a_eq, b_eq, a_le, b_le)
    return AtomicLPResult(
        atoms=atoms, weights=weights, lower_bound=min(1.0, max(0.0, float(value))),
        violating=violating,
    )
