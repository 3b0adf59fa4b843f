"""User-facing driver: violation-probability bounds, robustness
certificates, hierarchy sweeps, candidate extraction, parameter sweeps and
bisection on a robustness margin.

The order-tau relaxation optimum upper-bounds the worst-case probability
that the spectrum enters the instability region, but the solver only
approaches it to within tolerance, from either side.  The central quantity
is therefore the solver's rigorous `upper_bound` (`SDPSolution.upper_bound`),
which is at least the worst-case probability whatever the accuracy of the
solve.  Its clip to [0, 1] is reported as p_upper; 1 - p_upper lower-bounds
the probability of D-stability.  The primal iterate's value is kept as the
"raw value" diagnostic; hierarchy monotonicity and candidate extraction use
it.  In the support-only setting the true value is 0 or 1, so a bound below
1 (with a safety margin) certifies robust D-stability outright.
"""

from __future__ import annotations

import csv
import enum
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .problem import DStabilityProblem, LiftedProblem, build_lifted, minimal_order
from .relax import SDPProblem, SDPSolution, SolverStatus, assemble_relaxation
from .sdp import SolverSettings, solve, solve_many

DEFAULT_CERTIFICATION_MARGIN = 1e-3
MONOTONICITY_TOL = 1e-6  # a larger rise of the raw value between orders is an anomaly


class Verdict(enum.Enum):
    CERTIFIED_ROBUSTLY_DSTABLE = "CertifiedRobustlyDStable"
    VIOLATION_PROBABILITY_BOUND = "ViolationProbabilityBound"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CandidatePoint:
    """First-order-moment estimate of the worst-case point.

    `max_support_violation` is the largest violation of the lifted support
    constraints at the candidate; `objective_gap` is the mismatch between
    the measure's objective value and the objective at the candidate, which
    vanishes exactly when the optimal measure is a single atom.  Either one
    being large flags a mixture, for which the coordinate estimates are
    only averages."""

    rho: np.ndarray
    lam: complex
    x: np.ndarray
    max_support_violation: float
    objective_gap: float


@dataclass(frozen=True)
class AnalysisReport:
    """One solved relaxation, with the certification margin its verdict was
    judged with; for a support-only problem, its certificate."""

    tau: int
    raw_value: float
    upper_bound: float
    p_upper: float
    p_lower_stability: float
    verdict: Verdict
    candidate: CandidatePoint | None
    solver_status: SolverStatus
    residuals: dict
    iterations: int
    seconds: float
    support_only: bool
    solved_moments: int
    solved_largest_block: int
    margin: float
    sdp: SDPProblem = field(repr=False, compare=False)  # the SDP that was solved

    @property
    def num_moments(self) -> int:
        return self.sdp.num_moments


@dataclass(frozen=True)
class HierarchyReport:
    reports: tuple[AnalysisReport, ...]
    monotonicity_violations: tuple[tuple[int, float, float], ...]


@dataclass(frozen=True)
class BisectionResult:
    k_star: float
    evaluations: tuple[tuple[float, bool, float], ...]  # (k, certified, upper_bound)


@dataclass(frozen=True)
class SweepPoint:
    """One grid value of a sweep.  `seconds` is the point's own lift and
    assembly time plus its share of the solve (`SDPSolution.seconds`: its
    own lowering time plus the wall time of the interior-point run it
    shared, divided by the number of points in that run).  A point that
    fails takes the time until its failure or, when its solve fails, its
    lift and assembly time."""

    theta: float
    p_upper: float
    p_lower: float
    status: str
    tau: int
    seconds: float


def extract_candidate(solution: SDPSolution, lifted: LiftedProblem) -> CandidatePoint:
    """Read the first-order moments as coordinate estimates of the
    worst-case point and score them against the support constraints.  They
    follow the constant one in the graded-lex basis, z_1..z_n in order."""
    first = solution.moments.values[1:1 + lifted.num_vars]
    rho = first[list(lifted.rho_indices)]
    lam_re = first[lifted.lambda_indices[0]]
    lam_im = first[lifted.lambda_indices[1]] if len(lifted.lambda_indices) > 1 else 0.0
    xs = first[list(lifted.x_indices)]
    if lifted.real_mode:
        x = xs.astype(complex)
    else:
        n_a = lifted.matrix_size
        x = xs[:n_a] + 1j * xs[n_a:]
    gap = abs(solution.primal_value - lifted.objective.evaluate(first))
    return CandidatePoint(
        rho=rho, lam=complex(lam_re, lam_im), x=x,
        max_support_violation=max(0.0, -lifted.support.slack(first)), objective_gap=gap,
    )


def check_margin(margin: float) -> float:
    """The certification margin, which must lie in [0, 1): a negative one
    would certify a bound of 1 or more."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"certification margin {margin!r} must lie in [0, 1)")
    return margin


def upper_probability(
    problem: DStabilityProblem,
    tau: int | None = None,
    settings: SolverSettings | None = None,
    margin: float = DEFAULT_CERTIFICATION_MARGIN,
) -> AnalysisReport:
    """Solve the order-tau relaxation and report the violation-probability
    bound with the verdict dictated by the available information.

    p_upper is the solver's rigorous upper bound clipped to [0, 1]; the
    primal value is reported as `raw_value`.  Support-only problems with
    upper_bound < 1 - margin are certified robustly D-stable (the exact
    value is then 0); with moment information p_upper itself is the
    probability bound.  The bound holds for any dual iterate, so a
    SlowProgress or IterLimit solve is judged by the same rule, while an
    Infeasible or Unbounded one is Inconclusive; only an Optimal solve
    yields a candidate point.  On an Infeasible solve no
    measure meets the moment constraints, so any figure holds vacuously (the
    bound is typically far below 0); p_upper is then reported as the
    trivial 1 and p_lower as 0, so the figures never read as a stability
    guarantee, while `upper_bound` keeps the computed value.  The margin
    must lie in [0, 1).
    """
    check_margin(margin)
    start = time.perf_counter()
    lifted, tau = _lift(problem, tau)
    return _analyze(problem, lifted, tau, settings, margin, start)


def _lift(problem: DStabilityProblem, tau: int | None) -> tuple[LiftedProblem, int]:
    """The lift of a problem and the order to solve it at: tau, or the
    minimal order when tau is None or below it (with a warning)."""
    lifted = build_lifted(problem)
    tau_min = minimal_order(lifted)
    if tau is not None and tau < tau_min:
        warnings.warn(
            f"relaxation order {tau} below the minimal order {tau_min}; using {tau_min}",
            stacklevel=3,
        )
    return lifted, tau_min if tau is None else max(tau, tau_min)


def _analyze(problem, lifted, tau, settings, margin, start) -> AnalysisReport:
    """`upper_probability` from the lift on, timed from `start`."""
    sdp = assemble_relaxation(lifted, tau)
    solution = solve(sdp, settings)
    return _report(problem, lifted, sdp, solution, margin, time.perf_counter() - start)


def _report(problem, lifted, sdp, solution, margin, seconds) -> AnalysisReport:
    """The report on a solved relaxation, by the rules `upper_probability`
    states."""
    raw = solution.primal_value
    p_upper = min(1.0, max(0.0, solution.upper_bound))
    if solution.status is SolverStatus.INFEASIBLE:
        p_upper = 1.0
    support_only = problem.is_support_only()
    candidate = None
    if solution.status is SolverStatus.OPTIMAL:
        candidate = extract_candidate(solution, lifted)
    if solution.status in (SolverStatus.INFEASIBLE, SolverStatus.UNBOUNDED):
        verdict = Verdict.INCONCLUSIVE
    elif not support_only:
        verdict = Verdict.VIOLATION_PROBABILITY_BOUND
    elif solution.upper_bound < 1.0 - margin:
        verdict = Verdict.CERTIFIED_ROBUSTLY_DSTABLE
    else:
        verdict = Verdict.INCONCLUSIVE

    return AnalysisReport(
        tau=sdp.tau,
        raw_value=raw,
        upper_bound=solution.upper_bound,
        p_upper=p_upper,
        p_lower_stability=1.0 - p_upper,
        verdict=verdict,
        candidate=candidate,
        solver_status=solution.status,
        residuals=dict(solution.residuals),
        iterations=solution.iterations,
        seconds=seconds,
        support_only=support_only,
        solved_moments=solution.solved_moments,
        solved_largest_block=max(solution.solved_blocks, default=0),
        margin=margin,
        sdp=sdp,
    )


def certify_robust(
    problem: DStabilityProblem,
    tau: int | None = None,
    margin: float = DEFAULT_CERTIFICATION_MARGIN,
    settings: SolverSettings | None = None,
) -> AnalysisReport:
    """Robust D-stability certificate for a support-only problem: the
    `upper_probability` report, whose verdict is CertifiedRobustlyDStable
    iff the solve is neither Infeasible nor Unbounded and its rigorous upper
    bound on the violation probability stays below 1 by the given margin,
    whether the solver stopped Optimal, SlowProgress or IterLimit."""
    if not problem.is_support_only():
        raise ValueError(
            "certification applies to support-only problems; drop the moment "
            "constraints or use upper_probability"
        )
    return upper_probability(problem, tau=tau, settings=settings, margin=margin)


def hierarchy(
    problem: DStabilityProblem,
    tau_min: int | None = None,
    tau_max: int | None = None,
    settings: SolverSettings | None = None,
    margin: float = DEFAULT_CERTIFICATION_MARGIN,
) -> HierarchyReport:
    """Solve the relaxation of one lift at each order from the one
    `upper_probability` solves for tau_min (the minimal order when tau_min
    is None or below it) to tau_max, by default one order above that start,
    timing each order on its own (the first with the lift); a tau_max below
    the start is a ValueError, raised before any solve.  The raw values must be
    nonincreasing up to solver accuracy; a rise beyond MONOTONICITY_TOL is
    flagged as an anomaly."""
    check_margin(margin)
    start = time.perf_counter()
    lifted, first = _lift(problem, tau_min)
    end = first + 1 if tau_max is None else tau_max
    if end < first:
        raise ValueError(f"tau_max {tau_max} is below the start order {first}")
    reports = [_analyze(problem, lifted, first, settings, margin, start)]
    for tau in range(first + 1, end + 1):
        reports.append(_analyze(problem, lifted, tau, settings, margin, time.perf_counter()))
    violations = []
    for prev, nxt in zip(reports, reports[1:]):
        if nxt.raw_value > prev.raw_value + MONOTONICITY_TOL:
            violations.append((nxt.tau, prev.raw_value, nxt.raw_value))
    return HierarchyReport(reports=tuple(reports), monotonicity_violations=tuple(violations))


def bisect_margin(
    family,
    k_lo: float,
    k_hi: float,
    tau: int | None = None,
    tol: float = 1e-3,
    margin: float = DEFAULT_CERTIFICATION_MARGIN,
    settings: SolverSettings | None = None,
) -> BisectionResult:
    """Largest parameter k (within tol) whose problem family(k) is still
    certified robustly D-stable.

    Requires k_lo < k_hi, tol > 0 and certification at k_lo; when it also
    holds at k_hi the whole bracket is certified and k_hi is returned.
    Certification is assumed monotone in k; non-monotone families are the
    caller's responsibility.
    """
    if not k_lo < k_hi:
        raise ValueError(f"bisection bracket invalid: k_lo={k_lo!r} is not below k_hi={k_hi!r}")
    if not tol > 0:
        raise ValueError(f"bisection tolerance {tol!r} must be positive")
    evaluations = []

    def certified_at(k: float) -> bool:
        report = certify_robust(family(k), tau=tau, margin=margin, settings=settings)
        certified = report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        evaluations.append((k, certified, report.upper_bound))
        return certified

    if certified_at(k_hi):
        return BisectionResult(k_star=k_hi, evaluations=tuple(evaluations))
    if not certified_at(k_lo):
        raise ValueError(
            f"bisection bracket invalid: certification already fails at k_lo={k_lo}"
        )
    lo, hi = k_lo, k_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if certified_at(mid):
            lo = mid
        else:
            hi = mid
    return BisectionResult(k_star=lo, evaluations=tuple(evaluations))


def sweep(
    family,
    grid,
    tau: int | None = None,
    settings: SolverSettings | None = None,
    margin: float = DEFAULT_CERTIFICATION_MARGIN,
) -> list[SweepPoint]:
    """One analysis per grid value of the sweep parameter, each with the
    figures `upper_probability` gives that point; per-point failures are
    recorded in the status column and the sweep continues.  Every point is
    lifted and assembled first, and all are then solved by one
    `sdp.solve_many` call, which runs the points of one structure in one
    interior-point run and hands back a failed point's exception in its
    place; each point's solution is the one it gets alone.  A margin
    outside [0, 1) is a ValueError, raised before any point."""
    check_margin(margin)
    points: list = []
    pending, sdps = [], []  # (position, theta, problem, lift, seconds) and the SDPs
    for theta in grid:
        start = time.perf_counter()
        try:
            problem = family(theta)
            lifted, order = _lift(problem, tau)
            sdps.append(assemble_relaxation(lifted, order))
        except Exception as err:  # per-point failure: record and continue
            points.append(_failed_point(theta, tau, err, time.perf_counter() - start))
            continue
        pending.append((len(points), theta, problem, lifted, time.perf_counter() - start))
        points.append(None)
    solutions = solve_many(sdps, settings)
    for (k, theta, problem, lifted, seconds), sdp, solution in zip(pending, sdps, solutions):
        try:
            if isinstance(solution, Exception):
                raise solution
            seconds += solution.seconds
            report = _report(problem, lifted, sdp, solution, margin, seconds)
        except Exception as err:  # per-point failure: record and continue
            points[k] = _failed_point(theta, tau, err, seconds)
            continue
        points[k] = SweepPoint(
            theta=float(theta),
            p_upper=report.p_upper,
            p_lower=report.p_lower_stability,
            status=report.solver_status.value,
            tau=report.tau,
            seconds=report.seconds,
        )
    return points


def _failed_point(theta, tau, err, seconds) -> SweepPoint:
    return SweepPoint(
        theta=float(theta),
        p_upper=float("nan"),
        p_lower=float("nan"),
        status=f"error: {err}",
        tau=-1 if tau is None else tau,
        seconds=seconds,
    )


SWEEP_CSV_HEADER = ("theta", "p_upper", "p_lower", "status", "tau", "seconds")


def write_sweep_rows(writer, points) -> None:
    """The sweep table through a `csv.writer`: the header, then one row per
    point in grid order, numbers to 9 significant digits."""
    writer.writerow(SWEEP_CSV_HEADER)
    for p in points:
        writer.writerow(
            [f"{p.theta:.9g}", f"{p.p_upper:.9g}", f"{p.p_lower:.9g}",
             p.status, p.tau, f"{p.seconds:.9g}"]
        )


def write_sweep_csv(points, path) -> None:
    """Deterministic CSV emission, rows in grid order."""
    with open(path, "w", newline="") as handle:
        write_sweep_rows(csv.writer(handle), points)
