"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run `pytest -s tests/test_acceptance.py -v` to see them inline).

Solved relaxations are collected in a registry so the weak-duality
criterion can audit every Optimal solve produced while the suite runs.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import PROBLEMS_DIR, running_problem

from dstab import analysis, oracle
from dstab.cli import load_problem
from dstab.moments import assemble, moments_of_atomic
from dstab.poly import Polynomial, parse_polynomial
from dstab.problem import DStabilityProblem, UncertainMatrix, build_lifted, minimal_order
from dstab.relax import SolverStatus, assemble_relaxation
from dstab.sdp import SolverSettings, solve
from dstab.sets import box_set, region_preset

REGISTRY: list[tuple[str, object]] = []


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def solve_registered(name: str, sdp):
    solution = solve(sdp, SolverSettings())
    REGISTRY.append((name, solution))
    return solution


@pytest.fixture(scope="module")
def mean_report():
    problem, _ = load_problem(PROBLEMS_DIR / "running_example.prob")
    report = analysis.upper_probability(problem, tau=2)
    REGISTRY.append(("running/mean/tau2", _report_solution(problem, 2)))
    return report


@pytest.fixture(scope="module")
def support_solution():
    problem, _ = load_problem(PROBLEMS_DIR / "running_example_support.prob")
    sdp = assemble_relaxation(build_lifted(problem), 2)
    return solve_registered("running/support/tau2", sdp)


def _report_solution(problem, tau):
    return solve(assemble_relaxation(build_lifted(problem), tau), SolverSettings())


def test_criterion_01_running_probabilistic(mean_report):
    ok = (
        abs(mean_report.p_upper - 0.5) <= 1e-3
        and mean_report.verdict is analysis.Verdict.VIOLATION_PROBABILITY_BOUND
        and mean_report.seconds <= 5.0
    )
    check(1, ok, f"p_upper={mean_report.p_upper:.6f} (target 0.5 +/- 1e-3), "
                 f"verdict={mean_report.verdict.value}, {mean_report.seconds:.2f}s")


def test_criterion_02_running_deterministic(support_solution):
    problem, _ = load_problem(PROBLEMS_DIR / "running_example_support.prob")
    report = analysis.certify_robust(problem, tau=2)
    witness = oracle.grid_violation_search(problem, 101)
    ok = (
        abs(support_solution.primal_value - 1.0) <= 1e-3
        and report.verdict is not analysis.Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        and witness is not None
        and witness.rho[0] == pytest.approx(1.0, abs=1e-12)
        and abs(witness.lam) <= 1e-9
        and report.seconds <= 5.0
    )
    w = "none" if witness is None else f"(rho={witness.rho[0]:.3f}, lam={witness.lam:.1e})"
    check(2, ok, f"raw={support_solution.primal_value:.6f} (target 1 +/- 1e-3), "
                 f"{report.verdict.value}, witness {w}")


def test_criterion_03_shrunk_support():
    problem = running_problem(mean=None, upper=0.9)
    report = analysis.certify_robust(problem, tau=2)
    REGISTRY.append(("running/shrunk/tau2", _report_solution(problem, 2)))
    max_re = -math.inf
    for rho in np.linspace(0.0, 0.9, 10_000):
        eigs = oracle.eigenvalues(problem.matrix.evaluate([rho]))
        max_re = max(max_re, float(eigs.real.max()))
    ok = (report.verdict is analysis.Verdict.CERTIFIED_ROBUSTLY_DSTABLE
          and abs(max_re - (-0.1)) <= 1e-9)
    check(3, ok, f"{report.verdict.value} (raw={report.raw_value:.2e}), oracle max Re "
                 f"eigenvalue over 10^4 points = {max_re:.12f} (target -0.1 +/- 1e-9)")


def test_criterion_04_hurwitz():
    problem, options = load_problem(PROBLEMS_DIR / "hurwitz.prob")
    assert options["tau"] == 3
    report = analysis.upper_probability(problem, tau=3)
    REGISTRY.append(("hurwitz/tau3", _report_solution_from(report)))
    witness = oracle.grid_violation_search(problem, 1001)

    grid = np.linspace(-0.1, 3.4, 1001)
    char = parse_polynomial(
        "s^2 + (5.3 + 2*r + r^2)*s + 0.96 + 4.8*r + 15.9*r^2 + 2*r^3 - 2*r^4",
        ["s", "r"],
    )
    all_negative = True
    for rho in grid:
        b = char.substitute(1, rho)  # univariate in s
        c0 = b.terms.get((0,), 0.0)
        c1 = b.terms.get((1,), 0.0)
        companion = np.array([[0.0, -c0], [1.0, -c1]])
        roots = oracle.eigenvalues(companion)
        if roots.real.max() >= 0.0:
            all_negative = False
            break

    ok = (
        report.raw_value <= 1e-6
        and report.verdict is analysis.Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        and witness is None
        and all_negative
        and report.seconds <= 120.0
    )
    check(4, ok, f"raw={report.raw_value:.2e} (target <= 1e-6), "
                 f"verdict={report.verdict.value}, oracle witness={witness}, "
                 f"char-poly roots negative={all_negative}, {report.seconds:.1f}s")


def _report_solution_from(report):
    class _Shim:
        status = report.solver_status
        primal_value = report.raw_value
        dual_value = report.raw_value + report.residuals.get("gap", 0.0)
        upper_bound = report.upper_bound
    return _Shim()


def test_criterion_05_sandwich(mean_report):
    problem, _ = load_problem(PROBLEMS_DIR / "running_example.prob")
    lp = oracle.atomic_lp_bound(problem, [[0.0], [0.5], [1.0]])
    ok = (
        abs(lp.lower_bound - 0.5) <= 1e-9
        and lp.lower_bound <= mean_report.p_upper + 1e-6
        and abs(mean_report.p_upper - lp.lower_bound) <= 1e-3
    )
    check(5, ok, f"lp_bound={lp.lower_bound:.9f}, p_upper={mean_report.p_upper:.9f}, "
                 f"|difference|={abs(mean_report.p_upper - lp.lower_bound):.2e}")


def _random_symmetric_problem(rng: random.Random) -> DStabilityProblem:
    def linear():
        return Polynomial(1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)})

    a, b, c = linear(), linear(), linear()
    matrix = UncertainMatrix(("rho",), ((a, b), (b, c)))
    lo = rng.uniform(-1.5, 0.5)
    hi = lo + rng.uniform(0.2, 1.5)
    return DStabilityProblem(
        matrix=matrix,
        delta=box_set(("rho",), [lo], [hi]),
        region=region_preset("left_half_plane_closure"),
    )


def test_criterion_06_hierarchy_monotonicity():
    worst = -math.inf
    cases = []
    problem, _ = load_problem(PROBLEMS_DIR / "running_example.prob")
    cases.append(("running/mean", problem))
    support, _ = load_problem(PROBLEMS_DIR / "running_example_support.prob")
    cases.append(("running/support", support))
    rng = random.Random(20240810)
    for k in range(20):
        cases.append((f"random[{k}]", _random_symmetric_problem(rng)))

    ok = True
    for name, prob in cases:
        lifted = build_lifted(prob)
        tau_min = minimal_order(lifted)
        raws = []
        for tau in range(tau_min, tau_min + 3):
            solution = solve_registered(f"{name}/tau{tau}",
                                        assemble_relaxation(lifted, tau))
            # the raw value must be trustworthy even when the interior-point
            # method stops short of full tolerance on a degenerate optimum
            # (violable problems pin several blocks to zero simultaneously)
            quality = max(solution.residuals["primal_infeas"],
                          solution.residuals["dual_infeas"],
                          abs(solution.residuals["gap"]))
            if quality > 1e-4:
                ok = False
            raws.append(solution.primal_value)
        for prev, nxt in zip(raws, raws[1:]):
            worst = max(worst, nxt - prev)
            if nxt > prev + 1e-6:
                ok = False
    check(6, ok, f"22 problems x 3 orders, worst raw(tau+1) - raw(tau) = {worst:.2e} "
                 f"(allowed 1e-6)")


def test_criterion_07_necessary_conditions(support_solution):
    rng = random.Random(777)
    problem = running_problem(mean=None)
    lifted = build_lifted(problem)
    sdp = assemble_relaxation(lifted, 2)
    optimum = support_solution.primal_value
    min_eig = math.inf
    worst_row = 0.0
    ok = True
    for _ in range(100):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                atoms.append([rng.uniform(0, 1), rng.uniform(0, 1), 0.0, 0.0])
            else:
                atoms.append([1.0, 0.0, rng.uniform(-1, 1), 0.0])
        weights = np.array([rng.random() for _ in atoms])
        weights /= weights.sum()
        weights[-1] = 1.0 - weights[:-1].sum()
        if not all(lifted.support.contains(a, 1e-12) for a in atoms):
            ok = False
        m = moments_of_atomic(atoms, weights, 4, 2)
        for _label, form in sdp.psd_blocks:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(assemble(form, m))[0]))
        # the one linear row m_0 = 1, then every equality form
        worst_row = max(worst_row, abs(m.values[0] - 1.0))
        for _label, form in sdp.equalities:
            worst_row = max(worst_row, float(np.abs(assemble(form, m)).max()))
        if float(sdp.objective @ m.values) > optimum + 1e-6:
            ok = False
    ok = ok and min_eig >= -1e-8 and worst_row <= 1e-10
    check(7, ok, f"100 atomic measures: min pencil eigenvalue {min_eig:.2e} "
                 f"(allowed -1e-8), worst row residual {worst_row:.2e}, "
                 f"objectives <= optimum {optimum:.6f}")


def test_criterion_09_variance_sweep():
    def family(sigma2: float) -> DStabilityProblem:
        return running_problem(mean=0.5, variance=sigma2)

    grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
    points = analysis.sweep(family, grid, tau=2)
    uppers = [p.p_upper for p in points]
    monotone = all(b >= a - 1e-6 for a, b in zip(uppers, uppers[1:]))
    ok = (
        monotone
        and uppers[0] <= 1e-3
        and abs(uppers[-1] - 0.5) <= 1e-3
        and all(p.status == "Optimal" for p in points)
    )
    check(9, ok, "p_upper over sigma^2 grid = "
                 + ", ".join(f"{u:.4f}" for u in uppers)
                 + f"; monotone={monotone}")


def test_criterion_10_bifurcation_oracle_and_desk_scale_files():
    problem, _ = load_problem(PROBLEMS_DIR / "bifurcation.prob", {"k": 0.4650})
    r1, r2, r3 = 8.5412, 2.4650, 2.4650
    point = [r1, r2, r3, r3 / r1, 1.0 / (r1 - r3)]
    jac = problem.matrix.evaluate(point)
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])

    # desk-scale smoke for the large shipped problems: assembly and sizes
    sdp_bif = assemble_relaxation(build_lifted(problem), 3)
    lti, _ = load_problem(PROBLEMS_DIR / "lti_stability.prob")
    sdp_lti = assemble_relaxation(build_lifted(lti), 2)
    hinf, _ = load_problem(PROBLEMS_DIR / "lti_hinf.prob")
    sdp_hinf = assemble_relaxation(build_lifted(hinf), 2)

    ok = (
        abs(det) <= 1e-3
        and sdp_bif.num_moments == math.comb(11 + 6, 6)
        and sdp_lti.num_moments == math.comb(14 + 4, 4)
        and sdp_hinf.num_moments == math.comb(22 + 4, 4)
    )
    check(10, ok, f"|det J| = {abs(det):.2e} at the analytic singularity "
                  f"(allowed 1e-3); assembled bifurcation tau=3 "
                  f"({sdp_bif.num_moments} moments), LTI stability "
                  f"({sdp_lti.num_moments}), Hamiltonian ({sdp_hinf.num_moments})")


@pytest.mark.skip(
    reason="stretch goal: the order-3 bifurcation relaxation reduces to 2961 solved "
    "moments with pieces up to 91x91; one solve at k = 0.45 stops SlowProgress after "
    "39 iterations in about 100 s, so the bisection's solves are beyond the dense "
    "solver's desk-scale runtime budget; the gating det(J) oracle check runs above"
)
def test_criterion_10_stretch_bifurcation_bisection():
    def family(k: float) -> DStabilityProblem:
        return load_problem(PROBLEMS_DIR / "bifurcation.prob", {"k": k})[0]

    result = analysis.bisect_margin(family, 0.40, 0.50, tau=3, tol=2e-3)
    assert 0.45 <= result.k_star <= 0.47


def _verdict(problem, solution) -> analysis.Verdict:
    """The verdict `upper_probability` draws from a solution."""
    if solution.status is not SolverStatus.OPTIMAL:
        return analysis.Verdict.INCONCLUSIVE
    if not problem.is_support_only():
        return analysis.Verdict.VIOLATION_PROBABILITY_BOUND
    if solution.upper_bound < 1.0 - analysis.DEFAULT_CERTIFICATION_MARGIN:
        return analysis.Verdict.CERTIFIED_ROBUSTLY_DSTABLE
    return analysis.Verdict.INCONCLUSIVE


def test_truncation_keeps_values_verdicts_and_monotonicity():
    # the solver keeps the part of each relaxation of eigenvector degree
    # <= 2; clearing `x_coordinates` gives the untruncated solve of the
    # same SDP, which must agree order by order
    variance = PROBLEMS_DIR / "running_example_variance.prob"
    cases = [
        ("running", load_problem(PROBLEMS_DIR / "running_example.prob")[0], 2, 3),
        ("support", load_problem(PROBLEMS_DIR / "running_example_support.prob")[0], 2, 3),
        ("variance0.2", load_problem(variance, {"sigma2": 0.2})[0], 2, 3),
    ]
    worst = 0.0
    ok = True
    for _name, problem, tau_min, tau_max in cases:
        report = analysis.hierarchy(problem, tau_min, tau_max)
        ok = ok and not report.monotonicity_violations
        for order in report.reports:
            full = solve(dataclasses.replace(order.sdp, x_coordinates=()))
            worst = max(worst, abs(order.raw_value - full.primal_value))
            ok = ok and order.solver_status is full.status is SolverStatus.OPTIMAL \
                and order.verdict is _verdict(problem, full) \
                and order.solved_moments < full.solved_moments
    ok = ok and worst <= 1e-7
    check(11, ok, f"3 problems, 6 orders: truncated vs untruncated value differ by at most "
                  f"{worst:.2e} (allowed 1e-7), same status and verdict, monotone hierarchy")


def test_criterion_08_weak_duality_registry():
    # runs after the other criteria (definition order): audits every Optimal
    # solve recorded above plus a baseline battery
    baseline = [
        ("baseline/mean/tau2", running_problem(mean=0.5), 2),
        ("baseline/variance/tau2", running_problem(mean=0.5, variance=0.1), 2),
    ]
    for name, prob, tau in baseline:
        solve_registered(name, assemble_relaxation(build_lifted(prob), tau))

    audited = 0
    worst_low, worst_high = 0.0, 0.0
    bound_low, bound_high = np.inf, -np.inf
    ok = True
    for name, solution in REGISTRY:
        if solution.status is not SolverStatus.OPTIMAL:
            continue
        gap = solution.dual_value - solution.primal_value
        worst_low = min(worst_low, gap)
        worst_high = max(worst_high, gap)
        if not (-1e-6 <= gap <= 1e-4):
            ok = False
        excess = solution.upper_bound - solution.primal_value
        bound_low = min(bound_low, excess)
        bound_high = max(bound_high, excess)
        if not (0.0 <= excess <= 1e-6):
            ok = False
        audited += 1
    ok = ok and audited >= 10
    check(8, ok, f"{audited} Optimal solves audited; dual - primal in "
                 f"[{worst_low:.2e}, {worst_high:.2e}] (allowed [-1e-6, 1e-4]); "
                 f"upper bound - primal in [{bound_low:.2e}, {bound_high:.2e}] "
                 f"(allowed [0, 1e-6])")
