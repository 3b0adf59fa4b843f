import csv
import dataclasses
import warnings

import numpy as np
import pytest

from conftest import hurwitz_problem, running_matrix, running_problem

import dstab.analysis
import dstab.sdp
from dstab.analysis import (
    SWEEP_CSV_HEADER,
    Verdict,
    bisect_margin,
    certify_robust,
    extract_candidate,
    hierarchy,
    sweep,
    upper_probability,
    write_sweep_csv,
)
from dstab.cli import load_problem
from dstab.oracle import atomic_lp_bound, grid_points, grid_violation_search
from dstab.poly import Polynomial, parse_polynomial
from dstab.problem import DStabilityProblem, MomentConstraint, UncertainMatrix, build_lifted
from dstab.relax import SolverStatus, assemble_relaxation
from dstab.sdp import solve
from dstab.sets import box_set, region_preset


def constant_stable_problem() -> DStabilityProblem:
    minus_eye = UncertainMatrix(
        ("rho",),
        tuple(
            tuple(Polynomial.constant(1, -1.0 if i == j else 0.0) for j in range(2))
            for i in range(2)
        ),
    )
    return DStabilityProblem(
        matrix=minus_eye,
        delta=box_set(("rho",), [0.0], [1.0]),
        region=region_preset("left_half_plane_closure"),
    )


class TestUpperProbability:
    def test_mean_constrained(self, mean_problem):
        report = upper_probability(mean_problem, tau=2)
        assert report.verdict is Verdict.VIOLATION_PROBABILITY_BOUND
        assert report.p_upper == pytest.approx(0.5, abs=1e-3)
        assert report.p_lower_stability == pytest.approx(0.5, abs=1e-3)
        assert report.solver_status is SolverStatus.OPTIMAL
        assert not report.support_only

    def test_report_holds_the_solved_sdp(self, mean_problem):
        report = upper_probability(mean_problem)
        assert report.tau == report.sdp.tau == 1
        assert report.num_moments == report.sdp.num_moments
        assert "sdp=" not in repr(report)
        assert dataclasses.replace(report, sdp=None) == report

    def test_support_only_inconclusive(self, support_problem):
        report = upper_probability(support_problem, tau=2)
        assert report.p_upper == pytest.approx(1.0, abs=1e-3)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_shrunk_support_certified(self):
        report = upper_probability(running_problem(mean=None, upper=0.9), tau=2)
        assert report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        assert report.raw_value < 1e-3

    def test_clipping(self, support_problem):
        # the exact value is 1, and the rigorous bound may exceed it
        report = upper_probability(support_problem, tau=1)
        assert 0.0 <= report.p_upper <= 1.0
        assert report.p_upper == min(1.0, max(0.0, report.upper_bound))
        assert report.upper_bound >= report.raw_value

    @pytest.mark.parametrize(
        "sigma2", [None, 0.05, 0.1, 0.13, 0.15, 0.25],
        ids=["mean", "var0.05", "var0.1", "var0.13", "var0.15", "var0.25"],
    )
    def test_bound_is_sound_and_tight(self, sigma2):
        # worst case of P(rho >= 1) for mean 0.5 (and variance <= sigma2) on
        # [0, 1]: atoms at 0 and 1 give 1/2, Cantelli gives sigma2/(sigma2+1/4)
        exact = 0.5 if sigma2 is None else sigma2 / (sigma2 + 0.25)
        report = upper_probability(running_problem(mean=0.5, variance=sigma2), tau=2)
        # sound whatever the status; within solver accuracy of raw when Optimal
        assert exact <= report.upper_bound
        if report.solver_status is SolverStatus.OPTIMAL:
            assert report.upper_bound <= report.raw_value + 1e-6
        assert report.p_upper == min(1.0, report.upper_bound)

    def test_unbounded_coordinate_gives_no_bound(self):
        # Delta = {rho - rho^2 >= 0} has no box rows, so no a-priori moment
        # bound exists and the bound is vacuous
        from dstab.poly import parse_polynomial
        from dstab.sets import Relation, SemialgebraicSet

        delta = SemialgebraicSet(
            ("rho",), ((parse_polynomial("rho - rho^2", ["rho"]), Relation.GE),)
        )
        problem = DStabilityProblem(
            matrix=running_matrix(), delta=delta,
            region=region_preset("left_half_plane_closure"), lambda_radius=2.0,
        )
        report = upper_probability(problem, tau=2)
        assert report.upper_bound == np.inf
        assert report.p_upper == 1.0
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_tau_auto_raise_warns(self, mean_problem):
        with pytest.warns(UserWarning, match="minimal order"):
            report = upper_probability(mean_problem, tau=0)
        assert report.tau == 1

    def test_default_tau_is_minimal(self, mean_problem):
        report = upper_probability(mean_problem)
        assert report.tau == 1


class TestCertify:
    def test_not_certified_with_candidate(self, support_problem):
        report = certify_robust(support_problem, tau=2)
        assert report.verdict is not Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        assert report.verdict is Verdict.INCONCLUSIVE
        candidate = report.candidate
        assert candidate.rho[0] == pytest.approx(1.0, abs=1e-4)
        assert abs(candidate.lam) <= 1e-4

    def test_shrunk_certified(self):
        report = certify_robust(running_problem(mean=None, upper=0.9), tau=2)
        assert report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        assert report.verdict.value == "CertifiedRobustlyDStable"

    @pytest.mark.parametrize("margin", [-0.1, 1.0, float("nan")])
    def test_margin_outside_unit_interval_rejected(self, support_problem, margin):
        # with margin -0.1 the support problem, violated with probability 1,
        # was certified on a bound of 1.00000001
        with pytest.raises(ValueError, match="margin"):
            certify_robust(support_problem, tau=2, margin=margin)
        with pytest.raises(ValueError, match="margin"):
            sweep(lambda _theta: support_problem, [0.0, 1.0], tau=2, margin=margin)

    def test_zero_margin_accepted(self):
        report = certify_robust(running_problem(mean=None, upper=0.9), tau=2, margin=0.0)
        assert report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE and report.margin == 0.0

    def test_rejects_moment_constraints(self, mean_problem):
        with pytest.raises(ValueError, match="support-only"):
            certify_robust(mean_problem, tau=2)

    def test_certification_soundness_against_oracle(self):
        problem = running_problem(mean=None, upper=0.9)
        report = certify_robust(problem, tau=2)
        assert report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE
        assert grid_violation_search(problem, 10_000, membership_tol=1e-6) is None


class TestHierarchy:
    def test_running_example_orders(self, mean_problem):
        report = hierarchy(mean_problem, 1, 3)
        raws = [r.raw_value for r in report.reports]
        assert len(raws) == 3
        for prev, nxt in zip(raws, raws[1:]):
            assert nxt <= prev + 1e-6
        assert raws[-1] == pytest.approx(0.5, abs=1e-3)
        assert report.monotonicity_violations == ()

    def test_constant_stable_problem(self):
        # at the minimal order only scalar localizers exist and the bound is
        # vacuous; from tau = 2 the never-violable matrix certifies at 0
        report = hierarchy(constant_stable_problem(), 1, 3)
        raws = [r.raw_value for r in report.reports]
        assert all(nxt <= prev + 1e-6 for prev, nxt in zip(raws, raws[1:]))
        for r in report.reports[1:]:
            assert r.raw_value <= 1e-6
            assert r.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE

    def test_start_below_minimal_order(self):
        # Hurwitz has minimal order 2: the range [1, 2] solves tau 2 once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = hierarchy(hurwitz_problem(), 1, 2)
        assert [r.tau for r in report.reports] == [2]
        assert [w.category for w in caught] == [UserWarning]

    def test_default_end_follows_the_effective_start(self):
        # the start moves up to the minimal order 2, and the end with it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = hierarchy(hurwitz_problem(), 1)
        assert [r.tau for r in report.reports] == [2, 3]
        assert [w.category for w in caught] == [UserWarning]

    @pytest.mark.parametrize("tau_min, tau_max, start", [(3, 2, 3), (None, 0, 1)])
    def test_tau_max_below_start_rejected_before_any_solve(self, mean_problem, monkeypatch,
                                                           tau_min, tau_max, start):
        monkeypatch.setattr(dstab.analysis, "solve",
                            lambda *args: pytest.fail("an SDP was solved"))
        with pytest.raises(ValueError, match=f"tau_max {tau_max} is below the start order {start}"):
            hierarchy(mean_problem, tau_min, tau_max)

    @pytest.mark.parametrize("tau_min, tau_max, orders",
                             [(None, None, [1, 2]), (1, 3, [1, 2, 3])],
                             ids=["default-range", "tau-1-to-3"])
    def test_lifts_once(self, mean_problem, monkeypatch, tau_min, tau_max, orders):
        # every order is solved on the one lift that also gives the minimal
        # order
        lifts = []
        build = dstab.analysis.build_lifted
        monkeypatch.setattr(dstab.analysis, "build_lifted",
                            lambda problem: lifts.append(problem) or build(problem))
        report = hierarchy(mean_problem, tau_min, tau_max)
        assert [r.tau for r in report.reports] == orders
        assert len(lifts) == 1


class TestExtractCandidate:
    def test_first_moments_follow_the_constant(self):
        # the candidate reads z_1..z_n at positions 1..n of the basis
        lifted = build_lifted(hurwitz_problem())
        solution = solve(assemble_relaxation(lifted, 3))
        moments = solution.moments
        first = [moments.entry(tuple(int(i == j) for j in range(7))) for i in range(7)]
        assert moments.values[1:8].tolist() == first
        candidate = extract_candidate(solution, lifted)
        assert candidate.rho.tolist() == first[:1]
        assert candidate.lam == complex(first[1], first[2])
        assert candidate.x.tolist() == [complex(first[3], first[5]), complex(first[4], first[6])]

    def test_deterministic_candidate(self, support_problem):
        lifted = build_lifted(support_problem)
        solution = solve(assemble_relaxation(lifted, 2))
        candidate = extract_candidate(solution, lifted)
        assert candidate.rho[0] == pytest.approx(1.0, abs=1e-5)
        assert abs(candidate.lam) <= 1e-5

    def test_dirac_support_recovers_atom(self):
        problem = running_problem(mean=None, upper=0.0)  # delta = {0}
        lifted = build_lifted(problem)
        solution = solve(assemble_relaxation(lifted, 2))
        candidate = extract_candidate(solution, lifted)
        assert candidate.rho[0] == pytest.approx(0.0, abs=1e-6)
        assert candidate.max_support_violation <= 1e-6

    def test_mixture_flagged(self, mean_problem):
        lifted = build_lifted(mean_problem)
        solution = solve(assemble_relaxation(lifted, 2))
        candidate = extract_candidate(solution, lifted)
        assert candidate.rho[0] == pytest.approx(0.5, abs=1e-4)
        # the optimal measure is a mixture: the candidate cannot reproduce
        # the objective value
        assert candidate.objective_gap >= 0.4


class TestSandwich:
    def test_lp_bound_below_relaxation(self, mean_problem):
        report = upper_probability(mean_problem, tau=2)
        lp = atomic_lp_bound(mean_problem, [[0.0], [0.5], [1.0]])
        assert lp.lower_bound <= report.p_upper + 1e-6
        assert abs(report.p_upper - lp.lower_bound) <= 1e-3

    # Every shipped problem with a box Delta that solves in a few seconds.
    # Left out: bifurcation*.prob (its support has measure zero, so the grid
    # oracle raises), lti_hinf.prob (assembly scale only) and
    # lti_stability.prob (about 12 s at tau 2).
    @pytest.mark.parametrize("name, bindings", [
        ("hurwitz", {}),
        ("running_example", {}),
        ("running_example_support", {}),
        ("running_example_variance", {"sigma2": 0.02}),
        ("running_example_variance", {"sigma2": 0.1}),
        ("running_example_variance", {"sigma2": 0.25}),
    ])
    def test_shipped_problems(self, problems_dir, name, bindings):
        problem, options = load_problem(problems_dir / f"{name}.prob", bindings)
        report = upper_probability(problem, tau=int(options["tau"]))
        lp = atomic_lp_bound(problem, grid_points(problem, 101))
        assert lp.lower_bound <= report.upper_bound

    # The running example violates only at rho = 1.  A one-sided cap on
    # E[rho] (written either way round) bounds the violation probability by
    # m (Markov, attained by atoms at 0 and 1); a floor on E[rho] leaves
    # it at 1.
    @pytest.mark.parametrize("m", [0.3, 0.7])
    @pytest.mark.parametrize("f, relation, sign, caps", [
        ("rho", "<=", 1.0, True),
        ("-rho", ">=", -1.0, True),
        ("rho", ">=", 1.0, False),
    ])
    def test_one_sided_expectation(self, m, f, relation, sign, caps):
        problem = dataclasses.replace(
            running_problem(mean=None),
            moment_constraints=(MomentConstraint(parse_polynomial(f, ["rho"]), relation,
                                                 sign * m),),
        )
        report = upper_probability(problem, tau=2)
        assert report.solver_status is SolverStatus.OPTIMAL
        exact = m if caps else 1.0
        assert report.p_upper == pytest.approx(exact, abs=1e-6)
        lp = atomic_lp_bound(problem, grid_points(problem, 101))
        assert lp.lower_bound == pytest.approx(exact, abs=1e-6)
        assert 0.0 <= lp.lower_bound <= 1.0
        assert lp.lower_bound <= report.p_upper

    def test_moment_constraint_nesting(self):
        mean_only = upper_probability(running_problem(mean=0.5), tau=2)
        with_variance = upper_probability(
            running_problem(mean=0.5, variance=0.05), tau=2
        )
        assert with_variance.p_upper <= mean_only.p_upper + 1e-6


def running_family(k: float) -> DStabilityProblem:
    return DStabilityProblem(
        matrix=running_matrix(),
        delta=box_set(("rho",), [0.0], [k]),
        region=region_preset("left_half_plane_closure"),
    )


class TestBisect:
    def test_near_the_margin(self):
        # with the second-order term kept up to the tolerances, this solve
        # stalls just above its own rigorous bound and ends SlowProgress
        report = upper_probability(running_family(0.96875), tau=2)
        assert report.solver_status is SolverStatus.OPTIMAL
        assert report.verdict is Verdict.CERTIFIED_ROBUSTLY_DSTABLE

    def test_running_family(self):
        result = bisect_margin(running_family, 0.5, 1.0, tau=2, tol=1e-3)
        assert 1.0 - 2e-3 <= result.k_star < 1.0
        ks = [k for k, _c, _bound in result.evaluations]
        assert ks[0] == 1.0 and ks[1] == 0.5  # bracket checked first
        for _k, certified, bound in result.evaluations:
            assert certified == (bound < 1.0 - 1e-3)

    def test_certified_at_both_ends(self):
        result = bisect_margin(running_family, 0.2, 0.8, tau=2, tol=1e-2)
        assert result.k_star == 0.8
        assert len(result.evaluations) == 1

    def test_invalid_bracket(self):
        def family(k):
            return running_family(1.0)  # never certified

        with pytest.raises(ValueError, match="bracket"):
            bisect_margin(family, 0.1, 0.2, tau=2, tol=1e-2)

    @pytest.mark.parametrize("k_lo, k_hi, tol, match", [
        (0.5, 1.0, 0.0, "tolerance"),
        (0.5, 1.0, -1e-3, "tolerance"),
        (1.0, 1.0, 1e-3, "bracket"),
        (1.0, 0.5, 1e-3, "bracket"),
    ])
    def test_bad_arguments_rejected_before_any_solve(self, k_lo, k_hi, tol, match):
        # with tol 0 the bisection never ended once lo and hi were adjacent
        def family(k):
            pytest.fail("the family was evaluated")

        with pytest.raises(ValueError, match=match):
            bisect_margin(family, k_lo, k_hi, tau=2, tol=tol)


class TestSweep:
    def variance_family(self, sigma2: float) -> DStabilityProblem:
        return running_problem(mean=0.5, variance=sigma2)

    def test_variance_sweep(self, tmp_path):
        grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
        points = sweep(self.variance_family, grid, tau=2)
        uppers = [p.p_upper for p in points]
        assert all(b >= a - 1e-6 for a, b in zip(uppers, uppers[1:]))
        assert uppers[0] <= 1e-3
        assert uppers[-1] == pytest.approx(0.5, abs=1e-3)

        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == SWEEP_CSV_HEADER
        assert len(rows) == 1 + len(grid)
        assert [float(r[0]) for r in rows[1:]] == grid

    def test_per_point_failure_recorded(self):
        def family(theta: float) -> DStabilityProblem:
            if theta > 0.5:
                raise RuntimeError("synthetic failure")
            return self.variance_family(theta)

        points = sweep(family, [0.1, 0.9], tau=2)
        assert points[0].status == "Optimal"
        assert points[1].status.startswith("error")
        assert np.isnan(points[1].p_upper)
        assert len(points) == 2

    # 0.25 drops a term, so the grid holds two structures; -0.1 is Infeasible
    GRID = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, -0.1]

    @staticmethod
    def _figures(points):
        return [dataclasses.replace(p, seconds=0.0) for p in points]

    def test_points_match_their_analyses_alone(self):
        points = sweep(self.variance_family, self.GRID, tau=2)
        assert [p.theta for p in points] == self.GRID
        for point, theta in zip(points, self.GRID):
            report = upper_probability(self.variance_family(theta), tau=2)
            assert point.status == report.solver_status.value
            assert point.p_upper == report.p_upper
            assert point.p_lower == report.p_lower_stability
            assert point.tau == report.tau == 2
            assert point.seconds > 0
        assert points[-1].status == "Infeasible" and points[-1].p_upper == 1.0

    def test_failing_point_mid_batch(self):
        def family(theta: float) -> DStabilityProblem:
            if theta == 0.1:
                raise RuntimeError("synthetic failure")
            return self.variance_family(theta)

        points = sweep(family, self.GRID, tau=2)
        assert [p.theta for p in points] == self.GRID
        assert points[2].status == "error: synthetic failure"
        assert points[2].tau == 2 and np.isnan(points[2].p_upper)
        expected = self._figures(sweep(self.variance_family, self.GRID, tau=2))
        assert self._figures(points[:2] + points[3:]) == expected[:2] + expected[3:]

    def test_failing_solve_mid_batch(self, monkeypatch):
        lower, calls = dstab.sdp._lower, []

        def failing(sdp):
            calls.append(sdp)
            if len(calls) == 3:
                raise MemoryError("synthetic failure")
            return lower(sdp)

        expected = self._figures(sweep(self.variance_family, self.GRID, tau=2))
        monkeypatch.setattr(dstab.sdp, "_lower", failing)
        points = sweep(self.variance_family, self.GRID, tau=2)
        assert [p.theta for p in points] == self.GRID
        assert points[2].status == "error: synthetic failure"
        assert points[2].tau == 2 and np.isnan(points[2].p_upper)
        assert self._figures(points[:2] + points[3:]) == expected[:2] + expected[3:]

    def test_points_do_not_depend_on_the_batch_size(self, monkeypatch):
        batched = sweep(self.variance_family, self.GRID, tau=2)
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 1)  # one SDP per run
        assert self._figures(sweep(self.variance_family, self.GRID, tau=2)) == \
            self._figures(batched)


class TestInfeasibleMoments:
    def test_inconsistent_mean_is_inconclusive(self):
        report = upper_probability(running_problem(mean=2.0), tau=2)
        assert report.solver_status is SolverStatus.INFEASIBLE
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.candidate is None

    def test_infeasible_reports_trivial_probabilities(self):
        # no measure meets the moments, so the computed bound (far below 0)
        # holds vacuously; the printed figures must not read as a guarantee
        report = upper_probability(running_problem(mean=2.0), tau=2)
        assert report.solver_status is SolverStatus.INFEASIBLE
        assert report.p_upper == 1.0
        assert report.p_lower_stability == 0.0
        assert report.upper_bound < 0.0


class TestRandomSandwich:
    """End-to-end cross-check on random one-parameter symmetric problems:
    the atomic LP lower bound may never exceed the relaxation upper bound."""

    @staticmethod
    def _random_problem(rng):
        def linear():
            return Polynomial(1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)})

        a, b, c = linear(), linear(), linear()
        matrix = UncertainMatrix(("rho",), ((a, b), (b, c)))
        lo = rng.uniform(-1.5, 0.5)
        hi = lo + rng.uniform(0.2, 1.5)
        return matrix, lo, hi

    def test_lp_never_exceeds_relaxation(self):
        import random

        from dstab.problem import MomentConstraint

        rng = random.Random(31)
        rho = Polynomial.variable(1, 0)
        checked = 0
        for _ in range(6):
            matrix, lo, hi = self._random_problem(rng)
            mean = 0.5 * (lo + hi)
            problem = DStabilityProblem(
                matrix=matrix,
                delta=box_set(("rho",), [lo], [hi]),
                region=region_preset("left_half_plane_closure"),
                moment_constraints=(MomentConstraint(rho, "=", mean),),
            )
            report = upper_probability(problem, tau=2)
            quality = max(report.residuals["primal_infeas"],
                          report.residuals["dual_infeas"],
                          abs(report.residuals["gap"]))
            assert quality <= 1e-4
            atoms = [[lo + (hi - lo) * k / 40] for k in range(41)]
            lp = atomic_lp_bound(problem, atoms)
            assert lp.lower_bound <= report.p_upper + 1e-6
            checked += 1
        assert checked == 6
