import dataclasses
import gc
import io
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import PROBLEMS_DIR, hurwitz_problem, running_problem

import dstab.sdp

from dstab.analysis import DEFAULT_CERTIFICATION_MARGIN
from dstab.cli import load_problem
from dstab.moments import (
    LinearMatrixForm,
    MomentVector,
    assemble,
    localizing_matrix_form,
    moment_matrix_form,
    moments_of_atomic,
)
from dstab.poly import graded_lex_position, monomial_basis, parse_polynomial
from dstab.problem import build_lifted
from dstab.relax import (
    SDPProblem,
    SolverStatus,
    assemble_relaxation,
)
from dstab.sdp import (
    SolverSettings,
    _batches,
    _compile,
    _equality_rows,
    _lower,
    _max_steps,
    _nt_scaling,
    _pencil,
    _Pencil,
    _reduce,
    _rounding_allowance,
    _SchurFactor,
    _second_order,
    _solve_batch,
    _truncation,
    residuals,
    solve,
    solve_many,
)
from dstab.sets import box_set


def hankel_sdp() -> SDPProblem:
    """maximize m1 s.t. m0 = 1, [[m0, m1], [m1, m2]] PSD, m2 <= 1 (the
    1x1 localizer of 1 - t^2)."""
    basis = monomial_basis(1, 2)
    objective = np.array([0.0, 1.0, 0.0])
    cap = localizing_matrix_form(parse_polynomial("1 - t^2", ["t"]), 1, 0)
    return SDPProblem(
        tau=1, basis=basis, objective=objective,
        psd_blocks=(("moment", moment_matrix_form(1, 1)), ("moment[1]", cap)),
        scale_pow=np.ones(3), z_vars=("t",),
    )


@pytest.fixture(scope="module")
def mean_sdp():
    return assemble_relaxation(build_lifted(running_problem(mean=0.5)), 2)


@pytest.fixture(scope="module")
def mean_solution(mean_sdp):
    return solve(mean_sdp, SolverSettings())


class TestSolve:
    def test_trivial_hankel(self):
        solution = solve(hankel_sdp())
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.primal_value == pytest.approx(1.0, abs=1e-7)
        # optimum is the Dirac measure at t = 1
        assert np.allclose(solution.moments.values, [1.0, 1.0, 1.0], atol=1e-5)

    def test_running_example_mean(self, mean_solution):
        assert mean_solution.status is SolverStatus.OPTIMAL
        assert mean_solution.primal_value == pytest.approx(0.5, abs=1e-4)
        assert mean_solution.moments.entry((1, 0, 0, 0)) == pytest.approx(0.5, abs=1e-6)

    def test_running_example_deterministic(self):
        sdp = assemble_relaxation(build_lifted(running_problem(mean=None)), 2)
        solution = solve(sdp)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.primal_value == pytest.approx(1.0, abs=1e-4)

    def test_weak_duality(self, mean_solution):
        assert mean_solution.dual_value >= mean_solution.primal_value - 1e-6

    def test_dual_blocks_are_psd(self, mean_sdp, mean_solution):
        assert len(mean_solution.dual_psd_blocks) == len(mean_sdp.psd_blocks)
        for x in mean_solution.dual_psd_blocks:
            assert np.linalg.eigvalsh(np.asarray(x))[0] >= -1e-9

    def test_deterministic_reproducibility(self, mean_sdp):
        a = solve(mean_sdp, SolverSettings())
        b = solve(mean_sdp, SolverSettings())
        assert a.iterations == b.iterations
        assert np.array_equal(a.moments.values, b.moments.values)
        assert a.primal_value == b.primal_value

    def test_scaling_sanity_value(self, mean_sdp, mean_solution):
        scaled = dataclasses.replace(mean_sdp, objective=3.0 * mean_sdp.objective)
        solution = solve(scaled, SolverSettings())
        assert solution.primal_value == pytest.approx(
            3.0 * mean_solution.primal_value, rel=1e-6
        )

    def test_scaling_sanity_argmax(self):
        # the Hankel problem has a unique optimizer (the Dirac at 1), so the
        # argmax must be scale-invariant as well
        base = solve(hankel_sdp())
        scaled_sdp = dataclasses.replace(hankel_sdp(), objective=hankel_sdp().objective * 7.5)
        scaled = solve(scaled_sdp)
        assert scaled.primal_value == pytest.approx(7.5 * base.primal_value, rel=1e-8)
        assert np.allclose(scaled.moments.values, base.moments.values, atol=1e-6)

    def test_infeasible_detection(self):
        problem = running_problem(mean=2.0)  # mean outside the support
        sdp = assemble_relaxation(build_lifted(problem), 2)
        solution = solve(sdp)
        assert solution.status is SolverStatus.INFEASIBLE
        ray = solution.infeasibility_ray
        assert ray is not None
        assert ray["objective"] > 0
        assert ray["residual"] < 1e-5
        # the ray's blocks align with the SDP's PSD blocks
        assert len(sdp.psd_blocks) == 6
        assert [x.shape for x in ray["psd_blocks"]] == \
            [(f.dimension, f.dimension) for _l, f in sdp.psd_blocks]

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(feasibility_tol=-1.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)
        for name in ("feasibility_tol", "gap_tol"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    SolverSettings(**{name: value})


class TestResiduals:
    def test_recomputed_small_at_optimum(self, mean_sdp, mean_solution):
        r = residuals(mean_sdp, mean_solution)
        assert r["primal_infeas"] <= 1e-7
        assert r["dual_infeas"] <= 1e-7
        assert -1e-6 <= r["gap"] <= 1e-4

    def test_hand_built_feasible_point(self, mean_sdp, mean_solution):
        m = moments_of_atomic(
            [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]], [0.5, 0.5], 4, 2
        )
        probe = dataclasses.replace(mean_solution, moments=m)
        r = residuals(mean_sdp, probe)
        assert r["primal_infeas"] <= 1e-8

    def test_perturbation_detected(self, mean_sdp, mean_solution):
        values = mean_solution.moments.values.copy()
        values[1] += 1e-3  # the E[rho] moment: breaks the mean row
        probe = dataclasses.replace(
            mean_solution,
            moments=dataclasses.replace(mean_solution.moments, values=values),
        )
        r = residuals(mean_sdp, probe)
        assert r["primal_infeas"] >= 1e-4


    def test_variance_cap_violation_detected(self):
        # E[(rho - 0.5)^2] <= 0.1 is a 1x1 PSD block; the cap is active at
        # the optimum, so raising E[rho^2] breaks it
        sdp = assemble_relaxation(build_lifted(running_problem(mean=0.5, variance=0.1)), 2)
        solution = solve(sdp)
        assert residuals(sdp, solution)["primal_infeas"] <= 1e-7
        values = solution.moments.values.copy()
        values[graded_lex_position((2, 0, 0, 0), 4, 4)] += 1e-3
        probe = dataclasses.replace(
            solution, moments=dataclasses.replace(solution.moments, values=values),
        )
        assert residuals(sdp, probe)["primal_infeas"] >= 1e-4


class TestIterationLog:
    def test_stable_columns(self, mean_sdp):
        stream = io.StringIO()
        solve(mean_sdp, SolverSettings(log_stream=stream))
        lines = stream.getvalue().splitlines()
        header = lines[0].split()
        assert header == ["iter", "mu", "p_infeas", "d_infeas", "gap",
                          "alpha_p", "alpha_d"]
        assert len(lines) >= 3
        for line in lines[1:]:
            fields = line.split()
            assert len(fields) == 7
            int(fields[0])
            for value in fields[1:]:
                float(value)
        mus = [float(line.split()[1]) for line in lines[1:]]
        assert mus[-1] < mus[0]


class TestIterationLimit:
    def test_best_iterate_returned(self, mean_sdp):
        solution = solve(mean_sdp, SolverSettings(max_iterations=3))
        assert solution.status is SolverStatus.ITER_LIMIT
        assert solution.iterations == 3
        # the best iterate is still a usable approximation
        assert np.isfinite(solution.primal_value)
        assert solution.moments.mass == pytest.approx(1.0, abs=0.5)


def _reduction_cases():
    support, _ = load_problem(PROBLEMS_DIR / "running_example_support.prob")
    cases = [
        ("running/tau2", running_problem(mean=0.5), 2),
        ("support/tau1", support, 1),
        ("support/tau2", support, 2),
        ("hurwitz/tau2", hurwitz_problem(), 2),
    ]
    for sigma2 in (0.05, 0.1, 0.13, 0.15, 0.25):
        cases.append((f"var{sigma2}", running_problem(mean=0.5, variance=sigma2), 2))
    return cases


class TestSignReduction:
    """The solver fixes the moments that are odd under a sign symmetry at 0
    and splits the blocks; dropping the generators and the quarter turn
    gives the unreduced solve of the same SDP."""

    @pytest.mark.parametrize("name,problem,tau", _reduction_cases(),
                             ids=[case[0] for case in _reduction_cases()])
    def test_matches_unreduced(self, name, problem, tau):
        sdp = assemble_relaxation(build_lifted(problem), tau)
        assert sdp.sign_symmetries
        reduced = solve(sdp)
        full = solve(dataclasses.replace(sdp, sign_symmetries=(), quarter_turn=()))
        assert reduced.solved_moments < full.solved_moments == (_x_degree(sdp) <= 2).sum()
        assert reduced.status is full.status
        assert reduced.primal_value == pytest.approx(full.primal_value, abs=1e-7)
        certified = 1.0 - DEFAULT_CERTIFICATION_MARGIN
        assert (reduced.upper_bound < certified) == (full.upper_bound < certified)

    def test_full_size_outputs(self, mean_sdp, mean_solution):
        assert mean_solution.solved_moments == 27
        assert max(mean_solution.solved_blocks) == 6
        assert mean_solution.moments.values.shape == (mean_sdp.num_moments,)
        dims = tuple(np.asarray(x).shape for x in mean_solution.dual_psd_blocks)
        assert dims == tuple((f.dimension, f.dimension) for _l, f in mean_sdp.psd_blocks)
        assert [w.shape for w in mean_solution.equality_duals] == \
            [(f.dimension, f.dimension) for _l, f in mean_sdp.equalities]
        # the normalization's multiplier is dual_value: with it and the
        # blocks above, dual stationarity closes on the full SDP
        r = residuals(mean_sdp, mean_solution)
        assert r["primal_infeas"] <= 1e-7
        assert r["dual_infeas"] <= 1e-7

    def test_odd_moments_are_zero(self, mean_sdp, mean_solution):
        for alpha, value in zip(mean_sdp.basis.tolist(), mean_solution.moments.values):
            if alpha[2] % 2 or alpha[3] % 2:  # odd under an x flip
                assert value == 0.0

    def test_bound_holds_under_wrong_generators(self, mean_sdp, mean_solution):
        # flipping rho is no symmetry (E[rho] = 0.5): the reduced SDP is
        # then a different problem, but the bound is taken on the full one
        wrong = solve(dataclasses.replace(mean_sdp, sign_symmetries=((0,),)))
        assert wrong.upper_bound >= mean_solution.primal_value - 1e-7


def _turn_cases():
    lti, _ = load_problem(PROBLEMS_DIR / "lti_stability.prob")
    return [("hurwitz/tau2", hurwitz_problem(), 2), ("hurwitz/tau3", hurwitz_problem(), 3),
            ("lti_stability/tau2", lti, 2)]


class TestQuarterTurn:
    """With a quarter turn the solver folds each orbit {m_a, +-m_turn(a)}
    into one variable and solves each turned pair of pieces and of rows
    once; without it, the same SDP is solved with the sign reduction only."""

    @pytest.mark.parametrize("name,problem,tau", _turn_cases(),
                             ids=[case[0] for case in _turn_cases()])
    def test_matches_unturned(self, name, problem, tau):
        sdp = assemble_relaxation(build_lifted(problem), tau)
        assert sdp.quarter_turn
        turned = solve(sdp)
        unturned = solve(dataclasses.replace(sdp, quarter_turn=()))
        assert turned.solved_moments < unturned.solved_moments
        assert len(turned.solved_blocks) < len(unturned.solved_blocks)
        assert turned.status is unturned.status is SolverStatus.OPTIMAL
        assert turned.primal_value == pytest.approx(unturned.primal_value, abs=1e-7)
        certified = 1.0 - DEFAULT_CERTIFICATION_MARGIN
        assert (turned.upper_bound < certified) == (unturned.upper_bound < certified)

    def test_hurwitz_orbits(self):
        # 234 moments fold into 129 orbits and 26 moments fixed at 0; 5 of
        # the 22 pieces and 16 of the 33 live equality rows are turned
        # images of others
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        low = _lower(sdp)
        assert len(low.orbits.reps) == 129
        assert (len(low.solved), len(low.pieces)) == (17, 22)
        assert low.live_rows.sum() == 17
        # each kept moment shares its column with its turned image, with
        # m_a = (-1)^|a_xre| m_turn(a)
        image, sign = _turned_moments(sdp)
        kept = np.flatnonzero(low.orbits.col >= 0)
        assert np.array_equal(low.orbits.col[kept], low.orbits.col[image[kept]])
        assert np.array_equal(low.orbits.sign[kept], sign[kept] * low.orbits.sign[image[kept]])
        assert np.array_equal(low.orbits.reps, np.flatnonzero(
            (low.orbits.col >= 0) & (np.arange(sdp.num_moments) <= image)))
        solution = solve(sdp)
        assert solution.solved_moments == 129
        assert max(solution.solved_blocks) == 20

    def test_averaged_dual_closes_the_full_residual(self):
        # the reduced dual leaves c - G'nu - A*(X) far from 0 on the full
        # SDP (each orbit sums to 0, its members do not); averaged over the
        # turn it vanishes, and the rigorous bound is as tight as the solve
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        solution = solve(sdp)
        assert solution.status is SolverStatus.OPTIMAL
        assert residuals(sdp, solution)["dual_infeas"] <= 1e-7
        assert solution.upper_bound - solution.primal_value <= 1e-7

    def test_a_constraint_that_breaks_the_turn_is_solved_without_it(self):
        from dstab.poly import Polynomial
        from dstab.sets import Relation, SemialgebraicSet
        lifted = build_lifted(hurwitz_problem())
        xre1 = Polynomial.variable(lifted.num_vars, lifted.z_vars.index("xre1"))
        support = SemialgebraicSet(lifted.support.variables,
                                   lifted.support.constraints + ((xre1, Relation.GE),))
        sdp = assemble_relaxation(dataclasses.replace(lifted, support=support), 2)
        assert sdp.quarter_turn == ()
        solution = solve(sdp)
        assert solution.status is SolverStatus.OPTIMAL
        # no orbit folding: every even moment of x-degree <= 2 is a variable
        parity = sdp.basis % 2
        even = np.all([parity[:, list(flip)].sum(axis=1) % 2 == 0
                       for flip in sdp.sign_symmetries], axis=0)
        assert solution.solved_moments == ((_x_degree(sdp) <= 2) & even).sum()
        assert residuals(sdp, solution)["dual_infeas"] <= 1e-7


def _x_degree(sdp) -> np.ndarray:
    """Eigenvector degree of each moment of the SDP."""
    return sdp.basis[:, list(sdp.x_coordinates)].sum(axis=1)


def _turned_moments(sdp):
    """Reference, one moment at a time: the index of each moment with its
    xre and xim exponents swapped, and (-1)^(its xre degree); the identity
    without a quarter turn."""
    image, sign = np.arange(sdp.num_moments), np.ones(sdp.num_moments)
    if sdp.quarter_turn:
        re, im = sdp.quarter_turn
        for i, alpha in enumerate(sdp.basis.tolist()):
            beta = list(alpha)
            for r, j in zip(re, im):
                beta[r], beta[j] = alpha[j], alpha[r]
            image[i] = graded_lex_position(tuple(beta), sdp.n_z, 2 * sdp.tau)
            sign[i] = (-1.0) ** sum(alpha[r] for r in re)
    return image, sign


def _truncation_cases():
    # the shipped problems that the solver takes to Optimal
    support, _ = load_problem(PROBLEMS_DIR / "running_example_support.prob")
    mean, _ = load_problem(PROBLEMS_DIR / "running_example.prob")
    variance = PROBLEMS_DIR / "running_example_variance.prob"
    return [
        ("running/tau2", mean, 2),
        ("support/tau2", support, 2),
        ("var0.1/tau2", load_problem(variance, {"sigma2": 0.1})[0], 2),
        ("var0.2/tau3", load_problem(variance, {"sigma2": 0.2})[0], 3),
        ("hurwitz/tau3", hurwitz_problem(), 3),
    ]


class TestTruncation:
    """The solver keeps the part of the relaxation of eigenvector degree
    <= 2; an SDP without x coordinates is solved untruncated."""

    @pytest.mark.parametrize("name,problem,tau", _truncation_cases(),
                             ids=[case[0] for case in _truncation_cases()])
    def test_matches_untruncated(self, name, problem, tau):
        sdp = assemble_relaxation(build_lifted(problem), tau)
        truncated = solve(sdp)
        full = solve(dataclasses.replace(sdp, x_coordinates=()))
        assert truncated.solved_moments < full.solved_moments
        assert max(truncated.solved_blocks) < max(full.solved_blocks)
        assert truncated.status is full.status is SolverStatus.OPTIMAL
        assert truncated.primal_value == pytest.approx(full.primal_value, abs=1e-7)
        certified = 1.0 - DEFAULT_CERTIFICATION_MARGIN
        assert (truncated.upper_bound < certified) == (full.upper_bound < certified)
        assert truncated.upper_bound >= truncated.primal_value

    @pytest.mark.parametrize("name,problem,tau", _truncation_cases()[::4],
                             ids=[case[0] for case in _truncation_cases()[::4]])
    def test_no_moment_is_left_free(self, name, problem, tau):
        # the solver keeps exactly the even moments of x-degree <= 2 that
        # the quarter turn does not map onto their own negatives, and a
        # kept PSD entry uses each orbit (a free moment would leave the
        # Schur matrix singular)
        sdp = assemble_relaxation(build_lifted(problem), tau)
        _c, g_mat, _g, _layout, blocks = _compile(sdp)
        orbits, g_rows, pieces, _turns = _reduce(sdp, blocks, g_mat)
        parity = sdp.basis % 2
        even = np.all([parity[:, list(flip)].sum(axis=1) % 2 == 0
                       for flip in sdp.sign_symmetries], axis=0)
        image, sign = _turned_moments(sdp)
        negated = (image == np.arange(sdp.num_moments)) & (sign < 0)
        assert np.array_equal(orbits.col >= 0, (_x_degree(sdp) <= 2) & even & ~negated)
        used = np.zeros(len(orbits.reps), dtype=bool)
        for _b, _rows, piece in pieces:
            used[piece.cols] = True
        assert used.all()
        # the kept equality rows use moments of x-degree <= 2 only
        assert (_x_degree(sdp)[g_mat.take_rows(np.flatnonzero(g_rows)).cols] <= 2).all()
        assert not g_rows.all()

    def test_residuals_score_the_rows_the_solver_keeps(self, mean_sdp, mean_solution):
        # without the sign reduction every kept row carries entries, so the
        # pieces cover exactly the rows `_truncation` keeps, which are also
        # the rows `residuals` scores
        sdp = dataclasses.replace(mean_sdp, sign_symmetries=())
        _c, g_mat, _g, _layout, blocks = _compile(sdp)
        block_rows, _ = _truncation(sdp, blocks, [])
        _orbits, _g_rows, pieces, _turns = _reduce(sdp, blocks, g_mat)
        for b, rows in enumerate(block_rows):
            covered = np.concatenate([idx for src, idx, _p in pieces if src == b])
            assert np.array_equal(np.sort(covered), rows)
        assert len(block_rows[0]) < blocks[0][0]
        # a moment of x-degree 4 is outside the scored part, one of x-degree
        # 2 inside it
        for alpha, scored in (((0, 0, 4, 0), False), ((0, 0, 2, 0), True)):
            values = mean_solution.moments.values.copy()
            values[graded_lex_position(alpha, 4, 4)] -= 1e-2
            probe = dataclasses.replace(
                mean_solution, moments=dataclasses.replace(mean_solution.moments, values=values))
            assert (residuals(mean_sdp, probe)["primal_infeas"] >= 1e-3) is scored


def _dense_equality_rows(sdp, n_y):
    """Reference: one dense row per upper-triangle entry (r, c) of each
    equality form in row-major order, zero rows dropped, repeats kept once."""
    rows, seen = [], set()
    for _label, form in sdp.equalities:
        entries = {}
        for alpha, rr, cc, vals in form.terms:
            for r, c, v in zip(rr, cc, vals):
                if r <= c:
                    row = entries.setdefault((int(r), int(c)), np.zeros(n_y))
                    row[graded_lex_position(alpha, sdp.n_z, 2 * sdp.tau)] += v
        for key in sorted(entries):
            row = entries[key]
            if row.any() and row.tobytes() not in seen:
                seen.add(row.tobytes())
                rows.append(row)
    return np.array(rows).reshape(-1, n_y)


class TestEqualityRows:
    """Each support equality A_e(y) = 0 enters the solver as sparse
    entrywise rows."""

    @pytest.mark.parametrize("tau", [2, 3])
    def test_rows_match_dense_reference(self, tau):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), tau)
        n_y = sdp.num_moments
        rows, layout = _equality_rows(sdp)
        reference = _dense_equality_rows(sdp, n_y)
        assert rows.shape == reference.shape
        assert np.array_equal(rows.toarray(), reference)
        if tau == 3:
            assert rows.shape[0] == 144
        # every kept row is owned by exactly one entry
        positions = np.sort(np.concatenate([pos for _d, _r, _c, pos in layout]))
        assert np.array_equal(positions, np.arange(rows.shape[0]))

    def test_repeated_equality_adds_no_row(self, mean_sdp, mean_solution):
        twice = dataclasses.replace(mean_sdp, equalities=mean_sdp.equalities * 2)
        assert _equality_rows(twice)[0].shape == _equality_rows(mean_sdp)[0].shape
        solution = solve(twice)
        assert solution.iterations == mean_solution.iterations
        assert solution.primal_value == mean_solution.primal_value
        # the repeat's multipliers stay with the first copy
        assert all(not w.any() for w in solution.equality_duals[len(mean_sdp.equalities):])
        for w, first in zip(solution.equality_duals, mean_solution.equality_duals):
            assert np.array_equal(w, first)
        assert residuals(twice, solution)["dual_infeas"] <= 1e-7

    def test_multiplier_matrices_close_dual_stationarity(self, mean_sdp, mean_solution):
        # without the equality multipliers the dual residual is far from 0
        dropped = dataclasses.replace(
            mean_solution,
            equality_duals=tuple(np.zeros_like(w) for w in mean_solution.equality_duals),
        )
        assert residuals(mean_sdp, mean_solution)["dual_infeas"] <= 1e-7
        assert residuals(mean_sdp, dropped)["dual_infeas"] >= 1e-3


class TestRoundingAllowance:
    def test_covers_a_reordered_evaluation(self):
        # the dense and the sparse product G'nu sum the same terms in other
        # orders; both lie within the allowance of the exact value
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        solution = solve(sdp)
        c, g_mat, _g_vec, layout, blocks = _compile(sdp)
        # nu: -dual_value on the normalization, then each kept equality
        # row's multiplier, read back from the multiplier matrices
        nu = np.zeros(g_mat.shape[0])
        nu[0] = -solution.dual_value
        for (_dim, r, cc, pos), w in zip(layout, solution.equality_duals):
            nu[1 + pos] = w[r, cc] * np.where(r == cc, 1.0, 2.0)
        assert np.abs(nu).max() > 100.0
        allowance = _rounding_allowance(c, g_mat, nu, blocks, solution.dual_psd_blocks)
        gap = np.abs(g_mat.toarray().T @ nu - g_mat.adjoint(nu))
        assert gap.max() > 0.0
        assert np.all(gap <= allowance)


def _pencil_cases():
    variance, _ = load_problem(PROBLEMS_DIR / "running_example_variance.prob", {"sigma2": 0.1})
    return [("hurwitz/tau3", hurwitz_problem(), 3), ("variance0.1/tau2", variance, 2)]


class TestPencil:
    """Every block and equality form is held as one sparse pencil P with
    P y = vec A(y); its transpose is the adjoint."""

    @pytest.mark.parametrize("name,problem,tau", _pencil_cases(),
                             ids=[case[0] for case in _pencil_cases()])
    def test_matches_term_by_term_reference(self, name, problem, tau):
        sdp = assemble_relaxation(build_lifted(problem), tau)
        forms = [form for _label, form in (*sdp.psd_blocks, *sdp.equalities)]
        assert sdp.psd_blocks and sdp.equalities
        rng = np.random.default_rng(20261018)
        for form in forms:
            k = form.dimension
            p = _pencil(sdp, form)
            assert p.shape == (k * k, sdp.num_moments)
            m = rng.standard_normal(sdp.num_moments)
            np.testing.assert_allclose(
                (p @ m).reshape(k, k),
                assemble(form, MomentVector(sdp.n_z, sdp.tau, m)),
                rtol=1e-12, atol=1e-12,
            )
            w = rng.standard_normal((k, k))
            w = w + w.T
            reference = np.zeros(sdp.num_moments)
            for alpha, rows, cols, vals in form.terms:
                reference[graded_lex_position(alpha, sdp.n_z, 2 * sdp.tau)] += vals @ w[cols, rows]
            np.testing.assert_allclose(p.adjoint(w.ravel()), reference, rtol=1e-12, atol=1e-12)


    def test_row_and_column_selection_match_dense_slicing(self):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 2)
        p = _pencil(sdp, sdp.psd_blocks[0][1])
        dense = p.toarray()
        rng = np.random.default_rng(7)
        rows = np.flatnonzero(rng.random(p.shape[0]) < 0.3)
        cols = np.flatnonzero(rng.random(p.shape[1]) < 0.3)
        for sub, reference in ((p.take_rows(rows), dense[rows]),
                               (p.take_cols(cols), dense[:, cols]),
                               (p.take_rows(rows).take_cols(cols), dense[np.ix_(rows, cols)])):
            assert sub.shape == reference.shape
            assert np.array_equal(sub.toarray(), reference)
            # still in row-major order, each entry once
            order = sub.rows * sub.shape[1] + sub.cols
            assert np.all(np.diff(order) > 0)
        y = rng.standard_normal(p.shape[1])
        assert np.array_equal(p.take_rows(rows) @ y, (p @ y)[rows])

    def test_int32_form_indices_are_widened(self):
        # rows * k + cols passes 2^31 at k = 50000, and flat * n_y passes
        # it further; the int32 form gives the pencil of the intp one
        k = 50_000
        rows, cols, moments = [49_999, 0, 49_999, 1], [49_999, 3, 0, 2], [6, 1, 2, 0]

        def form(dtype):
            return LinearMatrixForm(k, 1, np.array(rows, dtype), np.array(cols, dtype),
                                    np.array(moments, dtype), np.array([1.0, 2.0, 3.0, 4.0]))

        sdp = dataclasses.replace(hankel_sdp(), basis=monomial_basis(1, 6))
        narrow, wide = _pencil(sdp, form(np.int32)), _pencil(sdp, form(np.intp))
        assert narrow.shape == wide.shape == (k * k, 7)
        for a, b in ((narrow.rows, wide.rows), (narrow.cols, wide.cols),
                     (narrow.vals, wide.vals)):
            assert np.array_equal(a, b)
        assert narrow.rows.tolist() == [3, 50_002, 49_999 * k, 49_999 * k + 49_999]


class TestSchurFactor:
    @pytest.mark.parametrize("n", [1, _SchurFactor.BLOCK - 1, _SchurFactor.BLOCK,
                                   _SchurFactor.BLOCK + 1, 234])
    def test_solve_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        q = rng.standard_normal((n, n))
        # a spread of scales, which the Jacobi scaling takes out
        scale = np.exp(rng.uniform(-6.0, 6.0, n))
        h = scale[:, None] * (q @ q.T + n * np.eye(n)) * scale
        factor = _SchurFactor(h[None].copy())
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = factor.solve(rhs[None])[0]
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, np.linalg.solve(h, rhs), rtol=1e-9, atol=0.0)
        # matvec is h y up to the rounding of the scaled product
        y = rng.standard_normal(n)
        assert np.all(np.abs(factor.matvec(y[None])[0] - h @ y)
                      <= 1e-13 * (np.abs(h) @ np.abs(y)))

    def test_indefinite_matrix_raises_after_the_jitter_ladder(self):
        h = np.diag([1.0, -1.0, 2.0])[None]
        with pytest.raises(np.linalg.LinAlgError):
            _SchurFactor(h)

    def test_a_jittered_factor_frees_its_matrix_without_the_collector(self):
        # no reference cycle keeps the n x n matrices of a factor alive
        # after it is deleted, also when the jitter ladder caught errors
        v = np.array([1.0, 2.0, 3.0])
        h = np.outer(v, v)[None]
        alive = weakref.ref(h)
        gc.disable()
        try:
            factor = _SchurFactor(h)
            del h, factor
            assert alive() is None
        finally:
            gc.enable()

    def test_jitter_rescues_a_singular_matrix(self):
        # rank one: plain Cholesky fails, a small jitter succeeds, and the
        # scaled matrix keeps its own diagonal for `matvec`
        v = np.array([1.0, 2.0, 3.0])
        h = np.outer(v, v)
        factor = _SchurFactor(h[None].copy())
        np.testing.assert_allclose(factor.matvec(v[None])[0], np.outer(v, v) @ v, rtol=1e-12)
        x = factor.solve((np.outer(v, v) @ v)[None])
        assert np.all(np.isfinite(x))


def _random_pd_stack(rng, n, k):
    q = rng.standard_normal((n, k, k))
    return q @ q.swapaxes(-1, -2) + 0.1 * np.eye(k)


def _sym_stack(rng, n, k):
    a = rng.standard_normal((n, k, k))
    return a + a.swapaxes(-1, -2)


class TestNewtonPieces:
    """The NT scaling, Mehrotra's second-order term and the step lengths,
    each against its defining equations on random stacks."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scaling_factor(self, k):
        rng = np.random.default_rng(k)
        s, x = _random_pd_stack(rng, 4, k), _random_pd_stack(rng, 4, k)
        low = np.linalg.cholesky(s)
        s_inv, v, (g, g_inv, lam) = _nt_scaling(low, np.linalg.inv(low), x)
        np.testing.assert_allclose(s_inv, np.linalg.inv(s), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(v @ s @ v, x, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(g @ g.swapaxes(-1, -2), v, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(g_inv @ g, np.broadcast_to(np.eye(k), g.shape), atol=1e-9)
        diag = np.eye(k) * lam[:, None, :]
        np.testing.assert_allclose(g.swapaxes(-1, -2) @ s @ g, diag, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(g_inv @ x @ g_inv.swapaxes(-1, -2), diag,
                                   rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_second_order_term_solves_the_scaled_lyapunov_equation(self, k):
        rng = np.random.default_rng(10 + k)
        s, x = _random_pd_stack(rng, 3, k), _random_pd_stack(rng, 3, k)
        dx, ds = _sym_stack(rng, 3, k), _sym_stack(rng, 3, k)
        low = np.linalg.cholesky(s)
        _s_inv, _v, factor = _nt_scaling(low, np.linalg.inv(low), x)
        g, g_inv, lam = factor
        term = _second_order(factor, dx, ds)
        np.testing.assert_allclose(term, term.swapaxes(-1, -2), atol=1e-9)
        z = g_inv @ term @ g_inv.swapaxes(-1, -2)
        x_t = g_inv @ dx @ g_inv.swapaxes(-1, -2)
        s_t = g.swapaxes(-1, -2) @ ds @ g
        lhs = lam[:, :, None] * z + z * lam[:, None, :]
        np.testing.assert_allclose(lhs, x_t @ s_t + s_t @ x_t, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 4])
    def test_max_steps_reach_the_boundary(self, k):
        rng = np.random.default_rng(20 + k)
        s, x = _random_pd_stack(rng, 5, k), _random_pd_stack(rng, 5, k)
        ds, dx = _sym_stack(rng, 5, k), _sym_stack(rng, 5, k)
        s_inv_low = np.linalg.inv(np.linalg.cholesky(s))
        x_inv_low = np.linalg.inv(np.linalg.cholesky(x))
        steps = _max_steps(s_inv_low, x_inv_low, ds, dx)
        for m, d, t in zip((s, x), (ds, dx), steps):
            assert np.isfinite(t) and t > 0
            # the smallest eigenvalue of the stack along the step reaches 0 at t
            assert np.linalg.eigvalsh(m + 0.999 * t * d)[:, 0].min() > 0
            assert np.linalg.eigvalsh(m + 1.001 * t * d)[:, 0].min() < 0
        # a step that only grows the blocks is unbounded
        assert _max_steps(s_inv_low, x_inv_low, s, x) == (np.inf, np.inf)


class TestIterationCounts:
    def test_hurwitz_order_three(self):
        # Mehrotra's corrector solves it in 22 iterations (32 without)
        solution = solve(assemble_relaxation(build_lifted(hurwitz_problem()), 3))
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.iterations <= 25


# 0.25 drops the constant term of the variance localizer, so the grid holds
# two structures; -0.1 is Infeasible.
VARIANCE_GRID = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, -0.1]


def _variance_sdps(grid=VARIANCE_GRID):
    return [assemble_relaxation(build_lifted(running_problem(mean=0.5, variance=s)), 2)
            for s in grid]


def _assert_identical(batched, alone):
    assert batched.status is alone.status
    assert batched.iterations == alone.iterations
    assert np.array_equal(batched.moments.values, alone.moments.values)
    assert batched.primal_value == alone.primal_value
    assert batched.dual_value == alone.dual_value
    assert batched.upper_bound == alone.upper_bound
    assert batched.residuals == alone.residuals
    for x, z in zip(batched.dual_psd_blocks + batched.equality_duals,
                    alone.dual_psd_blocks + alone.equality_duals):
        assert np.array_equal(x, z)


class TestSolveMany:
    """Same-structure SDPs run in one interior-point loop over an instance
    axis; each instance must come out bit-identical to its solve alone."""

    @staticmethod
    def _record_runs(monkeypatch) -> list:
        """The number of SDPs in each interior-point run from now on."""
        sizes, interior_point = [], dstab.sdp._interior_point

        def recording(c, *args):
            sizes.append(len(c))
            return interior_point(c, *args)

        monkeypatch.setattr(dstab.sdp, "_interior_point", recording)
        return sizes

    def test_a_sweep_runs_without_a_split(self, monkeypatch):
        # a run is repeated one SDP at a time only to recover from a
        # breakdown; the six sigma^2 points of a variance sweep, one in each
        # sixth of [0, 0.25), take one run
        sdps = _variance_sdps([0.01, 0.06, 0.1, 0.14, 0.18, 0.23])
        sizes = self._record_runs(monkeypatch)
        solutions = solve_many(sdps)
        assert sizes == [6]
        assert all(s.status is SolverStatus.OPTIMAL for s in solutions)

    def test_variance_grid_matches_solves_alone(self):
        sdps = _variance_sdps()
        assert [len(b) for b in _batches([_lower(s) for s in sdps])] == [6, 1]
        batched = solve_many(sdps)
        assert [s.status for s in batched] == [SolverStatus.OPTIMAL] * 6 + [SolverStatus.INFEASIBLE]
        for sdp, solution in zip(sdps, batched):
            _assert_identical(solution, solve(sdp))

    @staticmethod
    def _hurwitz_sdps():
        # the boxes change values, not structure
        return [assemble_relaxation(build_lifted(dataclasses.replace(
                    hurwitz_problem(), delta=box_set(("rho1",), [-0.1], [hi]))), 3)
                for hi in (3.4, 3.0)]

    def test_sparse_schur_pieces_match_solves_alone(self):
        # the order-3 Hurwitz pieces include ones whose Schur products go
        # through the sparse path; the SDPs are folded by the quarter turn
        sdps = self._hurwitz_sdps()
        assert all(sdp.quarter_turn for sdp in sdps)
        assert len(_batches([_lower(s) for s in sdps])) == 1
        for sdp, solution in zip(sdps, solve_many(sdps)):
            _assert_identical(solution, solve(sdp))

    def test_turned_sdps_that_stop_apart_match_solves_alone(self):
        # order-2 Hurwitz boxes of one structure stop at different
        # iterations, so the run drops instances (`_Group.take`) on the way
        sdps = [assemble_relaxation(build_lifted(dataclasses.replace(
                    hurwitz_problem(), delta=box_set(("rho1",), [lo], [hi]))), 2)
                for lo, hi in ((-0.1, 3.4), (1.0, 2.0), (2.0, 3.0), (0.5, 5.0))]
        assert all(sdp.quarter_turn for sdp in sdps)
        assert [len(b) for b in _batches([_lower(s) for s in sdps])] == [4]
        alone = [solve(sdp) for sdp in sdps]
        assert len({s.iterations for s in alone}) > 1
        for solution, single in zip(solve_many(sdps), alone):
            _assert_identical(solution, single)

    def test_backed_off_steps_match_solves_alone(self, monkeypatch):
        # an overlong step fraction leaves the boundary behind, so commits
        # fail; the run of six is repeated one SDP at a time, and each SDP
        # backs off as in its solve alone
        monkeypatch.setattr(dstab.sdp, "_STEP_FRACTION", 1.5)
        sdps = _variance_sdps()
        sizes = self._record_runs(monkeypatch)
        batched = solve_many(sdps)
        assert sizes == [6] + [1] * 7
        for sdp, solution in zip(sdps, batched):
            _assert_identical(solution, solve(sdp))

    def test_stalled_steps_stop_as_alone(self, monkeypatch):
        # steps of 1e-12 of the way to the boundary stall every instance; each
        # stops SlowProgress after its third stalled step, in one run
        monkeypatch.setattr(dstab.sdp, "_STEP_FRACTION", 1e-12)
        sdps = _variance_sdps([0.05, 0.1, 0.15])
        sizes = self._record_runs(monkeypatch)
        batched = solve_many(sdps)
        assert sizes == [3]
        for sdp, solution in zip(sdps, batched):
            assert (solution.status, solution.iterations) == (SolverStatus.SLOW_PROGRESS, 3)
            _assert_identical(solution, solve(sdp))

    def test_breakdown_stops_only_its_instance(self, monkeypatch):
        sdps = _variance_sdps([0.05, 0.1, 0.15])
        alone = [solve(s) for s in sdps]
        target = set()  # the pencils of the middle SDP's pieces
        lower, newton_step = dstab.sdp._lower, dstab.sdp._newton_step

        def recording(sdp):
            low = lower(sdp)
            if sdp is sdps[1]:
                target.update(id(p) for _b, _idx, p in low.pieces)
            return low

        def breaking(groups, *args):
            # the Newton system of the middle SDP fails once its mu is small
            mu = args[-2]
            for row, pencils in enumerate(groups[0].instances):
                if id(pencils[0]) in target and mu[row] < 1e-4:
                    raise np.linalg.LinAlgError("synthetic breakdown")
            return newton_step(groups, *args)

        monkeypatch.setattr(dstab.sdp, "_lower", recording)
        monkeypatch.setattr(dstab.sdp, "_newton_step", breaking)
        sizes = self._record_runs(monkeypatch)
        batched = solve_many(sdps)
        assert sizes == [3, 1, 1, 1]
        assert batched[1].status is SolverStatus.SLOW_PROGRESS
        assert batched[1].iterations < alone[1].iterations
        _assert_identical(batched[1], solve(sdps[1]))
        _assert_identical(batched[0], alone[0])
        _assert_identical(batched[2], alone[2])

    def test_log_reads_as_solves_one_after_another(self):
        sdps = _variance_sdps()
        expected = io.StringIO()
        for sdp in sdps:
            solve(sdp, SolverSettings(log_stream=expected))
        stream = io.StringIO()
        solve_many(sdps, SolverSettings(log_stream=stream))
        assert stream.getvalue() == expected.getvalue()

    def test_batches_hold_to_the_memory_cap(self, monkeypatch):
        lowered = [_lower(s) for s in _variance_sdps()]
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 2 * lowered[0].doubles)
        assert [len(b) for b in _batches(lowered)] == [2, 2, 2, 1]
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 0)
        assert [len(b) for b in _batches(lowered)] == [1] * len(lowered)

    def test_the_cap_counts_what_an_instance_holds(self, monkeypatch):
        # a mid-sized SDP holds far more than its n^2 Schur complement in a
        # run: with the cap between one and two solves' measured peak, two
        # such SDPs take a run each
        lowered = [_lower(s) for s in self._hurwitz_sdps()]
        tracemalloc.start()
        try:
            _solve_batch(lowered[:1], SolverSettings(), [None])
            peak = tracemalloc.get_traced_memory()[1] // 8
        finally:
            tracemalloc.stop()
        assert peak <= lowered[0].doubles <= 2 * peak
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 3 * peak // 2)
        assert [len(b) for b in _batches(lowered)] == [1, 1]
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 2 * lowered[0].doubles)
        assert [len(b) for b in _batches(lowered)] == [2]

    def test_a_failing_sdp_leaves_the_others_as_alone(self, monkeypatch):
        sdps = _variance_sdps()
        alone = [solve(s) for s in sdps]
        lower = dstab.sdp._lower

        def failing(sdp):
            if sdp is sdps[2]:
                raise MemoryError("synthetic failure")
            return lower(sdp)

        monkeypatch.setattr(dstab.sdp, "_lower", failing)
        batched = solve_many(sdps)
        assert isinstance(batched[2], MemoryError)
        for i in (0, 1, 3, 4, 5, 6):
            _assert_identical(batched[i], alone[i])
        with pytest.raises(MemoryError, match="synthetic failure"):
            solve(sdps[2])

    def test_a_failing_run_is_repeated_one_sdp_at_a_time(self, monkeypatch):
        sdps = _variance_sdps()
        expected = io.StringIO()
        alone = [solve(s, SolverSettings(log_stream=expected)) for s in sdps]
        interior_point = dstab.sdp._interior_point

        def failing(c, *args):
            if len(c) > 1:
                raise MemoryError("synthetic failure")
            return interior_point(c, *args)

        monkeypatch.setattr(dstab.sdp, "_interior_point", failing)
        stream = io.StringIO()
        for batched, solution in zip(solve_many(sdps, SolverSettings(log_stream=stream)), alone):
            _assert_identical(batched, solution)
        assert stream.getvalue() == expected.getvalue()
