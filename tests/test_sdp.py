import dataclasses
import gc
import io
import tracemalloc
import weakref
from fractions import Fraction

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
    _Group,
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
    _turn_average,
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

    @pytest.mark.parametrize("tau", [3, 4])
    def test_averaged_dual_closes_the_full_residual(self, tau):
        # the reduced dual leaves c - G'nu - A*(X) far from 0 on the full
        # SDP (each orbit sums to 0, its members do not); with the piece
        # duals averaged over the turn and each multiplier spread over its
        # class of rows it vanishes, and the rigorous bound is as tight as
        # the solve
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), tau)
        solution = solve(sdp)
        assert solution.status is SolverStatus.OPTIMAL
        assert residuals(sdp, solution)["dual_infeas"] <= 1e-7
        assert solution.upper_bound - solution.primal_value <= 1e-7
        # the kept rows of G hold exact repeats, which share their
        # multiplier; a mean over the turn alone would leave every copy but
        # the first at 0.  Each entry repeats its transpose, and at order 4
        # other entries repeat too
        low = _lower(sdp)
        keys = _row_keys(low.g_mat, signed=False)
        copies: dict = {}
        for row in np.flatnonzero(low.classes[0] >= 0):
            copies.setdefault(keys[row], []).append(row)
        repeats = [rows for rows in copies.values() if len(rows) > 1]
        dims = [form.dimension for _label, form in sdp.equalities]
        offsets = 1 + np.cumsum([0] + [k * k for k in dims])
        transpose = np.concatenate([[0]] + [o + np.arange(k * k).reshape(k, k).T.ravel()
                                            for k, o in zip(dims, offsets)])
        assert all(transpose[row] in rows for rows in repeats for row in rows)
        beyond = [rows for rows in repeats if set(rows) != {rows[0], transpose[rows[0]]}]
        assert bool(beyond) == (tau == 4)
        nu = _multipliers(solution)
        assert all(np.all(nu[rows] == nu[rows[0]]) for rows in repeats)
        assert all(nu[rows[0]] != 0.0 for rows in repeats)
        assert all(np.array_equal(w, w.T) for w in solution.equality_duals)

    @pytest.mark.parametrize("name,tau", [("hurwitz", 3), ("hurwitz", 4), ("lti_stability", 2),
                                          ("lti_hinf", 2)])
    def test_row_map_matches_the_stamp_search(self, name, tau):
        # the turn's row map picks the same pieces as a search for each
        # piece's turned folded pencil, and its block mean equals the mean
        # over the pieces' images, bit for bit
        problem, _ = load_problem(PROBLEMS_DIR / f"{name}.prob")
        low = _lower(assemble_relaxation(build_lifted(problem), tau))
        turns = _stamp_turns(low)
        assert all(low.pieces[t][0] == b for (t, _pos, _sign), (b, _idx, _p)
                   in zip(turns, low.pieces))
        orbit_minima = []
        for j in range(len(turns)):
            orbit, t = {j}, turns[j][0]
            while t not in orbit:
                orbit.add(t)
                t = turns[t][0]
            if min(orbit) == j:
                orbit_minima.append(j)
        assert low.solved == orbit_minima
        assert len(low.solved) < len(low.pieces)
        rng = np.random.default_rng(7)
        xs = [np.zeros((len(idx), len(idx))) for _b, idx, _p in low.pieces]
        for j in low.solved:
            a = rng.standard_normal(xs[j].shape)
            xs[j] = a + a.T
        x_blocks = [np.zeros((k, k)) for k, _p in low.blocks]
        reference = [np.zeros((k, k)) for k, _p in low.blocks]
        for x, mean, (b, idx, _p) in zip(xs, _stamp_average(turns, xs), low.pieces):
            x_blocks[b][np.ix_(idx, idx)] = x
            reference[b][np.ix_(idx, idx)] = mean
        for x, mean in zip(x_blocks, reference):
            assert _turn_average(low.orbits.turn, x).tobytes() == mean.tobytes()

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


def _stamp_turns(low) -> list:
    """Reference, a search by folded pencil: per piece, (the index of its
    image, the image's local row of each of its rows, the row signs).  The
    turn maps row r of a localizer to row image[r] with sign sign[r], so
    the image is the piece on the turned rows whose folded pencil is the
    turned one (a KeyError where there is none)."""
    image, turn_sign = low.orbits.turn

    def stamp(idx, p):
        return idx.tobytes(), p.rows.tobytes(), p.cols.tobytes(), p.vals.tobytes()

    found: dict = {}
    for j, (_b, idx, p) in enumerate(low.pieces):
        found.setdefault(stamp(idx, p), j)
    turns = []
    for _b, idx, p in low.pieces:
        k = len(idx)
        rows = np.sort(image[idx])
        pos, sign = np.searchsorted(rows, image[idx]), turn_sign[idx]
        r, c = np.divmod(p.rows, k)
        flat = pos[r] * k + pos[c]
        order = np.lexsort((p.cols, flat))
        turned = _Pencil(p.shape, flat[order], p.cols[order], (sign[r] * sign[c] * p.vals)[order])
        turns.append((found[stamp(rows, turned)], pos, sign))
    return turns


def _stamp_average(turns, xs) -> list:
    """Reference: the piece duals xs (zero where not solved), each replaced
    by the mean of its images under the four powers of the turn on the
    pieces (`_stamp_turns`)."""

    def turn(xs):
        out = [np.zeros_like(x) for x in xs]
        for x, (target, pos, sign) in zip(xs, turns):
            out[target][np.ix_(pos, pos)] += sign[:, None] * x * sign
        return out

    def mean(a, b):
        return [0.5 * (x + t) for x, t in zip(a, b)]

    half = mean(xs, turn(xs))
    return mean(half, turn(turn(half)))


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
        _c, g_mat, blocks = _compile(sdp)
        orbits, g_rows, pieces = _reduce(sdp, blocks, g_mat)
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
        _c, g_mat, blocks = _compile(sdp)
        block_rows, _ = _truncation(sdp, blocks, g_mat)
        _orbits, _g_rows, pieces = _reduce(sdp, blocks, g_mat)
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
    """Reference: one dense row per entry (r, c) of each equality form in
    row-major order, equality after equality."""
    rows = []
    for _label, form in sdp.equalities:
        k = form.dimension
        entries = {(r, c): np.zeros(n_y) for r in range(k) for c in range(k)}
        for alpha, rr, cc, vals in form.terms:
            for r, c, v in zip(rr, cc, vals):
                entries[int(r), int(c)][graded_lex_position(alpha, sdp.n_z, 2 * sdp.tau)] += v
        rows += [entries[key] for key in sorted(entries)]
    return np.array(rows).reshape(-1, n_y)


def _multipliers(solution) -> np.ndarray:
    """nu over the rows of G: -dual_value on the normalization, then each
    equality's multiplier matrix, entry (r, c) the multiplier of its row
    r k + c."""
    return np.concatenate([[-solution.dual_value], *map(np.ravel, solution.equality_duals)])


def _row_keys(p, signed):
    """(columns, values) of each row of a pencil as bytes, with signed=True
    times the sign of the row's first value."""
    starts = np.searchsorted(p.rows, np.arange(p.shape[0] + 1))
    keys = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        vals = p.vals[lo:hi]
        if signed and hi > lo and vals[0] < 0:
            vals = -vals
        keys.append((p.cols[lo:hi].tobytes(), vals.tobytes()))
    return keys


class TestEqualityRows:
    """Each support equality A_e(y) = 0 enters the solver as sparse
    entrywise rows."""

    @pytest.mark.parametrize("tau", [2, 3])
    def test_rows_match_dense_reference(self, tau):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), tau)
        n_y = sdp.num_moments
        _c, g_mat, _blocks = _compile(sdp)
        rows = g_mat.take_rows(np.arange(1, g_mat.shape[0]))  # past the normalization
        reference = _dense_equality_rows(sdp, n_y)
        assert rows.shape == reference.shape
        assert np.array_equal(rows.toarray(), reference)
        if tau == 3:
            assert rows.shape[0] == 256
        # one row per entry of each equality
        dims = [form.dimension for _label, form in sdp.equalities]
        assert rows.shape[0] == sum(d * d for d in dims)

    def test_repeated_equality_adds_no_row(self, mean_sdp, mean_solution):
        # the repeat's rows reach G, and the reduction drops them
        twice = dataclasses.replace(mean_sdp, equalities=mean_sdp.equalities * 2)
        assert _lower(twice).g_folded.shape == _lower(mean_sdp).g_folded.shape
        solution = solve(twice)
        assert solution.iterations == mean_solution.iterations == 17
        assert solution.primal_value == mean_solution.primal_value
        # the two copies share each multiplier: each holds half of it
        n_eq = len(mean_sdp.equalities)
        for copy in (solution.equality_duals[:n_eq], solution.equality_duals[n_eq:]):
            for w, single in zip(copy, mean_solution.equality_duals):
                assert np.array_equal(w, single / 2)
        assert residuals(twice, solution)["dual_infeas"] <= 1e-7

    def test_live_rows_keep_each_row_once(self):
        # the order-2 localizer of lre = 0 repeats its entries wherever
        # beta_r + beta_c repeats: G holds those repeats, and the reduction
        # keeps one row of each set of rows equal up to sign
        problem, _ = load_problem(PROBLEMS_DIR / "bifurcation.prob", {"k": 0.45})
        low = _lower(assemble_relaxation(build_lifted(problem), 3))
        rows = [key for key in _row_keys(low.g_mat, signed=False) if key[0]]
        assert len(set(rows)) < len(rows)
        live = _row_keys(low.g_folded, signed=True)[1:]  # past the normalization
        assert all(cols for cols, _vals in live)
        assert len(set(live)) == len(live) == 1015
        # the class map: each kept row folds to sign x its representative,
        # and the representatives are exactly the live rows
        rep, sign = low.classes
        kept, live_rows = np.flatnonzero(rep >= 0), np.flatnonzero(low.live_rows)
        assert np.array_equal(np.unique(rep[kept]), live_rows)
        assert np.array_equal(rep[live_rows], live_rows)
        folded = low.g_mat.fold(low.orbits)
        starts = np.searchsorted(folded.rows, np.arange(folded.shape[0] + 1))
        for row, first in zip(kept.tolist(), rep[kept].tolist()):
            at, to = slice(starts[row], starts[row + 1]), slice(starts[first], starts[first + 1])
            assert np.array_equal(folded.cols[at], folded.cols[to])
            assert np.array_equal(folded.vals[at], sign[row] * folded.vals[to])
        # a multiplier on each live row, spread evenly over its class, keeps
        # the fold of G'nu and makes G'nu turn as the moments do; left on
        # the live rows it does not
        nu = np.zeros(len(rep))
        nu[live_rows] = np.random.default_rng(31).standard_normal(len(live_rows))
        spread = np.zeros(len(rep))
        spread[kept] = sign[kept] * nu[rep[kept]] / np.bincount(rep[kept])[rep[kept]]
        adjoint, spread_adjoint = low.g_mat.adjoint(nu), low.g_mat.adjoint(spread)
        np.testing.assert_allclose(low.orbits.fold(spread_adjoint), low.orbits.fold(adjoint),
                                   rtol=0, atol=1e-12)
        image, turn_sign = low.orbits.turn
        moments = np.flatnonzero(low.orbits.col >= 0)
        np.testing.assert_allclose(spread_adjoint[image[moments]],
                                   turn_sign[moments] * spread_adjoint[moments], rtol=0, atol=1e-12)
        assert np.abs(adjoint[image[moments]] - turn_sign[moments] * adjoint[moments]).max() > 1e-3

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
        # r_c = c - G'nu - sum_b A_b*(X_b) summed as the scatter-back sums
        # it and in seeded random orders of all its terms: each component
        # lies within its allowance of the exact sum of the same products
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        solution = solve(sdp)
        c, g_mat, blocks = _compile(sdp)
        nu = _multipliers(solution)
        assert len(nu) == g_mat.shape[0]
        assert np.abs(nu).max() > 100.0
        x_blocks = solution.dual_psd_blocks
        allowance = _rounding_allowance(c, g_mat, nu, blocks, x_blocks)
        # each term of r_c as (its component, value, weight)
        pencils = [(g_mat, nu)] + [(p, np.ravel(x)) for (_k, p), x in zip(blocks, x_blocks)]
        cols = np.concatenate([np.arange(len(c))] + [p.cols for p, _w in pencils])
        vals = np.concatenate([c] + [-p.vals for p, _w in pencils])
        weights = np.concatenate([np.ones(len(c))] + [w[p.rows] for p, w in pencils])
        exact = [Fraction(0)] * len(c)
        for col, v, w in zip(cols.tolist(), vals.tolist(), weights.tolist()):
            exact[col] += Fraction(v) * Fraction(w)
        evaluations = [c - g_mat.adjoint(nu) - sum(p.adjoint(w) for p, w in pencils[1:])]
        rng = np.random.default_rng(20261021)
        for _ in range(20):
            order = rng.permutation(len(cols))
            r_c = np.zeros(len(c))
            np.add.at(r_c, cols[order], (vals * weights)[order])
            evaluations.append(r_c)
        bound = [Fraction(a) for a in allowance.tolist()]
        errors = [[abs(Fraction(r) - e) for r, e in zip(r_c.tolist(), exact)] for r_c in evaluations]
        assert max(map(max, errors)) > 0
        assert all(err <= a for row in errors for err, a in zip(row, bound))

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


    def test_row_selection_matches_dense_slicing(self):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 2)
        p = _pencil(sdp, sdp.psd_blocks[0][1])
        dense = p.toarray()
        rng = np.random.default_rng(7)
        rows = np.flatnonzero(rng.random(p.shape[0]) < 0.3)
        sub = p.take_rows(rows)
        assert sub.shape == (len(rows), p.shape[1])
        assert np.array_equal(sub.toarray(), dense[rows])
        # still in row-major order, each entry once
        order = sub.rows * sub.shape[1] + sub.cols
        assert np.all(np.diff(order) > 0)
        y = rng.standard_normal(p.shape[1])
        assert np.array_equal(p.take_rows(rows) @ y, (p @ y)[rows])

    def test_int32_form_indices_are_widened(self):
        # rows * k + cols passes 2^31 at k = 50000; the form of uint16 rows
        # and columns, int32 moments and uint8 terms, in row-major order,
        # gives the pencil of the intp one
        k = 50_000
        rows, cols, moments = [0, 1, 49_999, 49_999], [3, 2, 0, 49_999], [1, 0, 2, 6]

        def form(index, moment, term):
            return LinearMatrixForm(k, 1, np.array(rows, index), np.array(cols, index),
                                    np.array(moments, moment), np.array([2, 0, 1, 3], term),
                                    np.array([4.0, 3.0, 2.0, 1.0]))

        sdp = dataclasses.replace(hankel_sdp(), basis=monomial_basis(1, 6))
        narrow = _pencil(sdp, form(np.uint16, np.int32, np.uint8))
        wide = _pencil(sdp, form(np.intp, np.intp, np.intp))
        assert narrow.shape == wide.shape == (k * k, 7)
        for a, b in ((narrow.rows, wide.rows), (narrow.cols, wide.cols),
                     (narrow.vals, wide.vals)):
            assert np.array_equal(a, b)
        assert narrow.rows.tolist() == [3, 50_002, 49_999 * k, 49_999 * k + 49_999]
        assert narrow.vals.tolist() == [2.0, 4.0, 3.0, 1.0]


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

    def test_a_run_without_moment_bounds_drops_an_instance(self, tmp_path, monkeypatch):
        # with Delta a semialgebraic row, not a box, the moments have no
        # finite a-priori bounds, so the run carries none; the four SDPs
        # share one run and stop apart (15, 14, 12 and 10 iterations alone)
        text = (PROBLEMS_DIR / "running_example_variance.prob").read_text()
        path = tmp_path / "variance_without_box.prob"
        path.write_text(text.replace("rho in [0, 1]", "rho - rho^2 >= 0")
                        .replace("tau = 2", "tau = 2\nlambda_radius = 2"))
        sdps = [assemble_relaxation(build_lifted(load_problem(path, {"sigma2": s})[0]), 2)
                for s in (0.0, 0.05, 0.1, 0.2)]
        assert all(_lower(sdp).y_bound is None for sdp in sdps)
        sizes = self._record_runs(monkeypatch)
        batched = solve_many(sdps)
        assert sizes == [4]
        alone = [solve(sdp) for sdp in sdps]
        assert [s.iterations for s in alone] == [15, 14, 12, 10]
        for solution, single in zip(batched, alone):
            assert solution.upper_bound == np.inf
            _assert_identical(solution, single)

    @staticmethod
    def _hurwitz_sdps(tau=3):
        # the boxes change values, not structure
        return [assemble_relaxation(build_lifted(dataclasses.replace(
                    hurwitz_problem(), delta=box_set(("rho1",), [-0.1], [hi]))), tau)
                for hi in (3.4, 3.0)]

    def test_sparse_schur_pieces_match_solves_alone(self, monkeypatch):
        # each order-4 Hurwitz box has one solved piece whose Schur products
        # go through the sparse path (`schur_into`'s bincount); the SDPs are
        # folded by the quarter turn, share one run once the cap admits two
        # footprints, and stop apart, so the run drops the sparse weights of
        # an instance (`_Group.take`) on the way
        sdps = self._hurwitz_sdps(tau=4)
        assert all(sdp.quarter_turn for sdp in sdps)
        lowered = [_lower(s) for s in sdps]
        for low in lowered:
            groups = [_Group(k, [[low.pieces[p][2] for p in ps]])
                      for k, ps in zip(low.dims, low.members) if k > 1]
            assert any(var is not None for g in groups for _n, (_w, _v, var), _p in g.pieces)
        monkeypatch.setattr(dstab.sdp, "_BATCH_DOUBLES", 2 * lowered[0].doubles)
        assert _batches(lowered) == [[0, 1]]
        alone = [solve(sdp) for sdp in sdps]
        assert len({s.iterations for s in alone}) > 1
        for solution, single in zip(solve_many(sdps), alone):
            _assert_identical(solution, single)

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
        target = []  # the values of the middle SDP's pieces in the first group
        lower, newton_step = dstab.sdp._lower, dstab.sdp._newton_step

        def recording(sdp):
            low = lower(sdp)
            if sdp is sdps[1]:
                target.append(np.concatenate([low.pieces[p][2].vals for p in low.members[0]]))
            return low

        def breaking(groups, *args):
            # the Newton system of the middle SDP fails once its mu is small
            mu = args[-2]
            vals = groups[0].block.vals.reshape(len(mu), -1)
            for row in range(len(mu)):
                if np.array_equal(vals[row], target[0]) and mu[row] < 1e-4:
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

    @pytest.mark.parametrize("stage", ["_solve_batch", "_scatter"])
    def test_an_sdp_whose_run_or_scatter_raises_gets_the_exception(self, monkeypatch, stage):
        # a run that raises is repeated one SDP at a time, and the failing
        # SDP's lone run puts its exception in its place; a scatter-back that
        # raises does so without repeating the run
        sdps = _variance_sdps()
        alone = [solve(s) for s in sdps]
        original = getattr(dstab.sdp, stage)

        def failing(lowered, *args):
            run = lowered if stage == "_solve_batch" else [lowered]
            if any(low.sdp is sdps[2] for low in run):
                raise MemoryError("synthetic failure")
            return original(lowered, *args)

        monkeypatch.setattr(dstab.sdp, stage, failing)
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
