import dataclasses

import numpy as np
import pytest

from conftest import hurwitz_problem, running_problem

from dstab import oracle
from dstab.cli import load_problem
from dstab.oracle import (
    AtomicLPInfeasible,
    OracleError,
    atomic_lp_bound,
    deepest_witness,
    eigenvalues,
    grid_points,
    grid_violation_search,
    simplex_maximize,
    spectra,
    unit_eigenvector,
)
from dstab.poly import parse_polynomial
from dstab.problem import DStabilityProblem, UncertainMatrix
from dstab.sets import Relation, SemialgebraicSet, box_set, custom_region, region_preset


def _sorted(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


class TestEigenvalues:
    def test_running_example_at_one(self):
        problem = running_problem()
        eigs = eigenvalues(problem.matrix.evaluate([1.0]))
        assert np.allclose(_sorted(eigs), [-1.0, 0.0])

    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_companion_of_characteristic_polynomial(self):
        # s^2 + 5.3 s + 0.96 at rho = 0: both roots real and negative
        companion = np.array([[0.0, -0.96], [1.0, -5.3]])
        eigs = eigenvalues(companion)
        expected = np.roots([1.0, 5.3, 0.96])
        assert np.allclose(_sorted(eigs), _sorted(expected), atol=1e-10)
        assert np.all(eigs.real < 0) and np.all(eigs.imag == 0)

    def test_complex_pairs(self):
        m = np.array([[0.0, 2.0], [-2.0, 0.0]])
        eigs = _sorted(eigenvalues(m))
        assert np.allclose(eigs, [-2j, 2j])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_matches_numpy_on_random_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(15):
            m = rng.standard_normal((n, n)) * rng.uniform(0.5, 20.0)
            mine = _sorted(eigenvalues(m))
            ref = _sorted(np.linalg.eigvals(m))
            assert np.allclose(mine, ref, atol=1e-8 * max(1.0, np.abs(m).max()))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_backward_stability(self, n):
        rng = np.random.default_rng(7 * n)
        for _ in range(10):
            m = rng.standard_normal((n, n))
            scale = max(1.0, np.linalg.norm(m))
            for lam in eigenvalues(m):
                _v, residual = unit_eigenvector(m, lam)
                assert residual <= 1e-8 * scale

    def test_defective_matrix(self):
        jordan = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert np.allclose(eigenvalues(jordan), [2.0, 2.0])

    def test_validation(self):
        with pytest.raises(OracleError):
            eigenvalues(np.zeros((2, 3)))
        eigs = eigenvalues(np.diag(np.arange(65.0, 0.0, -1.0)))
        assert eigs.shape == (65,)
        assert np.array_equal(eigs, np.arange(1.0, 66.0))

    def test_non_finite_entries_raise(self):
        with pytest.raises(OracleError):
            eigenvalues(np.array([[1.0, np.nan], [0.0, 2.0]]))

    def test_stacked_rows_equal_single_calls(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((7, 4, 4))
        stacked = eigenvalues(stack)
        assert stacked.shape == (7, 4)
        for row, m in zip(stacked, stack):
            assert np.array_equal(row, eigenvalues(m))


class TestGridSearch:
    def test_running_witness(self, support_problem):
        witness = grid_violation_search(support_problem, 101)
        assert witness is not None
        assert witness.rho[0] == pytest.approx(1.0)
        assert abs(witness.lam) <= 1e-9
        assert witness.eig_residual <= 1e-8
        assert support_problem.region.contains(witness.lam, 1e-6)

    def test_hurwitz_clean(self):
        assert grid_violation_search(hurwitz_problem(), 1001) is None

    def test_region_restricted_to_real(self, support_problem):
        # a region over lre alone is evaluated at the real parts
        real = dataclasses.replace(
            support_problem, region=support_problem.region.restricted_to_real()
        )
        assert real.region.real_spectrum_only
        witness = grid_violation_search(real, 11)
        assert witness is not None
        assert witness.rho[0] == pytest.approx(1.0)
        assert abs(witness.lam) <= 1e-9
        assert real.region.contains(witness.lam, 1e-6)

    def test_shrunk_support_clean(self):
        problem = running_problem(mean=None, upper=0.9)
        assert grid_violation_search(problem, 300) is None

    def test_deepest_witness_wins(self):
        # eigenvalues rho and rho - 3: on [0, 2] the deepest violation of
        # lre >= 0 is at rho = 2
        names = ["rho"]
        from dstab.poly import Polynomial
        matrix = UncertainMatrix(
            ("rho",),
            ((parse_polynomial("rho", names), Polynomial.zero(1)),
             (Polynomial.zero(1), parse_polynomial("rho - 3", names))),
        )
        problem = DStabilityProblem(
            matrix=matrix, delta=box_set(("rho",), [0.0], [2.0]),
            region=region_preset("left_half_plane_closure"),
        )
        witness = grid_violation_search(problem, 21)
        assert witness.rho[0] == pytest.approx(2.0)
        assert witness.lam == pytest.approx(2.0)

    def test_chunk_size_does_not_change_results(self, support_problem, mean_problem,
                                               monkeypatch):
        atoms = grid_points(mean_problem, 41)
        whole = (grid_violation_search(support_problem, 101),
                 atomic_lp_bound(mean_problem, atoms))
        monkeypatch.setattr(oracle, "_SPECTRUM_CHUNK", 4)
        chunked = (grid_violation_search(support_problem, 101),
                   atomic_lp_bound(mean_problem, atoms))
        assert np.array_equal(whole[0].rho, chunked[0].rho)
        assert whole[0].lam == chunked[0].lam
        assert np.array_equal(whole[1].violating, chunked[1].violating)
        assert np.array_equal(whole[1].weights, chunked[1].weights)

    @pytest.mark.parametrize("region", [
        region_preset("left_half_plane_closure"),
        region_preset("unit_disk_exterior_closure"),
        region_preset("imaginary_axis"),
        region_preset("origin"),
        custom_region([(parse_polynomial("lre^3 - lim + 0.5", ["lre", "lim"]), Relation.GE),
                       (parse_polynomial("lre*lim^2 - lre", ["lre", "lim"]), Relation.EQ)]),
    ])
    def test_region_depth_stack_matches_points(self, region, support_problem):
        problem = dataclasses.replace(support_problem, region=region)
        rng = np.random.default_rng(21)
        lam = rng.uniform(-1.5, 1.5, (30, 4)) + 1j * rng.uniform(-1.5, 1.5, (30, 4))
        lam[:10] = lam[:10].real   # on the real axis
        lam[10:20] = 1j * lam[10:20].imag   # on the imaginary axis
        lam[0, 0] = 0.0
        depths = oracle._region_depth(problem, lam, 1e-6)
        assert depths.shape == lam.shape
        for index in np.ndindex(lam.shape):
            single = oracle._region_depth(problem, lam[index], 1e-6)
            assert np.array_equal(single, depths[index], equal_nan=True)
        assert not np.isnan(depths).all()

    @pytest.mark.parametrize("region", [
        region_preset("left_half_plane_closure"),
        region_preset("imaginary_axis"),
        region_preset("origin"),
        region_preset("left_half_plane_closure").restricted_to_real(),
        custom_region([(parse_polynomial("lre^3 - lim + 0.5", ["lre", "lim"]), Relation.GE),
                       (parse_polynomial("lre*lim^2 - lre", ["lre", "lim"]), Relation.EQ)]),
    ])
    def test_region_depth_is_defined_where_the_region_contains(self, region, support_problem):
        # random spectra, points at and next to the tolerance, and points
        # whose constraints evaluate to NaN (a NaN part, or inf * 0)
        problem = dataclasses.replace(support_problem, region=region)
        tol = 1e-6
        rng = np.random.default_rng(38)
        lam = rng.uniform(-1.5, 1.5, (40, 3)) + 1j * rng.uniform(-1.5, 1.5, (40, 3))
        near = rng.choice([-1, 1], (13, 3)) * rng.choice(
            [0.0, tol, np.nextafter(tol, 0), np.nextafter(tol, 1)], (13, 3))
        lam[:10] = near[:10] + 1j * lam[:10].imag
        lam[10:13] = near[10:] + 1j * near[10:, ::-1]
        lam[13] = [complex(np.nan, 0.5), complex(0.0, np.nan), complex(np.inf, 0.0)]
        if region.real_spectrum_only:
            points = lam.real[..., None]
        else:
            points = np.stack((lam.real, lam.imag), axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            depths = oracle._region_depth(problem, lam, tol)
            contains = region.region_set.contains(points, tol)
        assert np.array_equal(~np.isnan(depths), contains)
        assert contains.any() and not contains.all()
        assert not contains[13, 0]

    def test_witness_ignores_rounding_noise_in_depths(self, problems_dir, monkeypatch):
        # eigenvalues on the imaginary axis have real parts of about 1e-15,
        # so the witness must not depend on their sign or size
        from dstab.cli import load_problem
        problem, _ = load_problem(problems_dir / "lti_hinf.prob")
        plain = grid_violation_search(problem, 4)
        exact_eigenvalues = oracle.eigenvalues
        for seed in range(3):
            rng = np.random.default_rng(seed)

            def noisy(matrix):
                eigs = exact_eigenvalues(matrix)
                return eigs + rng.choice([-1e-15, 1e-15], size=eigs.shape)

            monkeypatch.setattr(oracle, "eigenvalues", noisy)
            witness = grid_violation_search(problem, 4)
            assert np.array_equal(witness.rho, plain.rho)
            assert witness.lam.imag == plain.lam.imag
            assert abs(witness.lam.real - plain.lam.real) <= 1.5e-15

    def test_extra_points_on_measure_zero_support(self):
        # equality-constrained delta that no grid point satisfies: the grid
        # is empty and explicit candidate points are the only way in
        names = ["a", "b"]
        constraint = parse_polynomial("a - b - 0.05", names)
        box = box_set(("a", "b"), [0.0, 0.0], [1.0, 1.0])
        delta = dataclasses.replace(box, constraints=box.constraints + ((constraint, Relation.EQ),))
        matrix = UncertainMatrix(
            ("a", "b"),
            ((parse_polynomial("a - 1", names), parse_polynomial("0", names)),
             (parse_polynomial("0", names), parse_polynomial("b - 1", names))),
        )
        problem = DStabilityProblem(
            matrix=matrix, delta=delta,
            region=region_preset("left_half_plane_closure"),
        )
        with pytest.raises(OracleError):
            grid_violation_search(problem, 11)
        pts = np.array([[1.0, 0.95]])
        assert problem.delta.contains(pts, 1e-9).all()
        witness = deepest_witness(problem, pts, spectra(problem, pts))
        assert witness is not None and witness.rho[0] == 1.0

    def test_a_deepest_level_that_fails_validation_is_dropped(self, support_problem):
        # a fake eigenvalue 5 at rho = 0.5 is the deepest candidate, but no
        # eigenvector validates it, so the next level wins: lambda = 0 at
        # rho = 1
        pts = np.array([[0.5], [1.0]])
        point_spectra = spectra(support_problem, pts)
        point_spectra[0, -1] = 5.0
        witness = deepest_witness(support_problem, pts, point_spectra)
        assert witness.rho[0] == 1.0 and witness.lam == 0.0


class TestSimplex:
    def test_basic(self):
        x, value = simplex_maximize(
            [3.0, 2.0], a_eq=np.zeros((0, 2)), b_eq=[],
            a_le=[[1.0, 1.0], [1.0, 0.0]], b_le=[4.0, 2.0],
        )
        assert value == pytest.approx(10.0)
        assert np.allclose(x, [2.0, 2.0])

    def test_equality_and_bounds(self):
        x, value = simplex_maximize(
            [1.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
            a_le=[[1.0, 0.0, 0.0]], b_le=[0.25],
        )
        assert value == pytest.approx(0.25)

    def test_infeasible(self):
        with pytest.raises(AtomicLPInfeasible):
            simplex_maximize([1.0], a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])

    def test_degenerate_ties_deterministic(self):
        args = ([1.0, 1.0], [[1.0, 1.0]], [1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        first = simplex_maximize(*args)
        second = simplex_maximize(*args)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]

    def test_unbounded(self):
        # x1 = x2 leaves x1 free to grow
        with pytest.raises(OracleError, match="LP is unbounded"):
            simplex_maximize([1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])

    def test_beale_cycling_lp(self):
        # Beale's LP cycles under pure Dantzig pricing with this ratio
        # tie-break; the Bland fallback after degenerate pivots ends it.
        x, value = simplex_maximize(
            [0.75, -20.0, 0.5, -6.0], a_eq=np.zeros((0, 4)), b_eq=[],
            a_le=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
            b_le=[0.0, 0.0, 1.0],
        )
        assert value == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def _variance_problem(problems_dir, sigma2):
    problem, _ = load_problem(problems_dir / "running_example_variance.prob",
                              {"sigma2": sigma2})
    return problem


class TestAtomicLP:
    def test_three_atom_mean(self, mean_problem):
        result = atomic_lp_bound(mean_problem, [[0.0], [0.5], [1.0]])
        assert result.lower_bound == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(result.weights, [0.5, 0.0, 0.5], atol=1e-9)
        assert list(result.violating) == [False, False, True]

    def test_support_only(self, support_problem):
        result = atomic_lp_bound(support_problem, [[0.0], [1.0]])
        assert result.lower_bound == pytest.approx(1.0)
        assert np.allclose(result.weights, [0.0, 1.0])

    def test_single_stable_atom(self, mean_problem):
        result = atomic_lp_bound(mean_problem, [[0.5]])
        assert result.lower_bound == pytest.approx(0.0)

    def test_infeasible_grid(self):
        problem = running_problem(mean=0.9)
        with pytest.raises(AtomicLPInfeasible):
            atomic_lp_bound(problem, [[0.0], [0.5]])

    def test_atom_outside_support_rejected(self, mean_problem):
        with pytest.raises(OracleError):
            atomic_lp_bound(mean_problem, [[0.0], [1.5]])

    def test_atoms_of_the_wrong_dimension_rejected(self, mean_problem):
        with pytest.raises(OracleError, match="atoms have dimension 2, expected 1"):
            atomic_lp_bound(mean_problem, [[0.0, 1.0]])

    def test_refinement_monotonicity(self, mean_problem):
        coarse = atomic_lp_bound(mean_problem, [[0.0], [0.5], [1.0]])
        atoms = [[v] for v in np.linspace(0.0, 1.0, 11)]
        fine = atomic_lp_bound(mean_problem, atoms)
        assert fine.lower_bound >= coarse.lower_bound - 1e-12
        finer = atomic_lp_bound(mean_problem, [[v] for v in np.linspace(0.0, 1.0, 41)])
        assert finer.lower_bound >= fine.lower_bound - 1e-12

    def test_weights_form_probability(self, mean_problem):
        result = atomic_lp_bound(mean_problem, [[v] for v in np.linspace(0, 1, 21)])
        assert result.weights.min() >= -1e-12
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_variance_bound_constraint(self):
        problem = running_problem(mean=0.5, variance=0.05)
        atoms = [[v] for v in np.linspace(0.0, 1.0, 21)]
        result = atomic_lp_bound(problem, atoms)
        # extremal measure w*delta_1 + (1-w)*delta_a with w = sigma^2/(0.25+sigma^2)
        assert result.lower_bound == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_pivots_do_not_grow_with_atoms(self, problems_dir, monkeypatch):
        sigma2 = 0.1
        problem = _variance_problem(problems_dir, sigma2)
        pivots = []
        pivot = oracle._pivot

        def counted_pivot(*args):
            pivots.append(args[2:])
            pivot(*args)

        monkeypatch.setattr(oracle, "_pivot", counted_pivot)
        result = atomic_lp_bound(problem, grid_points(problem, 5000))
        assert len(pivots) <= 50
        exact = sigma2 / (sigma2 + 0.25)
        assert exact - 1e-6 <= result.lower_bound <= exact

    def test_more_atoms_than_iteration_cap(self, problems_dir):
        # 30001 atoms, beyond the simplex's 20000-iteration cap
        problem = _variance_problem(problems_dir, 0.1)
        result = atomic_lp_bound(problem, np.linspace(0.0, 1.0, 30001)[:, None])
        assert result.lower_bound == pytest.approx(2.0 / 7.0, abs=1e-9)


class TestGridPoints:
    @pytest.mark.parametrize("points_per_axis", [0, -3])
    def test_fewer_than_one_point_per_axis_rejected(self, mean_problem, points_per_axis):
        with pytest.raises(OracleError, match="at least 1"):
            grid_points(mean_problem, points_per_axis)

    def test_delta_without_box_bounds_rejected(self, support_problem):
        # 0 <= rho <= 1 as one quadratic row: no box bounds to grid over
        delta = SemialgebraicSet(("rho",), ((parse_polynomial("rho - rho^2", ["rho"]),
                                             Relation.GE),))
        assert delta.box() is None
        with pytest.raises(OracleError, match="delta has no box bounds"):
            grid_points(dataclasses.replace(support_problem, delta=delta), 11)

    def test_box_grid(self, mean_problem):
        pts = grid_points(mean_problem, 11)
        assert pts.shape == (11, 1)
        assert pts[0, 0] == 0.0 and pts[-1, 0] == 1.0

    def test_multidimensional_cap_falls_back_to_sampling(self):
        names = ["a", "b", "c"]
        from dstab.poly import Polynomial
        matrix = UncertainMatrix(
            tuple(names),
            tuple(
                tuple(
                    parse_polynomial("a", names) if i == j else Polynomial.zero(3)
                    for j in range(2)
                )
                for i in range(2)
            ),
        )
        problem = DStabilityProblem(
            matrix=matrix,
            delta=box_set(tuple(names), [0.0] * 3, [1.0] * 3),
            region=region_preset("left_half_plane_closure"),
        )
        pts = grid_points(problem, 1000, max_points=500, seed=1)
        assert pts.shape == (500, 3)
        again = grid_points(problem, 1000, max_points=500, seed=1)
        assert np.array_equal(pts, again)


class TestGridPointsOnDisc:
    """grid_points on a non-box Delta against the per-candidate loop it
    replaced."""

    @staticmethod
    def _disc_problem():
        names = ["a", "b"]
        box = box_set(tuple(names), [-1.0, -1.0], [1.0, 1.0])
        delta = dataclasses.replace(box, constraints=box.constraints + (
            (parse_polynomial("1 - a^2 - b^2", names), Relation.GE),))
        matrix = UncertainMatrix(
            tuple(names),
            ((parse_polynomial("a", names), parse_polynomial("b", names)),
             (parse_polynomial("-b", names), parse_polynomial("a - 1", names))),
        )
        return DStabilityProblem(matrix=matrix, delta=delta,
                                 region=region_preset("left_half_plane_closure"))

    @staticmethod
    def _reference(problem, points_per_axis, max_points, seed):
        lower, upper, _exact = problem.delta.box()
        n = len(lower)
        if points_per_axis ** n <= max_points:
            axes = [np.linspace(lower[i], upper[i], points_per_axis) for i in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            keep = [p for p in pts if problem.delta.contains(p, 1e-9)]
            return np.array(keep)
        rng = np.random.default_rng(seed)
        accepted = []
        for _ in range(max_points * 20):
            candidate = rng.uniform(lower, upper)
            if problem.delta.contains(candidate, 1e-9):
                accepted.append(candidate)
                if len(accepted) >= max_points:
                    break
        return np.array(accepted)

    @pytest.mark.parametrize("points_per_axis, max_points, seed", [
        (7, 100, 0), (100, 37, 0), (100, 37, 5), (100, 1, 2),
    ])
    def test_matches_per_candidate_loop(self, points_per_axis, max_points, seed):
        problem = self._disc_problem()
        pts = grid_points(problem, points_per_axis, max_points=max_points, seed=seed)
        expected = self._reference(problem, points_per_axis, max_points, seed)
        assert np.array_equal(pts, expected)

    def test_sparse_acceptance_stops_at_twenty_draws_per_point(self):
        # a thin lens: few of the 20 * max_points draws land in it
        problem = self._disc_problem()
        names = ["a", "b"]
        thin = dataclasses.replace(problem.delta, constraints=problem.delta.constraints + (
            (parse_polynomial("0.0001 - b^2", names), Relation.GE),))
        problem = dataclasses.replace(problem, delta=thin)
        pts = grid_points(problem, 100, max_points=50, seed=3)
        expected = self._reference(problem, 100, 50, 3)
        assert 0 < len(pts) < 50
        assert np.array_equal(pts, expected)


class TestBifurcationJacobian:
    SINGULAR_POINT = (8.5412, 2.4650, 2.4650)

    def _problem(self, k: float) -> DStabilityProblem:
        from dstab.cli import load_problem
        from conftest import PROBLEMS_DIR
        problem, _ = load_problem(PROBLEMS_DIR / "bifurcation.prob", {"k": k})
        return problem

    def _full_point(self):
        r1, r2, r3 = self.SINGULAR_POINT
        return [r1, r2, r3, r3 / r1, 1.0 / (r1 - r3)]

    def test_determinant_nearly_zero_at_singular_point(self):
        problem = self._problem(0.4650)
        jac = problem.matrix.evaluate(self._full_point())
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        assert abs(det) <= 1e-3

    def test_witness_at_singular_point(self, monkeypatch):
        # the rounded point leaves an eigenvalue 7.2e-6 off the imaginary
        # axis, inside a looser membership tolerance
        monkeypatch.setattr(oracle, "WITNESS_MEMBERSHIP_TOL", 1e-4)
        problem = self._problem(0.4650)
        pts = np.array([self._full_point()])
        assert problem.delta.contains(pts, 1e-9).all()
        witness = deepest_witness(problem, pts, spectra(problem, pts))
        assert witness is not None
        assert np.allclose(witness.rho[:3], self.SINGULAR_POINT)
        assert abs(witness.lam.real) <= 1e-4


class TestEigenvaluesStress:
    def test_large_dense(self):
        rng = np.random.default_rng(64)
        for n in (32, 64):
            m = rng.standard_normal((n, n))
            mine = _sorted(eigenvalues(m))
            ref = _sorted(np.linalg.eigvals(m))
            assert np.allclose(mine, ref, atol=1e-7 * max(1.0, np.abs(m).max()))

    def test_repeated_complex_pairs(self):
        # block-diagonal rotations with equal angles: eigenvalue multiplicity 2
        block = np.array([[0.3, 1.7], [-1.7, 0.3]])
        m = np.zeros((6, 6))
        for k in range(3):
            m[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
        mine = _sorted(eigenvalues(m))
        ref = _sorted(np.linalg.eigvals(m))
        assert np.allclose(mine, ref, atol=1e-10)

    def test_nilpotent(self):
        m = np.diag(np.ones(5), k=1)  # all eigenvalues zero, maximally defective
        assert np.allclose(eigenvalues(m), np.zeros(6), atol=1e-6)
