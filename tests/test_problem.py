import numpy as np
import pytest

from conftest import PROBLEMS_DIR, hurwitz_problem, running_matrix

from dstab.cli import load_problem
from dstab.poly import Polynomial, embed, parse_polynomial
from dstab.problem import (
    DStabilityProblem,
    ProblemError,
    UncertainMatrix,
    build_lifted,
    delta_box_bounds,
    interval_evaluate,
    minimal_order,
    spectral_bound,
)
from dstab.sets import Relation, box_set, region_preset

Z_RUN = ["rho", "lre", "x1", "x2"]


def _constraint_polys(lifted):
    return [p for p, _rel in lifted.support.constraints]


class TestBuildLiftedRunning:
    def test_variables_and_mode(self, mean_problem):
        lifted = build_lifted(mean_problem)
        assert lifted.z_vars == ("rho", "lre", "x1", "x2")
        assert lifted.real_mode
        assert lifted.rho_indices == (0,)
        assert lifted.lambda_indices == (1,)
        assert lifted.x_indices == (2, 3)

    def test_support_constraints(self, mean_problem):
        lifted = build_lifted(mean_problem)
        expected = {
            parse_polynomial(text, Z_RUN): rel
            for text, rel in [
                ("rho", Relation.GE),
                ("1 - rho", Relation.GE),
                ("lre", Relation.GE),
                ("(rho - 1 - lre)*x1", Relation.EQ),
                ("(-1 - lre)*x2", Relation.EQ),
                ("1 - x1^2 - x2^2", Relation.GE),
                ("1 - lre^2", Relation.GE),  # automatic eigenvalue ball, R = 1
            ]
        }
        got = {p: rel for p, rel in lifted.support.constraints}
        assert got == expected

    def test_objective_and_moments(self, mean_problem):
        lifted = build_lifted(mean_problem)
        assert lifted.objective == parse_polynomial("x1^2 + x2^2", Z_RUN)
        # the user's row alone: the normalization E[1] = 1 is the relaxation's
        (f, rel, mu), = lifted.moment_constraints
        assert f == parse_polynomial("rho", Z_RUN) and rel == "=" and mu == 0.5

    def test_scales(self, mean_problem):
        lifted = build_lifted(mean_problem)
        assert lifted.var_scales == (1.0, 1.0, 1.0, 1.0)


class TestBuildLiftedScalar:
    def test_one_by_one(self):
        rho = parse_polynomial("rho", ["rho"])
        problem = DStabilityProblem(
            matrix=UncertainMatrix(("rho",), ((rho,),)),
            delta=box_set(("rho",), [0.0], [1.0]),
            region=region_preset("left_half_plane_closure"),
        )
        lifted = build_lifted(problem)
        names = ["rho", "lre", "x1"]
        expected = {
            parse_polynomial("rho", names): Relation.GE,
            parse_polynomial("1 - rho", names): Relation.GE,
            parse_polynomial("lre", names): Relation.GE,
            parse_polynomial("(rho - lre)*x1", names): Relation.EQ,
            parse_polynomial("1 - x1^2", names): Relation.GE,
            parse_polynomial("1 - lre^2", names): Relation.GE,
        }
        assert {p: rel for p, rel in lifted.support.constraints} == expected


class TestBuildLiftedComplex:
    def test_hurwitz_dimensions(self):
        lifted = build_lifted(hurwitz_problem())
        assert lifted.z_vars == ("rho1", "lre", "lim", "xre1", "xre2", "xim1", "xim2")
        assert lifted.num_vars == 7
        assert not lifted.real_mode
        eigen = [p for p, rel in lifted.support.constraints if rel is Relation.EQ]
        assert len(eigen) == 4
        assert all(p.degree == 3 for p in eigen)

    def test_eigen_rows(self):
        lifted = build_lifted(hurwitz_problem())
        names = list(lifted.z_vars)
        eigen = [p for p, rel in lifted.support.constraints if rel is Relation.EQ]
        first = parse_polynomial(
            "(-2.4 - rho1^2 - lre)*xre1 + (6 - rho1^2)*xre2 + lim*xim1", names
        )
        assert first in eigen

    @pytest.mark.parametrize("path", sorted(PROBLEMS_DIR.glob("*.prob")), ids=lambda p: p.stem)
    def test_eigen_rows_match_the_sum_of_products(self, path):
        # every shipped problem: the one-pass rows are, term for term and in
        # order, the sums Polynomial addition builds
        names = {"k": 0.45, "sigma2": 0.1}
        placeholders = {n: v for n, v in names.items() if f"${n}" in path.read_text()}
        problem = load_problem(path, placeholders)[0]
        lifted = build_lifted(problem)
        n_a = problem.matrix.size
        z = [Polynomial.variable(lifted.num_vars, i) for i in range(lifted.num_vars)]
        a = [[embed(e, problem.uncertainty_variables, lifted.z_vars) for e in row]
             for row in problem.matrix.entries]
        lre, x = z[lifted.lambda_indices[0]], [z[i] for i in lifted.x_indices]
        if lifted.real_mode:
            pairs = [(x, -lre * x[i]) for i in range(n_a)]
        else:
            lim, xre, xim = z[lifted.lambda_indices[1]], x[:n_a], x[n_a:]
            pairs = ([(xre, -lre * xre[i] + lim * xim[i]) for i in range(n_a)]
                     + [(xim, -lre * xim[i] - lim * xre[i]) for i in range(n_a)])
        expected = []
        for i, (vec, tail) in enumerate(pairs):
            row = Polynomial.zero(lifted.num_vars)
            for j in range(n_a):
                row = row + a[i % n_a][j] * vec[j]
            expected.append(list((row + tail).terms.items()))
        rows = [list(p.terms.items()) for p, rel in lifted.support.constraints
                if rel is Relation.EQ and any(sum(alpha[i] for i in lifted.x_indices) == 1
                                              for alpha in p.terms)]
        assert rows == expected

    def test_force_real_requires_override(self):
        base = hurwitz_problem()
        problem = DStabilityProblem(
            matrix=base.matrix, delta=base.delta, region=base.region,
            eigen_space="real",
        )
        with pytest.raises(ProblemError, match="allow_asymmetric_real"):
            build_lifted(problem)
        forced = DStabilityProblem(
            matrix=base.matrix, delta=base.delta, region=base.region,
            eigen_space="real", allow_asymmetric_real=True,
        )
        assert build_lifted(forced).real_mode

    def test_force_complex_on_symmetric(self, support_problem):
        problem = DStabilityProblem(
            matrix=support_problem.matrix, delta=support_problem.delta,
            region=support_problem.region, eigen_space="complex",
        )
        lifted = build_lifted(problem)
        assert not lifted.real_mode
        assert lifted.num_vars == 2 * 2 + 1 + 2


class TestSpectralBound:
    def test_running_example(self, mean_problem):
        assert spectral_bound(mean_problem.matrix, mean_problem.delta) == pytest.approx(1.0)

    def test_identity(self):
        eye = UncertainMatrix(
            ("rho",),
            tuple(
                tuple(Polynomial.constant(1, 1.0 if i == j else 0.0) for j in range(3))
                for i in range(3)
            ),
        )
        assert spectral_bound(eye, box_set(("rho",), [-5.0], [5.0])) == pytest.approx(1.0)

    def test_zero_matrix(self):
        zero = UncertainMatrix(("rho",), ((Polynomial.zero(1),),))
        assert spectral_bound(zero, box_set(("rho",), [0.0], [1.0])) == 0.0

    def test_non_box_delta_rejected(self):
        rho = parse_polynomial("rho", ["rho"])
        from dstab.sets import SemialgebraicSet
        curved = SemialgebraicSet(
            ("rho",), ((parse_polynomial("1 - rho^2", ["rho"]), Relation.GE),)
        )
        matrix = UncertainMatrix(("rho",), ((rho,),))
        with pytest.raises(ProblemError, match="lambda_radius"):
            spectral_bound(matrix, curved)

    def test_dominates_spectrum_on_grid(self):
        problem = hurwitz_problem()
        radius = spectral_bound(problem.matrix, problem.delta)
        for rho in np.linspace(-0.1, 3.4, 500):
            eigs = np.linalg.eigvals(problem.matrix.evaluate([rho]))
            assert np.all(np.abs(eigs) <= radius + 1e-9)

    def test_stacked_evaluate_matches_points(self):
        names = ["a", "b"]
        rows = [["a^3 - 2*b", "a*b^2 + 0.3"], ["-1.7", "b^4 - a^2*b"]]
        matrix = UncertainMatrix(
            tuple(names),
            tuple(tuple(parse_polynomial(e, names) for e in row) for row in rows),
        )
        stack = np.random.default_rng(8).uniform(-2.0, 2.0, size=(3, 40, 2))
        values = matrix.evaluate(stack)
        assert values.shape == (3, 40, 2, 2)
        for index in np.ndindex(3, 40):
            assert np.array_equal(values[index], matrix.evaluate(stack[index]))

    def test_interval_evaluate(self):
        p = parse_polynomial("rho^2 - rho", ["rho"])
        lo, hi = interval_evaluate(p, [0.0], [1.0])
        assert lo <= -0.25 and hi >= 0.0

    def test_box_recovery(self):
        box = box_set(("a", "b"), [-1.0, 2.0], [3.0, 2.5])
        lower, upper = delta_box_bounds(box)
        assert np.allclose(lower, [-1.0, 2.0]) and np.allclose(upper, [3.0, 2.5])
        from dstab.sets import SemialgebraicSet
        assert delta_box_bounds(SemialgebraicSet(("a",))) is None


class TestMinimalOrder:
    def test_running(self, mean_problem):
        assert minimal_order(build_lifted(mean_problem)) == 1

    def test_hurwitz(self):
        assert minimal_order(build_lifted(hurwitz_problem())) == 2

    def test_all_linear(self):
        rho = parse_polynomial("rho", ["rho"])
        problem = DStabilityProblem(
            matrix=UncertainMatrix(("rho",), ((Polynomial.constant(1, -1.0),),)),
            delta=box_set(("rho",), [0.0], [1.0]),
            region=region_preset("left_half_plane_closure"),
        )
        # constant matrix: eigen row is (-1 - lre)*x1, degree 2 -> still 1
        assert minimal_order(build_lifted(problem)) == 1

    def test_monotone_under_extra_constraint(self, mean_problem):
        import dataclasses
        lifted = build_lifted(mean_problem)
        base = minimal_order(lifted)
        quartic = parse_polynomial("1 - rho^4", Z_RUN)
        support = dataclasses.replace(
            lifted.support, constraints=lifted.support.constraints + ((quartic, Relation.GE),)
        )
        more = dataclasses.replace(lifted, support=support)
        assert minimal_order(more) >= base


class TestLiftGeometry:
    def test_soundness_on_eigenpairs(self):
        # complex-mode family with eigenvalues +/- i*rho and the unit-disk
        # exterior as the instability region
        names = ["rho"]
        zero = Polynomial.zero(1)
        rho = parse_polynomial("rho", names)
        matrix = UncertainMatrix(("rho",), ((zero, rho), (-rho, zero)))
        problem = DStabilityProblem(
            matrix=matrix,
            delta=box_set(("rho",), [1.0], [2.0]),
            region=region_preset("unit_disk_exterior_closure"),
        )
        lifted = build_lifted(problem)
        for rho_val in np.linspace(1.0, 2.0, 7):
            a = matrix.evaluate([rho_val])
            eigvals, eigvecs = np.linalg.eig(a)
            for lam, vec in zip(eigvals, eigvecs.T):
                if not problem.region.contains(lam, 1e-9):
                    continue
                v = vec / np.linalg.norm(vec)
                z = np.concatenate(
                    [[rho_val, lam.real, lam.imag], v.real, v.imag]
                )
                assert lifted.support.contains(z, tol=1e-6)

    def test_completeness_at_zero_eigenvector(self, support_problem):
        lifted = build_lifted(support_problem)
        for rho_val in np.linspace(0.0, 1.0, 11):
            for lam in np.linspace(0.0, 1.0, 11):  # D^c within the ball
                z = [rho_val, lam, 0.0, 0.0]
                assert lifted.support.contains(z, tol=0.0)


class TestValidation:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ProblemError, match="at least one entry"):
            UncertainMatrix(("rho",), ())

    def test_delta_variable_mismatch(self):
        with pytest.raises(ProblemError):
            DStabilityProblem(
                matrix=running_matrix(),
                delta=box_set(("other",), [0.0], [1.0]),
                region=region_preset("left_half_plane_closure"),
            )

    def test_moment_function_must_be_in_rho(self):
        from dstab.problem import MomentConstraint
        f_bad = parse_polynomial("a + b", ["a", "b"])
        with pytest.raises(ProblemError):
            DStabilityProblem(
                matrix=running_matrix(),
                delta=box_set(("rho",), [0.0], [1.0]),
                region=region_preset("left_half_plane_closure"),
                moment_constraints=(MomentConstraint(f_bad, "=", 0.5),),
            )

    def test_bad_relation(self):
        from dstab.problem import MomentConstraint
        with pytest.raises(ProblemError):
            MomentConstraint(parse_polynomial("rho", ["rho"]), "<", 0.5)

    def test_lambda_radius_override(self, support_problem):
        import dataclasses
        problem = dataclasses.replace(support_problem, lambda_radius=3.0)
        lifted = build_lifted(problem)
        ball = parse_polynomial("9 - lre^2", Z_RUN)
        assert ball in _constraint_polys(lifted)
        assert lifted.var_scales[1] == 3.0
