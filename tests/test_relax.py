import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from conftest import hurwitz_problem, running_problem

from dstab.moments import MomentVector, assemble, moments_of_atomic
from dstab.problem import LiftedProblem, build_lifted, minimal_order
from dstab.relax import (
    RelaxationError,
    assemble_relaxation,
    export_sdp,
    problem_stats,
)
from dstab.sdp import SolverSettings, solve


@pytest.fixture(scope="module")
def mean_sdp():
    return assemble_relaxation(build_lifted(running_problem(mean=0.5)), 2)


class TestRunningAssembly:
    def test_objective_selects_x_norm(self, mean_sdp):
        basis = mean_sdp.basis
        nonzero = {basis.elements[i]: c for i, c in enumerate(mean_sdp.objective) if c}
        assert nonzero == {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}

    def test_equality_rows(self, mean_sdp):
        # the normalization m_0 = 1 is the one linear row; E[rho] = 0.5 is
        # the 1x1 equality form of rho - 0.5, listed before the support ones
        assert mean_sdp.normalization_index == mean_sdp.basis.index((0, 0, 0, 0))
        label, form = mean_sdp.equalities[0]
        assert label == "moment[1]" and form.dimension == 1
        assert {alpha: v.tolist() for alpha, _r, _c, v in form.terms} == {
            (0, 0, 0, 0): [-0.5], (1, 0, 0, 0): [1.0],
        }

    def test_block_layout(self, mean_sdp):
        # moment block at full order tau, localizers at tau - ceil(deg/2);
        # each support equality has one form, kept apart from the PSD blocks
        labels = [label for label, _f in mean_sdp.psd_blocks]
        dims = mean_sdp.block_dimensions()
        assert labels == ["moment", "q[0]", "q[1]", "q[2]", "q[5]", "q[6]"]
        assert dims == (15,) + (5,) * 5
        assert [label for label, _f in mean_sdp.equalities] == ["moment[1]", "q[3]", "q[4]"]
        assert [form.dimension for _l, form in mean_sdp.equalities] == [1, 5, 5]

    def test_one_sided_expectation_is_a_1x1_block(self):
        # E[(rho - 0.5)^2] <= 0.1 is the order-0 localizer of
        # 0.1 - (rho - 0.5)^2, normalized to unit max coefficient
        sdp = assemble_relaxation(build_lifted(running_problem(mean=0.5, variance=0.1)), 2)
        labels = [label for label, _f in sdp.psd_blocks]
        assert labels == ["moment", "moment[2]", "q[0]", "q[1]", "q[2]", "q[5]", "q[6]"]
        form = sdp.psd_blocks[1][1]
        assert form.dimension == 1
        coeffs = {alpha: float(v[0]) for alpha, _r, _c, v in form.terms}
        assert coeffs == pytest.approx({(0, 0, 0, 0): -0.15, (1, 0, 0, 0): 1.0,
                                        (2, 0, 0, 0): -1.0})

    def test_stats(self, mean_sdp):
        stats = problem_stats(mean_sdp)
        assert stats.num_moments == 70
        assert stats.largest_block == 15
        assert stats.block_dimensions == (15,) + (5,) * 5

    def test_support_only_drops_mean_row(self):
        # the normalization stays the only linear row; no expectation form
        sdp = assemble_relaxation(build_lifted(running_problem(mean=None)), 2)
        labels = [label for label, _f in sdp.psd_blocks + sdp.equalities]
        assert not [label for label in labels if label.startswith("moment[")]
        assert [label for label, _f in sdp.equalities] == ["q[3]", "q[4]"]

    def test_order_below_minimum_rejected(self):
        lifted = build_lifted(hurwitz_problem())
        with pytest.raises(RelaxationError, match="minimal order"):
            assemble_relaxation(lifted, 1)


class TestFormLifetime:
    def test_default_order_is_minimal(self):
        lifted = build_lifted(hurwitz_problem())
        assert assemble_relaxation(lifted).tau == minimal_order(lifted) == 2

    def test_forms_die_with_their_sdp(self):
        # no form outlives the SDP that holds it
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 2)
        refs = [weakref.ref(form) for _label, form in sdp.psd_blocks + sdp.equalities]
        assert len(refs) == 10
        del sdp
        gc.collect()
        assert [ref() for ref in refs] == [None] * 10


class TestStats:
    def test_hurwitz_tau3(self):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        stats = problem_stats(sdp)
        assert stats.num_moments == math.comb(7 + 6, 6) == 1716
        assert stats.largest_block == math.comb(7 + 3, 3) == 120

    def test_tiny_problem(self):
        # one lifted variable at order 1: 3 moments, 2x2 moment block
        from dstab.poly import Polynomial, parse_polynomial
        from dstab.sets import Relation, SemialgebraicSet
        t = parse_polynomial("t", ["t"])
        lifted = LiftedProblem(
            z_vars=("t",),
            support=SemialgebraicSet(("t",), ((t, Relation.GE),)),
            objective=t,
            moment_constraints=((Polynomial.constant(1, 1.0), "=", 1.0),),
            var_scales=(1.0,),
            rho_indices=(0,),
            lambda_indices=(),
            x_indices=(),
            real_mode=True,
            matrix_size=0,
        )
        stats = problem_stats(assemble_relaxation(lifted, 1))
        assert stats.num_moments == 3
        assert stats.largest_block == 2
        # the normalization is the SDP's one linear row, so it must lead
        with pytest.raises(RelaxationError, match="E\\[1\\] = 1"):
            assemble_relaxation(dataclasses.replace(lifted, moment_constraints=()), 1)


def flip_group(generators) -> set[frozenset]:
    """Every sign flip the generators span (sets of negated coordinates)."""
    group = {frozenset()}
    for gen in generators:
        group |= {element ^ frozenset(gen) for element in group}
    return group


class TestSignSymmetries:
    def test_hurwitz_eigenvector_and_conjugation(self):
        sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 3)
        assert sdp.z_vars == ("rho1", "lre", "lim", "xre1", "xre2", "xim1", "xim2")
        x_flip = frozenset({3, 4, 5, 6})        # x -> -x
        conjugation = frozenset({2, 5, 6})      # (lim, xim) -> -(lim, xim)
        assert len(sdp.sign_symmetries) == 2
        assert flip_group(sdp.sign_symmetries) == flip_group([x_flip, conjugation])

    def test_running_example_two_x_flips(self, mean_sdp):
        assert mean_sdp.z_vars == ("rho", "lre", "x1", "x2")
        assert sorted(mean_sdp.sign_symmetries) == [(2,), (3,)]

    def test_odd_inequality_loses_its_flip(self):
        from dstab.poly import Polynomial
        from dstab.sets import Relation, SemialgebraicSet
        lifted = build_lifted(running_problem(mean=0.5))
        x1 = Polynomial.variable(4, 2)
        support = SemialgebraicSet(
            lifted.support.variables,
            lifted.support.constraints + ((x1, Relation.GE),),
        )
        sdp = assemble_relaxation(dataclasses.replace(lifted, support=support), 2)
        assert sdp.sign_symmetries == ((3,),)

    def test_odd_equality_keeps_its_flip(self):
        from dstab.poly import Polynomial
        from dstab.sets import Relation, SemialgebraicSet
        lifted = build_lifted(running_problem(mean=0.5))
        x1 = Polynomial.variable(4, 2)
        support = SemialgebraicSet(
            lifted.support.variables,
            lifted.support.constraints + ((x1 * Polynomial.variable(4, 0), Relation.EQ),),
        )
        sdp = assemble_relaxation(dataclasses.replace(lifted, support=support), 2)
        assert sorted(sdp.sign_symmetries) == [(2,), (3,)]

    def test_odd_moment_row(self):
        # E[rho] = 0.5 is even under every x flip; a lifted row E[x1] = 0.5
        # would not be, while E[x1] = 0 only needs uniform parity
        from dstab.poly import Polynomial
        lifted = build_lifted(running_problem(mean=0.5))
        x1 = Polynomial.variable(4, 2)
        for target, expected in ((0.5, [(3,)]), (0.0, [(2,), (3,)])):
            rows = lifted.moment_constraints + ((x1, "=", target),)
            sdp = assemble_relaxation(dataclasses.replace(lifted, moment_constraints=rows), 2)
            assert sorted(sdp.sign_symmetries) == expected


class TestScaling:
    def test_scale_pow_matches_variable_scales(self):
        lifted = build_lifted(hurwitz_problem())
        sdp = assemble_relaxation(lifted, 2)
        basis = sdp.basis
        s_rho, s_lam = lifted.var_scales[0], lifted.var_scales[1]
        assert sdp.scale_pow[basis.index((0,) * 7)] == 1.0
        assert sdp.scale_pow[basis.index((1, 0, 0, 0, 0, 0, 0))] == pytest.approx(s_rho)
        assert sdp.scale_pow[basis.index((2, 1, 0, 0, 0, 0, 0))] == pytest.approx(
            s_rho ** 2 * s_lam
        )

    def test_constraints_normalized(self):
        # every localizer, the expectation constraints' 1x1 forms included
        for problem in (hurwitz_problem(), running_problem(mean=0.5, variance=0.1)):
            sdp = assemble_relaxation(build_lifted(problem), 2)
            for _label, form in sdp.psd_blocks[1:] + sdp.equalities:
                biggest = max(np.abs(v).max() for _a, _r, _c, v in form.terms)
                assert biggest == pytest.approx(1.0, abs=1e-12)


class TestFeasibilityTransfer:
    def test_atomic_measures_are_feasible(self, mean_sdp):
        # the optimizing measure of the mean-constrained running example
        atoms = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]
        m = moments_of_atomic(atoms, [0.5, 0.5], 4, 2)  # scales are all 1 here
        assert m.values[mean_sdp.normalization_index] == pytest.approx(1.0, abs=1e-10)
        for _label, form in mean_sdp.psd_blocks:
            assert np.linalg.eigvalsh(assemble(form, m))[0] >= -1e-8
        for _label, form in mean_sdp.equalities:
            assert np.abs(assemble(form, m)).max() <= 1e-12
        objective = float(mean_sdp.objective @ m.values)
        solution = solve(mean_sdp, SolverSettings())
        assert objective <= solution.primal_value + 1e-6

    def test_truncation_stays_feasible(self):
        lifted = build_lifted(running_problem(mean=0.5))
        sdp2 = assemble_relaxation(lifted, 2)
        sdp3 = assemble_relaxation(lifted, 3)
        atoms = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]
        m3 = moments_of_atomic(atoms, [0.5, 0.5], 4, 3)
        # truncate the tau=3 moment vector onto the tau=2 basis
        basis3 = sdp3.basis
        trunc = np.array([m3.values[basis3.index(a)] for a in sdp2.basis.elements])
        m2 = MomentVector(4, 2, trunc)
        for _label, form in sdp2.psd_blocks:
            assert np.linalg.eigvalsh(assemble(form, m2))[0] >= -1e-8
        assert m2.values[sdp2.normalization_index] == pytest.approx(1.0, abs=1e-10)
        for _label, form in sdp2.equalities:
            assert np.abs(assemble(form, m2)).max() <= 1e-12


class TestEqualityForms:
    def test_running_example_optimum(self, mean_sdp):
        # the worst case of the running example with E[rho] = 0.5 is 0.5
        solution = solve(mean_sdp)
        assert solution.status.value == "Optimal"
        assert solution.primal_value == pytest.approx(0.5, abs=1e-6)
        assert solution.upper_bound >= 0.5
        assert len(solution.equality_duals) == len(mean_sdp.equalities) == 3
        # the optimal moments annihilate every equality form
        scaled = MomentVector(4, 2, solution.moments.values / mean_sdp.scale_pow)
        for _label, form in mean_sdp.equalities:
            assert np.abs(assemble(form, scaled)).max() <= 1e-7


class TestExport:
    def test_round_trip_structure(self, mean_sdp, tmp_path):
        path = tmp_path / "out.sdp"
        dims = export_sdp(mean_sdp, path)
        assert dims == (15, 1, 1) + (5,) * 9
        lines = path.read_text().splitlines()
        assert lines[0] == "DSTAB-SDP 1"
        assert lines[1] == "nz 4 tau 2 moments 70"
        assert lines[2] == "zvars rho lre x1 x2"
        assert lines[3] == "basis"
        basis_lines = lines[4:4 + 70]
        assert basis_lines[0] == "0 0 0 0 0"
        parsed = [tuple(int(v) for v in ln.split()[1:]) for ln in basis_lines]
        assert parsed == list(mean_sdp.basis.elements)
        obj_at = lines.index(f"objective 2")
        entries = {int(ln.split()[0]): float(ln.split()[1])
                   for ln in lines[obj_at + 1: obj_at + 3]}
        for idx, coeff in entries.items():
            assert mean_sdp.objective[idx] == coeff
        assert lines[-1] == "end"
        # the normalization is the one linear row
        assert [ln for ln in lines if ln.startswith("constraint ")] == \
            ["constraint 0 = 1.0 1 moment[0]"]
        # the file writes each equality form as a +/- pair: the expectation
        # constraints first, then the support localizers in support order
        blocks = [ln.split() for ln in lines if ln.startswith("block ")]
        assert [b[4] for b in blocks] == ["moment", "moment[1]+", "moment[1]-", "q[0]", "q[1]",
                                          "q[2]", "q[3]+", "q[3]-", "q[4]+", "q[4]-", "q[5]",
                                          "q[6]"]

