import dataclasses
import gc
import io
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import PROBLEMS_DIR, hurwitz_problem, running_problem

import dstab.relax

from dstab.cli import load_problem
from dstab.moments import LinearMatrixForm, MomentVector, assemble, moments_of_atomic
from dstab.poly import PolynomialError, graded_lex_position, monomial_basis
from dstab.problem import LiftedProblem, build_lifted, minimal_order
from dstab.relax import (RelaxationError, SDPProblem, SolverStatus, _file_blocks, _numbers,
                         _turned, _words, _write_rows, assemble_relaxation, export_sdp)
from dstab.sdp import SolverSettings, residuals, solve


@pytest.fixture(scope="module")
def mean_sdp():
    return assemble_relaxation(build_lifted(running_problem(mean=0.5)), 2)


class TestRunningAssembly:
    def test_objective_selects_x_norm(self, mean_sdp):
        basis = mean_sdp.basis
        nonzero = {tuple(basis[i].tolist()): c for i, c in enumerate(mean_sdp.objective) if c}
        assert nonzero == {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}

    def test_basis_is_stored_narrow(self, mean_sdp):
        # exponents never pass 2 tau = 4, so the basis is one byte each
        assert mean_sdp.basis.dtype == np.uint8
        assert np.array_equal(mean_sdp.basis, monomial_basis(4, 4))

    def test_equality_rows(self, mean_sdp):
        # the normalization m_0 = 1 is the one linear row, on the constant
        # monomial at the head of the basis; E[rho] = 0.5 is the 1x1
        # equality form of rho - 0.5, listed before the support ones
        assert mean_sdp.basis[0].tolist() == [0, 0, 0, 0]
        label, form = mean_sdp.equalities[0]
        assert label == "moment[1]" and form.dimension == 1
        assert {alpha: v.tolist() for alpha, _r, _c, v in form.terms} == {
            (0, 0, 0, 0): [-0.5], (1, 0, 0, 0): [1.0],
        }

    def test_block_layout(self, mean_sdp):
        # moment block at full order tau, localizers at tau - ceil(deg/2);
        # each support equality has one form, kept apart from the PSD blocks
        labels = [label for label, _f in mean_sdp.psd_blocks]
        dims = tuple(f.dimension for _l, f in mean_sdp.psd_blocks)
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
        assert mean_sdp.num_moments == 70
        assert mean_sdp.n_z == 4
        assert tuple(f.dimension for _l, f in mean_sdp.psd_blocks) == (15,) + (5,) * 5

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

    def test_indices_past_int32_are_rejected_before_any_table(self, monkeypatch):
        # at order 12 the 50388 x 50388 moment matrix passes 2^31 - 1
        # entries, and its index tables alone would take 9.5 GB
        def unbuilt(*_args):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(dstab.relax, "IndexTables", unbuilt)
        monkeypatch.setattr(dstab.relax, "monomial_basis", unbuilt)
        with pytest.raises(PolynomialError, match="50388 with 1 terms .* exceeds 32-bit"):
            assemble_relaxation(build_lifted(hurwitz_problem()), 12)


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
        assert sdp.num_moments == math.comb(7 + 6, 6) == 1716
        assert max(f.dimension for _l, f in sdp.psd_blocks) == math.comb(7 + 3, 3) == 120

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
        sdp = assemble_relaxation(lifted, 1)
        assert sdp.num_moments == 3
        assert max(f.dimension for _l, f in sdp.psd_blocks) == 2
        # a lift that still carries the row E[1] = 1 gets the same SDP: its
        # form 1 - 1 is zero and is skipped
        bare = assemble_relaxation(dataclasses.replace(lifted, moment_constraints=()), 1)
        for one in (sdp, bare):
            assert [label for label, _f in one.psd_blocks] == ["moment", "q[0]"]
            assert tuple(f.dimension for _l, f in one.psd_blocks) == (2, 1) and not one.equalities


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


# each shipped problem with the bindings its placeholders need
SHIPPED_BINDINGS = {
    "bifurcation": {"k": 0.45},
    "bifurcation_probabilistic": {"sigma2": 0.1},
    "running_example_variance": {"sigma2": 0.1},
}


class TestQuarterTurn:
    """A complex-mode lift is invariant under (xre, xim) -> (-xim, xre);
    assembly verifies that on the polynomials before it records the turn."""

    @pytest.mark.parametrize("path", sorted(PROBLEMS_DIR.glob("*.prob")),
                             ids=lambda path: path.stem)
    def test_detected_on_every_complex_lift(self, path):
        problem, options = load_problem(path, SHIPPED_BINDINGS.get(path.stem, {}))
        lifted = build_lifted(problem)
        sdp = assemble_relaxation(lifted, minimal_order(lifted))
        if lifted.real_mode:
            assert sdp.quarter_turn == ()
            return
        names = [sdp.z_vars[i] for i in sdp.x_coordinates]
        re, im = sdp.quarter_turn
        assert [sdp.z_vars[i] for i in re] == [n for n in names if n.startswith("xre")]
        assert [sdp.z_vars[i] for i in im] == [n for n in names if n.startswith("xim")]

    @pytest.mark.parametrize("relation", ["GE", "EQ"])
    def test_a_constraint_that_breaks_the_turn_drops_it(self, relation):
        # xre1 >= 0 turns into xim1 >= 0 (xre1 = 0 into -xim1 = 0), which
        # the lift does not hold
        from dstab.poly import Polynomial
        from dstab.sets import Relation, SemialgebraicSet
        lifted = build_lifted(hurwitz_problem())
        xre1 = Polynomial.variable(lifted.num_vars, lifted.z_vars.index("xre1"))
        assert assemble_relaxation(lifted, 2).quarter_turn
        support = SemialgebraicSet(
            lifted.support.variables,
            lifted.support.constraints + ((xre1, getattr(Relation, relation)),),
        )
        assert assemble_relaxation(dataclasses.replace(lifted, support=support), 2) \
            .quarter_turn == ()

    def test_a_turned_set_of_constraints_drops_it(self):
        # the turn maps xre1 >= 0 onto xim1 >= 0 and xim1 >= 0 onto
        # -xre1 >= 0; it maps {xre1, xim1, -xre1, -xim1} >= 0 onto itself,
        # but no member onto itself, so their localizers trade places.  The
        # turn is kept only when each inequality maps onto itself, and the
        # SDP is solved without it
        from dstab.poly import Polynomial
        from dstab.sets import Relation, SemialgebraicSet
        lifted = build_lifted(hurwitz_problem())
        xre1, xim1 = (Polynomial.variable(lifted.num_vars, lifted.z_vars.index(name))
                      for name in ("xre1", "xim1"))
        for extra in ((xre1, xim1), (xre1, xim1, -xre1, -xim1)):
            support = SemialgebraicSet(
                lifted.support.variables,
                lifted.support.constraints + tuple((q, Relation.GE) for q in extra),
            )
            sdp = assemble_relaxation(dataclasses.replace(lifted, support=support), 2)
            assert sdp.quarter_turn == ()
        solution = solve(sdp)
        assert solution.status is SolverStatus.OPTIMAL
        assert residuals(sdp, solution)["dual_infeas"] <= 1e-7

    def test_every_shipped_inequality_is_turn_invariant(self):
        # the premise of the solver's row map: each localized inequality of
        # every complex-mode lift maps onto itself, so the turn maps each
        # PSD block onto itself
        from dstab.sets import Relation
        for path in sorted(PROBLEMS_DIR.glob("*.prob")):
            problem, _options = load_problem(path, SHIPPED_BINDINGS.get(path.stem, {}))
            lifted = build_lifted(problem)
            if lifted.real_mode:
                continue
            sdp = assemble_relaxation(lifted, minimal_order(lifted))
            assert sdp.quarter_turn, path.stem
            re, im = sdp.quarter_turn
            inequalities = [q for q, rel in lifted.support.constraints if rel is not Relation.EQ]
            inequalities += [f - target for f, rel, target in lifted.moment_constraints
                             if rel != "="]
            assert inequalities, path.stem
            for q in inequalities:
                assert _turned(q, re, im) == q, (path.stem, q)


class TestScaling:
    def test_scale_pow_matches_variable_scales(self):
        lifted = build_lifted(hurwitz_problem())
        sdp = assemble_relaxation(lifted, 2)
        s_rho, s_lam = lifted.var_scales[0], lifted.var_scales[1]
        assert sdp.scale_pow[graded_lex_position((0,) * 7, 7, 4)] == 1.0
        assert sdp.scale_pow[graded_lex_position((1, 0, 0, 0, 0, 0, 0), 7, 4)] == \
            pytest.approx(s_rho)
        assert sdp.scale_pow[graded_lex_position((2, 1, 0, 0, 0, 0, 0), 7, 4)] == pytest.approx(
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
        assert m.values[0] == pytest.approx(1.0, abs=1e-10)
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
        atoms = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]
        m3 = moments_of_atomic(atoms, [0.5, 0.5], 4, 3)
        # truncate the tau=3 moment vector onto the tau=2 basis
        trunc = np.array([m3.values[graded_lex_position(a, 4, 6)] for a in sdp2.basis.tolist()])
        m2 = MomentVector(4, 2, trunc)
        for _label, form in sdp2.psd_blocks:
            assert np.linalg.eigvalsh(assemble(form, m2))[0] >= -1e-8
        assert m2.values[0] == pytest.approx(1.0, abs=1e-10)
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
        assert parsed == [tuple(alpha) for alpha in mean_sdp.basis.tolist()]
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


def _loop_export(sdp, path) -> None:
    """Reference writer: every line formatted on its own, the whole file
    joined before it is written."""
    lines = ["DSTAB-SDP 1"]
    lines.append(f"nz {sdp.n_z} tau {sdp.tau} moments {sdp.num_moments}")
    lines.append("zvars " + " ".join(sdp.z_vars))
    lines.append("basis")
    for idx, alpha in enumerate(sdp.basis.tolist()):
        lines.append(f"{idx} " + " ".join(str(e) for e in alpha))
    nnz = np.nonzero(sdp.objective)[0]
    lines.append(f"objective {len(nnz)}")
    for idx in nnz:
        lines.append(f"{idx} {float(sdp.objective[idx])!r}")
    lines.append("constraint 0 = 1.0 1 moment[0]")
    lines.append("0 1.0")
    for k, (label, form, sign) in enumerate(_file_blocks(sdp)):
        count = sum(len(vals) for _a, _r, _c, vals in form.terms)
        lines.append(f"block {k} {form.dimension} {count} {label}")
        for alpha, rows, cols, vals in form.terms:
            idx = graded_lex_position(alpha, sdp.n_z, 2 * sdp.tau)
            for r, c, v in zip(rows, cols, sign * vals):
                lines.append(f"{r} {c} {idx} {float(v)!r}")
    lines.append("end")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# a value for each placeholder of the shipped files
BINDINGS = {
    "bifurcation.prob": {"k": 0.4},
    "bifurcation_probabilistic.prob": {"sigma2": 0.05},
    "running_example_variance.prob": {"sigma2": 0.05},
}


def _shipped_sdp(name: str, tau: int | None = None) -> SDPProblem:
    problem, _options = load_problem(PROBLEMS_DIR / name, BINDINGS.get(name, {}))
    return assemble_relaxation(build_lifted(problem), tau)


class TestExportMatchesLoopReference:
    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS_DIR.glob("*.prob")))
    def test_shipped_problem_at_minimal_order(self, name, tmp_path):
        sdp = _shipped_sdp(name)
        export_sdp(sdp, tmp_path / "fast.sdp")
        _loop_export(sdp, tmp_path / "loop.sdp")
        assert (tmp_path / "fast.sdp").read_bytes() == (tmp_path / "loop.sdp").read_bytes()

    def test_signed_zeros_tiny_and_negative_values(self, tmp_path):
        # each zero keeps its sign, also where the "-" twin of an equality
        # flips it, and 1e-300 keeps all its digits
        # entries (row, col, moment, value), each value its own term; in one
        # variable the moment index of t^d is d
        def form(dim, *entries):
            rows, cols, moments, vals = zip(*entries)
            return LinearMatrixForm(dim, 1, np.array(rows, np.uint8), np.array(cols, np.uint8),
                                    np.array(moments, np.int32),
                                    np.arange(len(vals), dtype=np.uint8),
                                    np.array(vals, dtype=float))

        sdp = SDPProblem(
            tau=1, basis=monomial_basis(1, 2),
            objective=np.array([0.0, -2.5, 1e-300]),
            psd_blocks=(
                ("moment", form(2, (0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 1, 1.0),
                                (1, 1, 2, 1.0))),
                ("q[0]", form(1, (0, 0, 0, -0.0), (0, 0, 1, 1e-300))),
            ),
            scale_pow=np.ones(3), z_vars=("t",),
            equalities=(
                ("q[1]", form(2, (0, 0, 0, 0.0), (1, 1, 0, -0.0), (0, 1, 1, -3.0),
                              (1, 0, 1, -3.0), (1, 1, 1, 1e-300))),
                ("moment[1]", form(1, (0, 0, 2, -0.5))),
            ),
        )
        assert export_sdp(sdp, tmp_path / "fast.sdp") == (2, 1, 1, 1, 2, 2)
        _loop_export(sdp, tmp_path / "loop.sdp")
        text = (tmp_path / "fast.sdp").read_text()
        assert text == (tmp_path / "loop.sdp").read_text()
        for line in ["0 0 0 -0.0", "1 1 0 0.0", "0 0 1 1e-300", "1 1 1 -1e-300", "0 1 1 3.0",
                     "0 0 2 0.5", "2 1e-300"]:
            assert line in text.splitlines()


def _loop_scale_tables(lifted: LiftedProblem, basis) -> tuple[np.ndarray, np.ndarray]:
    """scale_pow and moment_bounds element by element on Python floats:
    the products of s_i ** alpha_i and of (b_i / s_i) ** alpha_i."""
    scales = lifted.var_scales
    ratios = [math.inf] * len(scales) if lifted.var_bounds is None else [
        b / s for b, s in zip(lifted.var_bounds, scales)
    ]
    scale_pow, moment_bounds = [], []
    for alpha in basis.tolist():
        factor = bound = 1.0
        for s, r, e in zip(scales, ratios, alpha):
            if e:
                factor *= s ** e
                bound *= r ** e
        scale_pow.append(factor)
        moment_bounds.append(bound)
    return np.array(scale_pow), np.array(moment_bounds)


def _assert_scale_tables_match_loop(lifted: LiftedProblem) -> SDPProblem:
    sdp = assemble_relaxation(lifted)
    scale_pow, moment_bounds = _loop_scale_tables(lifted, sdp.basis)
    assert np.array_equal(sdp.scale_pow.view(np.int64), scale_pow.view(np.int64))
    assert np.array_equal(sdp.moment_bounds.view(np.int64), moment_bounds.view(np.int64))
    return sdp


class TestScaleTablesMatchLoopReference:
    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS_DIR.glob("*.prob")))
    def test_shipped_problem_at_minimal_order(self, name):
        problem, _options = load_problem(PROBLEMS_DIR / name, BINDINGS.get(name, {}))
        _assert_scale_tables_match_loop(build_lifted(problem))

    def test_infinite_and_zero_bounds_stay_silent(self):
        # inf * 0 gives nan and inf * inf gives inf without a RuntimeWarning,
        # as on Python floats
        lifted = build_lifted(hurwitz_problem())
        bounds = (math.inf, 0.0, math.inf) + lifted.var_bounds[3:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sdp = _assert_scale_tables_match_loop(dataclasses.replace(lifted, var_bounds=bounds))
        assert np.isnan(sdp.moment_bounds).any() and np.isinf(sdp.moment_bounds).any()
        assert (sdp.moment_bounds == 0.0).any()


def test_export_memory_stays_below_whole_file_accumulation(tmp_path):
    # lti_hinf at tau 2 writes a 6 MB file of 232k entry lines: a writer
    # that holds every line and then their join peaks near 30 MB, one that
    # writes a block at a time near 14 MB
    sdp = _shipped_sdp("lti_hinf.prob", 2)
    tracemalloc.start()
    try:
        export_sdp(sdp, tmp_path / "hinf.sdp")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "hinf.sdp").stat().st_size > 6_000_000
    assert peak < 20e6


def test_export_working_set_is_one_slice(tmp_path):
    # bifurcation at order 3 writes 12376 basis lines and a 364x364 moment
    # block of 132496 entry lines: a writer that holds a block's lines peaks
    # about 11 MB above what the SDP holds, one that holds a slice of Python
    # strings about 1.2 MB, one that holds a slice of bytes about 0.6 MB
    problem, _options = load_problem(PROBLEMS_DIR / "bifurcation.prob", {"k": 0.45})
    sdp = assemble_relaxation(build_lifted(problem), 3)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        export_sdp(sdp, tmp_path / "bifurcation.sdp")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1e6


def _word_texts(table) -> list[bytes]:
    """The texts of a word table, its padding dropped."""
    return [row.tobytes().replace(b"\0", b"") for row in table]


@pytest.mark.parametrize("cells", [1, 100, 1 << 14])
def test_row_writer_matches_a_join_of_the_texts(cells, monkeypatch):
    # tables whose longest text has 1 to 9, 16 or 17 bytes, so every word
    # width and 1, 2 and 3 uint64 words per text, in 24 columns: 45 lines
    # are 45 slices of one line, 12 of 4 (the last ends after one) or one
    monkeypatch.setattr(dstab.relax, "_SLICE_CELLS", cells)
    letters = b"abcdefghijklmnopq"
    texts = [[letters[:w - k] for k in range(w)] for w in (*range(1, 10), 16, 17)]
    tables = [_words(t) for t in texts]
    assert [(table.dtype.itemsize, table.shape[1]) for table in tables] == [
        (2, 1), (2, 1), (4, 1), (4, 1), (8, 1), (8, 1), (8, 1), (8, 1), (8, 2), (8, 2), (8, 3)]
    # indices around 9/10, 99/100, 999/1000 and 9999/10000
    for count in (10, 11, 100, 101, 1000, 1001, 10000, 10001):
        table = _numbers(count, b" ")
        assert _word_texts(table) == [f"{i} ".encode() for i in range(count)]
        texts.append(_word_texts(table))
        tables.append(table)
    values = [-0.30000000000000004, -0.0, 1e-300, 1.0]
    tables.append(_words([f"{v!r}\n" for v in values]))
    texts.append([repr(v).encode() + b"\n" for v in values])
    assert tables[-1].shape == (4, 3)
    rng = np.random.default_rng(3)
    count = 45
    picks = [rng.integers(len(t), size=count) for t in texts]
    out = io.BytesIO()
    _write_rows(out, count, list(zip(tables, picks)))
    assert out.getvalue() == b"".join(text[pick[i]] for i in range(count)
                                      for text, pick in zip(texts, picks))


@pytest.mark.parametrize("cells", [1, 7, 30])
def test_export_is_the_same_in_any_slice_size(cells, tmp_path, monkeypatch):
    # small slices put their boundaries inside the basis, the objective and
    # each block
    sdp = _shipped_sdp("hurwitz.prob")
    export_sdp(sdp, tmp_path / "default.sdp")
    monkeypatch.setattr(dstab.relax, "_SLICE_CELLS", cells)
    export_sdp(sdp, tmp_path / "sliced.sdp")
    assert (tmp_path / "sliced.sdp").read_bytes() == (tmp_path / "default.sdp").read_bytes()
