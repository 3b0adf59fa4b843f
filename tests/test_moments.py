import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import PROBLEMS_DIR, hurwitz_problem, running_problem

from dstab import relax
from dstab.cli import load_problem
from dstab.moments import (
    IndexTables,
    MomentVector,
    assemble,
    localizing_matrix_form,
    moment_matrix_form,
    moments_of_atomic,
)
from dstab.poly import (Polynomial, PolynomialError, graded_lex_position, monomial_basis,
                        parse_polynomial)
from dstab.problem import build_lifted
from dstab.sets import Relation

Z_RUN = ["rho", "lre", "x1", "x2"]


def _labelled_moments(n, tau):
    """Moment vector whose entries equal their own basis index, for
    reading off which moments a pencil touches."""
    basis = monomial_basis(n, 2 * tau)
    return MomentVector(n, tau, np.arange(len(basis), dtype=float))


class TestMomentMatrixForm:
    def test_hankel_one_var(self):
        form = moment_matrix_form(1, 1)
        m = MomentVector(1, 1, [1.0, 0.7, 0.49])
        mat = assemble(form, m)
        assert np.allclose(mat, [[1.0, 0.7], [0.7, 0.49]])

    def test_running_first_row(self):
        form = moment_matrix_form(4, 1)
        assert form.dimension == 5
        m = _labelled_moments(4, 1)
        mat = assemble(form, m)
        first_row_alphas = [
            (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        ]
        assert [mat[0, j] for j in range(5)] == [graded_lex_position(a, 4, 2)
                                                 for a in first_row_alphas]

    def test_atom_rank_one(self):
        m = moments_of_atomic([[0.3]], [1.0], 1, 1)
        mat = assemble(moment_matrix_form(1, 1), m)
        assert np.allclose(mat, [[1.0, 0.3], [0.3, 0.09]])
        assert np.linalg.matrix_rank(mat, tol=1e-12) == 1


def _graded_lex(alpha) -> tuple:
    """Sort key of graded-lex order: degree, then the exponents descending
    lexicographically (x0 before x1)."""
    return sum(alpha), tuple(-e for e in alpha)


def _loop_form(q: Polynomial, num_vars: int, order: int):
    """Reference pencil built entry by entry: (i, j, alpha, coefficient) in
    (i, j, gamma) order, the terms gamma of q in graded-lex order."""
    basis = monomial_basis(num_vars, order).tolist()
    terms = sorted(q.terms.items(), key=lambda item: _graded_lex(item[0]))
    return [(i, j, tuple(a + b + g for a, b, g in zip(bi, bj, gamma)), coeff)
            for i, bi in enumerate(basis) for j, bj in enumerate(basis)
            for gamma, coeff in terms]


def _by_moment(reference):
    """(alpha, rows, cols, vals) of each moment of `_loop_form`'s entries,
    alpha in graded-lex order and its entries in entry order."""
    groups = {}
    for i, j, alpha, coeff in reference:
        rows, cols, vals = groups.setdefault(alpha, ([], [], []))
        rows.append(i)
        cols.append(j)
        vals.append(coeff)
    return [(alpha, *groups[alpha]) for alpha in sorted(groups, key=_graded_lex)]


def _assert_matches_loop_reference(form, q: Polynomial, num_vars: int, order: int):
    """The form holds `_loop_form`'s entries, array for array and dtype for
    dtype, and its `terms` view reads them back grouped by moment."""
    reference = _loop_form(q, num_vars, order)
    top = max(sum(alpha) for _i, _j, alpha, _v in reference)
    index = np.min_scalar_type(form.dimension - 1)
    expected = [
        np.array([i for i, _j, _a, _v in reference], dtype=index),
        np.array([j for _i, j, _a, _v in reference], dtype=index),
        np.array([graded_lex_position(alpha, num_vars, top) for _i, _j, alpha, _v in reference],
                 dtype=np.int32),
        np.array([v for _i, _j, _a, v in reference], dtype=float),
    ]
    for got, want in zip((form.rows, form.cols, form.moments, form.vals), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert form.coeffs.tolist() == list(q.terms.values())
    assert form.term.dtype == np.min_scalar_type(len(q.terms) - 1)
    assert form.dimension == math.comb(num_vars + order, order)
    assert [(alpha, rows.tolist(), cols.tolist(), vals.tolist())
            for alpha, rows, cols, vals in form.terms] == _by_moment(reference)


class TestFormsMatchLoopReference:
    @pytest.mark.parametrize("text,order", [
        ("1", 2), ("rho", 1), ("1 - x1^2 - x2^2", 2),
        ("0.5*rho*lre - 2*x1*x2 + x2^3", 1), ("rho - rho^2 + 3*lre", 3),
    ])
    def test_same_terms_in_same_order(self, text, order):
        q = parse_polynomial(text, Z_RUN)
        form = moment_matrix_form(4, order) if text == "1" else \
            localizing_matrix_form(q, 4, order)
        reference = _by_moment(_loop_form(q, 4, order))
        assert [alpha for alpha, *_rest in form.terms] == [r[0] for r in reference]
        for (alpha, rows, cols, vals), (_a, r_rows, r_cols, r_vals) in zip(form.terms, reference):
            assert isinstance(alpha[0], int)
            assert rows.tolist() == r_rows and cols.tolist() == r_cols
            assert vals.tolist() == r_vals

    # in 40 and 45 variables the index tables span far more moments than
    # the pencil of dimension 41 or 46 uses
    @pytest.mark.parametrize("num_vars,order,degree", [(1, 3, 3), (40, 1, 2), (45, 1, 2)])
    def test_random_polynomials_as_arrays(self, num_vars, order, degree):
        rng = random.Random(num_vars)
        terms = {}
        for _ in range(8):
            alpha = [0] * num_vars
            for _ in range(rng.randint(0, degree)):
                alpha[rng.randrange(num_vars)] += 1
            terms[tuple(alpha)] = rng.uniform(-2.0, 2.0)
        q = Polynomial(num_vars, terms)
        form = localizing_matrix_form(q, num_vars, order)
        _assert_matches_loop_reference(form, q, num_vars, order)

    def test_localizer_of_degree_past_twice_its_order(self):
        # x^4 at order 1 needs moments up to degree 6, beyond the degree-2
        # Hankel corner it shifts
        q = parse_polynomial("x^4 - 0.5*x", ["x"])
        form = localizing_matrix_form(q, 1, 1)
        assert form.max_degree() == 6
        _assert_matches_loop_reference(form, q, 1, 1)


def _relaxation_pencils(monkeypatch, name: str, tau: int, bindings=None):
    """The SDP that `assemble_relaxation` builds for a shipped problem, and
    (polynomial, order, form) of every pencil it built on the way, the
    moment matrix as the localizer of 1."""
    built = []

    def moment(num_vars, order, tables=None):
        form = moment_matrix_form(num_vars, order, tables)
        built.append((Polynomial.constant(num_vars, 1.0), order, form))
        return form

    def localizer(q, num_vars, order, tables=None):
        form = localizing_matrix_form(q, num_vars, order, tables)
        built.append((q, order, form))
        return form

    monkeypatch.setattr(relax, "moment_matrix_form", moment)
    monkeypatch.setattr(relax, "localizing_matrix_form", localizer)
    problem, _options = load_problem(PROBLEMS_DIR / name, bindings)
    sdp = relax.assemble_relaxation(build_lifted(problem), tau)
    held = [form for _label, form in sdp.psd_blocks + sdp.equalities]
    assert sorted(map(id, held)) == sorted(id(form) for *_rest, form in built)
    return sdp, built


class TestRelaxationIndexTables:
    """The pencils that `assemble_relaxation` builds from its shared index
    tables are the ones built entry by entry."""

    @pytest.mark.parametrize("name,tau", [("hurwitz.prob", 3), ("running_example.prob", 2)])
    def test_every_form_matches_loop_reference(self, monkeypatch, name, tau):
        sdp, built = _relaxation_pencils(monkeypatch, name, tau)
        assert len(built) > 1
        for q, order, form in built:
            _assert_matches_loop_reference(form, q, sdp.n_z, order)

    @pytest.mark.parametrize("name,tau,bindings", [("bifurcation.prob", 3, {"k": 0.45}),
                                                   ("lti_hinf.prob", 2, None)])
    def test_every_form_is_ordered_and_indexed(self, monkeypatch, name, tau, bindings):
        sdp, built = _relaxation_pencils(monkeypatch, name, tau, bindings)
        rng = np.random.default_rng(tau)
        for q, order, form in built:
            n = form.dimension
            assert len(form.vals) == n * n * len(q.terms)
            # row-major: the entry (i, j) never decreases, and within one
            # entry the moments rise strictly, one per term gamma of q
            flat = form.rows.astype(np.intp) * n + form.cols
            step = np.diff(flat)
            assert np.all(step >= 0)
            assert np.all(np.diff(form.moments)[step == 0] > 0)
            assert np.array_equal(np.bincount(flat, minlength=n * n),
                                  np.full(n * n, len(q.terms)))
            alphas = sdp.basis[form.moments].astype(np.int16)
            # a sample of entries: the moment is the graded-lex index of
            # beta_i + beta_j + gamma for a term gamma of q with that coefficient
            basis = monomial_basis(sdp.n_z, order)
            for e in rng.choice(len(form.vals), size=min(40, len(form.vals)), replace=False):
                beta_ij = basis[form.rows[e]] + basis[form.cols[e]]
                gamma = tuple((alphas[e] - beta_ij).tolist())
                assert q.terms.get(gamma) == form.vals[e]
                alpha = tuple((beta_ij + gamma).tolist())
                assert graded_lex_position(alpha, sdp.n_z, 2 * tau) == form.moments[e]


class TestIndexWidth:
    def test_index_arrays_are_narrow(self):
        q = parse_polynomial("1 - x1^2 - x2^2", Z_RUN)
        for form in (moment_matrix_form(4, 2), localizing_matrix_form(q, 4, 1)):
            assert form.rows.dtype == form.cols.dtype == form.term.dtype == np.uint8
            assert form.moments.dtype == np.int32
        # 257 rows need a 16-bit row index
        form = moment_matrix_form(256, 1)
        assert form.dimension == 257 and form.rows.dtype == form.cols.dtype == np.uint16
        assert form.rows.max() == form.cols.max() == 256

    def test_one_term_forms_hold_a_zero_strided_term(self):
        # the moment matrix and the localizer of a monomial have one term, so
        # `term` is a view of one 0 byte, not n^2 of them
        q = parse_polynomial("-2*x1", Z_RUN)
        for form, coeff in ((moment_matrix_form(4, 2), 1.0),
                            (localizing_matrix_form(q, 4, 1), -2.0)):
            assert form.term.strides == (0,) and not form.term.flags.writeable
            assert form.term.shape == form.moments.shape and form.term.dtype == np.uint8
            assert form.vals.dtype == np.float64 and form.vals.flags.writeable
            assert np.array_equal(form.vals, np.full(len(form.moments), coeff))

    def test_bifurcation_forms_store_at_most_9_bytes_per_entry(self, monkeypatch):
        # each entry holds a row, a column, a moment and a term index; the
        # values live once per form in `coeffs` (20 bytes an entry when each
        # entry held its int32 indices and float64 value)
        sdp, built = _relaxation_pencils(monkeypatch, "bifurcation.prob", 3, {"k": 0.45})
        forms = [form for _q, _order, form in built]
        entries = sum(len(form.moments) for form in forms)
        stored = sum(form.rows.nbytes + form.cols.nbytes + form.moments.nbytes
                     + form.term.nbytes + form.coeffs.nbytes for form in forms)
        assert entries == 340804 and stored <= 9 * entries
        moment = sdp.psd_blocks[0][1]
        assert moment.dimension == 364 and moment.rows.dtype == moment.cols.dtype == np.uint16
        localizers = [form for form in forms if form is not moment]
        assert max(form.dimension for form in localizers) == 78
        for form in forms:
            assert form.term.dtype == np.uint8
        for form in localizers:
            assert form.rows.dtype == form.cols.dtype == np.uint8

    def test_terms_gathers_the_values_once(self):
        # Hurwitz's moment form at order 3 has 14400 entries in 1716 terms:
        # a `vals` gather per term would hold 1716 copies of its 115 kB
        # values, near 200 MB, where one gather holds one
        form = relax.assemble_relaxation(build_lifted(hurwitz_problem()), 3).psd_blocks[0][1]
        tracemalloc.start()
        try:
            terms = form.terms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert len(terms) == 1716 and len(form.moments) == 14400
        # the runs hold the form's arrays in their stable order by moment
        by_moment = np.argsort(form.moments, kind="stable")
        for column, want in [(1, form.rows), (2, form.cols), (3, form.vals)]:
            assert np.array_equal(np.concatenate([term[column] for term in terms]),
                                  want[by_moment])
        # each run holds the entries of one moment, that of its alpha
        basis = monomial_basis(form.num_vars, 6)
        position = {tuple(alpha): k for k, alpha in enumerate(basis.tolist())}
        lengths = [len(rows) for _alpha, rows, _c, _v in terms]
        assert np.array_equal(np.repeat([position[alpha] for alpha, *_rest in terms], lengths),
                              form.moments[by_moment])

    def test_entries_past_int32_are_rejected(self):
        # C(312, 2) = 48516 rows, and 48516^2 entries pass 2^31 - 1
        with pytest.raises(PolynomialError, match="32-bit"):
            moment_matrix_form(310, 2)

    def test_rejected_before_any_table_is_built(self):
        # the index tables of moment_matrix_form(310, 2) would span the
        # C(314, 4) moments of degree <= 4
        tracemalloc.start()
        try:
            with pytest.raises(PolynomialError, match="32-bit"):
                moment_matrix_form(310, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tables_built_for_one_localizer_stay_narrow(self):
        # without tables, the localizer builds them over the C(49, 4)
        # moments of degree <= 4 in 45 variables: 9.5 MB of exponents in
        # uint8, 76 MB in intp (a 147 MB peak in all)
        names = [f"z{i}" for i in range(45)]
        q = parse_polynomial("1 - z0^2 - z44^2 + z3*z7", names)
        tracemalloc.start()
        try:
            form = localizing_matrix_form(q, 45, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert form.dimension == 46
        assert peak < 64 << 20

    def test_moments_past_int32_are_rejected(self):
        # a 1x1 localizer of x^4 in 2000 variables reaches the C(2004, 4)
        # moments of degree <= 4
        q = Polynomial(2000, {(4,) + (0,) * 1999: 1.0})
        with pytest.raises(PolynomialError, match="32-bit"):
            localizing_matrix_form(q, 2000, 0)

    def test_tables_too_small_for_the_pencil_are_rejected(self):
        # tables of degree 2 and Hankel order 1 hold neither the degree-4
        # moments nor the order-2 corner of the moment matrix of order 2
        tables = IndexTables(monomial_basis(2, 2), 1)
        with pytest.raises(PolynomialError, match="degree 2 and order 1 cannot hold a pencil "
                                                  "of degree 4 and order 2"):
            moment_matrix_form(2, 2, tables)


class TestLocalizingForm:
    def test_unit_polynomial_matches_moment_matrix(self):
        one = Polynomial.constant(3, 1.0)
        loc = localizing_matrix_form(one, 3, 2)
        mom = moment_matrix_form(3, 2)
        m = _labelled_moments(3, 2)
        assert np.array_equal(assemble(loc, m), assemble(mom, m))

    def test_norm_bound_scalar(self):
        # q8 = 1 - x1^2 - x2^2 at order 0: the scalar 1 - m0020 - m0002
        q8 = parse_polynomial("1 - x1^2 - x2^2", Z_RUN)
        form = localizing_matrix_form(q8, 4, 0)
        assert form.dimension == 1
        basis = monomial_basis(4, 4)
        m = MomentVector(4, 2, np.zeros(len(basis)))
        values = m.values.copy()
        values[graded_lex_position((0, 0, 0, 0), 4, 4)] = 1.0
        values[graded_lex_position((0, 0, 2, 0), 4, 4)] = 0.25
        values[graded_lex_position((0, 0, 0, 2), 4, 4)] = 0.15
        mat = assemble(form, MomentVector(4, 2, values))
        assert mat[0, 0] == pytest.approx(1.0 - 0.25 - 0.15)

    def test_eigen_equation_scalar(self):
        # q4 = (z1 - 1) z3 at order 0: the scalar m1010 - m0010
        q4 = parse_polynomial("(rho - 1)*x1", Z_RUN)
        form = localizing_matrix_form(q4, 4, 0)
        basis = monomial_basis(4, 2)
        values = np.zeros(len(basis))
        values[graded_lex_position((1, 0, 1, 0), 4, 2)] = 0.8
        values[graded_lex_position((0, 0, 1, 0), 4, 2)] = 0.3
        mat = assemble(form, MomentVector(4, 1, values))
        assert mat[0, 0] == pytest.approx(0.8 - 0.3)

    def test_var_count_checked(self):
        with pytest.raises(PolynomialError):
            localizing_matrix_form(Polynomial.variable(2, 0), 3, 1)


class TestAssemble:
    def test_mass_only(self):
        one = Polynomial.constant(1, 1.0)
        form = localizing_matrix_form(one, 1, 0)
        m = MomentVector(1, 0, [1.0])
        assert np.array_equal(assemble(form, m), [[1.0]])

    def test_two_atom_mixture(self):
        m = moments_of_atomic([[0.0], [1.0]], [0.5, 0.5], 1, 1)
        assert np.allclose(m.values, [1.0, 0.5, 0.5])
        mat = assemble(moment_matrix_form(1, 1), m)
        assert np.allclose(mat, [[1.0, 0.5], [0.5, 0.5]])
        assert np.all(np.linalg.eigvalsh(mat) > 0)

    def test_worst_case_measure_objective(self):
        # 0.5 delta(rho=0, lre=0, x=0) + 0.5 delta(rho=1, lre=0, x=(1,0)):
        # E[x1^2] + E[x2^2] = 0.5
        atoms = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]
        m = moments_of_atomic(atoms, [0.5, 0.5], 4, 2)
        assert m.entry((0, 0, 2, 0)) + m.entry((0, 0, 0, 2)) == pytest.approx(0.5)
        assert m.entry((1, 0, 0, 0)) == pytest.approx(0.5)  # the known mean

    def test_order_too_low(self):
        q = parse_polynomial("x^4", ["x"])
        form = localizing_matrix_form(q, 1, 1)  # needs degree 6 moments
        with pytest.raises(PolynomialError):
            assemble(form, MomentVector(1, 1, [1.0, 0.0, 0.0]))


class TestMomentsOfAtomic:
    def test_origin_atom(self):
        m = moments_of_atomic([[0.0, 0.0]], [1.0], 2, 1)
        assert m.mass == 1.0
        assert np.allclose(m.values[1:], 0.0)

    def test_dirac_at_one(self):
        m = moments_of_atomic([[1.0]], [1.0], 1, 1)
        assert m.entry((1,)) == 1.0 == m.entry((2,))

    def test_entry_outside_the_vector(self):
        m = moments_of_atomic([[1.0, 2.0]], [1.0], 2, 1)
        assert m.entry((1, 1)) == 2.0
        for alpha in [(3, 0), (1,), (-1, 1)]:
            with pytest.raises(PolynomialError):
                m.entry(alpha)

    def test_weight_validation(self):
        with pytest.raises(PolynomialError):
            moments_of_atomic([[0.0]], [-0.1], 1, 1)
        with pytest.raises(PolynomialError):
            moments_of_atomic([[0.0], [1.0]], [0.5, 0.6], 1, 1)


def _random_running_z_measure(rng: random.Random, max_atoms: int = 4):
    """Random atomic measure supported on the running example's lifted set:
    zero-eigenvector points (rho, lre, 0, 0) and the violating fiber
    (1, 0, t, 0)."""
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        if rng.random() < 0.5:
            atoms.append([rng.uniform(0, 1), rng.uniform(0, 1), 0.0, 0.0])
        else:
            atoms.append([1.0, 0.0, rng.uniform(-1, 1), 0.0])
    weights = np.array([rng.random() for _ in atoms])
    weights /= weights.sum()
    # renormalize exactly to sum 1
    weights[-1] = 1.0 - weights[:-1].sum()
    return np.array(atoms), weights


class TestNecessaryConditions:
    def test_random_measures_give_psd_pencils(self):
        # moment matrix and >= localizers are PSD, equality localizers vanish
        rng = random.Random(2024)
        lifted = build_lifted(running_problem(mean=None))
        tau = 2
        psd_forms = [moment_matrix_form(4, tau)]
        zero_forms = []
        for q, rel in lifted.support.constraints:
            form = localizing_matrix_form(q, 4, tau - math.ceil(q.degree / 2))
            (psd_forms if rel is Relation.GE else zero_forms).append(form)
        assert len(zero_forms) == 2
        for _ in range(100):
            atoms, weights = _random_running_z_measure(rng)
            assert all(lifted.support.contains(a, 1e-12) for a in atoms)
            m = moments_of_atomic(atoms, weights, 4, tau)
            assert m.mass == pytest.approx(1.0, abs=1e-12)
            for form in psd_forms:
                eigs = np.linalg.eigvalsh(assemble(form, m))
                assert eigs[0] >= -1e-8
            for form in zero_forms:
                assert np.abs(assemble(form, m)).max() <= 1e-12

    def test_nesting(self):
        rng = random.Random(3)
        atoms, weights = _random_running_z_measure(rng)
        m2 = moments_of_atomic(atoms, weights, 4, 2)
        m3 = moments_of_atomic(atoms, weights, 4, 3)
        mat2 = assemble(moment_matrix_form(4, 2), m2)
        mat3 = assemble(moment_matrix_form(4, 3), m3)
        k = mat2.shape[0]
        assert np.allclose(mat3[:k, :k], mat2)

    def test_linearity(self):
        rng = random.Random(4)
        atoms_a, weights_a = _random_running_z_measure(rng)
        atoms_b, weights_b = _random_running_z_measure(rng)
        ma = moments_of_atomic(atoms_a, weights_a, 4, 1)
        mb = moments_of_atomic(atoms_b, weights_b, 4, 1)
        form = moment_matrix_form(4, 1)
        combo = MomentVector(4, 1, 0.25 * ma.values + 0.75 * mb.values)
        assert np.array_equal(
            assemble(form, combo),
            0.25 * assemble(form, ma) + 0.75 * assemble(form, mb),
        )

    def test_localizing_consistency_at_atom(self):
        rng = random.Random(5)
        q = parse_polynomial("1 - rho^2 + lre*x1", Z_RUN)
        order = 1
        form = localizing_matrix_form(q, 4, order)
        basis = monomial_basis(4, order)
        for _ in range(20):
            z = [rng.uniform(-1, 1) for _ in range(4)]
            m = moments_of_atomic([z], [1.0], 4, order + 1)
            b_vec = np.array([Polynomial.monomial(4, a).evaluate(z) for a in basis.tolist()])
            expected = q.evaluate(z) * np.outer(b_vec, b_vec)
            assert np.allclose(assemble(form, m), expected, atol=1e-10)
