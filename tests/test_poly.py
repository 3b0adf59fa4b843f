import itertools
import math
import random

import numpy as np
import pytest

from dstab.poly import (
    Polynomial,
    PolynomialError,
    PolynomialSyntaxError,
    embed,
    graded_lex_index,
    graded_lex_position,
    grlex_key,
    monomial_basis,
    parse_polynomial,
)

CHAR_POLY = "s^2 + (5.3 + 2*r + r^2)*s + 0.96 + 4.8*r + 15.9*r^2 + 2*r^3 - 2*r^4"


class TestParser:
    def test_square_expansion(self):
        p = parse_polynomial("rho^2 - 2*rho + 1", ["rho"])
        assert p.terms == {(2,): 1.0, (1,): -2.0, (0,): 1.0}
        q = parse_polynomial("(rho - 1)^2", ["rho"])
        assert p == q

    def test_zero(self):
        p = parse_polynomial("0", ["rho"])
        assert p.terms == {}
        assert p.degree == 0

    def test_characteristic_polynomial(self):
        p = parse_polynomial(CHAR_POLY, ["s", "r"])
        assert p.degree == 4
        assert p.evaluate((0.0, 0.0)) == pytest.approx(0.96, abs=0)
        assert p.evaluate((1.0, 0.0)) == pytest.approx(7.26, abs=1e-12)

    def test_unary_minus_and_whitespace(self):
        p = parse_polynomial("-x + 2", ["x"])
        assert p.evaluate([3.0]) == -1.0
        assert parse_polynomial("  - x ", ["x"]) == parse_polynomial("(-x)", ["x"])

    def test_scientific_numbers(self):
        p = parse_polynomial("1e-3 + 2.5E2*x", ["x"])
        assert p.evaluate([1.0]) == pytest.approx(250.001)

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x + * 2", ["x"])
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(PolynomialSyntaxError, match="unknown identifier 'y'"):
            parse_polynomial("x + y", ["x"])

    def test_bad_exponents(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^-2", ["x"])
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^2.5", ["x"])
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^y", ["x", "y"])

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x + 1 )", ["x"])


class TestArithmetic:
    def test_difference_of_squares(self):
        rho = Polynomial.variable(1, 0)
        assert (rho - 1.0) * (rho + 1.0) == rho * rho - 1.0

    def test_additive_inverse(self):
        p = parse_polynomial("3*x^2 - x + 7", ["x"])
        assert (p + (-p)).is_zero()
        assert (p - p).degree == 0

    def test_scale_evaluate(self):
        p = parse_polynomial("rho^2 + 1", ["rho"])
        assert p.scale(0.5).evaluate([2.0]) == pytest.approx(2.5)

    def test_degree_contracts(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            p = _random_poly(rng, n, 4)
            q = _random_poly(rng, n, 4)
            assert (p + q).degree <= max(p.degree, q.degree)
            if not p.is_zero() and not q.is_zero():
                assert (p * q).degree == p.degree + q.degree

    def test_var_count_mismatch(self):
        with pytest.raises(PolynomialError):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)

    def test_pow_validation(self):
        with pytest.raises(PolynomialError):
            Polynomial.variable(1, 0) ** -1


class TestEvaluate:
    def test_constant(self):
        assert Polynomial.constant(3, 1.0).evaluate([9.0, -2.0, 0.3]) == 1.0

    def test_eigenvalue_root(self):
        p = parse_polynomial("rho - 1", ["rho"])
        assert p.evaluate([1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x", ["x"]).evaluate([1.0, 2.0])

    def test_substitute(self):
        p = parse_polynomial("x^2*y + 3*y - x", ["x", "y"])
        q = p.substitute(0, 2.0)  # 4y + 3y - 2
        assert q.num_vars == 1
        assert q.evaluate([1.5]) == pytest.approx(p.evaluate([2.0, 1.5]))


class TestEmbed:
    Z = ("rho", "lre", "x1", "x2")

    def test_moment_function_lift(self):
        f2 = parse_polynomial("rho", ["rho"])
        lifted = embed(f2, ("rho",), self.Z)
        assert lifted.terms == {(1, 0, 0, 0): 1.0}

    def test_constant(self):
        one = Polynomial.constant(1, 1.0)
        assert embed(one, ("rho",), self.Z) == Polynomial.constant(4, 1.0)

    def test_evaluation(self):
        p = parse_polynomial("rho^2", ["rho"])
        lifted = embed(p, ("rho",), self.Z)
        assert lifted.evaluate([0.5, -3.0, 7.0, 2.0]) == pytest.approx(0.25)

    def test_missing_variable(self):
        with pytest.raises(PolynomialError):
            embed(parse_polynomial("a", ["a"]), ("a",), ("b", "c"))

    def test_embed_preserves_evaluation_exactly(self):
        rng = random.Random(11)
        source = ["u", "v"]
        target = ["w", "u", "t", "v"]
        for _ in range(25):
            p = _random_poly(rng, 2, 4, integer=True)
            lifted = embed(p, source, target)
            point = [rng.randint(-3, 3) for _ in target]
            assert lifted.evaluate(point) == p.evaluate([point[1], point[3]])


def _reference_basis(n: int, order: int) -> np.ndarray:
    """The graded-lex basis from the variable multisets of each degree:
    combinations_with_replacement lists them lexicographically, which is
    graded-lex on their exponents."""
    rows = []
    for d in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            rows.append(alpha)
    return np.array(rows, dtype=np.intp).reshape(-1, n)


class TestBasis:
    def test_one_var(self):
        basis = monomial_basis(1, 2)
        assert basis.tolist() == [[0], [1], [2]]

    def test_running_example_order_one(self):
        basis = monomial_basis(4, 1)
        assert len(basis) == 5
        assert basis.tolist() == [
            [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
        ]

    def test_counts(self):
        assert len(monomial_basis(4, 2)) == 15
        for n, tau in [(2, 3), (5, 2), (7, 3)]:
            assert len(monomial_basis(n, tau)) == math.comb(n + tau, tau)

    @pytest.mark.parametrize("n, order", [(n, order) for n in range(1, 9) for order in range(7)]
                             + [(11, 6), (22, 4), (40, 2)])
    def test_matches_multiset_reference(self, n, order):
        basis = monomial_basis(n, order)
        assert basis.dtype == np.uint8
        assert basis.shape == (math.comb(n + order, order), n)
        assert np.array_equal(basis, _reference_basis(n, order))

    def test_dtype_is_the_narrowest_that_holds_the_order(self):
        assert monomial_basis(2, 255).dtype == np.uint8
        wide = monomial_basis(1, 256)
        assert wide.dtype == np.uint16
        assert wide[-1].tolist() == [256]

    def test_strictly_increasing_grlex(self):
        basis = monomial_basis(3, 4)
        keys = [grlex_key(a) for a in basis.tolist()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_basis_is_sorted_grlex_and_complete(self, n):
        for d in range(7):
            elements = [tuple(alpha) for alpha in monomial_basis(n, d).tolist()]
            assert elements == sorted(elements, key=grlex_key)
            assert len(set(elements)) == len(elements) == math.comb(n + d, d)
            assert all(len(a) == n and min(a) >= 0 and sum(a) <= d for a in elements)

    def test_index(self):
        basis = monomial_basis(4, 2)
        assert graded_lex_position((0, 0, 0, 0), 4, 2) == 0
        assert graded_lex_position((1, 0, 0, 0), 4, 2) == 1
        assert graded_lex_position(basis[-1], 4, 2) == 14

    def test_index_bijection(self):
        basis = monomial_basis(3, 3)
        for i, alpha in enumerate(basis.tolist()):
            assert graded_lex_position(alpha, 3, 3) == i

    @pytest.mark.parametrize("n, d", [(1, 5), (3, 4), (11, 6), (22, 4)])
    def test_graded_lex_index_is_the_basis_position(self, n, d):
        basis = monomial_basis(n, d)
        assert np.array_equal(graded_lex_index(basis), np.arange(len(basis)))
        assert graded_lex_index(basis[-1]) == len(basis) - 1

    @pytest.mark.parametrize("n", [1, 2, 4, 11, 40, 45])
    def test_graded_lex_index_matches_comb_formula(self, n):
        rng = np.random.default_rng(n)
        for degree in range(10):
            alphas = rng.multinomial(degree, np.full(n, 1.0 / n), size=20)
            # the position from C(d - 1 + n, n) lower-degree monomials plus,
            # per variable, those of degree d that have more of it
            expected = []
            for alpha in alphas.tolist():
                after = np.cumsum(alpha[::-1])[::-1].tolist()
                expected.append(math.comb(degree - 1 + n, n) if degree else 0)
                for i in range(n - 1):
                    s = after[i + 1]
                    expected[-1] += math.comb(s - 1 + n - 1 - i, n - 1 - i) if s else 0
            index = graded_lex_index(alphas)
            assert index.dtype == np.intp
            assert index.tolist() == expected

    def test_graded_lex_index_out_of_integer_range(self):
        with pytest.raises(PolynomialError, match="integer range"):
            graded_lex_index([0] * 100 + [50])

    def test_out_of_range(self):
        with pytest.raises(PolynomialError):
            graded_lex_position((3, 0), 2, 2)

    def test_validation(self):
        with pytest.raises(PolynomialError):
            monomial_basis(0, 2)
        with pytest.raises(PolynomialError):
            monomial_basis(2, -1)


def _random_poly(rng: random.Random, n: int, max_degree: int, integer=False) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 8)):
        alpha = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            alpha[rng.randrange(n)] += 1
        coeff = rng.randint(-5, 5) if integer else rng.uniform(-5, 5)
        if coeff:
            terms[tuple(alpha)] = terms.get(tuple(alpha), 0.0) + coeff
    return Polynomial(n, terms)


class TestProperties:
    def test_parse_print_round_trip(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(1, 6)
            names = [f"v{i}" for i in range(n)]
            p = _random_poly(rng, n, 6)
            again = parse_polynomial(p.to_string(names), names)
            assert again.terms == p.terms

    def test_evaluation_homomorphism(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 4)
            p = _random_poly(rng, n, 3)
            q = _random_poly(rng, n, 3)
            point = [rng.uniform(-2, 2) for _ in range(n)]
            left = (p * q).evaluate(point)
            right = p.evaluate(point) * q.evaluate(point)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_hash_consistency(self):
        p = parse_polynomial("x*y - 2", ["x", "y"])
        q = parse_polynomial("-2 + y*x", ["x", "y"])
        assert p == q and hash(p) == hash(q)


class TestStackEvaluate:
    def test_stack_matches_points_bit_for_bit(self):
        rng = random.Random(2024)
        np_rng = np.random.default_rng(2024)
        for _ in range(100):
            n = rng.randint(1, 4)
            terms = {
                tuple(rng.randint(0, 6) for _ in range(n)): rng.uniform(-5, 5)
                for _ in range(rng.randint(1, 8))
            }
            p = Polynomial(n, terms)
            stack = np_rng.uniform(-3.0, 3.0, size=(4, 5, n))
            values = p.evaluate(stack)
            assert values.shape == (4, 5)
            for index in np.ndindex(4, 5):
                single = p.evaluate(list(stack[index]))
                assert isinstance(single, float)
                assert single == values[index]

    def test_powers_are_repeated_products(self):
        cube = parse_polynomial("x^3", ["x"])
        for x in np.random.default_rng(3).uniform(-3.0, 3.0, 200):
            assert cube.evaluate([x]) == x * x * x

    def test_zero_polynomial_keeps_stack_shape(self):
        values = Polynomial.zero(2).evaluate(np.ones((3, 2)))
        assert values.shape == (3,) and not values.any()

    def test_non_finite_values_without_warning(self):
        # inf * 0 is NaN, as for Python floats; pytest turns warnings into errors
        p = Polynomial(1, {(1,): math.inf, (0,): -1.0})
        assert math.isnan(p.evaluate([0.0]))
        assert np.isnan(p.evaluate(np.zeros((2, 1)))).all()
        assert Polynomial(1, {(2,): 1.0}).evaluate([1e200]) == math.inf

    def test_stack_dimension_mismatch(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x", ["x"]).evaluate(np.zeros((3, 2)))
