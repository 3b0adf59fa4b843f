"""Moment vectors and the symbolic moment / localizing matrix pencils.

A truncated moment vector collects m_alpha = E[z^alpha] for |alpha| <= 2*tau
in graded-lex order.  Moment and localizing matrices are represented as
linear pencils sum_alpha B_alpha m_alpha with sparse symmetric coefficient
matrices B_alpha; assembling a pencil against a concrete moment vector gives
the dense symmetric matrix whose positive semidefiniteness is necessary for
m to be the moment sequence of a probability measure supported where the
localizing polynomial is nonnegative.

Every call builds its form afresh and the module keeps none, so a form
lives exactly as long as the SDP that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Exponent, MonomialBasis, Polynomial, PolynomialError, monomial_basis


@dataclass(frozen=True)
class MomentVector:
    """Moments of a measure on R^num_vars truncated to degree 2*order."""

    num_vars: int
    order: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        expected = math.comb(self.num_vars + 2 * self.order, 2 * self.order)
        if values.shape != (expected,):
            raise PolynomialError(
                f"moment vector has length {values.shape}, expected ({expected},)"
            )

    @property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.num_vars, 2 * self.order)

    def entry(self, alpha: Exponent) -> float:
        return float(self.values[self.basis.index(alpha)])

    @property
    def mass(self) -> float:
        """Moment of the constant monomial (1 for probability measures)."""
        return float(self.values[0])


@dataclass(frozen=True)
class LinearMatrixForm:
    """Symmetric matrix pencil sum_alpha B_alpha m_alpha.

    `terms` maps each exponent alpha to the nonzero entries (rows, cols,
    vals) of B_alpha, with both triangles stored explicitly so every
    coefficient matrix is symmetric as stated.
    """

    dimension: int
    num_vars: int
    terms: tuple[tuple[Exponent, np.ndarray, np.ndarray, np.ndarray], ...]

    def max_degree(self) -> int:
        return max((sum(alpha) for alpha, _r, _c, _v in self.terms), default=0)


def _freeze_terms(dim: int, num_vars: int, alphas, rows, cols, vals) -> LinearMatrixForm:
    """Group the entries (alphas[e], rows[e], cols[e], vals[e]) by exponent:
    terms in ascending exponent order, and within one exponent the entries
    in their given order (the sort is stable)."""
    order = np.lexsort(alphas.T[::-1])
    alphas = alphas[order]
    rows = rows[order].astype(np.intp)
    cols = cols[order].astype(np.intp)
    vals = vals[order].astype(float)
    starts = np.flatnonzero(np.any(alphas[1:] != alphas[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), len(order)] if len(order) else []
    terms = tuple(
        (tuple(alphas[lo].tolist()), rows[lo:hi], cols[lo:hi], vals[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    )
    return LinearMatrixForm(dimension=dim, num_vars=num_vars, terms=terms)


def _pencil(q: Polynomial, num_vars: int, order: int) -> LinearMatrixForm:
    """Pencil with entry (i, j) = sum_gamma q_gamma m_{beta_i + beta_j + gamma}
    over the graded-lex basis beta of degree <= order."""
    basis = np.array(monomial_basis(num_vars, order).elements, dtype=np.intp)
    basis = basis.reshape(-1, num_vars)
    gammas = np.array(list(q.terms), dtype=np.intp).reshape(-1, num_vars)
    coeffs = np.array(list(q.terms.values()), dtype=float)
    n, t = len(basis), len(gammas)
    # entries in (i, j, gamma) order
    alphas = basis[:, None, None, :] + basis[None, :, None, :] + gammas[None, None, :, :]
    rows, cols, _g = np.indices((n, n, t))
    return _freeze_terms(
        n, num_vars, alphas.reshape(-1, num_vars), rows.ravel(), cols.ravel(),
        np.broadcast_to(coeffs, (n, n, t)).ravel(),
    )


def moment_matrix_form(num_vars: int, order: int) -> LinearMatrixForm:
    """Pencil of the moment matrix truncated to `order`: entry (i, j) is
    m_{beta_i + beta_j} over the graded-lex basis."""
    one = Polynomial.constant(num_vars, 1.0)
    return _pencil(one, num_vars, order)


def localizing_matrix_form(q: Polynomial, num_vars: int, order: int) -> LinearMatrixForm:
    """Pencil of the localizing matrix of q at `order`: entry (i, j) is
    sum_gamma q_gamma m_{beta_i + beta_j + gamma}."""
    if q.num_vars != num_vars:
        raise PolynomialError(
            f"localizing polynomial has {q.num_vars} vars, expected {num_vars}"
        )
    return _pencil(q, num_vars, order)


def assemble(form: LinearMatrixForm, m: MomentVector) -> np.ndarray:
    """Evaluate the pencil against concrete moments: sum_alpha B_alpha m_alpha."""
    if m.num_vars != form.num_vars:
        raise PolynomialError("moment vector and form dimension mismatch")
    if form.max_degree() > 2 * m.order:
        raise PolynomialError(
            f"form needs moments of degree {form.max_degree()}, "
            f"vector only holds degree {2 * m.order}"
        )
    basis = m.basis
    out = np.zeros((form.dimension, form.dimension))
    for alpha, rows, cols, vals in form.terms:
        np.add.at(out, (rows, cols), vals * m.values[basis.index(alpha)])
    return out


def moments_of_atomic(atoms, weights, num_vars: int, order: int) -> MomentVector:
    """Moments of the finitely supported measure sum_k w_k delta(atom_k)."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if atoms.shape[1] != num_vars:
        raise PolynomialError(
            f"atoms have dimension {atoms.shape[1]}, expected {num_vars}"
        )
    if atoms.shape[0] != weights.shape[0]:
        raise PolynomialError("atom/weight count mismatch")
    if np.any(weights < 0):
        raise PolynomialError("atomic weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise PolynomialError(f"atomic weights sum to {weights.sum()!r}, not 1")
    basis = monomial_basis(num_vars, 2 * order)
    values = np.empty(len(basis))
    for idx, alpha in enumerate(basis.elements):
        powers = np.prod(atoms ** np.asarray(alpha), axis=1)
        values[idx] = float(weights @ powers)
    return MomentVector(num_vars=num_vars, order=order, values=values)
