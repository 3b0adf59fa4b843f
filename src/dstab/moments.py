"""Moment vectors and the symbolic moment / localizing matrix pencils.

A truncated moment vector collects m_alpha = E[z^alpha] for |alpha| <= 2*tau
in graded-lex order.  Moment and localizing matrices are represented as
linear pencils sum_alpha B_alpha m_alpha with sparse symmetric coefficient
matrices B_alpha, held as flat entry arrays; assembling a pencil against a
concrete moment vector gives the dense symmetric matrix whose positive
semidefiniteness is necessary for m to be the moment sequence of a
probability measure supported where the localizing polynomial is
nonnegative.

Every call builds its form afresh and the module keeps none, so a form
lives exactly as long as the SDP that holds it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import (Exponent, Polynomial, PolynomialError, graded_lex_index,
                   graded_lex_position, monomial_basis)


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

    def entry(self, alpha: Exponent) -> float:
        return float(self.values[graded_lex_position(alpha, self.num_vars, 2 * self.order)])

    @property
    def mass(self) -> float:
        """Moment of the constant monomial (1 for probability measures)."""
        return float(self.values[0])


@dataclass(frozen=True)
class LinearMatrixForm:
    """Symmetric matrix pencil sum_alpha B_alpha m_alpha: entry e adds
    vals[e] m_alpha to (rows[e], cols[e]), alpha the monomial at graded-lex
    position moments[e].  Each entry of each B_alpha appears once, both
    triangles included, ordered by alpha ascending lexicographically and
    by (i, j, gamma) within one alpha; the export writes them in this order."""

    dimension: int
    num_vars: int
    rows: np.ndarray
    cols: np.ndarray
    moments: np.ndarray
    vals: np.ndarray

    def max_degree(self) -> int:
        top = int(self.moments.max(initial=0))
        return next(d for d in range(top + 1) if math.comb(self.num_vars + d, d) > top)

    @functools.cached_property
    def terms(self) -> tuple[tuple[Exponent, np.ndarray, np.ndarray, np.ndarray], ...]:
        """(alpha, rows, cols, vals) of each B_alpha in entry order, built on
        first read: a view for readers outside `dstab`."""
        elements = monomial_basis(self.num_vars, self.max_degree()).elements
        bounds = np.flatnonzero(np.diff(self.moments, prepend=-1, append=-1)).tolist()
        return tuple((elements[self.moments[lo]], self.rows[lo:hi], self.cols[lo:hi],
                      self.vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def _pencil(q: Polynomial, num_vars: int, order: int) -> LinearMatrixForm:
    """Pencil with entry (i, j) = sum_gamma q_gamma m_{beta_i + beta_j + gamma}
    over the graded-lex basis beta of degree <= order."""
    basis = np.array(monomial_basis(num_vars, order).elements, dtype=np.intp)
    gammas = np.array(list(q.terms), dtype=np.intp).reshape(-1, num_vars)
    coeffs = np.array(list(q.terms.values()), dtype=float)
    n, t = len(basis), len(gammas)
    # entries in (i, j, gamma) order, then stably by exponent
    alphas = basis[:, None, None, :] + basis[None, :, None, :] + gammas[None, None, :, :]
    alphas = alphas.reshape(-1, num_vars)
    by_alpha = np.lexsort(alphas.T[::-1])
    ij, g = np.divmod(by_alpha, t)
    rows, cols = np.divmod(ij, n)
    moments = graded_lex_index(alphas)[by_alpha]
    return LinearMatrixForm(n, num_vars, rows, cols, moments, coeffs[g])


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
    out = np.zeros((form.dimension, form.dimension))
    np.add.at(out, (form.rows, form.cols), form.vals * m.values[form.moments])
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
