"""Moment vectors and the symbolic moment / localizing matrix pencils.

A truncated moment vector collects m_alpha = E[z^alpha] for |alpha| <= 2*tau
in graded-lex order.  Moment and localizing matrices are represented as
linear pencils sum_alpha B_alpha m_alpha with sparse symmetric coefficient
matrices B_alpha, held as flat entry arrays; assembling a pencil against a
concrete moment vector gives the dense symmetric matrix whose positive
semidefiniteness is necessary for m to be the moment sequence of a
probability measure supported where the localizing polynomial is
nonnegative.  A pencil's entries are ordered on exponent vectors packed
into int64 keys, one key for every shipped form, so building one costs a
sort of integers and one graded-lex rank per distinct alpha.

Every call builds its form afresh and the module keeps none, so a form
lives exactly as long as the SDP that holds it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import (Exponent, Polynomial, PolynomialError, graded_lex_index_by_variable,
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
    by (i, j, gamma) within one alpha; the export writes them in this order.
    `rows`, `cols` and `moments` are int32, so a reader widens them to
    np.intp before any arithmetic on them (`rows * dimension` overflows)."""

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
        bounds = np.flatnonzero(np.diff(self.moments, prepend=-1, append=-1)).tolist()
        alphas = monomial_basis(self.num_vars, self.max_degree())[self.moments[bounds[:-1]]]
        return tuple((tuple(alpha), self.rows[lo:hi], self.cols[lo:hi], self.vals[lo:hi])
                     for alpha, lo, hi in zip(alphas.tolist(), bounds, bounds[1:]))


_KEY_LIMIT = 1 << 62
_INT32_MAX = int(np.iinfo(np.int32).max)


def _lex_keys(exponents: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """Pack the exponent columns (digit c below radix[c]) by mixed radix into
    as few int64 keys as stay below 2^62, one row per key, most significant
    first: the keys order the exponents lexicographically, and adding keys
    adds exponents as long as no digit of the sum reaches its radix."""
    radix = radix.tolist()
    groups, span = [[]], 1
    for c, r in enumerate(radix):
        if span * r > _KEY_LIMIT:
            groups.append([])
            span = 1
        groups[-1].append(c)
        span *= r
    places = np.zeros((len(radix), len(groups)), dtype=np.int64)
    for k, group in enumerate(groups):
        place = 1
        for c in reversed(group):
            places[c, k] = place
            place *= radix[c]
    return (exponents @ places).T


def _pencil(q: Polynomial, num_vars: int, order: int) -> LinearMatrixForm:
    """Pencil with entry (i, j) = sum_gamma q_gamma m_{beta_i + beta_j + gamma}
    over the graded-lex basis beta of degree <= order.

    Entry alpha = beta_i + beta_j + gamma is sorted by its packed lex key
    kb[i] + kb[j] + kg[g] (`_lex_keys`, with a radix per variable of
    2 order + max gamma + 1, which no digit of alpha reaches), so no
    exponent array of the entries is formed, and only the first entry of
    each run of equal keys gets its graded-lex index, one variable at a
    time.  Raises PolynomialError when an entry or moment index would not
    fit in int32."""
    n, t, top = math.comb(num_vars + order, order), len(q.terms), 2 * order + q.degree
    if n * n * t > _INT32_MAX or math.comb(num_vars + top, top) > _INT32_MAX:
        raise PolynomialError(f"a pencil of dimension {n} with {t} terms and moments of "
                              f"degree {top} in {num_vars} variables exceeds 32-bit indices")
    basis = monomial_basis(num_vars, order)
    gammas = np.array(list(q.terms), dtype=np.intp).reshape(-1, num_vars)
    coeffs = np.array(list(q.terms.values()), dtype=float)
    radix = 2 * order + gammas.max(axis=0, initial=0) + 1
    kb, kg = _lex_keys(basis, radix), _lex_keys(gammas, radix)
    # entries in (i, j, gamma) order, then stably by exponent
    keys = kb[:, :, None, None] + kb[:, None, :, None] + kg[:, None, None, :]
    keys = keys.reshape(len(kb), -1)
    by_alpha = np.lexsort(keys[::-1]).astype(np.int32)
    keys = keys[:, by_alpha]
    opens = np.ones(len(by_alpha), dtype=bool)  # entry opens a run of equal keys
    opens[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    del keys
    ij, g = np.divmod(by_alpha, t)
    rows, cols = np.divmod(ij, n)
    starts = np.flatnonzero(opens)
    ri, ci, gi = rows[starts], cols[starts], g[starts]
    first = graded_lex_index_by_variable(
        lambda v: basis[ri, v] + basis[ci, v] + gammas[gi, v], num_vars, top)
    moments = first.astype(np.int32)[np.cumsum(opens, dtype=np.int32) - 1]
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
    values = [weights @ np.prod(atoms ** alpha, axis=1)
              for alpha in monomial_basis(num_vars, 2 * order)]
    return MomentVector(num_vars=num_vars, order=order, values=values)
