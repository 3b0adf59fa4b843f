"""Moment vectors and the symbolic moment / localizing matrix pencils.

A truncated moment vector collects m_alpha = E[z^alpha] for |alpha| <= 2*tau
in graded-lex order.  Moment and localizing matrices are represented as
linear pencils sum_alpha B_alpha m_alpha with sparse symmetric coefficient
matrices B_alpha, held as flat entry arrays; assembling a pencil against a
concrete moment vector gives the dense symmetric matrix whose positive
semidefiniteness is necessary for m to be the moment sequence of a
probability measure supported where the localizing polynomial is
nonnegative.

Entry (i, j) of the localizer of q is sum_gamma q_gamma m_{beta_i + beta_j
+ gamma}, so every pencil is a shifted copy of the moment matrix's Hankel
index pattern (Lasserre, SIAM J. Optim. 11(3), 2001).  `IndexTables` holds
that pattern once per relaxation, with the successor table that shifts it,
and every pencil is a few gathers from them, laid out row by row as the
solver reads it.

Every call builds its form afresh and the module keeps none, so a form
lives exactly as long as the SDP that holds it; the tables live as long
as their caller holds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import (Exponent, Polynomial, PolynomialError, graded_lex_below, graded_lex_index,
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
    coeffs[term[e]] m_alpha to (rows[e], cols[e]), alpha the monomial at
    graded-lex position moments[e].  Each entry of each B_alpha appears
    once, both triangles included, in row-major order: (rows, cols)
    ascending, then moments strictly ascending within one (row, col).  The
    solver and the export read them in this order.

    An entry of the localizer of q carries one of q's t coefficients, so a
    form keeps them once (`coeffs`, float64) and each entry only the index
    of its term (`term`, in the narrowest unsigned type that holds t - 1; a
    read-only zero-strided view of one 0 when t = 1, as readers only gather).
    `rows` and `cols` are in the narrowest unsigned type that holds
    dimension - 1 (uint8 up to 256 rows, else uint16) and `moments` is
    int32, so a reader widens them to np.intp before any arithmetic on them
    (`rows * dimension` overflows)."""

    dimension: int
    num_vars: int
    rows: np.ndarray
    cols: np.ndarray
    moments: np.ndarray
    term: np.ndarray
    coeffs: np.ndarray

    @property
    def vals(self) -> np.ndarray:
        """The value of each entry, coeffs[term], built on every read."""
        return self.coeffs[self.term]

    def max_degree(self) -> int:
        top = int(self.moments.max(initial=0))
        return next(d for d in range(top + 1) if math.comb(self.num_vars + d, d) > top)

    @functools.cached_property
    def terms(self) -> tuple[tuple[Exponent, np.ndarray, np.ndarray, np.ndarray], ...]:
        """(alpha, rows, cols, vals) of each B_alpha, alpha in graded-lex
        order and its entries in entry order, built on first read: a view
        for readers outside `dstab`."""
        order = np.argsort(self.moments, kind="stable")
        moments = self.moments[order]
        bounds = np.flatnonzero(np.diff(moments, prepend=-1, append=-1)).tolist()
        alphas = monomial_basis(self.num_vars, self.max_degree())[moments[bounds[:-1]]]
        rows, cols, vals = self.rows[order], self.cols[order], self.coeffs[self.term[order]]
        return tuple((tuple(alpha), rows[lo:hi], cols[lo:hi], vals[lo:hi])
                     for alpha, lo, hi in zip(alphas.tolist(), bounds, bounds[1:]))


_INT32_MAX = int(np.iinfo(np.int32).max)


def _prefix(num_vars: int, degree: int) -> int:
    """Number of graded-lex monomials of degree <= degree (0 below 0)."""
    return math.comb(num_vars + degree, degree) if degree >= 0 else 0


class IndexTables:
    """Index tables of a graded-lex basis of degree <= top, all int32.

    `succ[v, k]` is the index of basis[k] + e_v for every row k of degree
    below top; `hankel[i, j]` the index of basis[i] + basis[j] for i, j
    below C(n + order, order)."""

    def __init__(self, basis: np.ndarray, order: int):
        """Tables of `basis`, a `monomial_basis` of degree top >= 2 order in
        any integer dtype, with a Hankel table of order `order`."""
        num_vars, top = basis.shape[1], int(basis[-1].sum())
        self.num_vars, self.top = num_vars, top
        # basis[k] + e_v raises the degree from variable i on by 1 for each
        # i <= v, so its index is k plus a running sum over the variables
        inner = basis[:_prefix(num_vars, top - 1)]
        after = np.cumsum(inner[:, ::-1], axis=1, dtype=np.intp)[:, ::-1]
        below = graded_lex_below(num_vars, top)
        count = num_vars - np.arange(num_vars)
        steps = below[after + 1, count] - below[after, count]
        succ = np.arange(len(inner))[:, None] + np.cumsum(steps, axis=1)
        self.succ = np.ascontiguousarray(succ.T, dtype=np.int32)
        # each row i > 0 of degree d is row p of degree d - 1 plus e_v, (p, v)
        # the first pair whose successor it is
        size = _prefix(num_vars, order)
        targets = self.succ[:, :_prefix(num_vars, order - 1)].T.ravel()
        first = np.unique(targets, return_index=True)[1]
        parent, var = np.divmod(np.concatenate([[0], first]), num_vars)
        self.order, self.hankel = order, np.empty((size, size), dtype=np.int32)
        self.hankel[0] = np.arange(size)
        for d in range(1, order + 1):
            rows = slice(_prefix(num_vars, d - 1), _prefix(num_vars, d))
            self.hankel[rows] = self.succ[var[rows, None], self.hankel[parent[rows]]]

    def restrict(self, order: int) -> None:
        """Keep only the corner of `hankel` up to `order`."""
        size = _prefix(self.num_vars, order)
        self.order, self.hankel = order, self.hankel[:size, :size].copy()


def check_pencil_indices(q: Polynomial, num_vars: int, order: int) -> None:
    """Raise PolynomialError when the pencil of q at `order` would index an
    entry (n^2 per term of q) or a moment past int32."""
    n, t, top = _prefix(num_vars, order), len(q.terms), 2 * order + q.degree
    if n * n * t > _INT32_MAX or _prefix(num_vars, top) > _INT32_MAX:
        raise PolynomialError(f"a pencil of dimension {n} with {t} terms and moments of "
                              f"degree {top} in {num_vars} variables exceeds 32-bit indices")


def _pencil(q: Polynomial, num_vars: int, order: int,
            tables: IndexTables | None) -> LinearMatrixForm:
    """Pencil with entry (i, j) = sum_gamma q_gamma m_{beta_i + beta_j + gamma}
    over the graded-lex basis beta of degree <= order, from `tables` (built
    here when None; they must reach degree 2 order + deg q and Hankel order
    `order`).

    The moments of term gamma are shift_gamma[hankel corner], shift_gamma
    being |gamma| `succ` gathers over the degree-2 order prefix.  The
    entries come row by row: (i, j), then the terms of q in graded-lex
    order of gamma.  Graded-lex is a monomial order, so the moments within
    one (i, j) ascend and the form is in row-major order as built.  The
    form keeps q's coefficients once, in their dict order, and the term of
    each entry, with i and j narrowed to the smallest type that holds
    n - 1.  Raises PolynomialError when an entry or moment index would not
    fit in int32 (`check_pencil_indices`), before any table is built."""
    check_pencil_indices(q, num_vars, order)
    n, t, top = _prefix(num_vars, order), len(q.terms), 2 * order + q.degree
    if tables is None:
        tables = IndexTables(monomial_basis(num_vars, top), order)
    if tables.top < top or tables.order < order:
        raise PolynomialError(f"index tables of degree {tables.top} and order "
                              f"{tables.order} cannot hold a pencil of degree {top} "
                              f"and order {order}")
    gammas = list(q.terms)
    by_position = np.argsort(graded_lex_index(np.array(gammas).reshape(t, num_vars)))
    corner = tables.hankel[:n, :n]
    span = np.arange(_prefix(num_vars, 2 * order), dtype=np.int32)
    moments = np.empty((n, n, t), dtype=np.int32)
    for k, g in enumerate(by_position.tolist()):
        shift = span
        for v, e in enumerate(gammas[g]):
            for _ in range(e):
                shift = tables.succ[v, shift]
        moments[:, :, k] = shift[corner]
    index, narrow = np.min_scalar_type(n - 1), np.min_scalar_type(t - 1)
    line = np.arange(n, dtype=index)
    term = (np.broadcast_to(np.uint8(0), (n * n,)) if t == 1  # readers only gather
            else np.tile(by_position.astype(narrow), n * n))
    return LinearMatrixForm(n, num_vars, np.repeat(line, n * t), np.tile(np.repeat(line, t), n),
                            moments.reshape(-1), term,
                            np.array(list(q.terms.values()), dtype=float))


def moment_matrix_form(num_vars: int, order: int,
                       tables: IndexTables | None = None) -> LinearMatrixForm:
    """Pencil of the moment matrix truncated to `order`: entry (i, j) is
    m_{beta_i + beta_j} over the graded-lex basis."""
    one = Polynomial.constant(num_vars, 1.0)
    return _pencil(one, num_vars, order, tables)


def localizing_matrix_form(q: Polynomial, num_vars: int, order: int,
                           tables: IndexTables | None = None) -> LinearMatrixForm:
    """Pencil of the localizing matrix of q at `order`: entry (i, j) is
    sum_gamma q_gamma m_{beta_i + beta_j + gamma}."""
    if q.num_vars != num_vars:
        raise PolynomialError(
            f"localizing polynomial has {q.num_vars} vars, expected {num_vars}"
        )
    return _pencil(q, num_vars, order, tables)


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
