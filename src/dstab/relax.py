"""Assembly of the order-tau moment relaxation as a concrete SDP.

The relaxation maximizes sum_alpha h_alpha m_alpha over truncated moment
vectors m subject to: the normalization m_0...0 = 1, positive
semidefiniteness of the moment matrix at order tau, and one localizing
matrix per support constraint at order tau - ceil(deg q / 2): positive
semidefinite for an inequality q >= 0, and zero entry by entry,
M(q m) = 0, for an equality q = 0.  An expectation constraint is the same
thing at order 0 (Lasserre, "A semidefinite programming approach to the
generalized problem of moments", Math. Program. 112, 2008): E[f] <= t is
the 1x1 localizer of t - f, which must be >= 0, E[f] >= t that of f - t,
and E[f] = t the 1x1 equality form of f - t; given m_0 = 1 each is the
expectation constraint itself.  So the normalization is the only linear
row.  The PSD blocks and the equality forms are kept apart
(`SDPProblem.psd_blocks` and `SDPProblem.equalities`); each equality is
assembled once.

For conditioning, the moment variables are rescaled: each coordinate z_i is
divided by its magnitude s_i (box half-width for rho, ball radius for the
eigenvalue coordinates), which multiplies m_alpha by prod s_i^-alpha_i.
Constraint polynomials, expectation ones included, are additionally
normalized to unit max coefficient.
The transformation is undone when solutions are reported, and it is exact:
the optimum value of the scaled SDP equals the unscaled one.  Where the
lift knows a bound on every coordinate, every scaled coordinate of a point
of the support has |z_i| / s_i <= 1, so the scaled moments of a probability
measure on the support are bounded too; the solver turns these a-priori
moment bounds into a rigorous upper bound on the optimal value.

Assembly also finds the sign symmetries of the relaxation: the flips
z_i -> -z_i over a subset s of the coordinates that map it onto itself.
Under such a flip m_alpha changes sign when sum_{i in s} alpha_i is odd, a
moment or localizing matrix of an even polynomial becomes D M D with D a
diagonal of signs, and the localizer of an odd polynomial becomes D M D of
its negation.  So the relaxation is invariant when the objective and the
polynomial of every inequality are even under s, except that the
polynomial of an equality need only have uniform parity (all terms odd or
all even).  Read on the exponents mod 2, these conditions are linear over
GF(2); the valid s form a subspace whose basis is stored as
`SDPProblem.sign_symmetries`.  Averaging over the group they generate turns
any optimal measure into an invariant one whose odd moments vanish, which
is what the solver exploits (Gatermann and Parrilo, JPAA 192, 2004; Riener,
Theobald, Andren and Lasserre, Math. Oper. Res. 38(1), 2013).  Detection
reads polynomial parities only; there is no user flag.

A complex-mode lift has one more symmetry: an eigenvector x = xre + i xim
is fixed only up to a phase, so the quarter turn T, (xre, xim) ->
(-xim, xre), maps the eigen equations of the real and imaginary parts onto
each other (one with a sign) and leaves the norm bound and the objective
alone.  Under T the moment m_alpha of the turned measure is
(-1)^|alpha_xre| m_sigma(alpha), sigma swapping the xre and xim exponents,
and the localizer of q becomes a signed permutation of that of q(T z).
Assembly stores the turn as `SDPProblem.quarter_turn` when the objective
and every inequality map onto themselves, so each PSD block does too (as
`sdp` needs), and every equality onto one of the same order up to sign.
In a lift of `build_lifted` x enters no inequality but the norm bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import (IndexTables, LinearMatrixForm, MomentVector, check_pencil_indices,
                      localizing_matrix_form, moment_matrix_form)
from .poly import Polynomial, graded_lex_index, monomial_basis
from .problem import LiftedProblem, minimal_order
from .sets import Relation


class RelaxationError(ValueError):
    pass


@dataclass(frozen=True)
class SDPProblem:
    """Concrete moment SDP: maximize objective . m subject to the
    normalization m_0 = 1, the PSD pencil blocks and the equality forms
    (all expressed in scaled moments).  `basis` holds the graded-lex
    exponents of the moments in the narrowest unsigned type that holds
    2 tau (uint8 in practice), so a reader widens them before arithmetic.

    `psd_blocks` holds the moment matrix, the 1x1 localizer of each
    one-sided expectation constraint and one localizer per support
    inequality; `equalities` holds the 1x1 form of each expectation
    equality and the localizing form of each support equality, which must
    vanish entry by entry.  Both label the form of lifted expectation
    constraint k as `moment[k]` and a localizer of support constraint j as
    `q[j]`.

    `moment_bounds[k]` bounds |m_k| for the scaled moments of every
    probability measure on the lifted support (inf where no bound is
    known; None when no bound is known for any moment).

    `sign_symmetries` is derived data: a basis of the sign flips that leave
    the relaxation invariant, each given as the sorted indices of the
    coordinates it flips (see the module docstring).  The solver fixes
    the moments that are odd under any of them at 0; an SDP with no
    generators is solved without that reduction.

    `x_coordinates` is derived data too: the indices of the eigenvector
    coordinates x, in which the lift is linear.  The solver keeps only the
    part of the relaxation of x-degree <= 2 (see `sdp`); an SDP without
    them is solved untruncated.

    `quarter_turn` is derived data as well: (xre indices, xim indices) when
    the quarter turn (xre, xim) -> (-xim, xre) leaves the relaxation
    invariant, each PSD block onto itself (see the module docstring), else
    ().  The solver then folds every moment orbit of the turn and the sign
    flips into one variable."""

    tau: int
    basis: np.ndarray
    objective: np.ndarray
    psd_blocks: tuple[tuple[str, LinearMatrixForm], ...]
    scale_pow: np.ndarray
    z_vars: tuple[str, ...]
    moment_bounds: np.ndarray | None = None
    sign_symmetries: tuple[tuple[int, ...], ...] = ()
    equalities: tuple[tuple[str, LinearMatrixForm], ...] = ()
    x_coordinates: tuple[int, ...] = ()
    quarter_turn: tuple[tuple[int, ...], ...] = ()

    @property
    def n_z(self) -> int:
        return len(self.z_vars)

    @property
    def num_moments(self) -> int:
        return len(self.basis)


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    SLOW_PROGRESS = "SlowProgress"
    ITER_LIMIT = "IterLimit"


@dataclass(frozen=True)
class SDPSolution:
    """Solver output for a moment SDP.

    `moments` holds the unscaled moment vector (true moments of z).
    `primal_value` is the objective at the final primal iterate (the "raw
    value"); it approaches the optimum from below only to within solver
    tolerance, so it is no bound.  `dual_value` is the dual objective at
    the final dual iterate; it is no bound either while the dual residual is
    nonzero.  `upper_bound` is the rigorous one: the dual value plus the
    worst effect of the dual residual and of any negative dual eigenvalue on
    the moment vector of a probability measure on the support (Jansson,
    Chaykin and Keil, SIAM J. Numer. Anal. 46(1), 2007).  It holds whatever
    the status and accuracy of the solve, and it is +inf when the SDP
    carries no finite a-priori moment bounds.  The multiplier of the
    normalization, the only linear row, is `dual_value` itself.
    `dual_psd_blocks` follow `psd_blocks`; `equality_duals` follow
    `equalities`, one symmetric multiplier matrix W_e each, which enters
    dual stationarity as A_e*(W_e) just as a PSD dual block does, but
    carries no sign constraint.  Expectation constraints are among these
    forms, so their multipliers are 1x1 blocks.  Of equality rows equal up
    to sign after the reduction, the solver keeps one, and its multiplier is
    shared evenly, with signs, by them all, with or without a quarter turn.
    All of these have the full size of the SDP, whatever reduction the
    solver applied; `solved_moments` and `solved_blocks` record the size of
    the problem it actually iterated on (moment variables and PSD block
    dimensions after the reduction).  `seconds` is the wall time of the
    solve; for an SDP solved in a batch (`sdp.solve_many`), its own
    compile-and-reduce time plus the batch's run time divided by the number
    of SDPs in it.
    """

    moments: MomentVector
    primal_value: float
    dual_value: float
    dual_psd_blocks: tuple[np.ndarray, ...]
    status: SolverStatus
    iterations: int
    residuals: dict = field(default_factory=dict)
    infeasibility_ray: dict | None = None
    upper_bound: float = math.inf
    solved_moments: int = 0
    solved_blocks: tuple[int, ...] = ()
    equality_duals: tuple[np.ndarray, ...] = ()
    seconds: float = field(default=0.0, compare=False)

    @property
    def optimal(self) -> bool:
        return self.status is SolverStatus.OPTIMAL


def _scale_polynomial(p: Polynomial, scales) -> Polynomial:
    """p(S z~) for the diagonal substitution z = S z~."""
    out = {}
    for alpha, coeff in p.terms.items():
        factor = 1.0
        for s, e in zip(scales, alpha):
            if e:
                factor *= s ** e
        out[alpha] = coeff * factor
    return Polynomial(p.num_vars, out)


def _normalize(p: Polynomial) -> Polynomial:
    scale = p.max_abs_coeff()
    return p.scale(1.0 / scale) if scale > 0 else p


def _parity(alpha) -> int:
    """Exponent vector mod 2 as a bit mask over the coordinates."""
    return sum(1 << i for i, e in enumerate(alpha) if e % 2)


def _sign_symmetries(even, uniform, n_z: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the sign flips s (sets of coordinates) under which every
    polynomial in `even` is even and every polynomial in `uniform` has
    uniform parity.

    Each term alpha of an even polynomial gives the GF(2) equation
    <alpha mod 2, s> = 0, and each pair of terms of a uniform one gives
    <alpha + beta mod 2, s> = 0; the flips are the null space of these
    rows, returned as one generator per free column of their reduced row
    echelon form."""
    rows = set()
    for p in even:
        rows.update(_parity(alpha) for alpha in p.terms)
    for p in uniform:
        parities = [_parity(alpha) for alpha in p.terms]
        rows.update(b ^ parities[0] for b in parities)
    pivots: dict[int, int] = {}  # pivot column -> reduced row
    for row in rows:
        for col, pivot_row in pivots.items():
            if row >> col & 1:
                row ^= pivot_row
        if row:
            col = row.bit_length() - 1
            for other, other_row in pivots.items():
                if other_row >> col & 1:
                    pivots[other] = other_row ^ row
            pivots[col] = row
    generators = []
    for free in range(n_z):
        if free in pivots:
            continue
        flip = [free] + [col for col, row in pivots.items() if row >> free & 1]
        generators.append(tuple(sorted(flip)))
    return tuple(generators)


def _turned(p: Polynomial, re, im) -> Polynomial:
    """p(T z) for the quarter turn T: xre_j -> -xim_j, xim_j -> xre_j."""
    out = {}
    for alpha, coeff in p.terms.items():
        beta = list(alpha)
        for r, i in zip(re, im):
            beta[r], beta[i] = alpha[i], alpha[r]
        out[tuple(beta)] = -coeff if sum(alpha[r] for r in re) % 2 else coeff
    return Polynomial(p.num_vars, out)


def _quarter_turn(lifted: LiftedProblem, invariant: list,
                  equalities) -> tuple[tuple[int, ...], ...]:
    """(xre indices, xim indices) when the quarter turn maps each of the
    polynomials `invariant` to itself and each (polynomial, order) of
    `equalities` onto one of them up to sign; else ()."""
    if lifted.real_mode or not lifted.x_indices:
        return ()
    half = len(lifted.x_indices) // 2
    re, im = lifted.x_indices[:half], lifted.x_indices[half:]
    if any(_turned(q, re, im) != q for q in invariant):
        return ()
    equalities = set(equalities)
    for q, order in equalities:
        t = _turned(q, re, im)
        if (t, order) not in equalities and (-t, order) not in equalities:
            return ()
    return (tuple(re), tuple(im))


def assemble_relaxation(lifted: LiftedProblem, tau: int | None = None) -> SDPProblem:
    """Build the order-tau SDP for a lifted problem: a PSD localizer for
    each inequality and an equality form for each equality, support and
    expectation constraints alike.  tau None means the minimal order."""
    tau_min = minimal_order(lifted)
    tau = tau_min if tau is None else tau
    if tau < tau_min:
        raise RelaxationError(
            f"relaxation order {tau} is below the minimal order {tau_min}"
        )

    n_z = lifted.num_vars
    scales = lifted.var_scales
    objective_scaled = _scale_polynomial(lifted.objective, scales)
    # (label, polynomial, order, equality) of each localizer: expectation
    # constraint k (from 1; moment[0] is the normalization) as the order-0
    # localizer of t - f or f - t, or the 1x1 equality form of f - t
    localizers = []
    for k, (f, rel, target) in enumerate(lifted.moment_constraints, start=1):
        q = _scale_polynomial(f, scales) - target
        q = _normalize(-q if rel == "<=" else q)
        if not q.is_zero():
            localizers.append((f"moment[{k}]", q, 0, rel == "="))
    for j, (q, rel) in enumerate(lifted.support.constraints):
        q = _normalize(_scale_polynomial(q, scales))
        if not q.is_zero():
            localizers.append((f"q[{j}]", q, tau - math.ceil(q.degree / 2), rel is Relation.EQ))

    # every form's indices fit in int32, checked before any table is built
    check_pencil_indices(Polynomial.constant(n_z, 1.0), n_z, tau)
    for _label, q, order, _equality in localizers:
        check_pencil_indices(q, n_z, order)

    basis = monomial_basis(n_z, 2 * tau)
    num_moments = len(basis)

    # |z_i / s_i| <= b_i / s_i on the support, so |m_alpha| <= prod of powers
    ratios = [math.inf] * n_z if lifted.var_bounds is None else [
        b / s for b, s in zip(lifted.var_bounds, scales)
    ]
    # one variable at a time, in variable order, from tables of the Python
    # powers s ** e (1.0 at e = 0), so each product has the bits of the
    # element-by-element one; inf * 0 and overflow stay silent as on floats
    scale_pow = np.ones(num_moments)
    moment_bounds = np.ones(num_moments)
    with np.errstate(over="ignore", invalid="ignore"):
        for column, s, r in zip(basis.T, scales, ratios):
            powers = range(1, int(column.max(initial=0)) + 1)
            scale_pow *= np.array([1.0] + [s ** e for e in powers])[column]
            moment_bounds *= np.array([1.0] + [r ** e for e in powers])[column]

    objective = np.zeros(num_moments)
    alphas = np.array(list(objective_scaled.terms), dtype=np.intp).reshape(-1, n_z)
    objective[graded_lex_index(alphas)] = list(objective_scaled.terms.values())

    # one index table per relaxation; the localizers need only its corner
    tables = IndexTables(basis, tau)
    blocks = [("moment", moment_matrix_form(n_z, tau, tables))]
    tables.restrict(max((order for _label, _q, order, _eq in localizers), default=0))
    equalities = []
    for label, q, order, equality in localizers:
        form = localizing_matrix_form(q, n_z, order, tables)
        (equalities if equality else blocks).append((label, form))
    # the polynomials the symmetries keep, and the equalities with orders
    invariant = [objective_scaled] + [q for _label, q, _order, equality in localizers
                                      if not equality]
    eq_polys = [(q, order) for _label, q, order, equality in localizers if equality]

    return SDPProblem(
        tau=tau,
        basis=basis,
        objective=objective,
        psd_blocks=tuple(blocks),
        scale_pow=scale_pow,
        z_vars=lifted.z_vars,
        moment_bounds=moment_bounds,
        sign_symmetries=_sign_symmetries(invariant, [q for q, _ in eq_polys], n_z),
        equalities=tuple(equalities),
        x_coordinates=lifted.x_indices,
        quarter_turn=_quarter_turn(lifted, invariant, eq_polys),
    )


def _file_blocks(sdp: SDPProblem) -> list[tuple[str, LinearMatrixForm, float]]:
    """(label, form, sign) of each block of the DSTAB-SDP 1 file: the moment
    matrix, the expectation constraints in constraint order, then the
    support localizers in support order.  The file encodes an equality
    form as the PSD pair label+ (the form) and label- (the negated form)."""
    blocks = [(label, form, 1.0) for label, form in sdp.psd_blocks]
    for label, form in sdp.equalities:
        blocks += [(label + "+", form, 1.0), (label + "-", form, -1.0)]

    def file_order(block) -> tuple[bool, int]:
        name, _, index = block[0].rstrip("+-").partition("[")
        return name == "q", int(index[:-1] or -1)

    return sorted(blocks, key=file_order)


# cells per write (at least one line): the export holds one slice's bytes
_SLICE_CELLS = 1 << 14


def _words(texts) -> np.ndarray:
    """The (len(texts), k) table of ASCII texts, zero-padded to the narrowest
    uint16, uint32 or uint64 word that holds the longest, or to k uint64
    words past 8 bytes.  No text holds a NUL, so every NUL is padding."""
    texts = np.asarray(texts, dtype=np.bytes_)
    width = texts.itemsize
    word = 2 if width <= 2 else 4 if width <= 4 else 8
    table = np.zeros((len(texts), -(-width // word) * word), dtype=np.uint8)
    table[:, :width] = texts.view(np.uint8).reshape(len(texts), width)
    return table.view(f"u{word}")


def _numbers(count: int, end: bytes) -> np.ndarray:
    """The table of the texts f"{i}{end}" for i < count, built in numpy with
    the digits right-aligned: digit k of i is written where i >= 10^k or
    k = 0 (counts stay below 2^31, as the forms index moments in int32)."""
    width = len(str(count - 1))
    texts = np.zeros((count, width + 1), dtype=np.uint8)
    texts[:, width] = end[0]
    number = np.arange(count, dtype=np.uint32)
    for k in range(width):
        lo = 10 ** k if k else 0
        texts[lo:, width - 1 - k] = number[lo:] % 10 + ord("0")
        number //= 10
    return _words(texts.view(f"S{width + 1}").ravel())


def _write_rows(handle, count: int, columns) -> None:
    """Write `count` lines, in slices of at most `_SLICE_CELLS` cells or one
    line.  A column (table, indices) gives line i the words table[indices[i]];
    each slice gathers them into one buffer and drops its padding."""
    offsets = np.cumsum([0] + [table.shape[1] * table.itemsize for table, _indices in columns])
    step = max(1, _SLICE_CELLS // len(columns))
    buf = np.empty((min(step, count), offsets[-1]), dtype=np.uint8)
    for lo in range(0, count, step):
        part = slice(lo, min(lo + step, count))
        lines = buf[:part.stop - lo]
        for (table, indices), start, stop in zip(columns, offsets, offsets[1:]):
            lines[:, start:stop].view(table.dtype)[...] = np.take(table, indices[part], 0)
        handle.write(lines.tobytes().translate(None, b"\0"))


def export_sdp(sdp: SDPProblem, path) -> tuple[int, ...]:
    """Write the assembled SDP in a plain sparse text format and return the
    dimensions of the blocks written, in file order.

    Layout: a header with the dimensions, the graded-lex basis (one
    exponent vector per line), the objective as (moment-index, coefficient)
    pairs, the normalization as the one linear row `constraint 0`, then
    each PSD block as (row, col, moment-index, coefficient) quadruples in
    the order its form holds them (row by row, then by moment), with every
    equality form written as a +/- block pair.  Indices are
    zero-based.  Lines end in "\\n" on every platform.

    Every text a column can hold is formatted once into a table of words
    (`_words`): the integers in numpy, the objective's values and each
    block's coefficients by `repr`.  A form's indices, its term indices
    among them, only select words.  Each section is written in slices of
    at most `_SLICE_CELLS` cells, one gathered byte buffer each."""
    blocks = _file_blocks(sdp)
    dims = tuple(form.dimension for _label, form, _sign in blocks)
    # moment indices (basis line numbers too), and row and column indices per dimension
    moments = _numbers(sdp.num_moments, b" ")
    dimensions = {dim: _numbers(dim, b" ") for dim in set(dims)}
    basis = sdp.basis
    nnz = np.nonzero(sdp.objective)[0]
    with open(path, "wb") as handle:
        handle.write(f"DSTAB-SDP 1\nnz {sdp.n_z} tau {sdp.tau} moments {sdp.num_moments}\n"
                     f"zvars {' '.join(sdp.z_vars)}\nbasis\n".encode())
        exponents = _numbers(int(basis.max()) + 1, b" ")
        _write_rows(handle, len(basis), [(moments, np.arange(len(basis)))]
                    + [(exponents, e) for e in basis.T[:-1]]
                    + [(_numbers(len(exponents), b"\n"), basis[:, -1])])
        handle.write(f"objective {len(nnz)}\n".encode())
        values = _words([f"{v!r}\n" for v in sdp.objective[nnz].tolist()])
        _write_rows(handle, len(nnz), [(moments, nnz), (values, np.arange(len(nnz)))])
        handle.write(b"constraint 0 = 1.0 1 moment[0]\n0 1.0\n")
        for k, (label, form, sign) in enumerate(blocks):
            handle.write(f"block {k} {form.dimension} {len(form.term)} {label}\n".encode())
            indices = dimensions[form.dimension]
            values = _words([f"{sign * c!r}\n" for c in form.coeffs.tolist()])
            _write_rows(handle, len(form.term), [(indices, form.rows), (indices, form.cols),
                                                 (moments, form.moments), (values, form.term)])
        handle.write(b"end\n")
    return dims
