"""Dense primal-dual interior-point solver for moment-form SDPs.

The solver works on the internal minimization form

    min  c . y     s.t.   G y = g,    S_b = A_b(y)  PSD  for each block b,

where y is the vector of scaled moments.  G holds the normalization
y_0 = 1, the only linear row of the SDP (the constant monomial heads every
graded-lex basis, so y_0 is its moment), and, for each equality form
A_e(y) = 0 (support equalities and expectation equalities alike), one row
per upper-triangle entry of A_e in row-major order; all-zero rows are
dropped and a row equal to an earlier one is kept once.
The PSD blocks are the moment matrix and the localizers of the
inequalities, expectation constraints among them as 1x1 blocks (`relax`).
Each block, each piece of a block (see below) and each equality form is
held as one pencil, the sparse matrix P with P y = vec A(y) (row r k + c
for entry (r, c), one column per moment; Vandenberghe and Boyd, SIAM
Review 38(1), 1996), kept as numpy entry arrays: assembly P y and the
adjoint P' vec(X) are one `np.bincount` each.
G is assembled sparse; only its part on the live rows and kept moments
(see below) becomes dense for the iteration.
The engine's maximization objective is negated on entry and the reported
values are mapped back, so `primal_value` is the relaxation value at the
final primal iterate and `dual_value` the dual objective at the final dual
iterate.  Neither is a safe bound on its own; `upper_bound` is, by the
a-posteriori error bound of Jansson, Chaykin and Keil (SIAM J. Numer. Anal.
46(1), 2007) over the a-priori moment bounds of the relaxation, with an
allowance for the rounding of its own evaluation.

Reduction, before the iteration:

- the SDP is truncated to eigenvector degree 2.  The lift is linear in
  the eigenvector x (`SDPProblem.x_coordinates`): the eigen equations have
  x-degree 1, the norm bound and the objective x-degree 2, so the
  (rho, lambda) marginal and the matrix measure E[x x' | rho, lambda]
  carry the whole problem (Henrion and Lasserre, IEEE TAC 51(2), 2006).
  Each PSD block keeps the rows r with 2 xdeg(beta_r) + xdeg(q) <= 2 (for
  the norm bound the rows of x-degree 0, for the other blocks those of
  x-degree <= 1), each equality form the entries (r, c) with
  xdeg(beta_r) + xdeg(beta_c) + xdeg(q) <= 2, and a moment is kept only
  if a kept PSD entry uses it: exactly the moments of x-degree <= 2.
  Every kept block is a principal submatrix of a full one and the kept
  equality entries are a subset, so the truncated value can only be
  higher: it is still an upper bound;
- every moment that is odd under one of the SDP's sign symmetries
  (`SDPProblem.sign_symmetries`, found by `relax`) is fixed at 0: an
  invariant optimum exists, whose odd moments vanish.  Equality rows left
  empty are dropped;
- every block is split into the connected components of the sparsity
  pattern that remains.  A matrix that is block-diagonal up to a
  permutation is PSD exactly when its diagonal pieces are, so this step is
  exact for any block.  For the order-3 Hurwitz relaxation the three
  steps take 1716 moments and a 120x120 moment block to 234 moments and
  pieces of at most 20x20.

The reduced SDP is solved, and moments, multipliers and dual blocks are
scattered back to the full size in the original order (zero
dropped moments, block-diagonal duals that are zero off the kept rows);
the multipliers of each equality's rows are gathered into its multiplier
matrix.  `upper_bound` is evaluated on the full problem from the
scattered dual; since it holds for any dual, a wrong symmetry could only
loosen it, never make it unsound.  The dual residual on a moment of
x-degree > 2 is exactly its objective coefficient, 0.

Algorithm: infeasible-start path following in the Nesterov-Todd scaling.
Each iteration linearizes the centering condition X = sigma*mu*S^-1 with
the symmetric operator V(.)V (V the inverse NT scaling point, so the Newton
direction satisfies the linearized equations exactly and the Schur
complement tr(A_i V A_j V) is symmetric positive definite), takes an
affine predictor step (dX_a, dS_a) to pick the centering weight sigma by
Mehrotra's rule, then recomputes the direction with the right-hand side
dX + V dS V = C, C = sigma*mu*S^-1 - X - G Z G'.  G Z G' is Mehrotra's
second-order term (Mehrotra, SIAM J. Optim. 2(4), 1992) in the NT scaling
(Todd, Toh and Tutuncu, SIAM J. Optim. 8(3), 1998): with S = L L',
eig(L' X L) = U diag(d) U', G = L^-T U diag(d^1/4) (so V = G G') and
lambda = sqrt(d), Z_ij = M_ij / (lambda_i + lambda_j) for
M = X~ S~ + S~ X~, X~ = G^-1 dX_a G^-T, S~ = G' dS_a G.  The term is left
out once the worst of the relative residuals and the gap is within 100
times the larger of `feasibility_tol` and `gap_tol`: kept to the end, it
drove a running-example solve that met every tolerance to a value just
above its own rigorous bound, and from there to SlowProgress.  Each
Newton system gets one step of iterative refinement, and steps use a
fraction-to-boundary rule.  The Cholesky factors of S and X that the
definiteness check of a committed step computes are the next iteration's
factors, and each inverse factor is taken once per iterate, for the NT
scaling and all four step-length tests.
An iterate is Optimal when the residuals and the gap meet the tolerances
and, given finite a-priori moment bounds, its value does not exceed the
rigorous bound of its own dual iterate: a higher value proves the primal
iterate infeasible.  On degenerate relaxations the stopped-short equality
rows and PSD residual, weighted by large multipliers, can otherwise
outweigh the complementarity gap.
Blocks of equal dimension are stacked, so the NT scaling, the step-length
eigenvalues (primal and dual in one call) and the definiteness checks
take one batched numpy call per dimension, however many small blocks the
splitting produces.  Everything
is plain deterministic numpy: fixed summation order, no randomization, so
identical inputs produce identical iterates for a fixed BLAS library and
thread count.  Numerical breakdown (a Schur complement that loses positive
definiteness, or a vanishing step) is reported as SlowProgress together
with the best iterate seen; it never raises.

The iteration runs over a leading instance axis (`solve_many`).  SDPs that
reduce to the same structure (the same kept moments, live rows of G and
piece rows and columns of every pencil) differ only in values: pencil
values, c, G, g and the a-priori bounds.  They are solved in one run: every
stack is (B, pieces, k, k), the Schur complements are one (B, n, n) array
with one stacked Cholesky (the jitter ladder runs per instance, and only
when that Cholesky fails), and mu, sigma, the step lengths, the stopping
and infeasibility tests, the best iterate and the stall count are per
instance.  An instance leaves the arrays when it stops.
Each operation acts on the matrices of one instance at a time, in the
same memory layout whatever B is, so every instance's iterates are
bit-identical to those of its solve alone; `solve` is `solve_many` of one
SDP.  The per-call numpy overhead, which dominates small SDPs, is paid
once per run instead of once per SDP.  A run takes instances only while
their footprints stay within `_BATCH_DOUBLES` (2^22 doubles, 32 MB).  An
instance's footprint is counted as 4 (n^2 + sum of u k^2 over its pieces,
u the moments a k x k piece uses): its Schur complement, factor and their
temporaries, and the dense matrices, Gram weights and work space of its
pieces.  It is 6.6 MB for the order-3 Hurwitz relaxation, whose batched
instances peaked at 6.4 MB each (tracemalloc, four in one run), so four
share a run; a larger SDP is solved alone.  Only a run with one instance
live recovers from a breakdown or backs off a step; with more it raises.
A run that raises is repeated one SDP at a time, and an SDP whose
lowering, run or scatter-back raises gets its exception in place of a
solution.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .moments import MomentVector
from .relax import SDPProblem, SDPSolution, SolverStatus


@dataclass(frozen=True)
class SolverSettings:
    """Interior-point knobs; the defaults suit desk-scale moment SDPs.
    `log_stream` receives one line per iteration; None writes no log."""

    max_iterations: int = 200
    feasibility_tol: float = 1e-8
    gap_tol: float = 1e-8
    log_stream: object = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("feasibility_tol", "gap_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# Fraction-to-boundary factor of every step.
_STEP_FRACTION = 0.98
# The corrector's second-order term is used only while the worst of the
# residuals and the gap exceeds this multiple of the larger tolerance.
_SECOND_ORDER_SWITCH = 100.0
# Certificate-quality ratio (normalized dual-ray objective over dual-ray
# residual) above which the problem is reported infeasible; the test is a
# heuristic, not a proof.
_INFEASIBILITY_THRESHOLD = 1e5


class _Pencil:
    """A sparse matrix held as its entries, in row-major order: `rows`
    ascending, `cols` ascending within a row, each (row, col) once.  The
    product P @ y and the adjoint P' w are one `np.bincount` each, which adds
    the terms of an output component in that order, starting from 0, as a
    compressed-row product does."""

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape: tuple[int, int], rows, cols, vals):
        self.shape = shape
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * y[self.cols], minlength=self.shape[0])

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, self.vals * w[self.rows], minlength=self.shape[1])

    def take_rows(self, idx: np.ndarray) -> _Pencil:
        """The rows idx (ascending, distinct), renumbered 0, 1, ..."""
        pos = np.full(self.shape[0], -1)
        pos[idx] = np.arange(len(idx))
        new = pos[self.rows]
        hit = new >= 0
        return _Pencil((len(idx), self.shape[1]), new[hit], self.cols[hit], self.vals[hit])

    def take_cols(self, idx: np.ndarray) -> _Pencil:
        """The columns idx (ascending, distinct), renumbered 0, 1, ..."""
        pos = np.full(self.shape[1], -1)
        pos[idx] = np.arange(len(idx))
        new = pos[self.cols]
        hit = new >= 0
        return _Pencil((self.shape[0], len(idx)), self.rows[hit], new[hit], self.vals[hit])

    def rows_using(self, columns: np.ndarray) -> np.ndarray:
        """Mask of the rows with a nonzero entry in one of the columns (a
        boolean mask over the columns)."""
        hit = np.zeros(self.shape[0], dtype=bool)
        hit[self.rows[columns[self.cols] & (self.vals != 0)]] = True
        return hit

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def _vstack(pencils: list) -> _Pencil:
    offsets = np.cumsum([0] + [p.shape[0] for p in pencils])
    return _Pencil(
        (int(offsets[-1]), pencils[0].shape[1]),
        np.concatenate([p.rows + o for p, o in zip(pencils, offsets)]),
        np.concatenate([p.cols for p in pencils]),
        np.concatenate([p.vals for p in pencils]),
    )


# A multiply-add through `np.bincount` costs about as much as this many
# inside a dense matrix product (measured with one BLAS thread); it picks the
# cheaper of the two Schur products of a piece.
_SPARSE_COST = 100


class _Group:
    """All pieces of one dimension k, for each of B instances of one
    structure (`solve_many`), stacked: S, X, their scaling points and steps
    are (B, pieces, k, k) arrays, so every dense operation on them is one
    numpy call.  The pieces share their rows and columns across instances;
    only the values differ.  All of them are one block-diagonal pencil, a
    block per instance, so A(y) and A*(W) of every instance are one
    `np.bincount` each."""

    def __init__(self, k: int, instances: list):
        """`instances` holds, per instance, the pencils of its pieces of
        dimension k."""
        self.dim, self.size, self.instances = k, len(instances[0]), instances
        n_inst = len(instances)
        stacked = [_vstack(pencils) for pencils in instances]
        pencil = stacked[0]
        # each instance's rows and columns, past those of the ones before
        offsets = np.arange(n_inst)[:, None]
        self.block = _Pencil((n_inst * pencil.shape[0], n_inst * pencil.shape[1]),
                             (offsets * pencil.shape[0] + pencil.rows).ravel(),
                             (offsets * pencil.shape[1] + pencil.cols).ravel(),
                             np.concatenate([p.vals for p in stacked]))
        if k == 1:
            # tr(A_i V A_j V) = v^2 a_i a_j: one dense update over the used
            # variables replaces a call per piece
            used = np.flatnonzero(np.bincount(pencil.cols))
            self.place = (slice(None), used[:, None], used)
            self.coef = np.stack([p.take_cols(used).toarray() for p in stacked])
            return
        # Per piece, built once: the variables it uses, their matrices A_i
        # as one dense (B, n, k, k) stack, and the upper-triangle entries of
        # the A_j with the off-diagonal ones doubled, for
        # tr(A_i V A_j V) = <V A_i V, A_j>.  Dense, they are a (B, n,
        # k(k+1)/2) array; sparse, the flat position, weight and variable
        # of each entry.  The variables go in chunks, each with its part of
        # the stack, its place in h and the work space for the products
        # A_i V and V A_i V, reused across iterations.
        chunk = max(1, int(2.0e6 // (k * k)))
        tri = np.flatnonzero(np.triu(np.ones((k, k), dtype=bool)))
        uses = [np.flatnonzero(np.bincount(p.cols)) for p in instances[0]]
        work = np.empty((2, n_inst, min(chunk, max(map(len, uses))), k, k))
        self.pieces = []
        for j, (p, used) in enumerate(zip(instances[0], uses)):
            vals = np.stack([pencils[j].vals for pencils in instances])
            n = len(used)
            stack = np.zeros((n_inst, n, k * k))
            stack[:, np.searchsorted(used, p.cols), p.rows] = vals
            r, c = np.divmod(p.rows, k)
            upper = r <= c
            if n * len(tri) <= _SPARSE_COST * upper.sum():
                gram = (tri, stack[:, :, tri] * np.where(tri % (k + 1) == 0, 1.0, 2.0), None)
            else:
                gram = (p.rows[upper], np.where(r == c, 1.0, 2.0)[upper] * vals[:, upper],
                        np.searchsorted(used, p.cols[upper]))
            stack = stack.reshape(n_inst, n, k, k)
            parts = [(stack[:, a:a + chunk], (slice(None), used[a:a + chunk, None], used),
                      work[:, :, :min(chunk, n - a)]) for a in range(0, n, chunk)]
            self.pieces.append((n, gram, parts))

    def take(self, rows: np.ndarray) -> _Group:
        """The group of the instances `rows` (an index array)."""
        return _Group(self.dim, [self.instances[i] for i in rows])

    def assemble(self, y: np.ndarray) -> np.ndarray:
        """A(y) of every instance: y is (B, n), the result (B, pieces, k, k)."""
        return (self.block @ y.ravel()).reshape(len(y), -1, self.dim, self.dim)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """A*(W) of every instance: W is (B, pieces, k, k), the result (B, n)."""
        return self.block.adjoint(w.ravel()).reshape(len(w), -1)

    def schur_into(self, h: np.ndarray, v: np.ndarray) -> None:
        """h += the Schur contribution tr(A_i V A_j V) of every piece of
        every instance (h is (B, n, n), V (B, pieces, k, k)), in chunks of
        variables so the products V A_i V never take much memory."""
        k, n_inst = self.dim, len(h)
        if k == 1:
            h[self.place] += self.coef.swapaxes(1, 2) @ (v.reshape(n_inst, -1, 1) ** 2 * self.coef)
            return
        for (n, (where, weights, var), parts), vb in zip(self.pieces, v.swapaxes(0, 1)):
            vb = vb[:, None]
            for part, place, (av, g) in parts:
                np.matmul(vb, np.matmul(part, vb, out=av), out=g)
                g = g.reshape(n_inst, -1, k * k)[:, :, where]
                if var is None:
                    rows = g @ weights.swapaxes(1, 2)
                else:
                    # the chunk rows of all instances, one after the other
                    g *= weights[:, None]
                    count = g.shape[0] * g.shape[1]
                    slots = (np.arange(count)[:, None] * n + var).ravel()
                    rows = np.bincount(slots, g.ravel(), minlength=count * n).reshape(n_inst, -1, n)
                h[place] += rows


def _pencil(sdp: SDPProblem, form) -> _Pencil:
    """The pencil A(y) = sum_i y_i A_i of a form as one sparse matrix P of
    shape (k^2, num_moments) with P y = vec A(y): row r k + c holds entry
    (r, c), column i the moment y_i.  A form holds each entry of each B_alpha
    once (`moments`), so P is the form's entry arrays in row-major order."""
    k, n_y = form.dimension, sdp.num_moments
    flat = form.rows * k + form.cols
    order = np.argsort(flat * n_y + form.moments)
    return _Pencil((k * k, n_y), flat[order], form.moments[order], form.vals[order])


def _compile(sdp: SDPProblem):
    """Lower the SDP into solver arrays: the objective c, the linear rows
    G y = g (the normalization, then the rows of the equality forms), the
    layout of the equality rows (`_equality_rows`), and each PSD block as
    (dimension, pencil)."""
    norm_row = _Pencil((1, sdp.num_moments), [0], [0], [1.0])
    eq_rows, eq_layout = _equality_rows(sdp)
    g_mat = _vstack([norm_row, eq_rows])
    g_vec = np.zeros(g_mat.shape[0])
    g_vec[0] = 1.0
    blocks = [(form.dimension, _pencil(sdp, form)) for _label, form in sdp.psd_blocks]
    return -sdp.objective, g_mat, g_vec, eq_layout, blocks  # the solver minimizes


def _equality_rows(sdp: SDPProblem):
    """The equality forms A_e(y) = 0 as sparse rows over y: the rows of
    their stacked pencils that belong to upper-triangle entries (r, c), in
    row-major order, all-zero rows dropped, and a row equal to an earlier
    one (of any equality) kept once, the first occurrence winning.

    Returns the rows (a pencil) and, per equality, its dimension and the
    entries (r, c) whose row was kept, with that row's position, from which
    the multiplier matrix is rebuilt (`_multiplier_matrices`)."""
    n_y = sdp.num_moments
    if not sdp.equalities:
        return _Pencil((0, n_y), [], [], []), []
    dims = [form.dimension for _label, form in sdp.equalities]
    offsets = np.concatenate([[0], np.cumsum([d * d for d in dims])]).astype(np.intp)
    upper = np.concatenate([offset + np.flatnonzero(np.triu(np.ones((d, d), dtype=bool)))
                            for d, offset in zip(dims, offsets)])
    entries = _vstack([_pencil(sdp, form) for _label, form in sdp.equalities]).take_rows(upper)
    # without stored zeros, equal rows have equal byte stamps
    nonzero = entries.vals != 0
    entries = _Pencil(entries.shape, entries.rows[nonzero], entries.cols[nonzero],
                      entries.vals[nonzero])
    starts = np.searchsorted(entries.rows, np.arange(len(upper) + 1))
    cols, vals = entries.cols, entries.vals
    seen: set[tuple[bytes, bytes]] = set()
    kept = []
    for row in np.flatnonzero(np.diff(starts)):
        lo, hi = starts[row], starts[row + 1]
        stamp = (cols[lo:hi].tobytes(), vals[lo:hi].tobytes())
        if stamp not in seen:
            seen.add(stamp)
            kept.append(row)
    kept = np.array(kept, dtype=np.intp)
    flat = upper[kept]
    layout = []
    for e, dim in enumerate(dims):
        pos = np.flatnonzero((flat >= offsets[e]) & (flat < offsets[e + 1]))
        r, cc = np.divmod(flat[pos] - offsets[e], dim)
        layout.append((dim, r, cc, pos))
    return entries.take_rows(kept), layout


def _multiplier_matrices(layout, multipliers: np.ndarray) -> list[np.ndarray]:
    """The multiplier matrix W_e of each equality from its row multipliers:
    A_e*(W_e) equals the rows' adjoint (the off-diagonal weight is split
    between the two triangles)."""
    out = []
    for dim, r, cc, pos in layout:
        w = np.zeros((dim, dim))
        weight = np.where(r == cc, 1.0, 0.5) * multipliers[pos]
        w[r, cc] = weight
        w[cc, r] = weight
        out.append(w)
    return out


def _rounding_allowance(c, g_mat, nu, blocks, x_blocks) -> np.ndarray:
    """Componentwise bound on the rounding error of the computed dual
    residual r_c = c - G'nu - sum_b A_b*(X_b): gamma_k times the same sum
    taken in absolute values, where gamma_k = k u / (1 - k u), u = 2^-53
    and k is the largest number of terms summed into one component (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 3.1)."""
    magnitude = np.abs(c)
    terms = np.ones(len(c), dtype=np.intp)
    for p, w in [(g_mat, nu)] + [(p, x.ravel()) for (_k, p), x in zip(blocks, x_blocks)]:
        magnitude += np.bincount(p.cols, np.abs(p.vals) * np.abs(w)[p.rows], minlength=len(c))
        terms += np.bincount(p.cols, minlength=len(c))
    ku = float(terms.max()) * 2.0 ** -53
    return ku / (1.0 - ku) * magnitude


def _rigorous_upper_bound(dual_value, r_c, allowance, blocks, x_blocks, y_bound) -> float:
    """Upper bound on the maximized objective -c.y over every feasible y
    with |y| <= y_bound, from any dual iterate (nu, X).  With the dual
    residual r_c = c - G'nu - sum_b A_b*(X_b), computed to within
    `allowance`, and A_b(y) PSD,

        -c.y = -g.nu - r_c.y - sum_b <X_b, A_b(y)>
            <= dual_value + (|r_c| + allowance).y_bound
               + sum_b max(0, -lambda_min(X_b)) sum_i |tr A_b,i| y_bound_i,

    whatever the accuracy of the iterate (Jansson, Chaykin and Keil).
    Without finite a-priori bounds (y_bound None) the bound is +inf."""
    if y_bound is None or not np.all(np.isfinite(y_bound)):
        return np.inf
    bound = dual_value + float((np.abs(r_c) + allowance) @ y_bound)
    for (k, p), x in zip(blocks, x_blocks):
        lam_min = float(np.linalg.eigvalsh(x)[0])
        if lam_min < 0.0:
            used = np.flatnonzero(np.bincount(p.cols))
            # tr A_i: the sum of the pencil's diagonal rows
            diagonal = p.rows % (k + 1) == 0
            trace = np.bincount(p.cols[diagonal], p.vals[diagonal], minlength=p.shape[1])
            bound -= lam_min * float(np.abs(trace[used]) @ y_bound[used])
    return bound


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label (its smallest node) of each of the dim
    nodes of the graph with edges (rows[e], cols[e]); both directions of
    every edge must be listed."""
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _truncation(sdp: SDPProblem, blocks: list, equalities: list):
    """The part of the relaxation of x-degree <= 2, x the eigenvector
    coordinates `SDPProblem.x_coordinates`.  Entry (r, c) of the localizer
    of q uses moments up to x-degree xdeg(beta_r) + xdeg(beta_c) + xdeg(q).
    Returns, for each PSD block (dimension k, pencil), the rows r whose
    diagonal entry stays within x-degree 2, and for each sparse matrix in
    `equalities`, whose rows are equality entries (the rows of
    `_equality_rows` or of a pencil), the mask of the rows that do."""
    high = np.zeros(sdp.num_moments, dtype=bool)
    if sdp.x_coordinates:
        high = sdp.basis[:, list(sdp.x_coordinates)].sum(axis=1) > 2
    rows = [np.flatnonzero(~p.rows_using(high)[::k + 1]) for k, p in blocks]
    return rows, [~m.rows_using(high) for m in equalities]


def _reduce(sdp: SDPProblem, blocks: list, g_mat):
    """Truncate the SDP to x-degree <= 2 (`_truncation`), fix every moment
    that is odd under a sign symmetry of the SDP at 0, and split every
    block into the connected components of the entries that remain.

    The truncated blocks are principal submatrices of the full ones and
    the kept rows of G a subset of its rows, so the truncated value bounds
    the full one from above.  A moment that no kept PSD entry uses is
    dropped, since it would be free; those are the moments of x-degree > 2.
    An invariant optimum exists (see `relax`), so the odd moments may be
    fixed; after that each block is block-diagonal up to a permutation, and
    it is PSD exactly when each diagonal piece is, whatever the symmetries.
    Returns the mask of kept variables, the mask of kept rows of G and, per
    piece that carries entries, (source block index, its rows in the source
    block, the piece's pencil over the kept variables)."""
    block_rows, (g_rows,) = _truncation(sdp, blocks, [g_mat])
    subs = [p.take_rows((rows[:, None] * k + rows).ravel())
            for (k, p), rows in zip(blocks, block_rows)]
    keep = np.zeros(sdp.num_moments, dtype=bool)
    for sub in subs:
        keep[sub.cols[sub.vals != 0]] = True
    if sdp.sign_symmetries:
        parity = sdp.basis % 2
        for flip in sdp.sign_symmetries:
            keep &= parity[:, list(flip)].sum(axis=1) % 2 == 0
    kept = np.flatnonzero(keep)
    pieces = []
    for b, (rows, sub) in enumerate(zip(block_rows, subs)):
        k = len(rows)
        live = sub.take_cols(kept)
        r, c = np.divmod(live.rows, k)
        label = _components(k, r, c)
        for root in np.flatnonzero(np.bincount(label[r])):
            idx = np.flatnonzero(label == root)
            pieces.append((b, rows[idx], live.take_rows((idx[:, None] * k + idx).ravel())))
    return keep, g_rows, pieces


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _nt_scaling(low: np.ndarray, low_inv: np.ndarray, x: np.ndarray):
    """S^-1, the NT scaling point V = W^-1 (W X W = S) and its factor
    (G, G^-1, lambda) of a stack of blocks (any leading axes), from S = L L'
    and L^-1: eig(L' X L) = U diag(d) U', V = Y sqrt(d) Y' with Y = L^-T U,
    and G = Y diag(d^1/4), G^-1 = diag(d^-1/4) U' L', lambda = sqrt(d).  Then
    V = G G', V S V = X, G' S G = G^-1 X G^-T = diag(lambda), and the Schur
    complement tr(A_i V A_j V) is symmetric positive definite."""
    l_inv_t = low_inv.swapaxes(-1, -2)
    mid = low.swapaxes(-1, -2) @ x @ low
    d, u = np.linalg.eigh(_sym(mid))
    if d[..., 0].min() <= 0:
        raise np.linalg.LinAlgError("NT scaling lost definiteness")
    y_mat = l_inv_t @ u
    lam = np.sqrt(d)
    v = (y_mat * lam[..., None, :]) @ y_mat.swapaxes(-1, -2)
    root = np.sqrt(lam)
    factor = (y_mat * root[..., None, :],
              (u.swapaxes(-1, -2) @ low.swapaxes(-1, -2)) / root[..., :, None], lam)
    return _sym(l_inv_t @ l_inv_t.swapaxes(-1, -2)), _sym(v), factor


def _second_order(factor, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term G Z G' of a stack of blocks for the
    affine steps dX, dS, with V = G G' (`_nt_scaling`): in the scaled space
    X~ = G^-1 dX G^-T, S~ = G' dS G, and Z solves the Lyapunov equation
    diag(lambda) Z + Z diag(lambda) = X~ S~ + S~ X~."""
    g, g_inv, lam = factor
    m = (g_inv @ dx @ g_inv.swapaxes(-1, -2)) @ (g.swapaxes(-1, -2) @ ds @ g)
    m += m.swapaxes(-1, -2)
    return g @ (m / (lam[..., :, None] + lam[..., None, :])) @ g.swapaxes(-1, -2)


def _max_steps(s_low_inv, x_low_inv, ds, dx) -> tuple:
    """Largest t_p and t_d with S + t_p dS and X + t_d dX PSD for every
    block of a stack (n, k, k), from the eigenvalues of L^-1 dS L^-T and
    L^-1 dX L^-T (L the Cholesky factor of S or X), both taken in one call.
    Stacks with leading instance axes, (B, n, k, k), give one t_p and one
    t_d per instance."""
    w = np.concatenate([a @ d @ a.swapaxes(-1, -2) for a, d in ((s_low_inv, ds), (x_low_inv, dx))],
                       axis=-3)
    lam = np.linalg.eigvalsh(_sym(w))[..., 0]
    lam = lam.reshape(lam.shape[:-1] + (2, -1)).min(axis=-1)
    steps = -1.0 / np.minimum(lam, -1e-14)
    steps[lam >= -1e-14] = np.inf
    return steps[..., 0], steps[..., 1]


def _tril_inverse(t: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular (m, b, b) matrices, b a power
    of 2, by doubling from the reciprocal diagonal:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]].  Like
    substitution, it divides by diagonal entries only.  An LU-based inverse
    pivots on off-diagonal ones: on blocks whose diagonals span 14 orders
    of magnitude it left |X T - I| at 1e-6, where doubling leaves 1e-15."""
    m, b, _ = t.shape
    x = np.zeros_like(t)
    diagonal = np.arange(b)
    x[:, diagonal, diagonal] = 1.0 / t[:, diagonal, diagonal]
    s = 1
    while s < b:
        # the diagonal 2s-blocks of each matrix, as (b / 2s, m, s, s) parts
        j = np.arange(b // (2 * s))
        x_parts = x.reshape(m, len(j), 2 * s, len(j), 2 * s)
        c = t.reshape(m, len(j), 2 * s, len(j), 2 * s)[:, j, s:, j, :s]
        x_parts[:, j, s:, j, :s] = -(x_parts[:, j, s:, j, s:] @ (c @ x_parts[:, j, :s, j, :s]))
        s *= 2
    return x


def _jittered_cholesky(h: np.ndarray) -> np.ndarray:
    """Cholesky factor of one matrix h with the smallest diagonal jitter of
    an escalating ladder that succeeds; h keeps its own diagonal."""
    n = h.shape[0]
    diagonal = h.diagonal().copy()
    jitter = 0.0
    # unbound errors: a kept one's traceback would hold h in a cycle
    for _ in range(8):
        try:
            low = np.linalg.cholesky(h)
            break
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14)
            h.flat[::n + 1] = diagonal + jitter
    else:
        h.flat[::n + 1] = diagonal
        raise np.linalg.LinAlgError("Schur complement not positive definite")
    h.flat[::n + 1] = diagonal
    return low


class _SchurFactor:
    """Cholesky of the Schur complement with Jacobi scaling and escalating
    diagonal jitter; near the optimum the raw matrix spans many orders of
    magnitude and plain Cholesky gives up too early.

    h is a (B, n, n) stack, one matrix per instance.  The scaling is done
    in place: h becomes D^-1 h D^-1 (D the root of its diagonal), without
    the jitter, which `matvec` multiplies back.  The stack is factored by one Cholesky call; only when
    that fails does each matrix go through the jitter ladder on its own.
    Solves run blocked forward and back substitution with the inverses of
    the diagonal blocks of the factor, taken once here (`_tril_inverse`)."""

    BLOCK = 64  # a power of 2, as `_tril_inverse` needs

    def __init__(self, h: np.ndarray):
        n = h.shape[-1]
        d = np.sqrt(np.maximum(np.diagonal(h, axis1=1, axis2=2), 1e-300))
        h /= d[:, :, None]
        h /= d[:, None, :]
        try:
            low = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            low = None
        if low is None:
            low = np.stack([_jittered_cholesky(one) for one in h])
        self.d, self.scaled, self.low = d, h, low
        # the diagonal blocks, the last one padded with the identity
        b = min(self.BLOCK, 1 << (n - 1).bit_length())
        starts = range(0, n, b)
        blocks = np.zeros((len(h), len(starts), b, b))
        for j, a in enumerate(starts):
            size = min(b, n - a)
            blocks[:, j, :size, :size] = low[:, a:a + size, a:a + size]
            blocks[:, j, np.arange(size, b), np.arange(size, b)] = 1.0
        inv = _tril_inverse(blocks.reshape(-1, b, b)).reshape(blocks.shape)
        # per block: its rows, the factor left of it and below it, the
        # block itself and its inverse (trimmed to the block)
        self.steps = []
        for j, a in enumerate(starts):
            size = min(b, n - a)
            self.steps.append((slice(a, a + size), low[:, a:a + size, :a],
                               low[:, a + size:, a:a + size].swapaxes(1, 2),
                               low[:, a:a + size, a:a + size], inv[:, j, :size, :size]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """h x for the unscaled h, without the jitter."""
        return self.d * _mv(self.scaled, self.d * x)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(h + jitter)^-1 rhs per instance, for a (B, n) stack of vectors
        or a (B, n, m) stack of matrices.  An explicit inverse of a diagonal
        block loses accuracy to cancellation where substitution would not,
        so each block solve gets one step of refinement against the block
        itself."""
        n_inst, n = self.d.shape
        x = rhs.reshape(n_inst, n, -1) / self.d[:, :, None]
        for rows, left, _below, block, inv in self.steps:  # L z = rhs
            y = x[:, rows] - left @ x[:, :rows.start]
            z = inv @ y
            x[:, rows] = z + inv @ (y - block @ z)
        for rows, _left, below, block, inv in self.steps[::-1]:  # L' x = z
            block, inv = block.swapaxes(1, 2), inv.swapaxes(1, 2)
            y = x[:, rows] - below @ x[:, rows.stop:]
            z = inv @ y
            x[:, rows] = z + inv @ (y - block @ z)
        return (x / self.d[:, :, None]).reshape(rhs.shape)


_LOG_HEADER = "  iter          mu    p_infeas    d_infeas         gap  alpha_p  alpha_d"
# A batch takes no more instances once their footprints (`_Lowered.doubles`)
# would pass this many doubles, 32 MB; a larger SDP is solved alone.
_BATCH_DOUBLES = 1 << 22


@dataclass
class _Outcome:
    """Final state of the interior-point loop for one instance; `x` holds
    one (n, k, k) stack per group, and `ray` is (residual, objective, norm)
    of the dual ray on an Infeasible stop."""

    status: SolverStatus
    iterations: int
    y: np.ndarray
    nu: np.ndarray
    x: list
    pobj: float
    dobj: float
    p_inf: float
    d_inf: float
    ray: tuple | None


@dataclass
class _Progress:
    """Per-instance bookkeeping of the loop: the best iterate and its
    score, the iteration that set it, and the run of stalled steps."""

    best: tuple | None = None
    score: float = np.inf
    iteration: int = 0
    stall: int = 0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each instance of a with the same instance of b,
    flattened (one BLAS dot each, as `np.dot` of two vectors takes it)."""
    return (a.reshape(len(a), 1, -1) @ b.reshape(len(b), -1, 1)).ravel()


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x per instance, for a stack of matrices and a stack of vectors
    (one BLAS matrix-vector product each, as for a single vector)."""
    return (a @ x[..., None])[..., 0]


def _take(batch, rows: np.ndarray):
    """The instances `rows` (an index array) of batch data: arrays along
    their leading axis, through lists, tuples and groups."""
    if batch is None:
        return None
    if isinstance(batch, _Group):
        return batch.take(rows)
    if isinstance(batch, (list, tuple)):
        return type(batch)(_take(part, rows) for part in batch)
    return batch[rows]


def _adjoint(groups, stacks, shape: tuple[int, int]) -> np.ndarray:
    """A*(W) of every instance, summed over the groups: a (B, n) array."""
    out = np.zeros(shape)
    for g, w in zip(groups, stacks):
        out += g.adjoint(w)
    return out


def _inner(xs, ss) -> np.ndarray:
    """<X, S> of every instance, summed over the groups."""
    total = 0
    for x, s in zip(xs, ss):
        total = total + _dot(x, s)
    return total


def _step_lengths(s_low_inv, x_low_inv, ds, dx) -> np.ndarray:
    """Fraction-to-boundary primal and dual step of every instance: a
    (2, B) array."""
    lengths = np.array([_max_steps(*args) for args in zip(s_low_inv, x_low_inv, ds, dx)])
    return np.minimum(1.0, _STEP_FRACTION * lengths.min(axis=0))


def _newton_step(groups, g_mat, s_st, x_st, s_low, x_low, r_link, r_g, r_c, mu, second):
    """The search direction (dy, dnu, dS, dX) of every instance, with the
    inverse Cholesky factors of S and X for the step-length tests: an
    affine predictor, then the corrector toward sigma*mu with Mehrotra's
    second-order term for the instances flagged in `second`.  Raises
    `LinAlgError` when a factorization of some instance fails."""
    n_inst, n_y = r_c.shape
    k_total = sum(g.dim * g.size for g in groups)
    s_low_inv = [np.linalg.inv(low) for low in s_low]
    x_low_inv = [np.linalg.inv(low) for low in x_low]
    s_inv, v_scale, factors = zip(*(_nt_scaling(*args) for args in zip(s_low, s_low_inv, x_st)))

    h = np.zeros((n_inst, n_y, n_y))
    for g, v in zip(groups, v_scale):
        g.schur_into(h, v)
    h += h.swapaxes(1, 2)
    h *= 0.5
    h_fac = _SchurFactor(h)

    g_t = g_mat.swapaxes(1, 2)
    w_gt = h_fac.solve(g_t)
    schur_eq = g_mat @ w_gt
    # The entrywise rows of the equality forms can be linearly dependent
    # (zero-rhs rows), so the small equality system is solved by a spectral
    # pseudo-inverse rather than Cholesky.
    eq_w, eq_q = np.linalg.eigh(0.5 * (schur_eq + schur_eq.swapaxes(1, 2)))
    cut = np.maximum(eq_w[:, -1:], 0.0) * 1e-13
    eq_inv = np.where(eq_w > cut, 1.0 / np.where(eq_w > cut, eq_w, 1.0), 0.0)

    # The complementarity linearization is dX = C - V dS V with
    # C = sigma*mu*S^-1 - X, less the second-order term in the corrector;
    # substituting dS = A(dy) + R_link into the dual equation gives
    # H dy - G' dnu = A*(C - V R V) - r_c.
    vrv = [v @ r @ v for v, r in zip(v_scale, r_link)]

    def kkt_solve(rhs_h, rhs_g):
        u = h_fac.solve(rhs_h)
        dnu = _mv(eq_q, eq_inv * _mv(eq_q.swapaxes(1, 2), rhs_g - _mv(g_mat, u)))
        return u + _mv(w_gt, dnu), dnu

    def newton(comp):
        rhs1 = _adjoint(groups, [cm - w for cm, w in zip(comp, vrv)], r_c.shape) - r_c
        dy, dnu = kkt_solve(rhs1, r_g)
        # One step of iterative refinement.  Near the optimum H is so
        # ill-conditioned (and may carry jitter) that the first solve misses
        # the dual equation; the miss adds to the dual residual, which then
        # stalls short of tolerance and loosens the rigorous bound.
        e_y, e_nu = kkt_solve(rhs1 - (h_fac.matvec(dy) - _mv(g_t, dnu)), r_g - _mv(g_mat, dy))
        dy, dnu = dy + e_y, dnu + e_nu
        ds = [g.assemble(dy) + r for g, r in zip(groups, r_link)]
        dx = [_sym(cm - v @ d @ v) for cm, v, d in zip(comp, v_scale, ds)]
        return dy, dnu, ds, dx

    # Predictor (affine scaling, sigma = 0).
    _dy_a, _dnu_a, ds_a, dx_a = newton([-x for x in x_st])
    ap_a, ad_a = _step_lengths(s_low_inv, x_low_inv, ds_a, dx_a)[:, :, None, None, None]
    mu_aff = _inner([x + ad_a * d for x, d in zip(x_st, dx_a)],
                    [s + ap_a * d for s, d in zip(s_st, ds_a)]) / k_total
    sigma = np.array([min(1.0, max(0.0, a / m) ** 3) for a, m in zip(mu_aff.tolist(), mu.tolist())])

    # Corrector: centering toward sigma*mu plus Mehrotra's second-order
    # term, which is left out near the tolerances.
    target = (sigma * mu)[:, None, None, None]
    comp = [target * si - x for si, x in zip(s_inv, x_st)]
    if second.any():
        mask = second[:, None, None, None]
        comp = [np.where(mask, cm - _second_order(f, dxa, dsa), cm)
                for cm, f, dxa, dsa in zip(comp, factors, dx_a, ds_a)]
    return (*newton(comp), s_low_inv, x_low_inv)


def _interior_point(c, g_mat, g_vec, groups, y, y_bound, settings, logs) -> list[_Outcome]:
    """Path following for B instances of one structure at once, each from
    its primal point y with S = X = I: c and y are (B, n), G (B, m, n),
    g (B, m), y_bound (B, n) or None, and `logs` holds one stream (or None)
    per instance.  Every instance runs exactly the iteration it would run
    alone, with its own mu, sigma, steps, stopping tests and best iterate,
    and leaves the arrays when it stops.  A Newton breakdown or a step that
    breaks definiteness raises `LinAlgError` while more than one instance
    is live, for the caller to repeat the run one SDP at a time.  With
    finite a-priori moment bounds y_bound, an iterate whose value exceeds
    the bound its own dual gives (`_rigorous_upper_bound`) is provably
    infeasible, so it is not accepted as Optimal."""
    n_y = c.shape[1]
    k_total = sum(g.dim * g.size for g in groups)
    nu = np.zeros(g_vec.shape)
    s_st = [np.tile(np.eye(g.dim), (len(c), g.size, 1, 1)) for g in groups]
    x_st = [s.copy() for s in s_st]
    # the Cholesky factors of the iterate, from the check that committed it
    s_low = [np.linalg.cholesky(s) for s in s_st]
    x_low = [np.linalg.cholesky(x) for x in x_st]
    c_norm = 1.0 + np.abs(c).max(axis=1, initial=0.0)
    g_norm = 1.0 + np.abs(g_vec).max(axis=1, initial=0.0)
    switch = _SECOND_ORDER_SWITCH * max(settings.feasibility_tol, settings.gap_tol)

    index = np.arange(len(c))  # the instance in each row of the arrays
    progress = [_Progress() for _ in index]
    outcomes: list = [None] * len(c)
    figures: list = []  # per row: pobj, dobj, p_inf, d_inf of the current iterate

    def stop(rows: dict, it: int) -> np.ndarray:
        """Record the outcome of the instances in `rows` (row -> (status,
        ray)) and drop them from the arrays; returns the rows kept."""
        nonlocal c, g_mat, g_vec, y_bound, c_norm, g_norm, groups, y, nu, s_st, x_st, s_low, \
            x_low, index, progress, figures
        for row, (status, ray) in rows.items():
            best = progress[row].best
            if status in (SolverStatus.SLOW_PROGRESS, SolverStatus.ITER_LIMIT) and best is not None:
                state = best
            else:
                state = (y[row].copy(), nu[row].copy(), [x[row].copy() for x in x_st],
                         *figures[row])
            outcomes[index[row]] = _Outcome(status, it, *state, ray)
        keep = np.array([row for row in range(len(index)) if row not in rows], dtype=np.intp)
        if not len(keep):  # the batch is done
            return keep
        (c, g_mat, g_vec, y_bound, c_norm, g_norm, groups, y, nu, s_st, x_st, s_low, x_low,
         index) = _take((c, g_mat, g_vec, y_bound, c_norm, g_norm, groups, y, nu, s_st, x_st,
                         s_low, x_low, index), keep)
        progress = [progress[row] for row in keep]
        figures = [figures[row] for row in keep]
        return keep

    it = 0
    for it in range(1, settings.max_iterations + 1):
        r_link = [g.assemble(y) - s for g, s in zip(groups, s_st)]
        r_g = g_vec - _mv(g_mat, y)
        gt_nu = _mv(g_mat.swapaxes(1, 2), nu)
        adjoint_x = _adjoint(groups, x_st, y.shape)
        r_c = c - gt_nu - adjoint_x
        mu = _inner(x_st, s_st) / k_total
        score = np.empty(len(index))

        p_inf = np.abs(r_g).max(axis=1, initial=0.0) / g_norm
        for r, s in zip(r_link, s_st):
            p_inf = np.maximum(p_inf, (np.abs(r).max(axis=(2, 3))
                                       / (1.0 + np.abs(s).max(axis=(2, 3)))).max(axis=1))
        d_inf = np.abs(r_c).max(axis=1) / c_norm
        # the dual residual's part of the rigorous bound: |r_c| . y_bound
        residual_terms = [0.0] * len(index) if y_bound is None else \
            _dot(np.abs(r_c), y_bound).tolist()
        # Heuristic infeasibility detection: the normalized dual iterate
        # (nu, X) approaches a Farkas-style ray (G' nu + A*(X) = 0 with
        # positive objective) exactly when the primal is infeasible and the
        # dual objective diverges.  Reported, not proven.
        ray_norm = np.sqrt(_dot(nu, nu))
        x_norm = 0
        for x in x_st:  # Frobenius norms, as np.linalg.norm takes them
            x_norm = x_norm + np.sqrt(np.add.reduce(x * x, axis=(2, 3))).sum(axis=1)
        ray_res = None

        figures = list(zip(_dot(c, y).tolist(), _dot(g_vec, nu).tolist(), p_inf.tolist(),
                           d_inf.tolist()))
        stopped = {}
        for row, (track, (pobj, dobj, p_row, d_row), residual_term, norm) in enumerate(
                zip(progress, figures, residual_terms, (ray_norm + x_norm).tolist())):
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            score[row] = worst = max(p_row, d_row, gap)
            if worst < 0.99 * track.score:
                track.score = worst
                track.iteration = it
                track.best = (y[row].copy(), nu[row].copy(), [x[row].copy() for x in x_st],
                              *figures[row])
            if p_row <= settings.feasibility_tol and d_row <= settings.feasibility_tol \
                    and gap <= settings.gap_tol \
                    and (y_bound is None or pobj - dobj + residual_term >= 0.0):
                stopped[row] = (SolverStatus.OPTIMAL, None)
                continue
            if norm > 0 and p_row > 100.0 * settings.feasibility_tol and dobj > 0:
                if ray_res is None:
                    ray_vec = gt_nu + adjoint_x
                    ray_res = np.sqrt(_dot(ray_vec, ray_vec)).tolist()
                ray = (ray_res[row] / norm, dobj / norm, norm)
                if ray[1] >= _INFEASIBILITY_THRESHOLD * max(ray[0], 1e-300):
                    stopped[row] = (SolverStatus.INFEASIBLE, ray)
                    continue
            if pobj < -1e12 * max(1.0, abs(dobj)):
                stopped[row] = (SolverStatus.UNBOUNDED, None)
            elif it - track.iteration > 25:
                stopped[row] = (SolverStatus.SLOW_PROGRESS, None)
        if stopped:
            live = stop(stopped, it)
            if not len(live):
                return outcomes
            mu, score, r_link, r_g, r_c = _take((mu, score, r_link, r_g, r_c), live)

        try:
            dy, dnu, ds, dx, s_low_inv, x_low_inv = _newton_step(
                groups, g_mat, s_st, x_st, s_low, x_low, r_link, r_g, r_c, mu, score > switch)
        except np.linalg.LinAlgError:
            if len(index) > 1:
                raise
            stop({0: (SolverStatus.SLOW_PROGRESS, None)}, it)
            return outcomes

        alpha_p, alpha_d = _step_lengths(s_low_inv, x_low_inv, ds, dx)

        # Commit, backing off deterministically if rounding broke
        # definiteness: halve the step lengths, up to 12 times, and keep the
        # iterate if no step commits.
        committed = False
        for _ in range(12):
            step_p, step_d = alpha_p[:, None, None, None], alpha_d[:, None, None, None]
            s_new = [_sym(s + step_p * d) for s, d in zip(s_st, ds)]
            x_new = [_sym(x + step_d * d) for x, d in zip(x_st, dx)]
            try:
                low = [np.linalg.cholesky(m) for m in s_new + x_new]
            except np.linalg.LinAlgError:
                if len(index) > 1:
                    raise
                alpha_p *= 0.5
                alpha_d *= 0.5
                continue
            y, nu = y + alpha_p[:, None] * dy, nu + alpha_d[:, None] * dnu
            s_st, x_st = s_new, x_new
            s_low, x_low = low[:len(groups)], low[len(groups):]
            committed = True
            break

        stalled = {}
        for row, (track, a_p, a_d) in enumerate(zip(progress, alpha_p.tolist(), alpha_d.tolist())):
            log = logs[index[row]]
            if log is not None:
                pobj, dobj, p_row, d_row = figures[row]
                print(f"{it:6d} {mu[row]:11.4e} {p_row:11.4e} {d_row:11.4e} "
                      f"{pobj - dobj:11.4e} {a_p:8.2e} {a_d:8.2e}", file=log)
            if not committed or max(a_p, a_d) < 1e-10:
                track.stall += 1
                if track.stall >= 3:
                    stalled[row] = (SolverStatus.SLOW_PROGRESS, None)
            else:
                track.stall = 0
        if stalled and not len(stop(stalled, it)):
            return outcomes

    stop({row: (SolverStatus.ITER_LIMIT, None) for row in range(len(index))}, it)
    return outcomes


@dataclass
class _Lowered:
    """One SDP lowered (`_compile`) and reduced (`_reduce`): the arrays the
    iteration takes, what the scatter-back needs, the structure key on
    which SDPs share a batch, and `doubles`, about how many doubles the
    SDP holds in a run, which the structure fixes."""

    sdp: SDPProblem
    c: np.ndarray
    g_mat: _Pencil
    g_vec: np.ndarray
    eq_layout: list
    blocks: list
    keep: np.ndarray
    live_rows: np.ndarray
    pieces: list
    dims: list
    members: list
    y_bound: np.ndarray | None
    doubles: int
    seconds: float

    @property
    def key(self) -> tuple:
        """Equal for two SDPs that reduce to the same structure: the same
        kept moments, live rows of G and piece rows and columns of every
        pencil, and a-priori bounds on both or on neither."""
        return (self.keep.tobytes(), self.live_rows.tobytes(), self.y_bound is None,
                tuple((len(idx), p.rows.tobytes(), p.cols.tobytes()) for _b, idx, p in self.pieces))


def _lower(sdp: SDPProblem) -> _Lowered:
    start = time.perf_counter()
    c, g_mat, g_vec, eq_layout, blocks = _compile(sdp)
    keep, g_rows, pieces = _reduce(sdp, blocks, g_mat)
    g_keep = g_mat.take_cols(np.flatnonzero(keep))
    live_rows = g_rows & ((np.bincount(g_keep.rows, minlength=len(g_vec)) > 0) | (g_vec != 0.0))
    dims = sorted({len(idx) for _b, idx, _p in pieces})
    members = [[p for p, piece in enumerate(pieces) if len(piece[1]) == k] for k in dims]
    y_bound = sdp.moment_bounds
    if y_bound is not None:
        y_bound = y_bound[keep] if np.all(np.isfinite(y_bound[keep])) else None
    # the footprint: a few n^2 for the Schur complement, its factor and
    # their temporaries, and a few used k^2 per piece for `_Group`'s dense
    # matrices, Gram weights and work space
    n = int(keep.sum())
    stacks = sum(np.count_nonzero(np.bincount(p.cols)) * len(idx) ** 2 for _b, idx, p in pieces)
    return _Lowered(sdp, c, g_mat, g_vec, eq_layout, blocks, keep, live_rows, pieces, dims,
                    members, y_bound, 4 * (n * n + stacks), time.perf_counter() - start)


def _batches(lowered: list) -> list[list[int]]:
    """The SDPs (by position) that share an interior-point run: those of
    one structure, in order, while their footprints (`_Lowered.doubles`)
    add up to at most `_BATCH_DOUBLES`."""
    batches, open_batch = [], {}
    for i, low in enumerate(lowered):
        key = low.key
        batch = open_batch.get(key)
        if batch is None or (len(batch) + 1) * low.doubles > _BATCH_DOUBLES:
            batch = open_batch[key] = []
            batches.append(batch)
        batch.append(i)
    return batches


def _solve_batch(lowered: list, settings: SolverSettings, logs: list) -> list[_Outcome]:
    """One interior-point run over SDPs of one structure."""
    first = lowered[0]
    keep, live = first.keep, first.live_rows
    live_idx, kept = np.flatnonzero(live), np.flatnonzero(keep)
    groups = [_Group(k, [[low.pieces[p][2] for p in ps] for low in lowered])
              for k, ps in zip(first.dims, first.members)]
    c = np.stack([low.c[keep] for low in lowered])
    g_mat = np.stack([low.g_mat.take_cols(kept).take_rows(live_idx).toarray() for low in lowered])
    g_vec = np.stack([low.g_vec[live] for low in lowered])
    y_bound = None if first.y_bound is None else np.stack([low.y_bound for low in lowered])
    y0 = np.zeros((len(lowered), first.sdp.num_moments))
    y0[:, 0] = 1.0
    for log in logs:
        if log is not None:
            print(_LOG_HEADER, file=log)
    return _interior_point(c, g_mat, g_vec, groups, y0[:, keep], y_bound, settings, logs)


def _scatter(low: _Lowered, out: _Outcome, seconds: float) -> SDPSolution:
    """The solution of the full SDP from the outcome of its reduced one:
    dropped moments and rows at 0, the dual blocks block-diagonal in their
    source positions, and the rigorous bound taken on the full problem."""
    sdp, blocks, pieces = low.sdp, low.blocks, low.pieces
    c, g_mat, g_vec = low.c, low.g_mat, low.g_vec
    y = np.zeros(sdp.num_moments)
    y[low.keep] = out.y
    nu = np.zeros(len(g_vec))
    nu[low.live_rows] = out.nu
    x_blocks = [np.zeros((k, k)) for k, _p in blocks]
    for stack, ps in zip(out.x, low.members):
        for x, p in zip(stack, ps):
            b, idx, _piece = pieces[p]
            x_blocks[b][np.ix_(idx, idx)] = x

    adjoint_x = np.zeros(sdp.num_moments)
    for (_k, p), x in zip(blocks, x_blocks):
        adjoint_x += p.adjoint(x.ravel())
    upper_bound = _rigorous_upper_bound(
        -float(g_vec @ nu), c - g_mat.adjoint(nu) - adjoint_x,
        _rounding_allowance(c, g_mat, nu, blocks, x_blocks),
        blocks, x_blocks, sdp.moment_bounds,
    )
    ray = None
    if out.ray is not None:
        ray_res, ray_obj, ray_norm = out.ray
        ray = {
            "psd_blocks": [x / ray_norm for x in x_blocks],
            "residual": ray_res,
            "objective": ray_obj,
        }

    return SDPSolution(
        moments=MomentVector(sdp.n_z, sdp.tau, y * sdp.scale_pow),
        primal_value=-out.pobj,
        dual_value=-out.dobj,
        dual_psd_blocks=tuple(x_blocks),
        status=out.status,
        iterations=out.iterations,
        residuals={"primal_infeas": float(out.p_inf), "dual_infeas": float(out.d_inf),
                   "gap": float(out.pobj - out.dobj)},
        infeasibility_ray=ray,
        upper_bound=upper_bound,
        solved_moments=int(low.keep.sum()),
        solved_blocks=tuple(len(idx) for _b, idx, _p in pieces),
        equality_duals=tuple(_multiplier_matrices(low.eq_layout, nu[1:])),
        seconds=seconds,
    )


def _solve_run(run: list, lowered: list, settings: SolverSettings, logs: list,
               results: list) -> None:
    """Solve the SDPs at the positions `run` in one interior-point run and
    put each one's solution, or the exception it raised, at its position in
    `results`.  A run that raises is repeated one SDP at a time, so an
    exception reaches only the SDPs that raise alone; this is also how a
    run of several recovers from a numerical breakdown (`_interior_point`)."""
    start = time.perf_counter()
    try:
        outcomes = _solve_batch([lowered[i] for i in run], settings, [logs[i] for i in run])
    except Exception as err:
        if len(run) == 1:
            results[run[0]] = err
            return
        for i in run:
            if logs[i] is not None:
                logs[i] = io.StringIO()  # drop the lines of the failed run
            _solve_run([i], lowered, settings, logs, results)
        return
    share = (time.perf_counter() - start) / len(run)
    for i, out in zip(run, outcomes):
        try:
            results[i] = _scatter(lowered[i], out, lowered[i].seconds + share)
        except Exception as err:
            results[i] = err
        lowered[i] = None  # its arrays are freed before the next run


def solve_many(sdps, settings: SolverSettings | None = None) -> list:
    """Solve several assembled moment SDPs; the solutions come back in
    order.

    Each SDP is lowered and reduced on its own (`_reduce`).  Those that
    reduce to the same structure (the same kept moments, live rows of G
    and piece rows and columns of every pencil, so that only the values
    differ) are solved in one interior-point run over an instance axis, up
    to `_BATCH_DOUBLES` per run.  Each instance runs exactly the iteration
    of its solve alone, so its solution is bit-identical to `solve` of it.
    A run that raises, as one of several SDPs does on a numerical
    breakdown, is repeated one SDP at a time.  An SDP whose lowering, run
    or scatter-back raises gets the exception in place of its solution,
    and the other SDPs are solved as without it.
    The iteration log of each SDP is held until every SDP before it is
    solved, so the log stream reads as if they were solved one after
    another.  `SDPSolution.seconds` is an SDP's own lowering time plus its
    run's wall time divided by the number of SDPs in the run."""
    settings = settings or SolverSettings()
    lowered: list = []
    for sdp in sdps:
        try:
            lowered.append(_lower(sdp))
        except Exception as err:
            lowered.append(err)
    stream = settings.log_stream
    if stream is None or len(lowered) == 1:
        logs = [stream] * len(lowered)
    else:
        logs = [io.StringIO() for _ in lowered]
    results = [low if isinstance(low, Exception) else None for low in lowered]
    solvable = [i for i, r in enumerate(results) if r is None]
    written = 0
    for batch in _batches([lowered[i] for i in solvable]):
        _solve_run([solvable[j] for j in batch], lowered, settings, logs, results)
        while written < len(results) and results[written] is not None:
            if logs[written] is not stream:
                stream.write(logs[written].getvalue())
            written += 1
    return results


def solve(sdp: SDPProblem, settings: SolverSettings | None = None) -> SDPSolution:
    """Solve the assembled moment SDP.

    Returns an Optimal solution when primal/dual residuals and the relative
    duality gap fall below the tolerances and the value is below the
    iterate's own rigorous bound; Infeasible (heuristic, via a
    Farkas-style dual ray) when the dual objective diverges along a
    near-feasible ray; SlowProgress with the best iterate on numerical
    breakdown; IterLimit at the iteration cap.  The iteration runs on the
    reduced SDP (`_reduce`); every reported array is scattered back to the
    full size, and the rigorous bound is taken on the full problem.  It is
    `solve_many` of the one SDP, whose exception, if any, it raises.
    """
    solution = solve_many([sdp], settings)[0]
    if isinstance(solution, Exception):
        raise solution
    return solution


def residuals(sdp: SDPProblem, solution: SDPSolution) -> dict:
    """Recompute feasibility and gap measures from scratch (the solver loop
    is not trusted), on the part of the SDP the solver keeps
    (`_truncation`): normalization violation, worst negative eigenvalue of
    a kept principal submatrix and worst kept equality entry on the primal
    side, dual stationarity residual on the dual side, and gap =
    dual_value - primal_value."""
    m_scaled = solution.moments.values / sdp.scale_pow
    primal = abs(m_scaled[0] - 1.0)
    blocks = [(form.dimension, _pencil(sdp, form)) for _label, form in sdp.psd_blocks]
    equalities = [_pencil(sdp, form) for _label, form in sdp.equalities]
    block_rows, entries = _truncation(sdp, blocks, equalities)
    for (k, p), rows in zip(blocks, block_rows):
        mat = (p @ m_scaled).reshape(k, k)[np.ix_(rows, rows)]
        primal = max(primal, -float(np.linalg.eigvalsh(mat).min(initial=0.0)))
    for p, mask in zip(equalities, entries):
        primal = max(primal, float(np.abs(p @ m_scaled)[mask].max(initial=0.0)))

    # Dual stationarity in the minimize form, against the full SDP; the
    # normalization's multiplier is -dual_value.
    stationarity = -sdp.objective
    stationarity[0] += solution.dual_value
    pencils = [p for _k, p in blocks] + equalities
    duals = (*solution.dual_psd_blocks, *solution.equality_duals)
    adjoint = np.zeros(sdp.num_moments)
    for p, x in zip(pencils, duals):
        adjoint += p.adjoint(np.ravel(x))
    dual = float(np.linalg.norm(stationarity - adjoint, np.inf))

    return {
        "primal_infeas": float(primal),
        "dual_infeas": dual,
        "gap": float(solution.dual_value - solution.primal_value),
    }
