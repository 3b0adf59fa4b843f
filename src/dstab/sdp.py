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
"""

from __future__ import annotations

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


# Fraction-to-boundary factor of every step, and the start S = X = I.
_STEP_FRACTION = 0.98
_INITIAL_SCALE = 1.0
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
    """All pieces of one dimension k, stacked: S, X, their scaling points
    and steps are (n, k, k) arrays, so every dense operation on them is one
    numpy call, and A(y) and A*(W) are one product each with the stacked
    pencil."""

    def __init__(self, k: int, pencils: list):
        self.dim = k
        self.size = len(pencils)
        self.pencil = _vstack(pencils)
        if k == 1:
            # tr(A_i V A_j V) = v^2 a_i a_j: one dense update over the used
            # variables replaces a call per piece
            self.used = np.flatnonzero(np.bincount(self.pencil.cols))
            self.coef = self.pencil.take_cols(self.used).toarray()
            return
        # Per piece, built once: the variables it uses, their matrices A_i
        # as one dense (n, k, k) stack, and the upper-triangle entries of
        # the A_j with the off-diagonal ones doubled, for
        # tr(A_i V A_j V) = <V A_i V, A_j>.  Dense, they are an (n, k(k+1)/2)
        # matrix; sparse, the flat position, weight and output slot of each
        # entry, the slots of a chunk's rows one after the other.
        self.chunk = max(1, int(2.0e6 // (k * k)))
        tri = np.flatnonzero(np.triu(np.ones((k, k), dtype=bool)))
        self.pieces = []
        for p in pencils:
            used = np.flatnonzero(np.bincount(p.cols))
            n = len(used)
            stack = np.zeros((n, k * k))
            stack[np.searchsorted(used, p.cols), p.rows] = p.vals
            r, c = np.divmod(p.rows, k)
            upper = r <= c
            if n * len(tri) <= _SPARSE_COST * upper.sum():
                gram = (tri, stack[:, tri] * np.where(tri % (k + 1) == 0, 1.0, 2.0), None)
            else:
                var = np.searchsorted(used, p.cols[upper])
                slots = (np.arange(min(n, self.chunk))[:, None] * n + var).ravel()
                gram = (p.rows[upper], np.where(r == c, 1.0, 2.0)[upper] * p.vals[upper], slots)
            self.pieces.append((used, stack.reshape(-1, k, k), gram))
        # the products A_i V and V A_i V of a chunk, reused across iterations
        rows = min(self.chunk, max(len(used) for used, _s, _g in self.pieces))
        self.work = np.empty((2, rows, k, k))

    def assemble(self, y: np.ndarray) -> np.ndarray:
        return (self.pencil @ y).reshape(-1, self.dim, self.dim)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return self.pencil.adjoint(w.ravel())

    def schur_into(self, h: np.ndarray, v: np.ndarray) -> None:
        """h += the Schur contribution tr(A_i V A_j V) of every piece, in
        chunks of variables so the products V A_i V never take much
        memory."""
        k = self.dim
        if k == 1:
            h[np.ix_(self.used, self.used)] += self.coef.T @ (v.reshape(-1, 1) ** 2 * self.coef)
            return
        for (used, stack, (where, weights, slots)), vb in zip(self.pieces, v):
            n = len(used)
            for a in range(0, n, self.chunk):
                part = stack[a:a + self.chunk]
                av, g = self.work[0, :len(part)], self.work[1, :len(part)]
                np.matmul(vb, np.matmul(part, vb, out=av), out=g)
                g = g.reshape(len(part), k * k)[:, where]
                if slots is None:
                    rows = g @ weights.T
                else:
                    g *= weights
                    rows = np.bincount(slots[:g.size], g.ravel(),
                                       minlength=len(part) * n).reshape(len(part), n)
                h[np.ix_(used[a:a + self.chunk], used)] += rows


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
    (G, G^-1, lambda) of a stack of blocks, from S = L L' and L^-1:
    eig(L' X L) = U diag(d) U', V = Y sqrt(d) Y' with Y = L^-T U, and
    G = Y diag(d^1/4), G^-1 = diag(d^-1/4) U' L', lambda = sqrt(d).  Then
    V = G G', V S V = X, G' S G = G^-1 X G^-T = diag(lambda), and the Schur
    complement tr(A_i V A_j V) is symmetric positive definite."""
    l_inv_t = low_inv.swapaxes(-1, -2)
    mid = low.swapaxes(-1, -2) @ x @ low
    d, u = np.linalg.eigh(_sym(mid))
    if d[:, 0].min() <= 0:
        raise np.linalg.LinAlgError("NT scaling lost definiteness")
    y_mat = l_inv_t @ u
    lam = np.sqrt(d)
    v = (y_mat * lam[:, None, :]) @ y_mat.swapaxes(-1, -2)
    root = np.sqrt(lam)
    factor = (y_mat * root[:, None, :],
              (u.swapaxes(-1, -2) @ low.swapaxes(-1, -2)) / root[:, :, None], lam)
    return _sym(l_inv_t @ l_inv_t.swapaxes(-1, -2)), _sym(v), factor


def _second_order(factor, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term G Z G' of a stack of blocks for the
    affine steps dX, dS, with V = G G' (`_nt_scaling`): in the scaled space
    X~ = G^-1 dX G^-T, S~ = G' dS G, and Z solves the Lyapunov equation
    diag(lambda) Z + Z diag(lambda) = X~ S~ + S~ X~."""
    g, g_inv, lam = factor
    m = (g_inv @ dx @ g_inv.swapaxes(-1, -2)) @ (g.swapaxes(-1, -2) @ ds @ g)
    m += m.swapaxes(-1, -2)
    return g @ (m / (lam[:, :, None] + lam[:, None, :])) @ g.swapaxes(-1, -2)


def _max_steps(s_low_inv, x_low_inv, ds, dx) -> tuple[float, float]:
    """Largest t_p and t_d with S + t_p dS and X + t_d dX PSD for every
    block of a stack, from the eigenvalues of L^-1 dS L^-T and L^-1 dX L^-T
    (L the Cholesky factor of S or X), both taken in one call."""
    w = np.concatenate([a @ d @ a.swapaxes(-1, -2) for a, d in ((s_low_inv, ds), (x_low_inv, dx))])
    lam = np.linalg.eigvalsh(_sym(w))[:, 0]
    lam_min = float(lam[:len(ds)].min()), float(lam[len(ds):].min())
    return tuple(np.inf if m >= -1e-14 else -1.0 / m for m in lam_min)


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


class _SchurFactor:
    """Cholesky of the Schur complement with Jacobi scaling and escalating
    diagonal jitter; near the optimum the raw matrix spans many orders of
    magnitude and plain Cholesky gives up too early.

    The scaling is done in place: h becomes D^-1 h D^-1 (D the root of its
    diagonal), without the jitter, which `matvec` multiplies back.  Solves
    run blocked forward and back substitution with the inverses of the
    diagonal blocks of the factor, taken once here (`_tril_inverse`)."""

    BLOCK = 64  # a power of 2, as `_tril_inverse` needs

    def __init__(self, h: np.ndarray):
        n = h.shape[0]
        d = np.sqrt(np.maximum(h.diagonal(), 1e-300))
        h /= d[:, None]
        h /= d
        diagonal = h.diagonal().copy()
        jitter = 0.0
        # unbound errors: a kept one's traceback would hold self and h in a cycle
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
        self.d, self.scaled, self.low = d, h, low
        # the diagonal blocks, the last one padded with the identity
        self.block = b = min(self.BLOCK, 1 << (n - 1).bit_length())
        starts = range(0, n, b)
        blocks = np.zeros((len(starts), b, b))
        for block, a in zip(blocks, starts):
            size = min(b, n - a)
            block[:size, :size] = low[a:a + size, a:a + size]
            block[np.arange(size, b), np.arange(size, b)] = 1.0
        self.inv = _tril_inverse(blocks)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """h x for the unscaled h, without the jitter."""
        return self.d * (self.scaled @ (self.d * x))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(h + jitter)^-1 rhs for a vector or the columns of a matrix.  An
        explicit inverse of a diagonal block loses accuracy to cancellation
        where substitution would not, so each block solve gets one step of
        refinement against the block itself."""
        low, b = self.low, self.block
        d = self.d if rhs.ndim == 1 else self.d[:, None]
        x = rhs / d
        starts = range(0, len(x), b)
        for inv, a in zip(self.inv, starts):  # L z = rhs
            block = low[a:a + b, a:a + b]
            inv = inv[:len(block), :len(block)]
            y = x[a:a + b] - low[a:a + b, :a] @ x[:a]
            z = inv @ y
            x[a:a + b] = z + inv @ (y - block @ z)
        for inv, a in zip(self.inv[::-1], starts[::-1]):  # L' x = z
            block = low[a:a + b, a:a + b].T
            inv = inv[:len(block), :len(block)].T
            y = x[a:a + b] - low[a + b:, a:a + b].T @ x[a + b:]
            z = inv @ y
            x[a:a + b] = z + inv @ (y - block @ z)
        return x / d


_LOG_HEADER = "  iter          mu    p_infeas    d_infeas         gap  alpha_p  alpha_d"


@dataclass
class _Outcome:
    """Final state of the interior-point loop; `x` holds one (n, k, k)
    stack per group, and `ray` is (residual, objective, norm) of the dual
    ray on an Infeasible stop."""

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


def _interior_point(c, g_mat, g_vec, groups, y, y_bound, settings, log) -> _Outcome:
    """Path following from the primal point y with S = X = eta*I.  With
    finite a-priori moment bounds y_bound, an iterate whose value exceeds
    the bound its own dual gives (`_rigorous_upper_bound`) is provably
    infeasible, so it is not accepted as Optimal."""
    n_y = len(c)
    m_eq = g_mat.shape[0]
    k_total = sum(g.dim * g.size for g in groups)

    nu = np.zeros(m_eq)
    eta = _INITIAL_SCALE
    s_st = [np.tile(eta * np.eye(g.dim), (g.size, 1, 1)) for g in groups]
    x_st = [s.copy() for s in s_st]
    # the Cholesky factors of the iterate, from the check that committed it
    s_low = [np.linalg.cholesky(s) for s in s_st]
    x_low = [np.linalg.cholesky(x) for x in x_st]

    gamma = _STEP_FRACTION
    c_norm = 1.0 + (np.abs(c).max() if len(c) else 0.0)
    g_norm = 1.0 + (np.abs(g_vec).max() if len(g_vec) else 0.0)

    def adjoint(stacks) -> np.ndarray:
        out = np.zeros(n_y)
        for g, w in zip(groups, stacks):
            out += g.adjoint(w)
        return out

    def inner(xs, ss) -> float:
        return sum(float(np.vdot(x, s)) for x, s in zip(xs, ss))

    def steps(ds, dx) -> tuple[float, float]:
        lengths = [_max_steps(*args) for args in zip(s_low_inv, x_low_inv, ds, dx)]
        return (min(1.0, gamma * min(p for p, _d in lengths)),
                min(1.0, gamma * min(d for _p, d in lengths)))

    best = None
    best_score = np.inf
    best_iter = 0
    status = SolverStatus.ITER_LIMIT
    iterations = 0
    stall = 0
    ray = None

    for it in range(1, settings.max_iterations + 1):
        iterations = it
        r_link = [g.assemble(y) - s for g, s in zip(groups, s_st)]
        r_g = g_vec - g_mat @ y
        r_c = c - g_mat.T @ nu - adjoint(x_st)
        mu = inner(x_st, s_st) / k_total

        pobj = float(c @ y)
        dobj = float(g_vec @ nu)
        p_inf = max(
            (np.abs(r_g).max() if len(r_g) else 0.0) / g_norm,
            max(
                float((np.abs(r).max(axis=(1, 2)) / (1.0 + np.abs(s).max(axis=(1, 2)))).max())
                for r, s in zip(r_link, s_st)
            ),
        )
        d_inf = np.abs(r_c).max() / c_norm
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(p_inf, d_inf, gap)
        if score < 0.99 * best_score:
            best_score = score
            best_iter = it
            best = (y.copy(), nu.copy(), [x.copy() for x in x_st], pobj, dobj, p_inf, d_inf)

        consistent = y_bound is None or pobj - dobj + float(np.abs(r_c) @ y_bound) >= 0.0
        if p_inf <= settings.feasibility_tol and d_inf <= settings.feasibility_tol \
                and gap <= settings.gap_tol and consistent:
            status = SolverStatus.OPTIMAL
            break

        # Heuristic infeasibility detection: the normalized dual iterate
        # (nu, X) approaches a Farkas-style ray (G' nu + A*(X) = 0 with
        # positive objective) exactly when the primal is infeasible and the
        # dual objective diverges.  Reported, not proven.
        ray_norm = np.linalg.norm(nu) + sum(
            float(np.linalg.norm(x, axis=(1, 2)).sum()) for x in x_st
        )
        if ray_norm > 0 and p_inf > 100.0 * settings.feasibility_tol and dobj > 0:
            ray_res = np.linalg.norm(g_mat.T @ nu + adjoint(x_st)) / ray_norm
            ray_obj = dobj / ray_norm
            if ray_obj >= _INFEASIBILITY_THRESHOLD * max(ray_res, 1e-300):
                status = SolverStatus.INFEASIBLE
                ray = (float(ray_res), float(ray_obj), float(ray_norm))
                break
        if pobj < -1e12 * max(1.0, abs(dobj)):
            status = SolverStatus.UNBOUNDED
            break
        if it - best_iter > 25:
            status = SolverStatus.SLOW_PROGRESS
            break

        try:
            s_low_inv = [np.linalg.inv(low) for low in s_low]
            x_low_inv = [np.linalg.inv(low) for low in x_low]
            s_inv, v_scale, factors = zip(*(_nt_scaling(*args)
                                            for args in zip(s_low, s_low_inv, x_st)))

            h = np.zeros((n_y, n_y))
            for g, v in zip(groups, v_scale):
                g.schur_into(h, v)
            h += h.T
            h *= 0.5
            h_fac = _SchurFactor(h)

            w_gt = h_fac.solve(g_mat.T)
            schur_eq = g_mat @ w_gt
            # The entrywise rows of the equality forms can be linearly
            # dependent (zero-rhs rows), so the small equality system is
            # solved by a spectral pseudo-inverse rather than Cholesky.
            eq_w, eq_q = np.linalg.eigh(0.5 * (schur_eq + schur_eq.T))
            cut = max(eq_w[-1], 0.0) * 1e-13
            eq_inv = np.where(eq_w > cut, 1.0 / np.where(eq_w > cut, eq_w, 1.0), 0.0)

            # The complementarity linearization is dX = C - V dS V with
            # C = sigma*mu*S^-1 - X, less the second-order term in the
            # corrector; substituting dS = A(dy) + R_link into
            # the dual equation gives  H dy - G' dnu = A*(C - V R V) - r_c.
            vrv = [v @ r @ v for v, r in zip(v_scale, r_link)]

            def kkt_solve(rhs_h, rhs_g):
                u = h_fac.solve(rhs_h)
                dnu = eq_q @ (eq_inv * (eq_q.T @ (rhs_g - g_mat @ u)))
                return u + w_gt @ dnu, dnu

            def newton(comp):
                rhs1 = adjoint([cm - w for cm, w in zip(comp, vrv)]) - r_c
                dy, dnu = kkt_solve(rhs1, r_g)
                # One step of iterative refinement.  Near the optimum H is so
                # ill-conditioned (and may carry jitter) that the first solve
                # misses the dual equation; the miss adds to the dual
                # residual, which then stalls short of tolerance and loosens
                # the rigorous bound.
                e_y, e_nu = kkt_solve(rhs1 - (h_fac.matvec(dy) - g_mat.T @ dnu),
                                     r_g - g_mat @ dy)
                dy, dnu = dy + e_y, dnu + e_nu
                ds = [g.assemble(dy) + r for g, r in zip(groups, r_link)]
                dx = [_sym(cm - v @ d @ v) for cm, v, d in zip(comp, v_scale, ds)]
                return dy, dnu, ds, dx

            # Predictor (affine scaling, sigma = 0).
            _dy_a, _dnu_a, ds_a, dx_a = newton([-x for x in x_st])
            ap_a, ad_a = steps(ds_a, dx_a)
            mu_aff = inner([x + ad_a * d for x, d in zip(x_st, dx_a)],
                           [s + ap_a * d for s, d in zip(s_st, ds_a)]) / k_total
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # Corrector: centering toward sigma*mu plus Mehrotra's
            # second-order term, which is left out near the tolerances.
            comp = [sigma * mu * si - x for si, x in zip(s_inv, x_st)]
            if score > _SECOND_ORDER_SWITCH * max(settings.feasibility_tol, settings.gap_tol):
                comp = [cm - _second_order(f, dxa, dsa)
                        for cm, f, dxa, dsa in zip(comp, factors, dx_a, ds_a)]
            dy, dnu, ds, dx = newton(comp)
        except np.linalg.LinAlgError:
            status = SolverStatus.SLOW_PROGRESS
            break

        alpha_p, alpha_d = steps(ds, dx)

        # Commit, backing off deterministically if rounding broke definiteness.
        committed = False
        for _ in range(12):
            s_new = [_sym(s + alpha_p * d) for s, d in zip(s_st, ds)]
            x_new = [_sym(x + alpha_d * d) for x, d in zip(x_st, dx)]
            try:
                low = [np.linalg.cholesky(m) for m in s_new + x_new]
            except np.linalg.LinAlgError:
                alpha_p *= 0.5
                alpha_d *= 0.5
                continue
            y = y + alpha_p * dy
            nu = nu + alpha_d * dnu
            s_st, x_st = s_new, x_new
            s_low, x_low = low[:len(groups)], low[len(groups):]
            committed = True
            break
        if log is not None:
            print(
                f"{it:6d} {mu:11.4e} {p_inf:11.4e} {d_inf:11.4e} "
                f"{pobj - dobj:11.4e} {alpha_p:8.2e} {alpha_d:8.2e}",
                file=log,
            )
        if not committed or max(alpha_p, alpha_d) < 1e-10:
            stall += 1
            if stall >= 3:
                status = SolverStatus.SLOW_PROGRESS
                break
        else:
            stall = 0

    if status in (SolverStatus.SLOW_PROGRESS, SolverStatus.ITER_LIMIT) and best is not None:
        y, nu, x_st, pobj, dobj, p_inf, d_inf = best
    return _Outcome(status, iterations, y, nu, x_st, pobj, dobj, p_inf, d_inf, ray)


def solve(sdp: SDPProblem, settings: SolverSettings | None = None) -> SDPSolution:
    """Solve the assembled moment SDP.

    Returns an Optimal solution when primal/dual residuals and the relative
    duality gap fall below the tolerances and the value is below the
    iterate's own rigorous bound; Infeasible (heuristic, via a
    Farkas-style dual ray) when the dual objective diverges along a
    near-feasible ray; SlowProgress with the best iterate on numerical
    breakdown; IterLimit at the iteration cap.  The iteration runs on the
    reduced SDP (`_reduce`); every reported array is scattered back to the
    full size, and the rigorous bound is taken on the full problem.
    """
    settings = settings or SolverSettings()
    c, g_mat, g_vec, eq_layout, blocks = _compile(sdp)

    keep, g_rows, pieces = _reduce(sdp, blocks, g_mat)
    g_keep = g_mat.take_cols(np.flatnonzero(keep))
    live_rows = g_rows & ((np.bincount(g_keep.rows, minlength=len(g_vec)) > 0) | (g_vec != 0.0))
    n_kept = int(keep.sum())
    dims = sorted({len(idx) for _b, idx, _p in pieces})
    members = [[p for p, piece in enumerate(pieces) if len(piece[1]) == k] for k in dims]
    groups = [_Group(k, [pieces[p][2] for p in ps]) for k, ps in zip(dims, members)]

    log = settings.log_stream
    if log is not None:
        print(_LOG_HEADER, file=log)

    y0 = np.zeros(sdp.num_moments)
    y0[0] = 1.0
    y_bound = sdp.moment_bounds
    if y_bound is not None:
        y_bound = y_bound[keep] if np.all(np.isfinite(y_bound[keep])) else None
    out = _interior_point(c[keep], g_keep.take_rows(np.flatnonzero(live_rows)).toarray(),
                          g_vec[live_rows], groups,
                          y0[keep], y_bound, settings, log)

    # Scatter back to the full size: dropped moments and rows at 0, the
    # dual blocks block-diagonal in their source positions.
    y = np.zeros(sdp.num_moments)
    y[keep] = out.y
    nu = np.zeros(len(g_vec))
    nu[live_rows] = out.nu
    x_blocks = [np.zeros((k, k)) for k, _p in blocks]
    for stack, ps in zip(out.x, members):
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
        solved_moments=n_kept,
        solved_blocks=tuple(len(idx) for _b, idx, _p in pieces),
        equality_duals=tuple(_multiplier_matrices(eq_layout, nu[1:])),
    )


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
