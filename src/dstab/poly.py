"""Sparse multivariate polynomial arithmetic, graded-lex monomial bases, and
an expression parser.

A polynomial in n variables is stored as a dict mapping exponent tuples
(length n, non-negative ints) to nonzero float coefficients.  The empty dict
is the zero polynomial (degree 0 by convention, which keeps the minimal
relaxation order formula total).  All values are immutable after
construction and safe to share across threads.

A monomial basis is one integer array of exponents, a row per monomial,
ordered graded-lexicographically with the variable order fixed by the
caller: monomials are sorted first by total degree, then with earlier
variables taking precedence, so the constant monomial comes first and for
4 variables the degree-one block that follows reads z1, z2, z3, z4.  The
row of a monomial is its moment index in the relaxation layer (m_0000,
m_1000, m_0100, ...), which `graded_lex_index` computes from the exponents.
"""

from __future__ import annotations

import math
import re

import numpy as np

Exponent = tuple[int, ...]


class PolynomialError(ValueError):
    """Dimension mismatches and other structural polynomial errors."""


class PolynomialSyntaxError(PolynomialError):
    """Raised by the expression parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """A sparse real polynomial in a fixed number of variables.

    Immutable.  Coefficients are doubles; terms with coefficient exactly
    zero are never stored, so structural equality is semantic equality up to
    floating-point representation of the coefficients.
    """

    __slots__ = ("num_vars", "terms", "_hash")

    def __init__(self, num_vars: int, terms: dict[Exponent, float] | None = None):
        if num_vars < 0:
            raise PolynomialError(f"num_vars must be >= 0, got {num_vars}")
        clean: dict[Exponent, float] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != num_vars:
                raise PolynomialError(
                    f"exponent {alpha} has length {len(alpha)}, expected {num_vars}"
                )
            if any(e < 0 for e in alpha):
                raise PolynomialError(f"negative exponent in {alpha}")
            coeff = float(coeff)
            if coeff != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + coeff
                if clean[alpha] == 0.0:
                    del clean[alpha]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: float(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise PolynomialError(f"variable index {index} out of range for {num_vars} vars")
        alpha = [0] * num_vars
        alpha[index] = 1
        return cls(num_vars, {tuple(alpha): 1.0})

    @classmethod
    def monomial(cls, num_vars: int, alpha: Exponent, coeff: float = 1.0) -> "Polynomial":
        return cls(num_vars, {tuple(alpha): coeff})

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(alpha) for alpha in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(alpha) == 0 for alpha in self.terms)

    def constant_value(self) -> float:
        """Value of a constant polynomial (0.0 for the zero polynomial)."""
        if not self.is_constant():
            raise PolynomialError("polynomial is not constant")
        return next(iter(self.terms.values()), 0.0)

    # ------------------------------------------------------------------
    # arithmetic
    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise PolynomialError(
                f"variable-count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.num_vars, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + coeff
        return Polynomial(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._check_same_vars(other)
        out: dict[Exponent, float] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                out[alpha] = out.get(alpha, 0.0) + c1 * c2
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0 or int(exponent) != exponent:
            raise PolynomialError(f"exponent must be a non-negative integer, got {exponent}")
        result = Polynomial.constant(self.num_vars, 1.0)
        for _ in range(int(exponent)):
            result = result * self
        return result

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(self.num_vars, {a: c * factor for a, c in self.terms.items()})

    # ------------------------------------------------------------------
    def evaluate(self, point):
        """Value at one point of shape (num_vars,), as a float, or at each
        point of a stack of shape (..., num_vars), as an array of shape (...).

        Plain monomial summation in dictionary order, exact for constants by
        construction.  Powers are built by repeated multiplication, never
        `**` (numpy's and libm's powers round differently), so a point and
        the same point inside a stack give the same bits.  Overflow and
        inf * 0 give inf and NaN without a warning, as Python floats do."""
        x = np.asarray(point, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.num_vars:
            raise PolynomialError(
                f"points of shape {x.shape} do not have {self.num_vars} coordinates"
            )
        # Python floats for one point (numpy scalars are slower), arrays for a stack
        columns = x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)
        total = 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        with np.errstate(invalid="ignore", over="ignore"):
            for alpha, coeff in self.terms.items():
                term = coeff
                for column, e in zip(columns, alpha):
                    if e:
                        power = column
                        for _ in range(e - 1):
                            power = power * column
                        term = term * power
                total = total + term
        return total

    def substitute(self, index: int, value: float) -> "Polynomial":
        """Fix variable `index` to a constant; the result keeps num_vars-1 variables."""
        if not 0 <= index < self.num_vars:
            raise PolynomialError(f"variable index {index} out of range")
        out: dict[Exponent, float] = {}
        for alpha, coeff in self.terms.items():
            c = coeff * (float(value) ** alpha[index] if alpha[index] else 1.0)
            beta = alpha[:index] + alpha[index + 1:]
            out[beta] = out.get(beta, 0.0) + c
        return Polynomial(self.num_vars - 1, out)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Hashable structural key: equal polynomials have equal keys, and
        `__hash__` hashes it."""
        return (self.num_vars, tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def to_string(self, names: list[str] | tuple[str, ...]) -> str:
        """Render in the expression grammar; parse(to_string(p)) == p exactly."""
        if len(names) != self.num_vars:
            raise PolynomialError("name list length mismatch")
        if not self.terms:
            return "0"
        pieces = []
        for alpha in sorted(self.terms, key=grlex_key):
            coeff = self.terms[alpha]
            factors = [repr(abs(coeff))]
            for name, e in zip(names, alpha):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            term = "*".join(factors)
            if not pieces:
                pieces.append(term if coeff > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        names = [f"z{i+1}" for i in range(self.num_vars)]
        return f"Polynomial({self.num_vars}, {self.to_string(names)})"


def grlex_key(alpha: Exponent) -> tuple:
    """Sort key for graded lexicographic order (earlier variables first)."""
    return (sum(alpha), tuple(-e for e in alpha))


def monomial_basis(num_vars: int, order: int) -> np.ndarray:
    """Graded-lex exponents of all monomials of total degree <= order, one
    row each: an array of shape (C(num_vars + order, order), num_vars) in the
    narrowest unsigned type that holds order (uint8 up to 255), built in it
    from the first block on.  Widen it before arithmetic that may pass
    order.

    The degree-d block is, for each variable i, the degree-(d - 1) rows
    whose first nonzero variable is i or later, plus e_i.  Within a block
    that first variable never decreases, so those rows are a suffix."""
    if num_vars < 1 or order < 0:
        raise PolynomialError(f"invalid basis parameters n={num_vars}, order={order}")
    blocks = [np.zeros((1, num_vars), dtype=np.min_scalar_type(order))]
    first = np.array([num_vars])  # first nonzero variable of each row (none: num_vars)
    for _ in range(order):
        starts = np.searchsorted(first, np.arange(num_vars))  # the suffix for each variable
        first = np.repeat(np.arange(num_vars), len(first) - starts)
        # row k of the run of variable i is row starts[i] + k of the last block
        block = blocks[-1][np.arange(len(first)) - np.searchsorted(first, first) + starts[first]]
        block[np.arange(len(first)), first] += 1
        blocks.append(block)
    return np.concatenate(blocks)


_INTP_MAX = int(np.iinfo(np.intp).max)


def graded_lex_below(n: int, top: int) -> np.ndarray:
    """below[s, m] = C(s - 1 + m, m), the count of monomials in m variables
    of degree < s, for s <= top and m <= n (0 at s = 0).  By Pascal's rule
    below[s] is the running sum of below[s - 1] for s >= 2."""
    below = np.ones((top + 1, n + 1), dtype=np.intp)
    below[0] = 0
    for s in range(2, top + 1):
        below[s] = below[s - 1].cumsum()
    return below


def graded_lex_index(alphas) -> np.ndarray:
    """Position of each exponent (the last axis of an integer array) in any
    graded-lex basis that holds it.  With below = `graded_lex_below`, alpha
    of degree d follows the below[d, n] monomials of lower degree and, for
    each variable i, the below[s_i, n - 1 - i] of degree d that agree with
    alpha before i and have more of i, s_i being the degree after i.
    Raises PolynomialError when an index could leave the integer range."""
    alphas = np.asarray(alphas, dtype=np.intp)
    n = alphas.shape[-1]
    top = int(alphas.sum(axis=-1).max(initial=0))
    if math.comb(n + top, n) > _INTP_MAX:
        raise PolynomialError(f"graded-lex index of degree {top} in {n} variables "
                              "exceeds the integer range")
    below = graded_lex_below(n, top)
    after = index = 0  # degree from variable i on, and the position so far
    for i in range(n - 1, -1, -1):
        after = after + alphas[..., i]
        index = index + below[after, n - i]
    return index


def graded_lex_position(alpha: Exponent, num_vars: int, order: int) -> int:
    """`graded_lex_index` of one exponent, checked to lie in the basis."""
    alpha = tuple(alpha)
    if len(alpha) != num_vars or any(e < 0 for e in alpha) or sum(alpha) > order:
        raise PolynomialError(f"exponent {alpha} is not in the basis (order {order})")
    return int(graded_lex_index(alpha))


def embed(
    p: Polynomial,
    source_vars: list[str] | tuple[str, ...],
    target_vars: list[str] | tuple[str, ...],
) -> Polynomial:
    """Re-express p over a larger variable list; evaluation is preserved on
    the shared coordinates."""
    if len(source_vars) != p.num_vars:
        raise PolynomialError("source variable list does not match polynomial")
    positions = []
    for name in source_vars:
        try:
            positions.append(target_vars.index(name))
        except ValueError:
            raise PolynomialError(f"source variable {name!r} missing from target list")
    out: dict[Exponent, float] = {}
    n = len(target_vars)
    for alpha, coeff in p.terms.items():
        beta = [0] * n
        for pos, e in zip(positions, alpha):
            beta[pos] += e
        key = tuple(beta)
        out[key] = out.get(key, 0.0) + coeff
    return Polynomial(n, out)


# ----------------------------------------------------------------------
# Expression parser.
#
# Grammar:
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' nonneg-int)?
#   base   := number | identifier | '(' expr ')'
#
# Whitespace is insignificant; identifiers, which also name a problem
# file's variables and placeholders, start with an ASCII letter and may
# contain ASCII letters, digits and underscores.
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{IDENTIFIER.pattern})"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolynomialSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup is not None:
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise PolynomialSyntaxError(f"expected {op!r}, found {value or 'end of input'!r}", at)
        self.advance()

    def parse_expr(self) -> Polynomial:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind != "number":
                raise PolynomialSyntaxError("exponent must be a non-negative integer", at)
            if not value.isdigit():
                raise PolynomialSyntaxError(
                    f"exponent must be a non-negative integer, got {value!r}", at
                )
            self.advance()
            return base ** int(value)
        return base

    def parse_base(self) -> Polynomial:
        kind, value, at = self.advance()
        n = len(self.variables)
        if kind == "number":
            return Polynomial.constant(n, float(value))
        if kind == "ident":
            try:
                index = self.variables.index(value)
            except ValueError:
                raise PolynomialSyntaxError(f"unknown identifier {value!r}", at)
            return Polynomial.variable(n, index)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value or 'end of input'!r}", at)


def parse_polynomial(text: str, variables: list[str] | tuple[str, ...]) -> Polynomial:
    """Parse an expression over the named variables into canonical sparse form."""
    parser = _Parser(_tokenize(text), variables)
    result = parser.parse_expr()
    kind, value, at = parser.peek()
    if kind != "end":
        raise PolynomialSyntaxError(f"trailing input starting at {value!r}", at)
    return result
