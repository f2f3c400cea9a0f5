"""Dense exact linear algebra over Q: matrices, kernels, subspaces and decompositions.

A matrix is held as integer numerators over one positive common denominator,
in lowest terms (the gcd of all numerators and the denominator is 1), so
equality and hashing are structural. Products, sums and scalings run on
Python ints. Row reduction is fraction-free Gauss-Jordan elimination on
integer rows: each updated row is divided by the gcd of its entries, which
keeps coefficient growth in check, and rows are brought to reduced
row-echelon form over one denominator once, at the end.

`Fraction` appears only at the boundary: the constructors, `m[i, j]` and the
read-only `entries` and `basis` views.
Subspaces are stored as reduced row-echelon bases in the same integer form,
the unique representation per subspace, so equality is structural too.

The objects are immutable, so derived data is kept on them once computed:
a matrix keeps its inverse (whose own inverse is the matrix), and a
decomposition keeps its inversion and its basis matrix P. The derived object
refers back to its origin weakly, so the two form no reference cycle and are
freed by reference counting, without waiting for the cycle collector.

Two decompositions of one space are compared through the change of basis
C = P_ref^-1 P_self: their flags and the meets of their flags are read off
C's zero blocks and kernels, with no partial sum eliminated.

An identity sum_t c_t X_t1 X_t2 ... = 0 is tested by `Products`: each
product is formed once, on integer numerators over the product of its
factors' denominators, the terms are summed over one common denominator,
and a `Matrix` is built only when the sum is nonzero, as the witness.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple
from weakref import ref


class ShapeError(ValueError):
    """Raised on dimension mismatch between operands."""


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix; carries the rank as witness."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix is singular: rank {rank} < {size}")


def _memo(slot):
    """The object a memo slot holds, following a weak back-reference; None if unset or freed."""
    return slot() if type(slot) is ref else slot


def link_inverses(m, inv) -> None:
    """Keep `inv` on `m` as its inverse, and `m` on `inv` through a weak back-reference; `inv` must be m^-1."""
    object.__setattr__(inv, "_inverse", ref(m))
    object.__setattr__(m, "_inverse", inv)


def _integer_rows(rows):
    """Rational rows as (integer numerator rows, one positive common denominator)."""
    rows = [[e if type(e) is int or type(e) is Fraction else Fraction(e) for e in row] for row in rows]
    den = lcm(*[e.denominator for row in rows for e in row])
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _lowest_terms(rows, den: int | None):
    """The stored form: integer row tuples over a positive denominator, in lowest terms.

    `rows` are rationals when `den` is None, else integer numerators over `den`.
    """
    if den is None:
        rows, den = _integer_rows(rows)
    elif den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    rows = tuple(map(tuple, rows))
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return rows, den
    return tuple(tuple(e // g for e in row) for row in rows), den // g


def _gauss_jordan(rows, ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken in the first `ncols` columns, on the first nonzero row
    at or below the current one. Returns the pivot columns: afterwards row i
    holds the i-th pivot, every other row is zero in each pivot column, and
    the rows past the last pivot are zero in the first `ncols` columns.
    """
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        lead = len(pivots)
        if lead == nrows:
            break
        pivot = next((r for r in range(lead, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        g = gcd(*prow)
        if g > 1:
            prow = [e // g for e in prow]
        rows[pivot] = rows[lead]
        rows[lead] = prow
        p = prow[col]
        for r in range(nrows):
            f = rows[r][col]
            if f and r != lead:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[r], prow)]
                g = gcd(*row)
                rows[r] = [e // g for e in row] if g > 1 else row
        pivots.append(col)
    return pivots


def _reduced(rows, pivots):
    """The pivot rows scaled to reduced row-echelon numerators over one denominator."""
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    return [[e * (den // row[c]) for e in row] for row, c in zip(rows, pivots)], den


class Matrix:
    """Immutable dense matrix of exact rationals.

    Built from rational entries, or from integer `numerators` over a positive
    `denominator`; either way it is stored in lowest terms.

    >>> Matrix([[2, 0], [0, Fraction(1, 2)]]).inverse()
    Matrix([[1/2, 0], [0, 2]])
    >>> Matrix([[1, 2], [3, 4]], 6) == Matrix([[Fraction(1, 6), Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 3)]])
    True
    """

    __slots__ = ("rows", "cols", "numerators", "denominator", "_inverse", "__weakref__")

    def __init__(self, entries, denominator: int | None = None):
        num, den = _lowest_terms(entries, denominator)
        if not num or not num[0]:
            raise ShapeError("matrix must have at least one row and column")
        width = len(num[0])
        if any(len(r) != width for r in num):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "numerators", num)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        den = self.denominator
        return tuple(tuple(Fraction(e, den) for e in row) for row in self.numerators)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.numerators[i][j], self.denominator)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"Matrix([{body}])"

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other."""
        self._check_same_shape(other)
        den = lcm(self.denominator, other.denominator)
        f, g = den // self.denominator, sign * (den // other.denominator)
        return Matrix(
            [[f * a + g * b for a, b in zip(r1, r2)] for r1, r2 in zip(self.numerators, other.numerators)],
            den,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        p = c.numerator
        return Matrix([[p * e for e in row] for row in self.numerators], self.denominator * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix(_numerator_product(self, other), self.denominator * other.denominator)

    def is_zero(self) -> bool:
        return not any(map(any, self.numerators))

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan; raises SingularMatrixError with rank witness.

        Computed once per instance, and while this matrix lives the inverse's
        own inverse is this matrix. A singular matrix raises on every call.
        """
        inv = _memo(self._inverse)
        if inv is not None:
            return inv
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.numerators)]
        rank = len(_gauss_jordan(aug, n))
        if rank < n:
            raise SingularMatrixError(rank, n)
        # aug is now [diag(p) | p * N^-1] for the numerator matrix N; the
        # inverse of N / den is den * N^-1.
        den = lcm(*(row[i] for i, row in enumerate(aug)))
        scale = self.denominator
        inv = Matrix([[e * (scale * den // row[i]) for e in row[n:]] for i, row in enumerate(aug)], den)
        link_inverses(self, inv)
        return inv

    def cached_inverse(self) -> "Matrix | None":
        """The inverse if `inverse()` has computed it and it is still alive, else None; computes nothing."""
        return _memo(self._inverse)


def _numerator_product(x: Matrix | Numerators, y: Matrix | Numerators) -> list[list[int]]:
    """The integer numerators of XY over x.denominator * y.denominator, not reduced."""
    cols = list(zip(*y.numerators))
    return [[sum(map(mul, row, col)) for col in cols] for row in x.numerators]


class Numerators(NamedTuple):
    """A rational matrix as integer numerator rows over a positive denominator, not reduced.

    It serves as a factor of `Products` wherever a `Matrix` does, as a
    subspace basis taken as columns or a combination used in further products.
    """

    numerators: Sequence[Sequence[int]]
    denominator: int


class Products:
    """Linear combinations sum_t c_t X_t1 X_t2 ... of matrix products, on integer numerators.

    A term is (c, (X_1, ..., X_k)) with c rational and each X a `Matrix` or
    `Numerators`; the empty product is the n x n identity. Each product is
    formed once per `Products`, from the right: X_1 X_2 ... X_k is X_1 times
    the product of the rest, shared with every other chain ending in those
    factors. It is held as integer numerators over the product of the
    factors' denominators, not reduced: dividing by the content gcd cost
    more than it saved on the chains of at most d + 1 factors the checks
    form. Factors are known by identity and kept alive by the memo.
    """

    def __init__(self, n: int):
        self.n = n
        self._memo = {}

    def product(self, factors) -> Numerators:
        """X_1 X_2 ... X_k for factors (X_1, ..., X_k), formed once per `Products`."""
        key = tuple(map(id, factors))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[0]
        if not factors:
            form = Numerators([[int(i == j) for j in range(self.n)] for i in range(self.n)], 1)
        elif len(factors) == 1:
            form = Numerators(factors[0].numerators, factors[0].denominator)
        else:
            x, rest = factors[0], self.product(factors[1:])
            if len(x.numerators[0]) != len(rest.numerators):
                raise ShapeError(f"cannot multiply {len(x.numerators[0])} columns by {len(rest.numerators)} rows")
            form = Numerators(_numerator_product(x, rest), x.denominator * rest.denominator)
        self._memo[key] = form, factors
        return form

    def combination(self, terms) -> Numerators:
        """sum_t c_t X_t1 X_t2 ... over one common denominator, not reduced."""
        forms, scales = [], []
        for c, factors in terms:
            form = self.product(factors)
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            forms.append(form.numerators)
            scales.append((c.numerator, c.denominator * form.denominator))
        shapes = {(len(rows), len(rows[0])) for rows in forms}
        if len(shapes) != 1:
            raise ShapeError(f"combination of products of shapes {sorted(shapes)}")
        den = lcm(*(d for _, d in scales))
        f = [num * (den // d) for num, d in scales]
        # row i of the sum: for each column, the f-weighted sum of the terms' (i, j) entries
        return Numerators([[sum(map(mul, f, col)) for col in zip(*rows)] for rows in zip(*forms)], den)

    def residual(self, terms) -> Matrix | None:
        """The combination of `terms` as a Matrix, or None when it is zero; no Matrix is built for a zero sum."""
        total = self.combination(terms)
        if not any(map(any, total.numerators)):
            return None
        return Matrix(*total)


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon form, pivoting on the first nonzero column."""
    rows = [list(r) for r in m.numerators]
    pivots = _gauss_jordan(rows, m.cols)
    rank = len(pivots)
    reduced, den = _reduced(rows[:rank], pivots)
    return Matrix(reduced + rows[rank:], den)


class Subspace:
    """A subspace of Q^n held as a reduced row-echelon basis with no zero rows.

    The basis is stored like a `Matrix`: integer numerators over one positive
    denominator, in lowest terms. The representation is canonical, so two
    subspaces are equal exactly when their stored bases are identical.
    """

    __slots__ = ("ambient_dim", "numerators", "denominator")

    def __init__(self, ambient_dim: int, basis_rows, denominator: int | None = None):
        num, den = _lowest_terms(basis_rows, denominator)
        for row in num:
            if len(row) != ambient_dim:
                raise ShapeError(f"basis row length {len(row)} != ambient {ambient_dim}")
            if not any(row):
                raise ValueError("zero row in subspace basis")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "numerators", num)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), 1)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced row-echelon basis as Fractions, row by row."""
        den = self.denominator
        return tuple(tuple(Fraction(e, den) for e in row) for row in self.numerators)

    @property
    def rank(self) -> int:
        return len(self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.numerators, self.denominator))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.basis)
        return f"Subspace(dim {self.rank} of Q^{self.ambient_dim}: {body})"

    def image_under(self, m: Matrix) -> "Subspace":
        """The subspace m(self); basis vectors are mapped as column vectors."""
        if m.cols != self.ambient_dim:
            raise ShapeError(f"matrix cols {m.cols} != ambient {self.ambient_dim}")
        return _span(m.rows, [[sum(map(mul, row, v)) for row in m.numerators] for v in self.numerators])


def _span(ambient_dim: int, rows) -> Subspace:
    """The span of integer rows of length `ambient_dim`."""
    rows = [list(r) for r in rows]
    pivots = _gauss_jordan(rows, ambient_dim)
    return Subspace(ambient_dim, *_reduced(rows, pivots))


def _null_vectors(rows, ncols: int) -> list[list[int]]:
    """A basis of the null space of integer rows of length `ncols`, as integer vectors."""
    rows = [list(r) for r in rows]
    pivots = _gauss_jordan(rows, ncols)
    # With R = reduced / den the reduced row-echelon form of the rows, free
    # column f gives the vector with den at f and -den * R[i][f] at the i-th
    # pivot column.
    reduced, den = _reduced(rows, pivots)
    vectors = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[f] = den
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        vectors.append(vec)
    return vectors


def kernel(m: Matrix) -> Subspace:
    """Null space of m as a subspace of Q^cols."""
    return _span(m.cols, _null_vectors(m.numerators, m.cols))


def chain_lines(x: Matrix, seed, shifts) -> list[Subspace]:
    """The lines of u_0 = seed, u_(k+1) = (X - s_k I) u_k for the shifts s_0, s_1, ...; a zero u_k gives the zero subspace.

    `seed` is an integer column vector; a line does not depend on its scale,
    so each u_k is formed on integers and divided by its gcd.
    """
    n = x.cols
    vec, lines = list(seed), []
    for s in chain(map(Fraction, shifts), [None]):
        lead = next((e for e in vec if e), 0)
        sign = -1 if lead < 0 else 1
        # one row over its leading entry is in reduced row-echelon form
        lines.append(Subspace(n, [[sign * e for e in vec]], abs(lead)) if lead else Subspace.zero(n))
        if s is None:
            return lines
        f, g = s.denominator, s.numerator * x.denominator
        vec = [f * sum(map(mul, row, vec)) - g * e for row, e in zip(x.numerators, vec)]
        g = gcd(*vec)
        vec = [e // g for e in vec] if g > 1 else vec


class Decomposition:
    """An ordered tuple of d+1 nonzero subspaces whose direct sum is the ambient space.

    The parts never change, so the inversion (the parts in reverse order) is
    built once and keeps this decomposition as its own inversion, and the
    basis matrix P and its inverse are built once; an inversion's P^-1 is
    the original's with its row blocks reversed.
    E_i is the projector onto the i-th part along the others.
    """

    __slots__ = ("parts", "_inversion", "_basis", "__weakref__")

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("decomposition needs at least one part")
        ambient = parts[0].ambient_dim
        total = 0
        for p in parts:
            if p.ambient_dim != ambient:
                raise ShapeError("decomposition parts live in different ambient spaces")
            if p.is_zero():
                raise ValueError("decomposition part is the zero subspace")
            total += p.rank
        span = _span(ambient, [row for p in parts for row in p.numerators]).rank
        if total != ambient or span != ambient:
            raise ValueError(
                f"parts are not a direct-sum decomposition: ranks sum to {total}, "
                f"span has dimension {span}, ambient {ambient}"
            )
        self._set(parts)

    @classmethod
    def independent(cls, parts) -> "Decomposition":
        """Nonzero parts the caller knows to be independent and to fill the space; nothing is eliminated.

        Kernels of m - e I for pairwise distinct e are independent, so such
        kernels qualify once their ranks sum to the ambient dimension.
        """
        dec = object.__new__(cls)
        dec._set(tuple(parts))
        return dec

    def _set(self, parts) -> None:
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_inversion", None)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Decomposition is immutable")

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i) -> Subspace:
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Decomposition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    @property
    def ambient_dim(self) -> int:
        return self.parts[0].ambient_dim

    def _offsets(self) -> list[int]:
        """Where each part's columns start in P, then the ambient dimension."""
        return list(accumulate((part.rank for part in self.parts), initial=0))

    def inversion(self) -> "Decomposition":
        """The parts in reverse order; the same parts are a direct sum, so they are not checked again."""
        inverted = _memo(self._inversion)
        if inverted is None:
            inverted = Decomposition.independent(self.parts[::-1])
            object.__setattr__(inverted, "_inversion", ref(self))
            object.__setattr__(self, "_inversion", inverted)
        return inverted

    def basis_matrix(self) -> Matrix:
        """P: the integer numerators of the parts' stored basis rows, as columns in part order.

        Scaling columns changes neither P D P^-1 for D constant on each part
        nor which blocks of P^-1 X P are zero.
        """
        if self._basis is None:
            columns = chain.from_iterable(part.numerators for part in self.parts)
            object.__setattr__(self, "_basis", Matrix(list(zip(*columns)), 1))
        return self._basis

    def _formed_inverse(self) -> Matrix | None:
        """P^-1 when it is had without elimination: formed already, or read off the inversion's.

        The inversion's P is this P with its column blocks reversed, so its
        P^-1 is this P^-1 with its row blocks reversed.
        """
        if self._basis is not None and self._basis.cached_inverse() is not None:
            return self._basis.cached_inverse()
        other = _memo(self._inversion)
        known = None if other is None or other._basis is None else other._basis.cached_inverse()
        if known is None:
            return None
        start = other._offsets()
        blocks = [known.numerators[lo:hi] for lo, hi in zip(start, start[1:])]
        inv = Matrix(list(chain.from_iterable(reversed(blocks))), known.denominator)
        link_inverses(self.basis_matrix(), inv)
        return inv

    def basis_inverse(self) -> Matrix:
        """P^-1, eliminated at most once for a decomposition and its inversion together."""
        inv = self._formed_inverse()
        return inv if inv is not None else self.basis_matrix().inverse()

    def change_of_basis(self, ref: "Decomposition") -> list[list[int]]:
        """C = P_ref^-1 P_self as integer rows, over a positive denominator left unstated.

        Column j holds the j-th basis vector of this decomposition in ref's
        basis. Zero blocks and kernels of C do not depend on the denominator,
        so no `Matrix` is built.
        """
        if ref.ambient_dim != self.ambient_dim:
            raise ShapeError(f"change of basis from Q^{self.ambient_dim} to Q^{ref.ambient_dim}")
        return _numerator_product(ref.basis_inverse(), self.basis_matrix())

    def _check_same_length(self, ref: "Decomposition") -> None:
        if len(ref) != len(self):
            raise ShapeError(f"flags of {len(self)} and {len(ref)} parts")

    def flag_mismatches(self, ref: "Decomposition") -> list[int]:
        """The indices i at which W_0+...+W_i differs from the same partial sum of `ref`.

        Both sums are direct, so their dimensions are sums of part ranks, and
        of two subspaces with one dimension one contains the other exactly
        when they are equal. This sum lies in ref's when C is zero in the
        columns of this decomposition's parts up to i and the rows of ref's
        parts past i.
        """
        self._check_same_length(ref)
        if ref._formed_inverse() is None and self._formed_inverse() is not None:
            self, ref = ref, self  # flag equality is symmetric; use the P^-1 already formed
        c = self.change_of_basis(ref)
        # deepest[j]: the last row at which any of the first j + 1 columns of C is nonzero
        lowest = (max(r for r, e in enumerate(col) if e) for col in zip(*c))
        deepest = list(accumulate(lowest, max))
        mine, theirs = self._offsets(), ref._offsets()
        return [
            i
            for i in range(len(self))
            if mine[i + 1] != theirs[i + 1] or deepest[mine[i + 1] - 1] >= theirs[i + 1]
        ]

    def flag_meets(self, ref: "Decomposition") -> list[Subspace]:
        """(W_0+...+W_i) meet (V_i+...+V_d) for each i, where V_0..V_d are the parts of `ref`.

        A vector P[:, parts <= i] x lies in V_i+...+V_d exactly when its ref
        coordinates C[:, parts <= i] x vanish in the rows of ref's parts
        before i, so the meet is P[:, parts <= i] times the kernel of that
        block of C. At i = 0 the second sum is the whole space.
        """
        self._check_same_length(ref)
        c = self.change_of_basis(ref)
        n = self.ambient_dim
        p = self.basis_matrix().numerators
        mine, theirs = self._offsets(), ref._offsets()
        meets = [self.parts[0]]
        for i in range(1, len(self)):
            k = mine[i + 1]
            null = _null_vectors([row[:k] for row in c[: theirs[i]]], k)
            # P[:, :k] x for each kernel vector x of length k
            vectors = [[sum(map(mul, x, row)) for row in p] for x in null]
            meets.append(_span(n, vectors) if vectors else Subspace.zero(n))
        return meets

    def diagonal_map(self, values) -> Matrix:
        """P diag P^-1: the map acting as values[i] on the i-th part."""
        values = [Fraction(v) for v in values]
        if len(values) != len(self.parts):
            raise ShapeError(f"{len(values)} values for {len(self.parts)} parts")
        den = lcm(*(v.denominator for v in values))
        scales = [v.numerator * (den // v.denominator) for part, v in zip(self.parts, values) for _ in part.numerators]
        p = self.basis_matrix()
        scaled = Matrix([[e * s for e, s in zip(row, scales)] for row in p.numerators], p.denominator * den)
        return scaled * self.basis_inverse()

    def acts_as(self, x: Matrix, values) -> bool:
        """Whether X P = P diag(values), that is X acts as values[i] on the i-th part; no matrix is built."""
        values = [Fraction(v) for v in values]
        if len(values) != len(self.parts):
            raise ShapeError(f"{len(values)} values for {len(self.parts)} parts")
        p = self.basis_matrix()
        image = _numerator_product(x, p)
        # X P has numerators `image` over x.denominator (P is integral)
        columns = [(v.numerator * x.denominator, v.denominator) for part, v in zip(self.parts, values) for _ in part.numerators]
        return all(
            e * den == num * f
            for image_row, p_row in zip(image, p.numerators)
            for e, f, (num, den) in zip(image_row, p_row, columns)
        )

    def projector(self, indices) -> Matrix:
        """The projector onto the sum of the parts at `indices`, along the other parts."""
        return self.diagonal_map([int(i in indices) for i in range(len(self.parts))])

    def block_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        """The (row, column) positions of block (i, j): the rows of part i by the columns of part j."""
        start = self._offsets()
        return [(r, c) for r in range(start[i], start[i + 1]) for c in range(start[j], start[j + 1])]

    def block_is_zero(self, y: Matrix | Numerators, i: int, j: int) -> bool:
        """Whether block (i, j) of y is zero; for y = P^-1 X P, exactly when E_i X E_j = 0."""
        return not any(y.numerators[r][c] for r, c in self.block_cells(i, j))
