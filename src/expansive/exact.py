"""Exact rational linear algebra and polynomial primitives, with no floating
point anywhere: characteristic and minimal polynomials, kernels and
subspaces, rational roots, definiteness tests, and the integer polynomial
kernels (gcd, exact quotient, the Sturm and Cauchy remainder chain) on which
``spectral`` counts roots.

Matrices are integer numerators over one common denominator, read from
JSON by ``num_den`` with no ``Fraction`` per entry.  Kernels, subspaces,
intersections and minimal polynomials eliminate fraction-free on
``IntEchelon``s of integer vectors.  ``rref``, behind ``solve_exact`` and
``coordinates_in_span``, is the one Gauss-Jordan left in ``Fraction``s;
tests/test_source.py lists every library function that still calls it.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence


class NonSquareError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class NotInvertibleError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    pass


class ZeroConstantTermError(ValueError):
    pass


class ParseError(ValueError):
    pass


class CapExceededError(Exception):
    """A search hit one of its resource caps; the question stays open."""


class SelfCheckError(ValueError):
    """An exact check of a result the library just built failed; nothing is returned."""


RationalLike = Fraction | int | str


def num_den(x: RationalLike) -> tuple[int, int]:
    """A rational as an integer numerator over a positive denominator, not
    always in lowest terms.  An int or a plain "p/q" string is read straight
    off; any other string goes through ``Fraction(str)``, whose language
    and ParseErrors are kept."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        p, sep, q = x.partition("/")
        try:
            if x.isascii() and p.removeprefix("-").isdigit() and (not sep or q.isdigit() and q.strip("0")):
                return int(p), int(q) if sep else 1
            x = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {x!r}") from exc
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, float):
        raise ParseError(f"refusing float {x!r}; pass an exact rational")
    raise ParseError(f"not a rational: {x!r}")


def _common_den(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Pairs (p, q) as numerators over their least common denominator."""
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def to_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(*num_den(x))


# === immutable values ===

_set = object.__setattr__


class Frozen:
    """Base of the library's immutable values: the fields are the
    ``__slots__``, which ``__init__`` sets once through ``_set``.  A subclass
    that defines no ``__init__`` gets ``__init__(self, <fields in order>)``,
    built when the class is created.  Equal fields compare and hash equal;
    ``repr``, copies and pickles read the fields in order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if fields and "__init__" not in cls.__dict__:
            # Generated source, as in ``dataclasses``: one ``_set`` per field
            # runs as fast as a hand-written constructor; a loop over the
            # slots would not.  The names come from the class body.
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
            namespace: dict = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", {"_set": _set}, namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


# === matrices ===


def _int_matmul(a: Sequence[int], b: Sequence[int], n: int, k: int, m: int) -> list[int]:
    """Row-major product of an n x k and a k x m integer matrix."""
    rows = [a[i * k : (i + 1) * k] for i in range(n)]
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, r, c)) for r in rows for c in cols]


class QMatrix(Frozen):
    """Immutable rational matrix, row-major.

    Stored as integer numerators ``num`` over one positive common
    denominator ``den`` with ``gcd(den, *num) == 1``, so equal matrices
    have equal storage.  Products, sums, hashing and ``char_poly`` work on
    these integers.  ``entries`` gives the same values as Fractions; it is
    built on first use, and a matrix built from Fractions keeps them and
    works out ``num``/``den`` on first use instead.
    """

    __slots__ = ("rows", "cols", "_entries", "_num", "_den", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]) -> None:
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError("entry count does not match shape")
        self._fill(rows, cols, entries, None, None)

    def _fill(self, rows: int, cols: int, entries, num, den) -> None:
        for name, value in zip(QMatrix.__slots__, (rows, cols, entries, num, den, None)):
            _set(self, name, value)

    @staticmethod
    def _make(rows: int, cols: int, num: Sequence[int], den: int) -> "QMatrix":
        """num / den, which must already be reduced."""
        m = object.__new__(QMatrix)
        m._fill(rows, cols, None, tuple(num), den)
        return m

    @staticmethod
    def _reduced(rows: int, cols: int, num: Sequence[int], den: int) -> "QMatrix":
        """num / den for any positive den, reduced by the common gcd."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return QMatrix._make(rows, cols, num, den)

    def _ints(self) -> tuple[tuple[int, ...], int]:
        if self._num is None:
            # the lcm of reduced denominators leaves gcd(den, *num) == 1
            num, den = _common_den([(e.numerator, e.denominator) for e in self._entries])
            _set(self, "_num", tuple(num))
            _set(self, "_den", den)
        return self._num, self._den

    @property
    def num(self) -> tuple[int, ...]:
        return self._ints()[0]

    @property
    def den(self) -> int:
        return self._ints()[1]

    @property
    def entries(self) -> tuple[Fraction, ...]:
        ents = self._entries
        if ents is None:
            den = self._den
            ents = tuple(map(Fraction, self._num)) if den == 1 else tuple(Fraction(x, den) for x in self._num)
            _set(self, "_entries", ents)
        return ents

    def __reduce__(self):
        return QMatrix, (self.rows, self.cols, self.entries)

    def __repr__(self) -> str:
        return f"QMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        a, da = self._ints()
        b, db = other._ints()
        return da == db and a == b

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            num, den = self._ints()
            h = hash((self.rows, self.cols, den, num))
            _set(self, "_hash", h)
        return h

    @staticmethod
    def _lines(lines: Sequence[Sequence[RationalLike]], what: str) -> tuple[int, int, list[RationalLike]]:
        """Count, common length and entries (line after line) of equal-length lines."""
        count = len(lines)
        length = len(lines[0]) if count else 0
        ents: list[RationalLike] = []
        for line in lines:
            if len(line) != length:
                raise DimensionMismatchError(f"ragged {what}")
            ents.extend(line)
        return count, length, ents

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "QMatrix":
        nr, nc, ents = QMatrix._lines(rows, "rows")
        return QMatrix._reduced(nr, nc, *_common_den(list(map(num_den, ents))))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix._make(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)], 1)

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix._make(rows, cols, (0,) * (rows * cols), 1)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[RationalLike]]) -> "QMatrix":
        # kept as Fractions: the Fraction Gauss-Jordan reads these entries
        nc, nr, ents = QMatrix._lines(cols, "columns")
        return QMatrix(nr, nc, [to_fraction(x) for i in range(nr) for x in ents[i::nr]])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _combine(self, other: "QMatrix", sign: int, op: str) -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(f"shape mismatch in {op}")
        a, da = self._ints()
        b, db = other._ints()
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return QMatrix._reduced(self.rows, self.cols, [x * fa + y * fb for x, y in zip(a, b)], den)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1, "+")

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1, "-")

    def __neg__(self) -> "QMatrix":
        num, den = self._ints()
        return QMatrix._make(self.rows, self.cols, [-x for x in num], den)

    def scale(self, c: RationalLike) -> "QMatrix":
        c = to_fraction(c)
        num, den = self._ints()
        p = c.numerator
        return QMatrix._reduced(self.rows, self.cols, [p * x for x in num], den * c.denominator)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("shape mismatch in @")
        a, da = self._ints()
        b, db = other._ints()
        return QMatrix._reduced(self.rows, other.cols, _int_matmul(a, b, self.rows, self.cols, other.cols), da * db)

    def apply(self, v: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """M v, on integers: v's denominators are cleared once, and each row
        is one integer dot product over den times v's common denominator."""
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        num, den = self._ints()
        vnum, vden = _common_den([(x.numerator, x.denominator) for x in v])
        c, den = self.cols, den * vden
        return tuple(Fraction(sum(map(mul, num[i * c : (i + 1) * c], vnum)), den) for i in range(self.rows))

    def transpose(self) -> "QMatrix":
        num, den = self._ints()
        c = self.cols
        return QMatrix._make(c, self.rows, [x for j in range(c) for x in num[j::c]], den)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise NonSquareError("trace of non-square matrix")
        num, den = self._ints()
        return Fraction(sum(num[:: self.rows + 1]), den)

    def det(self) -> Fraction:
        """Fraction-free (Bareiss) elimination on the integer numerators:
        each step's division by the previous pivot is exact."""
        if not self.is_square:
            raise NonSquareError("det of non-square matrix")
        num, den = self._ints()
        n = self.rows
        a = [list(num[i * n : (i + 1) * n]) for i in range(n)]
        sign, prev = 1, 1
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                sign = -sign
            top, p = a[c], a[c][c]
            for r in range(c + 1, n):
                row, f = a[r], a[r][c]
                for j in range(c + 1, n):
                    row[j] = (p * row[j] - f * top[j]) // prev
            prev = p
        return Fraction(sign * prev, den**n)

    def inverse(self) -> "QMatrix":
        """Fraction-free (Bareiss) Gauss-Jordan on [A | I], A = den * M: every
        entry is det(A_k) times the rational one after pivot k, so each division
        by the previous pivot is exact.  It ends at [d I | d A^-1], d = +-det A."""
        if not self.is_square:
            raise NonSquareError("inverse of non-square matrix")
        num, den = self._ints()
        n = self.rows
        a = [[*num[i * n : (i + 1) * n], *(int(i == j) for j in range(n))] for i in range(n)]
        prev = 1
        for k in range(n):
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                raise NotInvertibleError("singular matrix")
            a[k], a[piv] = a[piv], a[k]
            top, p = a[k], a[k][k]
            for i in range(n):
                if i != k:
                    f = a[i][k]
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
            prev = p
        s = den if prev > 0 else -den
        return QMatrix._reduced(n, n, [s * x for row in a for x in row[n:]], abs(prev))

    def is_integer(self) -> bool:
        return self._ints()[1] == 1

    def to_floats(self) -> list[list[float]]:
        # int true division rounds correctly, so each float equals float(entry)
        num, den = self._ints()
        c = self.cols
        return [[x / den for x in num[i * c : (i + 1) * c]] for i in range(self.rows)]

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    from_json = from_rows  # of ints and "p/q" strings


def mat_power(m: QMatrix, e: int) -> QMatrix:
    if not m.is_square:
        raise NonSquareError("power of non-square matrix")
    if e < 0:
        return mat_power(m.inverse(), -e)
    out = QMatrix.identity(m.rows)
    base = m
    while e:
        if e & 1:
            out = out @ base
        base = base @ base if e > 1 else base
        e >>= 1
    return out


# === row reduction, kernels, subspaces ===


def _gauss_jordan(a: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring the rows ``a`` to reduced row echelon form in place, pivoting
    in the first ``ncols`` columns only; the pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return pivots


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots = _gauss_jordan(a, m.cols)
    return QMatrix(m.rows, m.cols, [x for row in a for x in row]), tuple(pivots)


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries (the zero vector as is)."""
    g = math.gcd(*v)
    return tuple(v) if g in (0, 1) else tuple(x // g for x in v)


def primitive_integer(v: Iterable[RationalLike]) -> tuple[int, ...]:
    """The primitive integer multiple of a rational vector (the zero vector stays zero)."""
    return _primitive(_common_den([num_den(x) for x in v])[0])


def _cleared(v: tuple[int, ...], pivots: Sequence[int], rows: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The primitive integer vector v with its entries at the pivots cleared,
    fraction-free, by the rows, which are in increasing pivot order and zero
    before their pivots: clearing one pivot leaves the earlier ones clear."""
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c:
            p = row[piv]
            v = _primitive([p * x - c * y for x, y in zip(v, row)])
    return v


class IntEchelon:
    """Row echelon basis of a growing subspace of Q^n, in integers.

    ``rows`` are primitive integer vectors in increasing pivot order, a
    pivot being a row's first nonzero entry, which is positive; ``pivots``
    are their columns.  ``add`` reduces a vector fraction-free,
    cross-multiplying by pivots and dividing by the gcd (Bareiss, Math.
    Comp. 22, 1968), so no entry is ever a Fraction.  ``reduced`` gives the
    canonical reduced row echelon basis of the span, which is what
    ``Subspace.from_vectors``, ``kernel`` and ``orbits.invariant_closure``
    return.  ``len`` is the rank.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[tuple[int, ...]] = []
        self._pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def add(self, v: Sequence[int]) -> bool:
        """Add an integer vector of length n; whether it was outside the span."""
        if len(v) != self.n:
            raise DimensionMismatchError("vector length mismatch")
        v = _cleared(_primitive(v), self._pivots, self.rows)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        if v[piv] < 0:
            v = tuple(-x for x in v)
        at = bisect.bisect(self._pivots, piv)
        self._pivots.insert(at, piv)
        self.rows.insert(at, v)
        return True

    def reduced(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced row echelon basis of the span: back-substitution from
        the last pivot up, fraction-free, clears each row at the later
        pivots, and only the final division by each row's pivot makes
        Fractions."""
        rows, pivots = self.rows[:], self._pivots
        for i in reversed(range(len(rows))):
            rows[i] = _cleared(rows[i], pivots[i + 1 :], rows[i + 1 :])
        return tuple(tuple(Fraction(x, v[piv]) for x in v) for piv, v in zip(pivots, rows))


class Subspace(Frozen):
    """Subspace of Q^n given by an independent basis of column vectors.

    The basis is canonicalized (reduced column echelon form), so two
    Subspace values compare equal exactly when they are the same subspace.
    An empty basis is the zero subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    @staticmethod
    def from_vectors(ambient_dim: int, vecs: Iterable[Sequence[RationalLike]]) -> "Subspace":
        """The span of the vectors: each one, scaled to integers, goes into one
        ``IntEchelon``, which gives the canonical basis."""
        ints = [primitive_integer(v) for v in vecs]
        echelon = IntEchelon(ambient_dim)
        for v in ints:
            echelon.add(v)
        return Subspace(ambient_dim, echelon.reduced())

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(
            ambient_dim,
            [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)],
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> QMatrix:
        """Basis vectors as the columns of an ambient_dim x dim matrix."""
        return QMatrix.from_columns(self.basis) if self.basis else QMatrix.zero(self.ambient_dim, 0)

    def contains(self, v: Sequence[RationalLike]) -> bool:
        vec = tuple(to_fraction(x) for x in v)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError("vector length mismatch")
        return coordinates_in_span(self.basis, vec) is not None

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in b] for b in self.basis]


def coordinates_in_span(
    basis: Sequence[Sequence[Fraction]], v: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Coordinates of v over the given independent vectors, or None."""
    if not basis:
        return () if not any(v) else None
    return solve_exact(QMatrix.from_columns(basis), tuple(v))


def solve_exact(a: QMatrix, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b, or None when inconsistent.

    When the system is underdetermined the free variables are set to 0.
    """
    if len(b) != a.rows:
        raise DimensionMismatchError("rhs length mismatch")
    aug = QMatrix(a.rows, a.cols + 1, tuple(
        a.entries[i * a.cols + j] if j < a.cols else to_fraction(b[i])
        for i in range(a.rows) for j in range(a.cols + 1)
    ))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    return tuple(x)


def _null_rows(num: Sequence[int], r: int, c: int) -> list[tuple[int, ...]]:
    """Integer rows spanning the null space of the r x c integer matrix
    ``num`` (row-major): the rows (column j of num, e_j) span the pairs
    (A x, x), and the echelon rows of that span whose pivot lies past the
    first block are (0, x) with x running over a basis of the kernel."""
    echelon = IntEchelon(r + c)
    for j in range(c):
        echelon.add([*num[j::c], *(int(i == j) for i in range(c))])
    return [row[r:] for piv, row in zip(echelon.pivots, echelon.rows) if piv >= r]


def kernel(m: QMatrix) -> Subspace:
    """Exact null space, fraction-free, from the integer rows of ``_null_rows``."""
    null = IntEchelon(m.cols)
    for x in _null_rows(m.num, m.rows, m.cols):
        null.add(x)
    return Subspace(m.cols, null.reduced())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection of two subspaces of the same ambient space.

    Fraction-free: A and B are the two bases' numerators over one common
    denominator.  The null space of [A | B] holds the (x, y) with
    A x = B (-y), so with C its first ``a.dim`` coordinates the columns of
    the integer product A C span the intersection."""
    n = a.ambient_dim
    if n != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    both = (*a.basis, *b.basis)
    den = math.lcm(*(x.denominator for v in both for x in v))
    cols = [[x.numerator * (den // x.denominator) for x in v] for v in both]
    ka, k = a.dim, len(cols)
    coeffs = _null_rows([u[i] for i in range(n) for u in cols], n, k)  # of [A | B], row-major
    m = len(coeffs)
    a_num = [u[i] for i in range(n) for u in cols[:ka]]
    common = _int_matmul(a_num, [x[j] for j in range(ka) for x in coeffs], n, ka, m)
    echelon = IntEchelon(n)
    for j in range(m):
        echelon.add(common[j::m])
    return Subspace(n, echelon.reduced())


# === polynomials ===


class QPoly(Frozen):
    """Rational polynomial; coeffs[i] is the coefficient of z^i.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    @staticmethod
    def from_coeffs(coeffs: Sequence[RationalLike]) -> "QPoly":
        cs = [to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return QPoly(tuple(cs))

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((Fraction(1),))

    @staticmethod
    def x() -> "QPoly":
        return QPoly((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        x = to_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return QPoly.from_coeffs([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QPoly.from_coeffs(out)

    def scale(self, c: RationalLike) -> "QPoly":
        c = to_fraction(c)
        return QPoly.from_coeffs([c * a for a in self.coeffs])

    def shift_scale_arg(self, r: RationalLike) -> "QPoly":
        """p(r*z) as a polynomial in z."""
        r = to_fraction(r)
        return QPoly.from_coeffs([c * r**i for i, c in enumerate(self.coeffs)])

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroPolynomialError("division by zero polynomial")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d = other.degree
        lc = other.leading
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
            r.pop()
        return QPoly.from_coeffs(q), QPoly.from_coeffs(r)

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("exact division with nonzero remainder")
        return q

    def derivative(self) -> "QPoly":
        return QPoly.from_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def reverse(self) -> "QPoly":
        """z^deg * p(1/z); requires a nonzero polynomial."""
        if self.is_zero:
            raise ZeroPolynomialError("reverse of zero polynomial")
        return QPoly.from_coeffs(tuple(reversed(self.coeffs)))

    def monic(self) -> "QPoly":
        if self.is_zero:
            raise ZeroPolynomialError("monic of zero polynomial")
        return self.scale(1 / self.leading)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")


def poly_of_matrix(p: QPoly, m: QMatrix) -> QMatrix:
    """p(M) by Horner's rule."""
    if not m.is_square:
        raise NonSquareError("polynomial of non-square matrix")
    n = m.rows
    acc = QMatrix.zero(n, n)
    ident = QMatrix.identity(n)
    for c in reversed(p.coeffs):
        acc = acc @ m + ident.scale(c)
    return acc


def char_poly(m: QMatrix) -> QPoly:
    """Monic characteristic polynomial det(zI - M), exactly.

    Faddeev-LeVerrier on the integer numerators A of M = A / den: with
    B_1 = A, e_k = -tr(B_k) / k and B_{k+1} = A (B_k + e_k I), every e_k is
    the (integer) coefficient of z^(n-k) in det(zI - A), so the division by
    k is exact, and M's coefficient is e_k / den^k.
    """
    if not m.is_square:
        raise NonSquareError("characteristic polynomial of non-square matrix")
    n = m.rows
    a, den = m._ints()
    coeffs = [Fraction(1)]  # of z^n, then z^{n-1}, ...
    bk: Sequence[int] = a
    den_k = 1
    for k in range(1, n + 1):
        ek = -sum(bk[:: n + 1]) // k
        den_k *= den
        coeffs.append(Fraction(ek, den_k))
        if k < n:
            shifted = list(bk)
            for i in range(0, n * n, n + 1):
                shifted[i] += ek
            bk = _int_matmul(a, shifted, n, n, n)
    return QPoly.from_coeffs(list(reversed(coeffs)))


def minimal_poly(m: QMatrix) -> QPoly:
    """Monic minimal polynomial of M = A / den: the powers of A go into one
    ``IntEchelon`` until A^d is in the span (d <= n), and the null row c of
    [A^0 ... A^d] gives M's coefficients c_i / (c_d den^(d - i))."""
    if not m.is_square:
        raise NonSquareError("minimal polynomial of non-square matrix")
    n = m.rows
    a, den = m._ints()
    powers = [QMatrix.identity(n).num]
    span = IntEchelon(n * n)
    while span.add(powers[-1]):
        powers.append(_int_matmul(powers[-1], a, n, n, n))
    d = len(powers) - 1
    (c,) = _null_rows([x for entry in zip(*powers) for x in entry], n * n, d + 1)
    return QPoly.from_coeffs([Fraction(c[i], c[d] * den ** (d - i)) for i in range(d + 1)])


# === integer polynomial gcd (subresultant PRS) and Sturm machinery ===


def _int_scaled(p: QPoly) -> list[int]:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _int_prim(cs: Sequence[int], keep_sign: bool = False) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return ()
    g = math.gcd(*(abs(c) for c in cs))
    cs = [c // g for c in cs]
    if not keep_sign and cs[-1] < 0:
        cs = [-c for c in cs]
    return tuple(cs)


def _int_pseudo_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, over the integers."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = len(a) - 1 - db + 1
    for _ in range(steps):
        da = len(a) - 1
        if da < db or not any(a):
            a = [c * lb for c in a]
            steps -= 1
            continue
        lead = a[-1]
        a = [c * lb for c in a]
        k = da - db
        for i, c in enumerate(b):
            a[k + i] -= lead * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd of two primitive integer polynomials, subresultant PRS."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _int_prim(a)
    g, h = 1, 1
    p, q = list(a), list(b)
    while True:
        delta = (len(p) - 1) - (len(q) - 1)
        r = _int_pseudo_rem(p, q)
        if not r:
            return _int_prim(q)
        if len(r) == 1:
            return (1,)
        div = g * h**delta
        p, q = q, [c // div for c in r]
        g = p[-1]
        h = g**delta // h ** (delta - 1) if delta >= 1 else h
    raise AssertionError


def _int_exact_quo(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a / b for integer polynomials where b divides a over the integers, as
    a primitive b that divides a over the rationals does (Gauss's lemma)."""
    a, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for k in reversed(range(len(q))):
        q[k] = c = a[k + db] // b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    if any(a):
        raise ValueError("exact division with nonzero remainder")
    return tuple(q)


def _int_derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd over the rationals, via subresultant PRS on integer forms."""
    if a.is_zero and b.is_zero:
        return QPoly.zero()
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _int_gcd(_int_prim(_int_scaled(a)), _int_prim(_int_scaled(b)))
    return QPoly.from_coeffs(g).monic()


TRIAL_DIVISION_CAP = 10**6  # largest trial divisor of _divisors


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, from its factorization by trial
    division; each prime is divided out as it is found.  A cofactor of at
    least (cap + 1)^2 with no factor up to the cap raises CapExceededError."""
    out = [1]
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_CAP:
            raise CapExceededError(f"a {n.bit_length()}-bit cofactor has no factor up to TRIAL_DIVISION_CAP = {TRIAL_DIVISION_CAP}")
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out = [x * d**k for x in out for k in range(e + 1)]
        d += 1
    return out + [x * n for x in out] if n > 1 else out


def rational_roots(p: QPoly) -> list[Fraction]:
    """All rational roots, by the rational root test on the integer form:
    a root num/den in lowest terms has num | a0 and den | an, and makes
    sum a_i num^i den^(n-i) vanish."""
    if p.is_zero:
        raise ZeroPolynomialError("rational roots of zero polynomial")
    ints = list(_int_prim(_int_scaled(p)))
    shift = 0
    while ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = [Fraction(0)] if shift else []
    if len(ints) == 1:
        return roots

    dens = _divisors(abs(ints[-1]))
    for num in _divisors(abs(ints[0])):
        for den in dens:
            if math.gcd(num, den) == 1:
                roots += [Fraction(s * num, den) for s in (1, -1) if not _int_value(ints, s * num, den)]
    return sorted(roots)


def _int_value(cs: Sequence[int], num: int, den: int) -> int:
    """den^deg * p(num / den) for the integer polynomial p with coefficients cs."""
    total, den_power = 0, 1
    for a in reversed(cs):
        total = total * num + a * den_power
        den_power *= den
    return total


def _sign(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def _neg_rem_int(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer form of -(a mod b), scaled by positive rationals only:
    prem(a, b) is lc(b)^(deg a - deg b + 1) (a mod b), so the sign of that power counts."""
    r = _int_pseudo_rem(a, b)
    if b[-1] > 0 or (len(a) - len(b)) % 2:
        r = [-c for c in r]
    return _int_prim(r, keep_sign=True)


def _remainder_chain(f0: Sequence[int], f1: Sequence[int]) -> list[tuple[int, ...]]:
    """The chain f0, f1, f_{k+1} = -(f_{k-1} mod f_k) of integer polynomials, up
    to the last nonzero remainder; f1 must be nonzero, of lower degree than f0.
    Each remainder is rescaled by a positive rational only, so the classical
    chain's sign structure holds."""
    chain = [tuple(f0), tuple(f1)]
    while len(chain[-1]) > 1:
        r = _neg_rem_int(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _variations(signs: Sequence[int]) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s:
            if prev and s != prev:
                v += 1
            prev = s
    return v


def _chain_signs_at(chain: Sequence[Sequence[int]], x: Fraction | int) -> list[int]:
    return [_sign(_int_value(cs, x.numerator, x.denominator)) for cs in chain]


def _chain_signs_at_inf(chain: Sequence[Sequence[int]], positive: bool) -> list[int]:
    out = []
    for cs in chain:
        if not cs:
            out.append(0)
            continue
        lead = _sign(cs[-1])
        deg = len(cs) - 1
        out.append(lead if positive or deg % 2 == 0 else -lead)
    return out


def _int_sturm(f: Sequence[int], lo: Fraction | int, hi: Fraction | int) -> int:
    """Real roots in (lo, hi] of a squarefree integer polynomial of degree >= 1."""
    chain = _remainder_chain(f, _int_derivative(f))
    # dropping zeros in the variation count evaluates right-hand limits, so
    # V(lo) - V(hi) counts roots in (lo, hi] with no endpoint special cases
    return _variations(_chain_signs_at(chain, lo)) - _variations(_chain_signs_at(chain, hi))


# === exact definiteness tests ===


def is_symmetric(m: QMatrix) -> bool:
    num, n = m._ints()[0], m.rows
    return m.is_square and all(num[i * n + j] == num[j * n + i] for i in range(n) for j in range(i + 1, n))


def _is_positive(m: QMatrix, strict: bool) -> bool:
    """Exact definiteness of a symmetric rational matrix by fraction-free (Bareiss)
    elimination on the upper triangle of its numerators.  A pivot is the last
    nonzero one times the rational pivot, so each must be >= 0 (> 0 if ``strict``).
    A zero pivot needs a vanishing row; the next step divides by the last nonzero one."""
    if not is_symmetric(m):
        raise NonSquareError("definiteness test requires a symmetric matrix")
    n = m.rows
    num = m._ints()[0]
    a = [list(num[i * n : (i + 1) * n]) for i in range(n)]
    prev = 1
    for i in range(n):
        top, piv = a[i], a[i][i]
        if piv < 0 or (strict and piv == 0):
            return False
        if piv == 0:
            if any(top[i + 1 :]):
                return False
            continue
        for r in range(i + 1, n):
            row, f = a[r], top[r]
            for c in range(r, n):
                row[c] = (piv * row[c] - f * top[c]) // prev
        prev = piv
    return True


def is_positive_semidefinite(m: QMatrix) -> bool:
    """Exact PSD test for a symmetric rational matrix."""
    return _is_positive(m, False)


def is_positive_definite(m: QMatrix) -> bool:
    """Exact PD test for a symmetric rational matrix."""
    return _is_positive(m, True)
