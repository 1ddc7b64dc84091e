"""The integer kernels against the Fraction routines they replaced.

``QMatrix.inverse``, ``QMatrix.apply``, the definiteness test, ``kernel``,
``Subspace.from_vectors``, ``Subspace.contains``, ``intersect``,
``minimal_poly``, ``solve_exact``, the disk and circle counts of
``spectral``, ``restrict_action`` and ``invariant_line``, which ``verify``
runs, and the solenoid's ``_base_level_plan`` and ``span_restriction``
work on integer numerators.
The Fraction loops they replaced are kept below as oracles (the polynomial
ones on sympy polynomials over QQ, so that no oracle runs the library's own
arithmetic), and derandomized suites check that both give the same answers: equal matrix
storage, equal booleans, equal bases, equal profiles.  The sympy and mpmath
oracle tests in test_exact.py and test_spectral.py stay the gate; these
tests pin the new routines to the old ones case by case.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import exact
from expansive.actions import SemigroupAction, invariant_line, restrict_action
from expansive.cli import parse_dual_module
from expansive.exact import (
    DimensionMismatchError,
    NotInvertibleError,
    QMatrix,
    QPoly,
    Subspace,
    ZeroConstantTermError,
    coordinates_in_span,
    intersect,
    is_positive_definite,
    is_positive_semidefinite,
    kernel,
    minimal_poly,
    poly_of_matrix,
    rref,
    solve_exact,
    to_fraction,
    _int_derivative,
    _int_exact_quo,
    _int_gcd,
    _int_prim,
    _int_scaled,
    _int_sturm,
    _neg_rem_int,
)
from expansive.solenoid import DualModuleAction, _base_level_plan, span_restriction
from expansive.spectral import GROUP, SEMIGROUP, _inside_by_half_plane, circle_root_count, unit_disk_profile
from oracle_roots import from_sympy, reverse, sympy_poly, to_sympy
from test_orbits import perfbench_cases

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUITE = settings(max_examples=300, deadline=None, derandomize=True)


# ------------------------------------------------------------ the oracles


def inverse_by_fractions(m: QMatrix) -> QMatrix:
    """The replaced inverse: Gauss-Jordan on [M | I] in Fractions."""
    n = m.rows
    a = [list(m.row(i)) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise NotInvertibleError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return QMatrix.from_rows([row[n:] for row in a])


def gauss_jordan_by_fractions(a: list[list[Fraction]], ncols: int) -> list[int]:
    """The Fraction Gauss-Jordan kernels and subspaces ran on: the rows ``a``
    to reduced row echelon form in place, pivoting in the first ``ncols``
    columns; the pivot columns."""
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


def from_vectors_by_fractions(ambient_dim: int, vecs) -> Subspace:
    """The replaced ``Subspace.from_vectors``: the vectors as the rows of one
    Gauss-Jordan in Fractions, whose nonzero rows are the basis."""
    rows = [[to_fraction(x) for x in v] for v in vecs]
    if any(len(v) != ambient_dim for v in rows):
        raise DimensionMismatchError("vector length mismatch")
    pivots = gauss_jordan_by_fractions(rows, ambient_dim)
    return Subspace(ambient_dim, tuple(tuple(rows[i]) for i in range(len(pivots))))


def kernel_by_fractions(m: QMatrix) -> Subspace:
    """The replaced ``kernel``: one vector per free column of the reduced
    row echelon form in Fractions."""
    a = m.to_rows()
    pivots = gauss_jordan_by_fractions(a, m.cols)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return from_vectors_by_fractions(m.cols, basis)


def is_positive_by_fractions(m: QMatrix, strict: bool) -> bool:
    """The replaced definiteness test: congruence elimination in Fractions."""
    n = m.rows
    a = [[m[i, j] for j in range(n)] for i in range(n)]
    for i in range(n):
        piv = a[i][i]
        if piv < 0 or (strict and piv == 0):
            return False
        if piv == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return False
            continue
        for r in range(i + 1, n):
            f = a[r][i] / piv
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return True


def chain_by_fractions(f0, f1) -> list:
    """The chain f0, f1, f_{k+1} = -(f_{k-1} mod f_k) in Fractions, up to the
    last nonzero remainder; f1 must be nonzero."""
    chain = [f0, f1]
    while chain[-1].degree() > 0:
        r = -chain[-2].rem(chain[-1])
        if r.is_zero:
            break
        chain.append(r)
    return chain


def sign_changes(values) -> int:
    signs = [s for s in (bool(v > 0) - bool(v < 0) for v in values) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_by_fractions(f, lo, hi) -> int:
    """Distinct real roots of a squarefree f in (lo, hi], by the classical
    Sturm chain f, f', -(f_{k-1} mod f_k) in Fractions."""
    chain = chain_by_fractions(f, f.diff())
    return sign_changes(g.eval(lo) for g in chain) - sign_changes(g.eval(hi) for g in chain)


def cauchy_index_by_fractions(num, den) -> int:
    """Cauchy index of num/den over the real line: the sign changes of the
    chain den, num, -(f_{k-1} mod f_k) in Fractions at -inf less those at +inf."""
    if num.is_zero:
        return 0
    chain = chain_by_fractions(den, num)
    at_minus_inf = (g.LC() if g.degree() % 2 == 0 else -g.LC() for g in chain)
    return sign_changes(at_minus_inf) - sign_changes(g.LC() for g in chain)


def root_multiplicity_by_fractions(p, r) -> tuple:
    """Multiplicity of the rational root r, and p with those factors divided out."""
    line = sympy_poly([-r, 1])
    mult = 0
    while not p.is_zero and p.eval(r) == 0:
        p = p.exquo(line)
        mult += 1
    return mult, p


def w_transform_by_fractions(h):
    """H with h(z) = z^m H(z + 1/z), from P_0 = 2, P_1 = w, P_{j+1} = w P_j - P_{j-1}."""
    m = h.degree() // 2
    coeffs = h.all_coeffs()[::-1]
    w = sympy_poly([0, 1])
    out = sympy_poly([coeffs[m]])
    before, cur = sympy_poly([2]), w
    for j in range(1, m + 1):
        out = out + cur * coeffs[m + j]
        before, cur = cur, w * cur - before
    return out


def circle_count_of_closed_factor_by_fractions(g) -> int:
    a, g1 = root_multiplicity_by_fractions(g, 1)
    b, h = root_multiplicity_by_fractions(g1, -1)
    pairs = 0
    if h.degree() > 0:
        cur = w_transform_by_fractions(h)
        while cur.degree() >= 1:
            pairs += sturm_by_fractions(cur.exquo(cur.gcd(cur.diff())), F(-2), F(2))
            cur = cur.gcd(cur.diff())
    return a + b + 2 * pairs


class Singular(Exception):
    pass


def schur_cohn_by_fractions(q) -> int:
    n = q.degree()
    if n <= 0:
        return 0
    a0, an = q.eval(0), q.LC()
    delta = a0 * a0 - an * an
    if delta == 0:
        raise Singular
    sub = schur_cohn_by_fractions(q * a0 - reverse(q) * an)
    return sub if delta > 0 else n - sub


def half_plane_by_fractions(q) -> int:
    """The replaced half-plane count: the Cayley image (1 - s)^m q((1 + s)/(1 - s))
    built from polynomial products, its real and imaginary parts along the
    imaginary axis, and their Cauchy index."""
    m = q.degree()
    if m <= 0:
        return 0
    one_plus = sympy_poly([1, 1])
    one_minus = sympy_poly([1, -1])
    f = sympy_poly([])
    up = sympy_poly([1])
    downs = [sympy_poly([1])]
    for _ in range(m):
        downs.append(downs[-1] * one_minus)
    for k, c in enumerate(q.all_coeffs()[::-1]):
        if c:
            f = f + up * downs[m - k] * c
        up = up * one_plus
    assert f.degree() == m
    even = [F(0)] * (m + 1)
    odd = [F(0)] * (m + 1)
    for j, c in enumerate(f.all_coeffs()[::-1]):
        if j % 2 == 0:
            even[j] = c if j % 4 == 0 else -c
        else:
            odd[j] = c if j % 4 == 1 else -c
    real = sympy_poly(even)
    imag = sympy_poly(odd)
    assert real.gcd(imag).degree() == 0
    if m % 2 == 0:
        return (m - cauchy_index_by_fractions(imag, real)) // 2
    return (m + cauchy_index_by_fractions(real, imag)) // 2


def split_by_fractions(p) -> tuple:
    g = p.gcd(reverse(p))
    return g, p.exquo(g)


def disk_profile_by_fractions(p: QPoly) -> tuple[int, int, int, int]:
    """The replaced unit_disk_profile chain, in Fractions."""
    at_zero = next(i for i, c in enumerate(p.coeffs) if c)
    pt = sympy_poly(p.coeffs[at_zero:])
    if pt.degree() == 0:
        return at_zero, 0, 0, 0
    g, q = split_by_fractions(pt)
    on_circle = circle_count_of_closed_factor_by_fractions(g)
    inside = (g.degree() - on_circle) // 2
    try:
        inside += schur_cohn_by_fractions(q)
    except Singular:
        inside += half_plane_by_fractions(q)
    return at_zero, inside, on_circle, pt.degree() - on_circle - inside


# ------------------------------------------------------------ inverse

small_fractions = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=7),
)


@st.composite
def square_matrices(draw):
    """n x n rational matrices, n <= 6; about a third made singular by
    replacing a row with a combination of two others."""
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(small_fractions, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n - 1))
        c, d = draw(small_fractions), draw(small_fractions)
        others = [row for i, row in enumerate(rows) if i != k]
        rows[k] = [c * x + d * y for x, y in zip(others[0], others[-1])]
    return QMatrix.from_rows(rows)


def storage(m: QMatrix):
    return m.rows, m.cols, m.num, m.den


@given(square_matrices())
@SUITE
def test_inverse_matches_the_fraction_gauss_jordan(m):
    try:
        want = inverse_by_fractions(m)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            m.inverse()
        assert m.det() == 0
        return
    got = m.inverse()
    assert storage(got) == storage(QMatrix.from_rows(want.to_rows()))
    assert got.entries == want.entries


def test_inverse_examples():
    # a zero leading entry forces a row swap; the determinant is 1, so the inverse is integer
    m = QMatrix.from_rows([[0, 2, 1], [1, 0, 0], [3, 1, 0]])
    assert storage(m.inverse()) == storage(QMatrix.from_rows([[0, 1, 0], [0, -3, 1], [1, 6, -2]]))
    h = QMatrix.from_rows([[F(1, i + j + 1) for j in range(4)] for i in range(4)])
    assert h.inverse() @ h == QMatrix.identity(4)
    assert QMatrix.from_rows([[F(3, 2)]]).inverse() == QMatrix.from_rows([[F(2, 3)]])
    assert QMatrix.identity(0).inverse() == QMatrix.identity(0)
    with pytest.raises(NotInvertibleError):
        QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).inverse()


# ------------------------------------------------------------ kernels and subspaces

mixed_fractions = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12),
)


@st.composite
def rational_matrices(draw):
    """r x c rational matrices, 0 <= r, c <= 7: plain ones and low-rank
    products B C (inner dimension up to min(r, c), zero included), some with
    zero rows and columns."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        rows = [draw(st.lists(mixed_fractions, min_size=c, max_size=c)) for _ in range(r)]
    else:
        k = draw(st.integers(0, min(r, c)))
        b = [draw(st.lists(mixed_fractions, min_size=k, max_size=k)) for _ in range(r)]
        cm = [draw(st.lists(mixed_fractions, min_size=c, max_size=c)) for _ in range(k)]
        rows = [[sum((b[i][t] * cm[t][j] for t in range(k)), F(0)) for j in range(c)] for i in range(r)]
    if r:
        for i in draw(st.lists(st.integers(0, r - 1), max_size=2)):
            rows[i] = [F(0)] * c
    if c:
        for j in draw(st.lists(st.integers(0, c - 1), max_size=2)):
            for row in rows:
                row[j] = F(0)
    return QMatrix(r, c, [x for row in rows for x in row])


def as_written(x: Fraction):
    """The same rational as a Fraction, an int where it is one, or a "p/q" string."""
    return [x, str(x), x.numerator if x.denominator == 1 else x]


@st.composite
def vector_lists(draw):
    """(n, vectors): the rows of a drawn matrix, with repeated vectors,
    rational combinations of two, multiples and zero vectors added, entries
    written as Fractions, ints or strings, and now and then one vector of
    the wrong length."""
    m = draw(rational_matrices())
    n = m.cols
    vecs = [list(m.row(i)) for i in range(m.rows)]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["repeat", "combination", "multiple", "zero"]))
        if extra == "zero" or not vecs:
            vecs.append([F(0)] * n)
        elif extra == "repeat":
            vecs.append(list(draw(st.sampled_from(vecs))))
        else:
            u, v = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            a, b = draw(mixed_fractions), F(0) if extra == "multiple" else draw(mixed_fractions)
            vecs.append([a * x + b * y for x, y in zip(u, v)])
    vecs = draw(st.permutations(vecs))
    vecs = [[draw(st.sampled_from(as_written(x))) for x in v] for v in vecs]
    if draw(st.integers(0, 5)) == 0:
        wrong = [1] * draw(st.sampled_from([k for k in (n - 1, n + 1) if k >= 0]))
        vecs.insert(draw(st.integers(0, len(vecs))), wrong)
    return n, vecs


@given(rational_matrices())
@SUITE
def test_kernel_matches_the_fraction_gauss_jordan(m):
    got = kernel(m)
    assert got == kernel_by_fractions(m)
    assert all(m.apply(v) == (0,) * m.rows for v in got.basis)


@given(vector_lists())
@SUITE
def test_subspace_from_vectors_matches_the_fraction_gauss_jordan(nv):
    n, vecs = nv
    try:
        want = from_vectors_by_fractions(n, vecs)
    except DimensionMismatchError:
        with pytest.raises(DimensionMismatchError):
            Subspace.from_vectors(n, vecs)
        return
    got = Subspace.from_vectors(n, iter(vecs))
    assert (got.ambient_dim, got.basis) == (want.ambient_dim, want.basis)
    assert all(isinstance(x, Fraction) for v in got.basis for x in v)


def test_kernels_and_subspaces_run_no_fraction_gauss_jordan(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction Gauss-Jordan called")

    monkeypatch.setattr(exact, "rref", refuse)
    monkeypatch.setattr(exact, "_gauss_jordan", refuse)
    m = QMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [F(1, 2), 0, F(-1, 3), 1]])
    assert kernel(m).basis == kernel_by_fractions(m).basis
    assert kernel(m).dim == 2
    vecs = [["1/2", 1, 0], [1, 2, 0], [0, 0, "3/7"], [0, 0, 0]]
    assert Subspace.from_vectors(3, vecs) == from_vectors_by_fractions(3, vecs)
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 1], [0, 0, 1]])
    assert intersect(a, b) == from_vectors_by_fractions(3, [[1, 1, 1]])
    assert Subspace.full(4) == from_vectors_by_fractions(4, [[int(i == j) for j in range(4)] for i in range(4)])
    # and so do the solver and the span questions answered on it
    assert solve_exact(QMatrix.from_rows([[1, 2, 3], [2, 4, 6], ["1/2", 0, 1]]), [1, 2, 0]) == (F(0), F(1, 2), F(0))
    assert coordinates_in_span([(F(1), F(2)), (F(0), F(1))], (F(3), F(4))) == (F(3), F(-2))
    assert Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 1]]).contains(["1/2", 1, 1])
    assert _base_level_plan([(F(1),), (F(3, 2),)]) == ([0], [(1, F(2), [(F(3, 2), 0)])])
    sixth = parse_dual_module({"n": 1, "F": [[2], [3]], "generators": {"d": [[2]], "t": [[3]]}, "mode": "group"})
    assert span_restriction(sixth)[0] == [(F(2),)]


def test_kernel_examples():
    # a kernel vector with a nonzero first coordinate has its echelon pivot
    # exactly at the first column of the second block
    m = QMatrix.from_rows([[1, -1]])
    assert kernel(m).basis == ((F(1), F(1)),)
    assert kernel(QMatrix.zero(2, 3)) == Subspace.full(3)
    assert kernel(QMatrix.identity(3)) == Subspace.zero(3)
    assert kernel(QMatrix(0, 2, ())) == Subspace.full(2)
    assert kernel(QMatrix(3, 0, ())) == Subspace.zero(0)
    h = QMatrix.from_rows([[F(1, i + j + 1) for j in range(5)] for i in range(3)])
    assert kernel(h) == kernel_by_fractions(h)


# ------------------------------------------------------------ apply and intersect


def apply_by_fractions(m: QMatrix, v) -> tuple[Fraction, ...]:
    """The replaced ``QMatrix.apply``: one Fraction sum per row."""
    c, ents = m.cols, m.entries
    return tuple(sum((ents[i * c + j] * v[j] for j in range(c)), F(0)) for i in range(m.rows))


def intersect_by_fractions(a: Subspace, b: Subspace) -> Subspace:
    """The replaced ``intersect``: the null space of [A | -B], and each common
    vector as a Fraction sum over the coordinates on a's basis."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    am, bm = a.matrix(), b.matrix()
    glued = QMatrix(a.ambient_dim, a.dim + b.dim, tuple(
        am[i, j] if j < a.dim else -bm[i, j - a.dim]
        for i in range(a.ambient_dim) for j in range(a.dim + b.dim)
    ))
    vecs = []
    for k in kernel_by_fractions(glued).basis:
        coeff = k[: a.dim]
        vecs.append(tuple(
            sum((coeff[j] * a.basis[j][i] for j in range(a.dim)), F(0))
            for i in range(a.ambient_dim)
        ))
    return from_vectors_by_fractions(a.ambient_dim, vecs)


@st.composite
def matrices_and_vectors(draw):
    """A drawn matrix and a vector of its width, zero-column matrices
    included, with entries written as Fractions or ints, now and then zero."""
    m = draw(rational_matrices())
    v = draw(st.lists(mixed_fractions, min_size=m.cols, max_size=m.cols))
    if draw(st.integers(0, 4)) == 0:
        v = [F(0)] * m.cols
    return m, [draw(st.sampled_from([x, x.numerator] if x.denominator == 1 else [x])) for x in v]


@given(matrices_and_vectors())
@SUITE
def test_apply_matches_the_fraction_dot_product(mv):
    m, v = mv
    got = m.apply(v)
    assert got == apply_by_fractions(m, v)
    assert len(got) == m.rows and all(type(x) is Fraction for x in got)


def test_apply_examples():
    m = QMatrix.from_rows([[F(1, 2), 0, 3], [-1, F(2, 3), F(-5, 7)]])
    assert m.apply((2, 3, 1)) == (F(4), F(-5, 7))
    assert m.apply([F(1, 3), F(-3, 4), F(7, 5)]) == apply_by_fractions(m, [F(1, 3), F(-3, 4), F(7, 5)])
    assert m.apply((0, 0, 0)) == (0, 0)
    assert QMatrix(3, 0, ()).apply(()) == (0, 0, 0)
    assert QMatrix(0, 2, ()).apply((1, 2)) == ()
    with pytest.raises(DimensionMismatchError):
        m.apply((1, 2))


@st.composite
def subspace_pairs(draw):
    """Two subspaces of one Q^n, n <= 6: drawn spans, the full and the zero
    space, a space with itself, with a subspace of it and with a space
    containing it, in either order."""
    n = draw(st.integers(0, 6))

    def span(extra=()):
        rows = [draw(st.lists(mixed_fractions, min_size=n, max_size=n)) for _ in range(draw(st.integers(0, n + 1)))]
        return Subspace.from_vectors(n, [*rows, *extra])

    a = span()
    kind = draw(st.sampled_from(["drawn", "full", "zero", "same", "inside", "around"]))
    if kind == "drawn":
        b = span()
    elif kind == "full":
        b = Subspace.full(n)
    elif kind == "zero":
        b = Subspace.zero(n)
    elif kind == "same":
        b = Subspace.from_vectors(n, a.basis)
    elif kind == "inside":
        weights = [[draw(mixed_fractions) for _ in a.basis] for _ in range(draw(st.integers(0, a.dim)))]
        combos = [[sum((w * v[i] for w, v in zip(ws, a.basis)), F(0)) for i in range(n)] for ws in weights]
        b = Subspace.from_vectors(n, combos)
    else:
        b = span(a.basis)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(subspace_pairs())
@SUITE
def test_intersect_matches_the_fraction_null_space(ab):
    a, b = ab
    got = intersect(a, b)
    assert got == intersect_by_fractions(a, b) == intersect(b, a)
    assert all(type(x) is Fraction for v in got.basis for x in v)


def test_intersect_examples():
    plane = Subspace.from_vectors(3, [[1, 0, 0], [0, F(1, 2), 1]])
    line = Subspace.from_vectors(3, [[2, F(1, 3), F(2, 3)]])
    assert intersect(plane, line) == line == intersect(line, plane)
    assert intersect(plane, Subspace.full(3)) is plane
    assert intersect(Subspace.full(3), line) is line
    assert intersect(plane, plane) == plane
    assert intersect(plane, Subspace.zero(3)) == Subspace.zero(3)
    assert intersect(Subspace.full(0), Subspace.zero(0)) == Subspace.zero(0)
    other = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(plane, other) == Subspace.from_vectors(3, [[0, 1, 2]]) == intersect_by_fractions(plane, other)
    with pytest.raises(DimensionMismatchError):
        intersect(plane, Subspace.full(2))


# ------------------------------------------------------------ definiteness


@st.composite
def symmetric_matrices(draw):
    """Gram matrices B^T B with B of fewer, as many or more rows than columns
    (so PSD-singular ones), some with a zero column of B (a zero row and
    column inside the Gram matrix), shifted by a small diagonal or not, and
    plain symmetric matrices."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        b = [draw(st.lists(small_fractions, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, n + 1)))]
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            for row in b:
                row[j] = F(0)
        bm = QMatrix.from_rows(b)
        m = bm.transpose() @ bm
        shift = draw(st.sampled_from([0, 0, 0, F(1, 4), F(-1, 4), F(-1, 100)]))
        return m + QMatrix.identity(n).scale(shift)
    upper = [draw(st.lists(small_fractions, min_size=n, max_size=n)) for _ in range(n)]
    return QMatrix.from_rows([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


@given(symmetric_matrices())
@SUITE
def test_definiteness_matches_the_fraction_congruence_elimination(m):
    assert is_positive_semidefinite(m) == is_positive_by_fractions(m, False)
    assert is_positive_definite(m) == is_positive_by_fractions(m, True)


def test_a_zero_pivot_inside_a_psd_matrix_keeps_the_last_nonzero_pivot():
    # pivots 2, then 0 with a vanishing row, then the 2 x 2 block after it
    m = QMatrix.from_rows([[2, 0, 2, 2], [0, 0, 0, 0], [2, 0, 3, 1], [2, 0, 1, 5]])
    assert is_positive_semidefinite(m) and not is_positive_definite(m)
    m = QMatrix.from_rows([[2, 0, 2, 2], [0, 0, 0, 0], [2, 0, 3, 3], [2, 0, 3, 2]])
    assert not is_positive_semidefinite(m)
    # a zero pivot whose row does not vanish
    assert not is_positive_semidefinite(QMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))


# ------------------------------------------------------------ disk counts


def from_roots(*roots):
    p = sympy_poly([1])
    for r in roots:
        p = p * sympy_poly([-F(r), 1])
    return p


def palindromic(cs):
    return sympy_poly([*cs, *cs[-2::-1]])


ints = st.integers(-4, 4)
FACTORS = st.one_of(
    # palindromic: reciprocal root pairs, on or off the circle
    st.lists(ints, min_size=2, max_size=4).filter(any).map(palindromic),
    # (z - 1)^k and (z + 1)^k
    st.tuples(st.sampled_from([1, -1]), st.integers(1, 3)).map(lambda rk: from_roots(*[rk[0]] * rk[1])),
    # repeated circle pairs z^2 - t z + 1 with |t| < 2
    st.tuples(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3)]), st.integers(1, 3)).map(
        lambda tk: sympy_poly([1, -tk[0], 1]) ** tk[1]
    ),
    # roots at zero
    st.integers(1, 2).map(lambda k: sympy_poly([0] * k + [1])),
    # Schur-Cohn-singular: |constant term| = |leading coefficient|, not reciprocal
    st.sampled_from([(-1, 2, 2, 1), (1, 3, 2, -1), (2, 1, 0, -2), (-3, 1, 5, 3)]).map(sympy_poly),
    # anything else, with rational coefficients
    st.lists(small_fractions, min_size=2, max_size=4).map(sympy_poly).filter(lambda p: p.degree() >= 1),
)


@st.composite
def built_polynomials(draw):
    p = sympy_poly([draw(st.sampled_from([1, -1, 2, F(3, 5), F(-7, 2)]))])
    for factor in draw(st.lists(FACTORS, min_size=1, max_size=4)):
        p = p * factor
    return from_sympy(p)


@given(built_polynomials())
@SUITE
def test_disk_and_circle_counts_match_the_fraction_chain(p):
    want = disk_profile_by_fractions(p)
    got = unit_disk_profile(p)
    assert (got.at_zero, got.inside, got.on_circle, got.outside) == want
    if want[0]:
        with pytest.raises(ZeroConstantTermError):
            circle_root_count(p)
    else:
        assert circle_root_count(p) == want[2]
        # the reciprocal split unit_disk_profile runs: g = gcd(f, reversed f), q = f / g
        f = _int_prim(_int_scaled(p))
        g = _int_gcd(f, f[::-1])
        want_split = (_int_prim(_int_scaled(from_sympy(x))) for x in split_by_fractions(to_sympy(p)))
        assert (g, _int_exact_quo(f, g)) == tuple(want_split)


@given(built_polynomials())
@SUITE
def test_half_plane_count_matches_the_fraction_transform(p):
    at_zero = next(i for i, c in enumerate(p.coeffs) if c)
    _, q = split_by_fractions(sympy_poly(p.coeffs[at_zero:]))
    assert _inside_by_half_plane(_int_prim(_int_scaled(from_sympy(q)))) == half_plane_by_fractions(q)


@given(built_polynomials(), st.sampled_from([(-2, 2), (F(-1, 2), F(3)), (0, 1), (-5, F(1, 3))]))
@SUITE
def test_sturm_count_matches_the_fraction_chain(p, interval):
    lo, hi = map(F, interval)
    sp_p = to_sympy(p)
    squarefree = sp_p.exquo(sp_p.gcd(sp_p.diff()))
    want = sturm_by_fractions(squarefree, lo, hi) if squarefree.degree() > 0 else 0
    # the square-free part and Sturm count spectral runs on p's integer form
    f = _int_prim(_int_scaled(p))
    assert _int_sturm(_int_exact_quo(f, _int_gcd(f, _int_derivative(f))), lo, hi) == want


@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0),
)
@SUITE
def test_negated_remainder_is_a_positive_multiple_of_the_fraction_one(a, b):
    if len(b) > len(a):
        a, b = b, a
    want = -sympy_poly(a).rem(sympy_poly(b))
    got = sympy_poly(_neg_rem_int(a, b))
    if want.is_zero:
        assert got.is_zero
    else:
        ratio = got.LC() / want.LC()
        assert ratio > 0 and got == want * ratio


# ------------------------------------------------------------ verify's span questions


def restrict_action_by_fractions(action: SemigroupAction, basis) -> tuple[QMatrix, ...]:
    """The replaced ``restrict_action``: one ``rref`` of the columns
    [basis | images], read off its pivots and its first k rows."""
    k = len(basis)
    images = [g.apply(b) for g in action.mats for b in basis]
    red, pivots = rref(QMatrix.from_columns(list(basis) + images))
    if pivots != tuple(range(k)):
        raise ValueError("space must be invariant, with an independent basis")
    return tuple(
        QMatrix.from_rows([[red[i, k * (t + 1) + j] for j in range(k)] for i in range(k)])
        for t in range(len(action.mats))
    )


def invariant_line_by_fractions(blocks, k: int):
    """The replaced ``invariant_line``: the Fraction solve of the stacked systems."""
    rows, rhs = [], []
    for a, b, d in blocks:
        shifted = a - QMatrix.identity(k).scale(d[0, 0])
        for i in range(k):
            rows.append(list(shifted.row(i)))
            rhs.append(-b[i, 0])
    return solve_exact_by_fractions(QMatrix.from_rows(rows), rhs)


def minimal_poly_by_fractions(m: QMatrix) -> QPoly:
    """The replaced ``minimal_poly``: one ``rref`` of the columns I, M, ..., M^n."""
    powers = [QMatrix.identity(m.rows)]
    for _ in range(m.rows):
        powers.append(powers[-1] @ m)
    red, pivots = rref(QMatrix.from_columns([p.entries for p in powers]))
    d = len(pivots)
    return QPoly.from_coeffs([-red[i, d] for i in range(d)] + [1])


@st.composite
def invertible_matrices(draw, n):
    """L U P for a unit lower triangular L, a unit upper triangular U and a
    column permutation P: invertible, with rational entries."""
    lower = [[F(int(i == j)) if j >= i else draw(small_fractions) for j in range(n)] for i in range(n)]
    upper = [[F(int(i == j)) if j <= i else draw(small_fractions) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lu = QMatrix.from_rows(lower) @ QMatrix.from_rows(upper)
    return QMatrix.from_columns([lu.col(j) for j in perm])


@st.composite
def actions_and_bases(draw):
    """(action, basis): 1-3 generators on Q^n, n <= 4, each P T P^-1 for a
    block upper triangular T, so that the first k columns of P span an
    invariant subspace.  The basis is those columns, or random vectors, a
    list with a dependent vector added, or the columns with one entry moved."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    p = draw(invertible_matrices(n))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        t = [[draw(small_fractions) if i < k or j >= k else F(0) for j in range(n)] for i in range(n)]
        mats.append(p @ QMatrix.from_rows(t) @ p.inverse())
    action = SemigroupAction.from_generators(zip("abc", mats), SEMIGROUP)
    basis = [p.col(j) for j in range(k)]
    shape = draw(st.sampled_from(["invariant", "invariant", "random", "dependent", "moved"]))
    if shape == "random":
        basis = [tuple(draw(st.lists(small_fractions, min_size=n, max_size=n))) for _ in range(k)]
    elif shape == "dependent" and basis:
        c = draw(small_fractions)
        basis.insert(draw(st.integers(0, k)), tuple(c * x for x in draw(st.sampled_from(basis))))
    elif shape == "moved" and basis:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        basis[i] = tuple(x + (F(1) if at == j else 0) for at, x in enumerate(basis[i]))
    return action, basis


@given(actions_and_bases())
@SUITE
def test_restrict_action_matches_the_fraction_gauss_jordan(ab):
    action, basis = ab
    try:
        want = restrict_action_by_fractions(action, basis)
    except ValueError:
        with pytest.raises(ValueError):
            restrict_action(action, basis)
        return
    got = restrict_action(action, basis)
    assert (got.dim, got.names, got.mode, got.generators) == (len(basis), action.names, action.mode, action.generators)
    assert [storage(m) for m in got.mats] == [storage(m) for m in want]
    # the coordinates hold: g B = B X_g
    if basis:
        b = QMatrix.from_columns(basis)
        assert all(g @ b == b @ x for g, x in zip(action.mats, got.mats))


@st.composite
def line_systems(draw):
    """(blocks, k): 1-3 generators' (A, B, D) blocks, A k x k, B k x 1 and
    D 1 x 1, k <= 4; in about half, B = -(A - mu I) u for one drawn u, so
    that the systems have a common solution."""
    k = draw(st.integers(0, 4))
    u = draw(st.lists(small_fractions, min_size=k, max_size=k))
    solvable = draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        mu = draw(small_fractions)
        if draw(st.integers(0, 3)) == 0:
            a = QMatrix.identity(k).scale(mu)  # a shifted block of zero
        else:
            a = QMatrix.from_rows([draw(st.lists(small_fractions, min_size=k, max_size=k)) for _ in range(k)])
        if solvable:
            b = (a - QMatrix.identity(k).scale(mu)).apply(u)
            b = QMatrix.from_rows([[-x] for x in b]) if k else QMatrix.zero(0, 1)
        else:
            b = QMatrix.from_rows([[x] for x in draw(st.lists(small_fractions, min_size=k, max_size=k))])
            b = b if k else QMatrix.zero(0, 1)
        blocks.append((a, b, QMatrix.from_rows([[mu]])))
    return blocks, k


@given(line_systems())
@SUITE
def test_invariant_line_matches_the_fraction_solve(bk):
    blocks, k = bk
    got = invariant_line(blocks, k)
    assert got == invariant_line_by_fractions(blocks, k)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        for a, b, d in blocks:
            shifted = a - QMatrix.identity(k).scale(d[0, 0])
            assert shifted.apply(got) == tuple(-b[i, 0] for i in range(k))


@st.composite
def matrices_with_repeated_roots(draw):
    """n x n matrices, n <= 5: drawn ones, and conjugates P J P^-1 of block
    diagonal J with repeated scalars and Jordan blocks."""
    if draw(st.booleans()):
        return draw(square_matrices())
    n = draw(st.integers(1, 5))
    j = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        j[i][i] = draw(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)]))
        if i and j[i][i] == j[i - 1][i - 1] and draw(st.booleans()):
            j[i - 1][i] = F(1)
    p = draw(invertible_matrices(n))
    return p @ QMatrix.from_rows(j) @ p.inverse()


@given(matrices_with_repeated_roots())
@SUITE
def test_minimal_poly_matches_the_fraction_gauss_jordan(m):
    got = minimal_poly(m)
    assert got == minimal_poly_by_fractions(m)
    assert got.coeffs[-1] == 1
    assert poly_of_matrix(got, m) == QMatrix.zero(m.rows, m.rows)


def test_verify_span_questions_examples():
    # the shear fixes the line e1 and no other: its restriction is (1), and
    # the plane spanned by e2 is not invariant
    shear = SemigroupAction.from_generators([("s", QMatrix.from_rows([[1, 1], [0, 1]]))], SEMIGROUP)
    assert restrict_action(shear, [(F(3), F(0))]).mats == (QMatrix.from_rows([[1]]),)
    with pytest.raises(ValueError):
        restrict_action(shear, [(F(0), F(1))])
    with pytest.raises(ValueError):
        restrict_action(shear, [(F(1), F(0)), (F(2), F(0))])
    # a Jordan block: the minimal polynomial is (z - 1)^2, scaled by den
    assert minimal_poly(QMatrix.from_rows([["1/2", 1], [0, "1/2"]])) == QPoly.from_coeffs(["1/4", -1, 1])
    assert minimal_poly(QMatrix.identity(3).scale(F(-2, 3))) == QPoly.from_coeffs([F(2, 3), 1])
    assert minimal_poly(QMatrix.identity(0)) == QPoly.from_coeffs([1])
    # (1 - mu) u = -b: mu = 3, b = 4 gives u = 2; mu = 1 with b = 1 has none
    block = (QMatrix.from_rows([[1]]), QMatrix.from_rows([[4]]), QMatrix.from_rows([[3]]))
    assert invariant_line([block], 1) == (F(2),)
    inconsistent = (QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]), QMatrix.from_rows([[1]]))
    assert invariant_line([block, inconsistent], 1) is None


# ------------------------------------------------------------ the solver and the solenoid's span questions


def solve_exact_by_fractions(a: QMatrix, b):
    """The replaced ``solve_exact``: one ``rref`` of [A | b] in Fractions,
    the free variables set to 0."""
    if len(b) != a.rows:
        raise DimensionMismatchError("rhs length mismatch")
    aug = QMatrix(a.rows, a.cols + 1, tuple(
        a.entries[i * a.cols + j] if j < a.cols else to_fraction(b[i])
        for i in range(a.rows) for j in range(a.cols + 1)
    ))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [F(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    return tuple(x)


def coordinates_by_fractions(basis, v):
    """The replaced ``coordinates_in_span``, on the Fraction solve."""
    if not basis:
        return () if not any(v) else None
    return solve_exact_by_fractions(QMatrix.from_columns(basis), tuple(v))


def contains_by_fractions(space: Subspace, v) -> bool:
    """The replaced ``Subspace.contains``: whether v has coordinates over the basis."""
    vec = tuple(to_fraction(x) for x in v)
    if len(vec) != space.ambient_dim:
        raise DimensionMismatchError("vector length mismatch")
    return coordinates_by_fractions(space.basis, vec) is not None


def base_level_plan_by_fractions(level):
    """The replaced ``_base_level_plan``: one ``rref`` of the characters as columns."""
    red, pivots = rref(QMatrix.from_columns(level))
    dependents = []
    for i in range(len(level)):
        if i not in pivots:
            terms = [(red[r, i], j) for r, j in enumerate(pivots) if red[r, i] != 0]
            dependents.append((i, F(math.lcm(*(c.denominator for c, _ in terms))), terms))
    return list(pivots), dependents


def span_restriction_by_fractions(dm: DualModuleAction):
    """The replaced ``span_restriction``: the pivot columns of one ``rref`` of
    the module generators, closed under the action by Fraction solves; the
    basis and the generators' restrictions to its span."""
    gens = dm.module_generators
    basis = [gens[c] for c in rref(QMatrix.from_columns(gens))[1]]
    queue = list(basis)
    while queue:
        v = queue.pop()
        for g in dm.action.mats:
            img = g.apply(v)
            if coordinates_by_fractions(basis, img) is None:
                basis.append(img)
                queue.append(img)
    if not basis:
        return [], tuple(QMatrix.identity(0) for _ in dm.action.mats)
    return basis, restrict_action_by_fractions(dm.action, basis)


@st.composite
def linear_systems(draw):
    """(A, b): a drawn matrix, with zero rows, low rank and no columns among
    them, and a right-hand side A x for a drawn x, a drawn one, or zero,
    written as Fractions, ints or strings."""
    a = draw(rational_matrices())
    kind = draw(st.sampled_from(["consistent", "consistent", "drawn", "zero"]))
    if kind == "consistent":
        b = a.apply(draw(st.lists(mixed_fractions, min_size=a.cols, max_size=a.cols)))
    elif kind == "drawn":
        b = draw(st.lists(mixed_fractions, min_size=a.rows, max_size=a.rows))
    else:
        b = [F(0)] * a.rows
    return a, [draw(st.sampled_from(as_written(x))) for x in b]


@given(linear_systems())
@SUITE
def test_solve_exact_matches_the_fraction_gauss_jordan(ab):
    a, b = ab
    got = solve_exact(a, b)
    assert got == solve_exact_by_fractions(a, b)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        assert a.apply(got) == tuple(map(to_fraction, b))
        # the free variables, A's non-pivot columns, are 0
        pivots = rref(a)[1]
        assert all(x == 0 for j, x in enumerate(got) if j not in pivots)


def test_solve_exact_examples():
    # a 0-column A solves only b = 0, by the empty vector
    assert solve_exact(QMatrix.zero(2, 0), [0, 0]) == ()
    assert solve_exact(QMatrix.zero(2, 0), [0, "1/3"]) is None
    assert solve_exact(QMatrix(0, 3, ()), []) == (F(0),) * 3
    # x + y = 2 sets the free y to 0; a zero row against a nonzero b is inconsistent
    assert solve_exact(QMatrix.from_rows([[1, 1]]), ["2"]) == (F(2), F(0))
    assert solve_exact(QMatrix.from_rows([[1, 0], [0, 0]]), [1, F(1, 3)]) is None
    assert solve_exact(QMatrix.from_rows([["1/2", 0], [0, 0]]), [1, 0]) == (F(2), F(0))
    with pytest.raises(DimensionMismatchError):
        solve_exact(QMatrix.identity(2), [1])


@st.composite
def subspaces_and_vectors(draw):
    """(space, v): the span of drawn vectors, or those vectors taken as the
    basis as they stand, and a combination of them, a drawn vector, zero,
    or now and then a vector of the wrong length, written as Fractions,
    ints or strings."""
    m = draw(rational_matrices())
    n, vecs = m.cols, [m.row(i) for i in range(m.rows)]
    space = Subspace.from_vectors(n, vecs) if draw(st.booleans()) else Subspace(n, tuple(vecs))
    kind = draw(st.sampled_from(["combination", "combination", "drawn", "zero", "wrong"]))
    if kind == "combination":
        cs = draw(st.lists(mixed_fractions, min_size=len(vecs), max_size=len(vecs)))
        v = [sum((c * u[i] for c, u in zip(cs, vecs)), F(0)) for i in range(n)]
    elif kind == "drawn":
        v = draw(st.lists(mixed_fractions, min_size=n, max_size=n))
    elif kind == "zero":
        v = [F(0)] * n
    else:
        v = [F(1)] * draw(st.sampled_from([k for k in (n - 1, n + 1) if k >= 0]))
    return space, [draw(st.sampled_from(as_written(x))) for x in v]


@given(subspaces_and_vectors())
@SUITE
def test_contains_matches_the_fraction_solve(sv):
    space, v = sv
    try:
        want = contains_by_fractions(space, v)
    except DimensionMismatchError:
        with pytest.raises(DimensionMismatchError):
            space.contains(v)
        return
    assert space.contains(iter(v)) is want


@st.composite
def first_levels(draw):
    """A first chain level in Q^n, n <= 4: drawn characters, the zero
    character, repeats, and rational combinations of characters before,
    in any order."""
    n = draw(st.integers(1, 4))
    level = [tuple(draw(st.lists(mixed_fractions, min_size=n, max_size=n))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if extra == "zero":
            level.append((F(0),) * n)
        elif extra == "repeat":
            level.append(draw(st.sampled_from(level)))
        else:
            u, w = draw(st.sampled_from(level)), draw(st.sampled_from(level))
            a, b = draw(mixed_fractions), draw(mixed_fractions)
            level.append(tuple(a * x + b * y for x, y in zip(u, w)))
    return draw(st.permutations(level))


def module_cases() -> list[dict]:
    """Every module fixture, then the module cases of torus_solenoid seeds 1-3."""
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    cases = perfbench_cases()
    ops = [op for seed in (1, 2, 3) for op in cases.torus_solenoid_cases(seed) if op["kind"] == "module"]
    return [case for case in fixtures if isinstance(case, dict) and "F" in case] + [op["case"] for op in ops]


@given(first_levels())
@SUITE
def test_base_level_plan_matches_the_fraction_gauss_jordan(level):
    assert _base_level_plan(level) == base_level_plan_by_fractions(level)


def test_base_level_plan_examples():
    # 2 and -1/3 are multiples of 1; (0, 0) depends on nothing, with n0 = 1
    level = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(0), F(1, 2)), (F(-1, 3), F(1))]
    assert _base_level_plan(level) == base_level_plan_by_fractions(level)
    assert _base_level_plan(level) == (
        [1, 3],
        [(0, F(1), []), (2, F(1), [(F(2), 1)]), (4, F(3), [(F(-1, 3), 1), (F(2), 3)])],
    )


def test_span_restriction_matches_the_fraction_walk():
    # the same basis in the same order, so the same adjoint matrices
    cases = module_cases()
    assert len(cases) > 40
    for case in cases:
        for mode in (GROUP, SEMIGROUP):
            dm = parse_dual_module(case, mode)
            basis, adjoint = span_restriction(dm)
            want_basis, want_mats = span_restriction_by_fractions(dm)
            assert basis == want_basis
            assert [storage(m) for m in adjoint.mats] == [storage(m.transpose()) for m in want_mats]
            assert (adjoint.dim, adjoint.names, adjoint.mode) == (len(basis), dm.action.names, mode)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(mixed_fractions, min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n),
                     min_size=1, max_size=2),
        )
    )
)
@SUITE
def test_span_restriction_matches_the_fraction_walk_on_drawn_modules(drawn):
    gens, mats = drawn
    n = len(mats[0])
    dm = DualModuleAction.from_generators(n, gens, [(f"g{i}", QMatrix.from_rows(m)) for i, m in enumerate(mats)], SEMIGROUP)
    basis, adjoint = span_restriction(dm)
    want_basis, want_mats = span_restriction_by_fractions(dm)
    assert basis == want_basis
    assert [storage(m) for m in adjoint.mats] == [storage(m.transpose()) for m in want_mats]
