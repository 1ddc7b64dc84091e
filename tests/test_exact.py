"""Tests for the exact rational linear algebra and polynomial layer."""

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive.actions import SemigroupAction, restrict_action
from expansive.exact import (
    TRIAL_DIVISION_CAP,
    CapExceededError,
    DimensionMismatchError,
    IntEchelon,
    NotInvertibleError,
    ParseError,
    QMatrix,
    QPoly,
    Subspace,
    ZeroConstantTermError,
    ZeroPolynomialError,
    char_poly,
    coordinates_in_span,
    intersect,
    is_positive_definite,
    is_positive_semidefinite,
    kernel,
    mat_power,
    minimal_poly,
    poly_gcd,
    poly_of_matrix,
    primitive_integer,
    rational_roots,
    rref,
    solve_exact,
    to_fraction,
    _chain_signs_at_inf,
    _int_derivative,
    _int_exact_quo,
    _int_gcd,
    _int_prim,
    _int_pseudo_rem,
    _int_scaled,
    _int_sturm,
    _int_value,
    _remainder_chain,
    _variations,
)
from expansive.spectral import _unit_root_multiplicity, circle_root_count

from oracle_roots import from_sympy, product, to_sympy

F = Fraction


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


def P(*coeffs):
    return QPoly.from_coeffs([F(c) for c in coeffs])


# ---------------------------------------------------------------- scalars


def test_to_fraction_accepts_strings_and_ints():
    assert to_fraction("3/4") == F(3, 4)
    assert to_fraction("-7") == F(-7)
    assert to_fraction(5) == F(5)


def test_to_fraction_rejects_floats():
    with pytest.raises(ParseError):
        to_fraction(0.5)


# ---------------------------------------------------------------- matrices


def test_matrix_arithmetic_round_trip():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a @ b == M([[2, 1], [4, 3]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    assert a.trace() == F(5)
    assert a.det() == F(-2)


def test_matrix_shape_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        M([[1, 2]]) @ M([[1, 2]])


def test_inverse_and_negative_powers():
    a = M([[2, 1], [1, 1]])
    assert a @ a.inverse() == QMatrix.identity(2)
    assert mat_power(a, -2) == (a.inverse()) @ (a.inverse())
    assert mat_power(a, 0) == QMatrix.identity(2)
    with pytest.raises(NotInvertibleError):
        M([[1, 1], [1, 1]]).inverse()


def test_matrix_json_round_trip():
    a = QMatrix.from_rows([[F(1, 3), F(-2)], [F(0), F(5, 7)]])
    assert QMatrix.from_json(a.to_json()) == a


# ------------------------------------------------------- row reduction


def test_rref_pivots_and_rank():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(a)
    assert pivots == (0, 1)
    assert len(rref(a)[1]) == 2


def test_kernel_basis_is_exact():
    a = M([[1, 2], [2, 4]])
    k = kernel(a)
    assert k.dim == 1
    v = k.basis[0]
    assert a.apply(v) == (F(0), F(0))


def test_subspace_canonical_equality():
    s1 = Subspace.from_vectors(2, [(F(2), F(0)), (F(0), F(3))])
    s2 = Subspace.full(2)
    assert s1 == s2
    s3 = Subspace.from_vectors(2, [(F(1), F(1)), (F(2), F(2))])
    assert s3.dim == 1
    assert s3.contains((F(-3), F(-3)))
    assert not s3.contains((F(1), F(0)))


def test_intersect_subspaces():
    x_axis = Subspace.from_vectors(2, [(F(1), F(0))])
    diag = Subspace.from_vectors(2, [(F(1), F(1))])
    assert intersect(x_axis, diag) == Subspace.zero(2)
    assert intersect(x_axis, Subspace.full(2)) == x_axis


def invariant(space, m):
    """The library's invariance test: ``restrict_action`` refuses a span that m leaves."""
    try:
        restrict_action(SemigroupAction.from_generators([("m", m)], "semigroup"), list(space.basis))
    except ValueError:
        return False
    return True


def test_invariance_checks():
    rot = M([[0, -1], [1, 0]])
    x_axis = Subspace.from_vectors(2, [(F(1), F(0))])
    assert invariant(Subspace.zero(2), rot)
    assert invariant(Subspace.full(2), rot)
    assert not invariant(x_axis, rot)
    shear = M([[1, 1], [0, 1]])
    assert invariant(x_axis, shear)


def test_from_columns_makes_fractions_and_refuses_ragged_columns():
    # int entries must not reach the elimination, whose 1 / pivot would make floats
    m = QMatrix.from_columns([(1, 0), (0, 2)])
    assert m == M([[1, 0], [0, 2]]) and all(type(x) is Fraction for x in m.entries)
    assert m.inverse() == M([[1, 0], [0, F(1, 2)]])
    assert rref(m) == (QMatrix.identity(2), (0, 1))
    assert kernel(QMatrix.from_columns([(1, 2), (2, 4)])) == Subspace.from_vectors(2, [(F(-2), F(1))])
    assert QMatrix.from_columns([("1/2", 3)]) == M([[F(1, 2)], [3]])
    assert QMatrix.from_columns([(), ()]).rows == 0
    with pytest.raises(DimensionMismatchError, match="ragged columns"):
        QMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ParseError):
        QMatrix.from_columns([(1.0, 2)])


def invariant_by_coordinates(space, m):
    """The replaced invariance test: every image of a basis vector has coordinates over the basis."""
    return all(coordinates_in_span(space.basis, m.apply(b)) is not None for b in space.basis)


def vectors(n, entries, **size):
    return st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n), **size)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            vectors(n, [0, 0, 1, -1, 2, F(1, 2)], min_size=n, max_size=n),
            vectors(n, [0, 0, 0, 1, -2, F(-1, 3)], max_size=n),
        )
    )
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_is_invariant_matches_the_per_vector_loop(drawn):
    rows, vectors = drawn
    m = M(rows)
    space = Subspace.from_vectors(m.rows, vectors)
    assert invariant(space, m) == invariant_by_coordinates(space, m)
    assert invariant(kernel(m), m) and invariant(Subspace.full(m.rows), m)


def test_solve_exact_and_coordinates():
    a = M([[1, 1], [0, 1]])
    assert solve_exact(a, (F(3), F(2))) == (F(1), F(2))
    assert solve_exact(M([[1, 0], [1, 0]]), (F(1), F(2))) is None
    basis = [(F(1), F(0), F(1)), (F(0), F(1), F(0))]
    assert coordinates_in_span(basis, (F(2), F(3), F(2))) == (F(2), F(3))
    assert coordinates_in_span(basis, (F(0), F(0), F(1))) is None


# ---------------------------------------------------------- polynomials


# The polynomial arithmetic is the integer kernels, on coefficient lists
# (the coefficient of z^i at index i).


def test_poly_arithmetic():
    # z^2 - 1 = (z - 1)(z + 1), and z - 1 does not divide z^2 + 1
    assert _int_exact_quo((-1, 0, 1), (-1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        _int_exact_quo((1, 0, 1), (-1, 1))
    # 2^2 (z^2 + 1) = (2z + 1)(2z - 1) + 5
    assert _int_pseudo_rem((1, 0, 1), (-1, 2)) == (5,)
    assert _int_pseudo_rem((-1, 0, 1), (-1, 1)) == ()
    assert _int_derivative((1, 2, 3)) == [2, 6]
    # den^deg p(num / den): p(2) = 17, 2^2 p(1/2) = 11
    assert _int_value((1, 2, 3), 2, 1) == 17
    assert _int_value((1, 2, 3), 1, 2) == 11


def test_poly_reverse_and_reciprocal_gcd():
    # the reverse z^2 p(1/z) of p = z^2 + 2 is 2z^2 + 1: den^2 rev(num/den) = num^2 p(den/num)
    f = (2, 0, 1)
    assert _int_value(f[::-1], 1, 2) == _int_value(f, 2, 1) == 6
    # gcd(f, reversed f), the reciprocal-closed part that unit_disk_profile splits off
    assert _int_gcd(f, f[::-1]) == (1,)
    assert _int_gcd((1, -3, 1), (1, -3, 1)[::-1]) == (1, -3, 1)
    assert _int_gcd((-2, 1, -2, 1), (-2, 1, -2, 1)[::-1]) == (1, 0, 1)


def test_char_poly_known_matrices():
    assert char_poly(M([[2, 1], [1, 1]])) == P(1, -3, 1)
    assert char_poly(QMatrix.identity(2)) == P(1, -2, 1)
    assert char_poly(M([[0, -1], [1, 0]])) == P(1, 0, 1)
    companion = M([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert char_poly(companion) == P(-2, 0, 0, 1)


def test_minimal_poly():
    assert minimal_poly(QMatrix.identity(3)) == P(-1, 1)
    assert minimal_poly(M([[1, 1], [0, 1]])) == P(1, -2, 1)
    assert minimal_poly(M([[2, 0], [0, 3]])) == P(6, -5, 1)


def minimal_poly_by_kernels(m):
    """The replaced loop: the first d at which I, M, ..., M^d have a kernel, normalized at M^d."""
    n = m.rows
    powers = [QMatrix.identity(n)]
    for d in range(1, n + 1):
        powers.append(powers[-1] @ m)
        for k in kernel(QMatrix.from_columns([p.entries for p in powers])).basis:
            if k[d] != 0:
                return QPoly.from_coeffs([k[i] / k[d] for i in range(d + 1)])
    raise AssertionError("no annihilating polynomial of degree <= n")


def block_diag(*blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i in range(b.rows):
            rows[at + i][at : at + b.rows] = b.row(i)
        at += b.rows
    return M(rows)


def jordan(lam, k):
    return M([[lam if i == j else 1 if j == i + 1 else 0 for j in range(k)] for i in range(k)])


def minimal_poly_cases():
    """250 seeded matrices, most of them derogatory: diag(A, A), sums of Jordan
    blocks, nilpotent and scalar matrices, each conjugated by an integer
    matrix, and plain integer and rational matrices."""
    rng = random.Random(20)

    def small(n, pool=(-2, -1, 0, 0, 0, 1, 2, 3)):
        return M([[rng.choice(pool) for _ in range(n)] for _ in range(n)])

    def conjugated(t):
        while True:
            p = small(t.rows)
            if p.det() != 0:
                return p @ t @ p.inverse()

    cases = []
    for _ in range(50):
        a = small(rng.randint(1, 3))
        cases.append(conjugated(block_diag(a, a)))
        lam = F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        cases.append(conjugated(block_diag(*(jordan(lam, k) for k in sizes))))
        n = rng.randint(1, 5)
        cases.append(conjugated(M([[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)])))
        cases.append(QMatrix.identity(rng.randint(1, 5)).scale(F(rng.randint(-4, 4), rng.randint(1, 3))))
        cases.append(small(rng.randint(1, 5), (0, 0, 1, -1, F(1, 2), F(-2, 3), F(5, 4))))
    return cases


def test_minimal_poly_matches_the_first_dependent_power_loop():
    cases = minimal_poly_cases()
    assert len(cases) >= 200
    derogatory = 0
    for m in cases:
        mu = minimal_poly(m)
        assert mu == minimal_poly_by_kernels(m), m
        assert poly_of_matrix(mu, m) == QMatrix.zero(m.rows, m.rows)
        derogatory += len(mu.coeffs) - 1 < m.rows
    assert derogatory >= 100


def test_cayley_hamilton_spot_check():
    a = M([[1, 2, 0], [0, 1, -1], [3, 0, 2]])
    assert poly_of_matrix(char_poly(a), a) == QMatrix.zero(3, 3)


def test_rational_roots():
    assert rational_roots(P(2, -3, 1)) == [F(1), F(2)]
    assert rational_roots(P(0, -1, 1)) == [F(0), F(1)]
    assert rational_roots(P(-2, 0, 1)) == []
    assert rational_roots(product(P(1, 1), P(-1, 2), P(1, 1))) == [F(-1), F(1, 2)]
    jordan = P(-9999, 10000)
    assert rational_roots(product(jordan, jordan, jordan, jordan)) == [F(9999, 10000)]


def test_rational_roots_past_the_trial_division_cap_raise_at_once():
    # telling a prime p >= (cap + 1)^2 by trial division takes sqrt(p) > cap
    # steps; the cap stops after cap steps and names itself
    big = int(sp.nextprime(10**13))
    assert big >= (TRIAL_DIVISION_CAP + 1) ** 2
    square = int(sp.nextprime(10**12)) ** 2
    for p in (P(2 * big, 3, 1), P(1, 0, 6 * big), P(-square, 1)):
        t0 = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"TRIAL_DIVISION_CAP = {TRIAL_DIVISION_CAP}"):
            rational_roots(p)
        assert time.perf_counter() - t0 < 1.0


def test_a_cofactor_below_the_cap_plus_one_squared_with_no_factor_up_to_the_cap_is_a_prime():
    # trial division up to the cap has then passed its square root
    prime = int(sp.nextprime(10**12))
    assert TRIAL_DIVISION_CAP**2 < prime < (TRIAL_DIVISION_CAP + 1) ** 2
    assert rational_roots(P(-2 * prime, 1)) == [F(2 * prime)]
    assert rational_roots(P(1, 0, 6 * prime)) == []
    below = int(sp.prevprime(TRIAL_DIVISION_CAP))
    assert rational_roots(P(-below * below, 1)) == [F(below * below)]
    assert rational_roots(P(-3 * below, below)) == [F(3)]


# large constant and leading terms with few prime factors: the divisor lists
# stay short although trial division up to the numbers themselves would not end
SMOOTH = [1, 2, 3, 7, 12, 2**40, 3**25, 10**8, 9999**4]


@st.composite
def polys_with_rational_roots(draw):
    """(den x - num) factors of smooth num and den, times a small cofactor that may have no rational root."""
    p = P(*draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4).filter(any)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        num, den = draw(st.sampled_from(SMOOTH)), draw(st.sampled_from(SMOOTH))
        p = product(p, P(-num * draw(st.sampled_from([1, -1])), den))
    return p


@given(polys_with_rational_roots())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rational_roots_match_sympy(p):
    expected = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], sp.Symbol("x"))
    want = sorted(F(int(r.p), int(r.q)) for r in expected.ground_roots())
    assert rational_roots(p) == want


def int_form(p):
    """The primitive integer multiple of p, which spectral's kernels run on."""
    return _int_prim(_int_scaled(p))


def test_root_multiplicity_and_squarefree():
    p = product(P(-1, 1), P(-1, 1), P(2, 1))
    f = int_form(p)
    mult, reduced = _unit_root_multiplicity(f, 1)
    assert mult == 2
    assert reduced == int_form(P(2, 1))
    assert _int_exact_quo(f, _int_gcd(f, _int_derivative(f))) == int_form(product(P(-1, 1), P(2, 1)))


def test_poly_gcd():
    a = product(P(-1, 1), P(-2, 1))
    b = product(P(-1, 1), P(-3, 1))
    assert poly_gcd(a, b) == P(-1, 1)
    cases = [
        (a, b),
        (P(), P()),
        (a, P()),
        (P(), b),
        # negative leading coefficients
        (P(1, -1), P(2, 1, -1)),
        # non-unit content, and a rational multiple
        (P(-6, 4, 2), P(F(-3, 2), F(3, 2))),
        (P(4, 0, 2), P(2, 0, 1)),
        # a primitive gcd 2z - 1 that is not monic
        (P(-1, 1, 2), P(3, -6)),
    ]
    for x, y in cases:
        want = sp.gcd(to_sympy(x), to_sympy(y))
        assert poly_gcd(x, y) == from_sympy(want if want.is_zero else want.monic()), (x, y)


# ----------------------------------------------------------- root counts
# Each count runs the integer kernels of spectral on a polynomial's integer form.


def int_sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi]: the Sturm count of the square-free part."""
    f = int_form(p)
    return _int_sturm(_int_exact_quo(f, _int_gcd(f, _int_derivative(f))), lo, hi)


def int_cauchy_index(num, den):
    """Cauchy index of num/den over the real line, by the remainder chain
    den, num mod den, ... of the half-plane count: V(-inf) - V(+inf)."""
    # the polynomial part of num/den has no poles, and the chain needs deg num < deg den
    num = from_sympy(to_sympy(num).rem(to_sympy(den)))
    if num.is_zero:
        return 0
    chain = _remainder_chain(*(_int_prim(_int_scaled(f), keep_sign=True) for f in (den, num)))
    return _variations(_chain_signs_at_inf(chain, False)) - _variations(_chain_signs_at_inf(chain, True))


def int_reciprocal_split(p):
    """The split unit_disk_profile makes of p's integer form f: g = gcd(f, reversed f), and f / g."""
    f = int_form(p)
    g = _int_gcd(f, f[::-1])
    return QPoly.from_coeffs(g), QPoly.from_coeffs(_int_exact_quo(f, g))


def test_sturm_root_count_examples():
    assert int_sturm_count(P(-2, 0, 1), F(0), F(2)) == 1
    assert int_sturm_count(P(1, 0, 1), F(-5), F(5)) == 0
    assert int_sturm_count(P(1, -2, 1), F(0), F(2)) == 1


def test_sturm_interval_is_half_open_on_the_right():
    line = P(-2, 1)
    assert int_sturm_count(line, F(0), F(2)) == 1
    assert int_sturm_count(line, F(2), F(3)) == 0


def test_cauchy_index_examples():
    # 1/z jumps -inf -> +inf once
    assert int_cauchy_index(P(1), P(0, 1)) == 1
    assert int_cauchy_index(P(0, 1), P(1)) == 0
    # z / (z^2 - 1) has two positive jumps
    assert int_cauchy_index(P(0, 1), P(-1, 0, 1)) == 2
    # -1/z
    assert int_cauchy_index(P(-1), P(0, 1)) == -1


def test_reciprocal_split_examples():
    g, q = int_reciprocal_split(P(1, -3, 1))
    assert g == P(1, -3, 1) and q == P(1)
    g, q = int_reciprocal_split(P(-2, 1))
    assert g == P(1) and q == P(-2, 1)
    g, q = int_reciprocal_split(P(-1, 0, 1))
    assert g == P(-1, 0, 1) and q == P(1)
    g, q = int_reciprocal_split(P(-2, 1, -2, 1))
    assert g == P(1, 0, 1) and q == P(-2, 1)


def test_reciprocal_split_rejects_bad_input():
    # circle_root_count is the entry that splits p, and it refuses both
    with pytest.raises(ZeroPolynomialError):
        circle_root_count(P())
    with pytest.raises(ZeroConstantTermError):
        circle_root_count(P(0, 1))


# ------------------------------------------------------------ properties

small_fracs = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=3
)


def square_matrices(n):
    return st.lists(small_fracs, min_size=n * n, max_size=n * n).map(
        lambda xs: QMatrix(n, n, tuple(xs))
    )


int_polys = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=1, max_size=7
).map(lambda cs: QPoly.from_coeffs([F(c) for c in cs]))


@given(square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_cayley_hamilton_property(a):
    assert poly_of_matrix(char_poly(a), a) == QMatrix.zero(3, 3)


@given(square_matrices(3), square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_det_is_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@given(square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_sympy_rank(a):
    r = len(rref(a)[1])
    assert r + kernel(a).dim == 3
    assert r == sp.Matrix(3, 3, [sp.Rational(x) for x in a.entries]).rank()


@given(square_matrices(2))
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(a):
    if a.det() == 0:
        with pytest.raises(NotInvertibleError):
            a.inverse()
    else:
        assert a @ a.inverse() == QMatrix.identity(2)


@given(int_polys, int_polys)
@settings(max_examples=80, deadline=None)
def test_pseudo_remainder_identity(a, b):
    if b.is_zero:
        return
    a, b = _int_scaled(a), _int_scaled(b)
    r = _int_pseudo_rem(a, b)
    # r is lc(b)^k a mod b, k = deg a - deg b + 1: b divides lc(b)^k a - r, and deg r < deg b
    k = max(0, len(a) - len(b) + 1)
    lifted = [b[-1] ** k * c for c in a]
    _int_exact_quo([c - (r[i] if i < len(r) else 0) for i, c in enumerate(lifted)], b)
    assert len(r) < len(b)


@given(int_polys, int_polys)
@settings(max_examples=80, deadline=None)
def test_gcd_divides_both_and_is_symmetric(a, b):
    fa, fb = int_form(a), int_form(b)
    g = _int_gcd(fa, fb)
    assert g == _int_gcd(fb, fa)
    assert poly_gcd(a, b) == poly_gcd(b, a)
    if g:
        for f in (fa, fb):
            if f:
                _int_exact_quo(f, g)


@given(int_polys)
@settings(max_examples=80, deadline=None)
def test_sturm_counts_are_additive(p):
    if len(p.coeffs) < 2:
        return
    lo, mid, hi = F(-10), F(0), F(10)
    total = int_sturm_count(p, lo, hi)
    assert total == int_sturm_count(p, lo, mid) + int_sturm_count(p, mid, hi)


@given(int_polys)
@settings(max_examples=80, deadline=None)
def test_sturm_agrees_with_sympy_on_real_root_count(p):
    if len(p.coeffs) < 2:
        return
    z = sp.Symbol("z")
    sp_poly = sp.Poly([sp.Rational(c) for c in reversed(p.coeffs)], z)
    # both sides count distinct real roots; a root p/q has q | leading <= 5, so
    # no endpoint over 7 is a root, and every root has modulus <= 1 + 5 < 43/7
    for lo, hi in ((F(-43, 7), F(43, 7)), (F(-22, 7), F(15, 7))):
        assert int_sturm_count(p, lo, hi) == sp_poly.count_roots(sp.Rational(lo), sp.Rational(hi))


@given(int_polys)
@settings(max_examples=80, deadline=None)
def test_reciprocal_gcd_is_its_own_reverse_off_the_origin(p):
    if p.is_zero or p.constant == 0:
        return
    f = int_form(p)
    g = _int_gcd(f, f[::-1])
    assert _int_prim(g[::-1]) == g
    _int_exact_quo(f, g)
    _int_exact_quo(f[::-1], g)


# ------------------------------------- integer-scaled storage of QMatrix


mixed_fracs = st.one_of(
    st.just(F(0)),
    st.integers(min_value=-9, max_value=9).map(F),
    st.fractions(min_value=F(-6), max_value=F(6), max_denominator=12),
)
dims = st.integers(min_value=0, max_value=3)


def rational_matrices(rows, cols, elements=mixed_fracs):
    return st.lists(elements, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: QMatrix(rows, cols, tuple(xs))
    )


@st.composite
def shaped(draw, square=False):
    rows = draw(dims)
    return draw(rational_matrices(rows, rows if square else draw(dims)))


def to_sp(m):
    return sp.Matrix(m.rows, m.cols, [sp.Rational(x.numerator, x.denominator) for x in m.entries])


def assert_storage(m, ref):
    """m is reduced, and both its integer form and its entries equal ref."""
    assert (m.rows, m.cols) == ref.shape
    assert m.den > 0 and math.gcd(m.den, *m.num) == 1
    assert len(m.num) == m.rows * m.cols
    want = [F(int(sp.numer(x)), int(sp.denom(x))) for x in ref]
    assert [F(x, m.den) for x in m.num] == want
    assert list(m.entries) == want


@given(shaped())
@settings(max_examples=60, deadline=None)
def test_storage_is_reduced_and_matches_entries(a):
    assert_storage(a, to_sp(a))
    assert a.is_integer() == all(x.denominator == 1 for x in a.entries)
    if not any(a.entries):
        assert a.den == 1


@st.composite
def product_pairs(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    return draw(rational_matrices(n, k)), draw(rational_matrices(k, m))


@given(product_pairs())
@settings(max_examples=80, deadline=None)
def test_product_matches_sympy(pair):
    a, b = pair
    assert_storage(a @ b, to_sp(a) * to_sp(b))
    # the product of integer-stored matrices takes the same route
    assert_storage((a @ b).transpose(), (to_sp(a) * to_sp(b)).T)


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(dims), draw(dims)
    return draw(rational_matrices(rows, cols)), draw(rational_matrices(rows, cols))


@given(same_shape_pairs(), mixed_fracs)
@settings(max_examples=80, deadline=None)
def test_sum_difference_scale_transpose_match_sympy(pair, c):
    a, b = pair
    sa, sb = to_sp(a), to_sp(b)
    sc = sp.Rational(c.numerator, c.denominator)
    assert_storage(a + b, sa + sb)
    assert_storage(a - b, sa - sb)
    assert_storage(-a, -sa)
    assert_storage(a.scale(c), sa * sc)
    assert_storage(a.transpose(), sa.T)
    assert_storage((a - b).scale(c).transpose(), ((sa - sb) * sc).T)
    assert_storage(a - a, sp.zeros(a.rows, a.cols))


@given(shaped(square=True))
@settings(max_examples=80, deadline=None)
def test_square_operations_match_sympy(a):
    sa = to_sp(a)
    z = sp.Symbol("z")
    assert sp.Rational(a.trace().numerator, a.trace().denominator) == sa.trace()
    assert sp.Rational(a.det().numerator, a.det().denominator) == sa.det()
    want = [F(int(sp.numer(x)), int(sp.denom(x))) for x in reversed(sa.charpoly(z).all_coeffs())]
    assert list(char_poly(a).coeffs) == want
    # the same polynomial from the integer-stored route
    assert char_poly(a @ QMatrix.identity(a.rows)) == char_poly(a)
    if sa.det() == 0:
        with pytest.raises(NotInvertibleError):
            a.inverse()
    else:
        assert_storage(a.inverse(), sa.inv())


def test_zero_and_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 2)):
        z = QMatrix.zero(rows, cols)
        assert (z.num, z.den) == ((0,) * (rows * cols), 1)
        assert z == QMatrix(rows, cols, (F(0),) * (rows * cols))
        assert z.to_floats() == [[0.0] * cols for _ in range(rows)]
    assert QMatrix.zero(0, 3) != QMatrix.zero(3, 0)
    assert (QMatrix.zero(2, 0) @ QMatrix.zero(0, 3)) == QMatrix.zero(2, 3)
    assert (QMatrix.zero(0, 2) @ QMatrix.zero(2, 3)) == QMatrix.zero(0, 3)
    assert QMatrix.identity(0).trace() == 0 and QMatrix.identity(0).det() == 1
    assert char_poly(QMatrix.identity(0)) == P(1)


wide_fracs = st.builds(
    F, st.integers(min_value=-(10**40), max_value=10**40), st.integers(min_value=1, max_value=10**30)
)


@given(st.one_of(shaped(), dims.flatmap(lambda n: rational_matrices(n, 2, wide_fracs))), shaped())
@settings(max_examples=80, deadline=None)
def test_to_floats_is_bit_identical_to_float_of_fraction(a, b):
    for m in (a, a.scale(F(1, 3)), a @ QMatrix.identity(a.cols)):
        floats = [x for row in m.to_floats() for x in row]
        assert [x.hex() for x in floats] == [float(e).hex() for e in m.entries]
    if a.cols == b.rows:
        p = a @ b
        assert [x.hex() for row in p.to_floats() for x in row] == [float(e).hex() for e in p.entries]


@given(dims.flatmap(lambda n: rational_matrices(n, n)), mixed_fracs)
@settings(max_examples=60, deadline=None)
def test_equal_matrices_by_different_routes_hash_equal(a, c):
    n = a.rows
    routes = [
        a,
        QMatrix.from_rows(a.to_rows()),
        QMatrix.from_json(a.to_json()),
        a @ QMatrix.identity(n),
        QMatrix.identity(n) @ a,
        a.scale(3).scale(F(1, 3)),
        a + QMatrix.zero(n, n),
        a.transpose().transpose(),
    ]
    for m in routes:
        assert m == a and hash(m) == hash(a)
        assert (m.num, m.den) == (a.num, a.den)
    diagonal = [
        QMatrix.identity(n).scale(c),
        QMatrix.from_rows([[c if i == j else 0 for j in range(n)] for i in range(n)]),
        QMatrix.from_json([[str(c) if i == j else "0" for j in range(n)] for i in range(n)]),
        QMatrix.identity(n).scale(2 * c) @ QMatrix.identity(n).scale(F(1, 2)),
    ]
    for m in diagonal:
        assert m == diagonal[0] and hash(m) == hash(diagonal[0])
    assert len({*routes, *diagonal}) == (1 if a == diagonal[0] else 2)


def test_matrix_is_immutable_and_copies():
    a = M([[1, F(1, 2)], [0, 3]])
    with pytest.raises(AttributeError):
        a.rows = 3
    with pytest.raises(AttributeError):
        a.num = (1, 2, 3, 4)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)


# ------------------------------------------------ the integer echelon basis


@st.composite
def dependent_rows(draw):
    """Integer rows of length n, many of them combinations of a few others."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-6, max_value=6)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=len(base), max_size=len(base))
    combos = [[sum(c * b[i] for c, b in zip(cs, base)) for i in range(n)] for cs in draw(st.lists(coeffs, max_size=5))]
    return n, draw(st.permutations(base + combos))


@given(dependent_rows())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_int_echelon_add_and_rank_match_sympy(drawn):
    n, rows = drawn
    echelon = IntEchelon(n)
    ranks = [0] + [sp.Matrix(rows[: i + 1]).rank() for i in range(len(rows))]
    for i, v in enumerate(rows):
        assert echelon.add(v) is (ranks[i + 1] > ranks[i])
        assert len(echelon) == ranks[i + 1]
    pivots = [next(j for j, x in enumerate(r) if x) for r in echelon.rows]
    assert pivots == sorted(set(pivots))
    for r, p in zip(echelon.rows, pivots):
        assert all(type(x) is int for x in r)
        assert r[p] > 0 and math.gcd(*r) == 1
    # the rows span what was added
    assert sp.Matrix(rows + echelon.rows).rank() == len(echelon)
    assert Subspace.from_vectors(n, echelon.rows) == Subspace.from_vectors(n, rows)


def test_int_echelon_refuses_a_wrong_length_and_ignores_zero():
    echelon = IntEchelon(3)
    assert echelon.add((0, 0, 0)) is False
    assert echelon.add((0, 4, -6)) is True
    assert echelon.rows == [(0, 2, -3)]
    assert echelon.add((0, -2, 3)) is False
    with pytest.raises(DimensionMismatchError):
        echelon.add((1, 0))


def test_primitive_integer_clears_denominators_and_the_gcd():
    assert primitive_integer([F(1, 2), F(-1, 3), 0]) == (3, -2, 0)
    assert primitive_integer(["4", 6, F(-8)]) == (2, 3, -4)
    assert primitive_integer([0, F(0)]) == (0, 0)
    with pytest.raises(ParseError):
        primitive_integer([0.5])


def seeded_symmetric_matrices(seed: int, count: int):
    """Symmetric rational matrices of sizes 1 to 4: Gram matrices B^T B of
    B with fewer, as many or more rows than columns (singular PSD ones among
    them), the same shifted by a small multiple of a diagonal, and plain
    symmetric ones."""
    rng = random.Random(seed)

    def frac():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(count):
        n = rng.randint(1, 4)
        b = QMatrix.from_rows([[frac() for _ in range(n)] for _ in range(rng.randint(1, n + 1))])
        gram = b.transpose() @ b
        shift = QMatrix.from_rows([[F(rng.randint(-1, 1), 4) if i == j else 0 for j in range(n)] for i in range(n)])
        upper = [[frac() for _ in range(n)] for _ in range(n)]
        plain = QMatrix.from_rows([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        yield from (gram, gram + shift, plain)


def test_definiteness_matches_sympy_on_seeded_symmetric_matrices():
    seen = {"singular psd": 0, "pd": 0, "neither": 0}
    for m in seeded_symmetric_matrices(seed=7, count=150):
        want = sp.Matrix(m.rows, m.cols, [sp.Rational(x.numerator, x.denominator) for x in m.entries])
        psd, pd = is_positive_semidefinite(m), is_positive_definite(m)
        assert (psd, pd) == (want.is_positive_semidefinite, want.is_positive_definite)
        seen["pd" if pd else "singular psd" if psd else "neither"] += 1
    # every branch of the elimination is exercised
    assert min(seen.values()) >= 20, seen


def test_definiteness_needs_a_symmetric_matrix():
    for test in (is_positive_semidefinite, is_positive_definite):
        with pytest.raises(ValueError):
            test(M([[1, 2], [0, 1]]))
