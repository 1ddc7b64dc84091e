"""Tests for exact circle and disk root counting and the single-matrix test.

Expected partitions were frozen from tests/oracle_roots.py, an independent
sympy + mpmath implementation.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive.exact import (
    NotInvertibleError,
    QMatrix,
    QPoly,
    ZeroConstantTermError,
    ZeroPolynomialError,
    char_poly,
    mat_power,
    _int_exact_quo,
    _int_gcd,
    _int_prim,
    _int_scaled,
)
from expansive.spectral import (
    DiskProfile,
    InvalidModeError,
    _SingularStep,
    _inside_by_half_plane,
    _schur_cohn_inside,
    circle_root_count,
    has_unbounded_powers,
    single_expansive,
    unit_disk_profile,
)

from oracle_roots import disk_profile_oracle, product

F = Fraction


def P(*coeffs):
    return QPoly.from_coeffs([F(c) for c in coeffs])


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


# Frozen from oracle_roots.disk_profile_oracle
ORACLE_TABLE = [
    ((1, -3, 1), (0, 1, 0, 1)),
    ((1, -2, 1), (0, 0, 2, 0)),
    ((1, 0, 1), (0, 0, 2, 0)),
    ((-2, 1), (0, 0, 0, 1)),
    ((-2, 0, 0, 1), (0, 0, 0, 3)),
    ((-2, 1, -2, 1), (0, 0, 2, 1)),
    # Salem structure: one root out, its inverse in, eight on the circle
    ((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), (0, 1, 8, 1)),
    ((1, -2, 2, -2, 1), (0, 0, 4, 0)),
    ((-3, 1, -6, 2, -3, 1), (0, 0, 4, 1)),
    ((0, -2, 1), (1, 0, 0, 1)),
    ((-1, 2, 2, 1), (0, 1, 0, 2)),
    ((6, -5, 1), (0, 0, 0, 2)),
    ((1, F(-5, 2), 1), (0, 1, 0, 1)),
]


@pytest.mark.parametrize("coeffs,expected", ORACLE_TABLE)
def test_unit_disk_profile_matches_frozen_oracle(coeffs, expected):
    prof = unit_disk_profile(P(*coeffs))
    assert (prof.at_zero, prof.inside, prof.on_circle, prof.outside) == expected
    assert prof.degree == len(coeffs) - 1


@pytest.mark.parametrize("coeffs,expected", ORACLE_TABLE)
def test_circle_root_count_matches_frozen_oracle(coeffs, expected):
    if expected[0] > 0:
        with pytest.raises(ZeroConstantTermError):
            circle_root_count(P(*coeffs))
    else:
        assert circle_root_count(P(*coeffs)) == expected[2]


def test_profile_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        unit_disk_profile(P())
    with pytest.raises(ZeroPolynomialError):
        circle_root_count(P())


def test_profile_of_constant_is_empty():
    prof = unit_disk_profile(P(7))
    assert prof.degree == 0


def test_disk_profile_validates_counts():
    with pytest.raises(ValueError):
        DiskProfile(-1, 0, 0, 0)


def test_singular_reduction_falls_back_to_half_plane():
    # constant and leading coefficients tie in absolute value at the
    # first reduction step, so the iteration cannot start
    q = (-1, 2, 2, 1)
    with pytest.raises(_SingularStep):
        _schur_cohn_inside(q)
    assert _inside_by_half_plane(q) == 1


def test_circle_count_with_high_multiplicity():
    p = product(P(1, 0, 1), P(1, 0, 1), P(1, 0, 1), P(-2, 1))
    assert circle_root_count(p) == 6
    p2 = product(P(1, -2, 1), P(1, 2, 1), P(1, -1))
    assert circle_root_count(p2) == 5


# ------------------------------------------------------- single matrices


def test_hyperbolic_automorphism_is_group_but_not_semigroup_expansive():
    a = M([[2, 1], [1, 1]])
    semi = single_expansive(a, "semigroup")
    grp = single_expansive(a, "group")
    assert not semi.expansive
    assert grp.expansive
    assert grp.profile.to_json() == {"at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}


def test_doubling_is_expansive_in_both_modes():
    a = M([[2]])
    assert single_expansive(a, "semigroup").expansive
    assert single_expansive(a, "group").expansive


def test_rotation_is_never_expansive():
    a = M([[0, -1], [1, 0]])
    assert not single_expansive(a, "semigroup").expansive
    assert not single_expansive(a, "group").expansive


def test_strict_expansion_in_semigroup_mode():
    assert single_expansive(M([[2, 0], [0, 3]]), "semigroup").expansive


def test_mixed_spectrum_only_group_expansive():
    a = QMatrix.from_rows([[F(2), F(0)], [F(0), F(1, 2)]])
    assert not single_expansive(a, "semigroup").expansive
    assert single_expansive(a, "group").expansive


def test_unipotent_shear_is_not_expansive():
    a = M([[1, 1], [0, 1]])
    assert not single_expansive(a, "group").expansive
    assert not single_expansive(a, "semigroup").expansive


def test_singular_matrix_rules():
    a = M([[1, 1], [1, 1]])
    assert not single_expansive(a, "semigroup").expansive
    with pytest.raises(NotInvertibleError):
        single_expansive(a, "group")


def test_invalid_mode_rejected():
    with pytest.raises(InvalidModeError):
        single_expansive(QMatrix.identity(1), "monoid")


# ------------------------------------------------------------ properties

int_polys_off_origin = (
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=7)
    .map(lambda cs: QPoly.from_coeffs([F(c) for c in cs]))
    .filter(lambda p: not p.is_zero and p.constant != 0 and len(p.coeffs) >= 2)
)


@given(int_polys_off_origin)
@settings(max_examples=40, deadline=None)
def test_profile_agrees_with_independent_oracle(p):
    prof = unit_disk_profile(p)
    assert prof.to_json() == disk_profile_oracle(p.coeffs)


@given(int_polys_off_origin)
@settings(max_examples=100, deadline=None)
def test_profile_partitions_the_degree(p):
    prof = unit_disk_profile(p)
    assert prof.degree == len(p.coeffs) - 1
    assert prof.at_zero == 0


@given(int_polys_off_origin)
@settings(max_examples=100, deadline=None)
def test_reversal_swaps_inside_and_outside(p):
    a = unit_disk_profile(p)
    b = unit_disk_profile(QPoly.from_coeffs(p.coeffs[::-1]))
    assert (a.inside, a.on_circle, a.outside) == (b.outside, b.on_circle, b.inside)


@given(int_polys_off_origin, int_polys_off_origin)
@settings(max_examples=60, deadline=None)
def test_profile_of_product_is_sum(p, q):
    a, b, c = unit_disk_profile(p), unit_disk_profile(q), unit_disk_profile(product(p, q))
    assert c.to_json() == {
        "at_zero": 0,
        "inside": a.inside + b.inside,
        "on_circle": a.on_circle + b.on_circle,
        "outside": a.outside + b.outside,
    }


@given(int_polys_off_origin, st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=5))
@settings(max_examples=60, deadline=None)
def test_profile_ignores_scaling(p, c):
    if c == 0:
        return
    assert unit_disk_profile(p).to_json() == unit_disk_profile(QPoly.from_coeffs([c * a for a in p.coeffs])).to_json()


@given(int_polys_off_origin)
@settings(max_examples=100, deadline=None)
def test_reduction_and_half_plane_counts_agree(p):
    # the factor of p's integer form f off its reciprocal-closed part gcd(f, reversed f)
    f = _int_prim(_int_scaled(p))
    q = _int_exact_quo(f, _int_gcd(f, f[::-1]))
    if len(q) < 2:
        return
    try:
        expected = _schur_cohn_inside(q)
    except _SingularStep:
        return
    assert _inside_by_half_plane(q) == expected


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_semigroup_expansive_implies_group_expansive(entries):
    a = QMatrix(2, 2, tuple(F(e) for e in entries))
    if a.det() == 0:
        return
    if single_expansive(a, "semigroup").expansive:
        assert single_expansive(a, "group").expansive


def test_escapes_reads_each_mode_off_the_profile():
    # (at_zero, inside, on_circle, outside) -> (semigroup, group)
    cases = {
        (0, 0, 0, 2): (True, True),
        (0, 1, 0, 1): (False, True),
        (0, 0, 1, 1): (False, False),
        (1, 0, 0, 1): (False, False),
    }
    for counts, expected in cases.items():
        prof = DiskProfile(*counts)
        assert (prof.escapes("semigroup"), prof.escapes("group")) == expected, counts


# ------------------------------------------------------------ unbounded powers


def finite_order_exponent(n: int) -> int:
    """L = lcm{d : phi(d) <= n}: a finite-order integer n x n matrix is
    diagonalizable with cyclotomic roots of such orders d, so M^L = I.
    phi(d) >= sqrt(d/2) bounds the search range."""
    out = 1
    for d in range(1, 2 * n * n + 2):
        if sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1) <= n:
            out = math.lcm(out, d)
    return out


def has_infinite_order_by_powers(m: QMatrix) -> bool:
    """The reference oracle for integer matrices: a root outside the unit
    circle, or M^(n+L) != M^n.  M^n kills the nilpotent part, and on the rest
    a finite order divides L."""
    if unit_disk_profile(char_poly(m)).outside > 0:
        return True
    head = mat_power(m, m.rows)
    return head @ mat_power(m, finite_order_exponent(m.rows)) != head


# companion matrices of the cyclotomic polynomials of degree at most 2
CYCLOTOMIC_BLOCKS = ([[1]], [[-1]], [[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]])


def block_upper(blocks, rng, couple: bool) -> QMatrix:
    """Block upper triangular, the given diagonal blocks and, when ``couple``,
    random integer blocks above them."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
            if couple:
                rows[at + i][at + len(b) :] = [rng.randint(-1, 1) for _ in range(n - at - len(b))]
        at += len(b)
    return QMatrix.from_rows(rows)


def unimodular_conjugate(m: QMatrix, rng) -> QMatrix:
    """U M U^-1 for a random product U of elementary integer matrices."""
    n = m.rows
    u = QMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = QMatrix.identity(n).to_rows()
        e[i][j] += rng.choice((-1, 1)) if i != j else 0
        u = u @ QMatrix.from_rows(e)
    return u @ m @ u.inverse()


def seeded_integer_matrices(seed: int, count: int):
    """(kind, matrix) pairs: finite order (cyclotomic blocks, coupled or not),
    unipotent and nilpotent (triangular), each conjugated by a random
    unimodular matrix, and hyperbolic (random small entries)."""
    rng = random.Random(seed)
    for _ in range(count):
        blocks = [rng.choice(CYCLOTOMIC_BLOCKS) for _ in range(rng.randint(1, 3))]
        blocks = blocks if sum(map(len, blocks)) <= 4 else blocks[:1]
        yield "finite order", unimodular_conjugate(block_upper(blocks, rng, False), rng)
        yield "cyclotomic, coupled", unimodular_conjugate(block_upper(blocks, rng, True), rng)
        repeated = [blocks[0]] * (4 // len(blocks[0]))
        yield "one cyclotomic block repeated, coupled", unimodular_conjugate(block_upper(repeated, rng, True), rng)
        n = rng.randint(1, 4)
        yield "unipotent", unimodular_conjugate(block_upper([[[1]]] * n, rng, True), rng)
        yield "nilpotent", unimodular_conjugate(block_upper([[[0]]] * n, rng, True), rng)
        yield "nilpotent and finite order", unimodular_conjugate(block_upper([[[0]], *blocks[:1]], rng, True), rng)
        yield "hyperbolic", QMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def signed_permutation_matrices(n: int):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield QMatrix.from_rows([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def test_unbounded_powers_match_the_power_oracle_on_integer_matrices():
    bounded = 0
    for kind, m in seeded_integer_matrices(seed=11, count=60):
        expected = has_infinite_order_by_powers(m)
        assert has_unbounded_powers(m) is expected, (kind, m.to_json())
        bounded += not expected
    for n in range(1, 5):
        for m in signed_permutation_matrices(n):
            assert has_unbounded_powers(m) is False is has_infinite_order_by_powers(m), m.to_json()
    # the finite-order and nilpotent families keep the bounded side well covered
    assert bounded >= 150


def test_unbounded_powers_of_rational_matrices():
    rotation = M([["3/5", "-4/5"], ["4/5", "3/5"]])
    # the rotation has infinite order, yet its powers stay bounded
    assert mat_power(rotation, 2 + finite_order_exponent(2)) != mat_power(rotation, 2)
    assert has_unbounded_powers(rotation) is False
    coupled = M([["3/5", "-4/5", 1, 0], ["4/5", "3/5", 0, 1], [0, 0, "3/5", "-4/5"], [0, 0, "4/5", "3/5"]])
    assert has_unbounded_powers(coupled) is True
    # a root inside the disk, repeated or not, leaves the powers bounded
    assert has_unbounded_powers(M([["1/2", 1], [0, "1/2"]])) is False
    assert has_unbounded_powers(M([["1/2", 0, 0], [0, 1, 1], [0, 0, 1]])) is True
