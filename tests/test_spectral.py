"""Tests for exact circle and disk root counting and the single-matrix test.

Expected partitions were frozen from tests/oracle_roots.py, an independent
sympy + mpmath implementation.
"""

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
    reciprocal_split,
)
from expansive.spectral import (
    DiskProfile,
    InvalidModeError,
    _SingularStep,
    _inside_by_half_plane,
    _schur_cohn_inside,
    circle_root_count,
    single_expansive,
    unit_disk_profile,
)

from oracle_roots import disk_profile_oracle

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
        unit_disk_profile(QPoly.zero())
    with pytest.raises(ZeroPolynomialError):
        circle_root_count(QPoly.zero())


def test_profile_of_constant_is_empty():
    prof = unit_disk_profile(P(7))
    assert prof.degree == 0


def test_disk_profile_validates_counts():
    with pytest.raises(ValueError):
        DiskProfile(-1, 0, 0, 0)


def test_singular_reduction_falls_back_to_half_plane():
    # constant and leading coefficients tie in absolute value at the
    # first reduction step, so the iteration cannot start
    q = P(-1, 2, 2, 1)
    with pytest.raises(_SingularStep):
        _schur_cohn_inside(q)
    assert _inside_by_half_plane(q) == 1


def test_circle_count_with_high_multiplicity():
    p = P(1, 0, 1) * P(1, 0, 1) * P(1, 0, 1) * P(-2, 1)
    assert circle_root_count(p) == 6
    p2 = P(1, -2, 1) * P(1, 2, 1) * P(1, -1)
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
    .filter(lambda p: not p.is_zero and p.constant != 0 and p.degree >= 1)
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
    assert prof.degree == p.degree
    assert prof.at_zero == 0


@given(int_polys_off_origin)
@settings(max_examples=100, deadline=None)
def test_reversal_swaps_inside_and_outside(p):
    a = unit_disk_profile(p)
    b = unit_disk_profile(p.reverse())
    assert (a.inside, a.on_circle, a.outside) == (b.outside, b.on_circle, b.inside)


@given(int_polys_off_origin, int_polys_off_origin)
@settings(max_examples=60, deadline=None)
def test_profile_of_product_is_sum(p, q):
    a, b, c = unit_disk_profile(p), unit_disk_profile(q), unit_disk_profile(p * q)
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
    assert unit_disk_profile(p).to_json() == unit_disk_profile(p.scale(c)).to_json()


@given(int_polys_off_origin)
@settings(max_examples=100, deadline=None)
def test_reduction_and_half_plane_counts_agree(p):
    _, q = reciprocal_split(p)
    if q.degree < 1:
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
