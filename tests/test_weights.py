"""Weight decomposition and commuting-family expansiveness tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import weights
from expansive.actions import SemigroupAction
from expansive.exact import (
    QMatrix,
    SelfCheckError,
    Subspace,
    char_poly,
    intersect,
    minimal_poly,
    root_multiplicity,
    squarefree_part,
)
from expansive.orbits import expansiveness_check
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP, UNKNOWN, circle_root_count, single_expansive, unit_disk_profile
from expansive.weights import (
    NotCommutingError,
    NotGroupModeError,
    expansive_by_weights,
    find_expansive_element,
    weight_decomposition,
)


def F(x):
    return Fraction(x)


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


def act(gens, mode, names=None):
    names = names or [f"g{i + 1}" for i in range(len(gens))]
    return SemigroupAction.from_generators(list(zip(names, [M(g) for g in gens])), mode)


CAT = [[2, 1], [1, 1]]
ROTATION = [[0, -1], [1, 0]]


class TestDecomposition:
    def test_diagonal_splits_into_lines(self):
        d = weight_decomposition(act([[[2, 0], [0, 3]]], SEMIGROUP))
        assert [b.dim for b in d.blocks] == [1, 1]
        assert sorted(b.restriction.mats[0][0, 0] for b in d.blocks) == [F(2), F(3)]
        for mode in (GROUP, SEMIGROUP):
            assert not any(weights._block_is_stuck(b, mode) for b in d.blocks)

    def test_irrational_eigenvalues_share_one_block(self):
        d = weight_decomposition(act([[[0, -2], [1, 0]]], SEMIGROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 2
        # z^2 + 2: both eigenvalues have modulus sqrt(2), off the circle
        assert char_poly(d.blocks[0].restriction.mats[0]).coeffs == (F(2), F(0), F(1))
        for mode in (GROUP, SEMIGROUP):
            assert not weights._block_is_stuck(d.blocks[0], mode)

    def test_squared_generator_shares_the_block(self):
        a = M(CAT)
        d = weight_decomposition(
            SemigroupAction.from_generators([("a", a), ("b", a @ a)], SEMIGROUP)
        )
        assert len(d.blocks) == 1 and d.blocks[0].dim == 2
        ra, rb = d.blocks[0].restriction.mats
        assert rb == ra @ ra

    def test_rotation_block_sits_on_circle(self):
        d = weight_decomposition(act([ROTATION], GROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 2
        for mode in (GROUP, SEMIGROUP):
            assert weights._block_is_stuck(d.blocks[0], mode)
            assert expansive_by_weights(d, mode).status == NOT_EXPANSIVE

    def test_mixed_moduli_inside_one_block(self):
        # companion of z^4 - 3z^3 + 3z^2 - 3z + 1: irreducible, one root
        # pair on the unit circle and one hyperbolic real pair
        companion = [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -3], [0, 0, 1, 3]]
        d = weight_decomposition(act([companion], SEMIGROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 4
        for mode in (GROUP, SEMIGROUP):
            assert not weights._block_is_stuck(d.blocks[0], mode)
        v = expansive_by_weights(d, SEMIGROUP)
        assert v.status == UNKNOWN

    def test_non_commuting_rejected(self):
        with pytest.raises(NotCommutingError) as e:
            weight_decomposition(act([CAT, ROTATION], SEMIGROUP))
        assert set(e.value.pair) == {"g1", "g2"}

    def test_three_lines_in_a_plane_are_not_a_direct_sum(self):
        lines = [Subspace.from_vectors(3, [v]) for v in ([1, 0, 0], [0, 1, 0], [1, 1, 0])]
        # dimensions add up to 3 and every pair meets in 0, yet they span a plane
        assert all(intersect(a, b).dim == 0 for i, a in enumerate(lines) for b in lines[i + 1:])
        with pytest.raises(SelfCheckError):
            weights._check_direct_sum(lines, 3)

    def test_direct_sum_check_accepts_an_honest_split(self):
        blocks = [Subspace.from_vectors(3, [[1, 0, 0]]), Subspace.from_vectors(3, [[0, 1, 0], [1, 1, 1]])]
        weights._check_direct_sum(blocks, 3)
        with pytest.raises(SelfCheckError):
            weights._check_direct_sum(blocks[:1], 3)


class TestVerdicts:
    def test_diagonal_semigroup_expansive(self):
        d = weight_decomposition(act([[[2, 0], [0, 3]]], SEMIGROUP))
        v = expansive_by_weights(d, SEMIGROUP)
        assert v.status == EXPANSIVE
        assert all(rep["status"] == "escapes" for rep in v.block_reports)

    def test_mixed_diagonal_mode_split(self):
        group_action = act([[[2, 0], [0, F("1/2")]]], GROUP)
        assert expansive_by_weights(weight_decomposition(group_action), GROUP).status == EXPANSIVE
        semi_action = act([[[2, 0], [0, F("1/2")]]], SEMIGROUP)
        v = expansive_by_weights(weight_decomposition(semi_action), SEMIGROUP)
        assert v.status == NOT_EXPANSIVE
        assert any(rep["status"] == "stuck" for rep in v.block_reports)

    def test_rotation_not_expansive_both_modes(self):
        for mode in (GROUP, SEMIGROUP):
            d = weight_decomposition(act([ROTATION], mode))
            assert expansive_by_weights(d, mode).status == NOT_EXPANSIVE

    def test_cat_group_yes_semigroup_undecided(self):
        assert expansive_by_weights(weight_decomposition(act([CAT], GROUP)), GROUP).status == EXPANSIVE
        # the contracting eigendirection is irrational, so the bounded part
        # is invisible to modulus brackets alone
        v = expansive_by_weights(weight_decomposition(act([CAT], SEMIGROUP)), SEMIGROUP)
        assert v.status == UNKNOWN

    def test_commuting_pair_with_joint_escape_word(self):
        d = weight_decomposition(act([[[2, 0], [0, 1]], [[1, 0], [0, 2]]], GROUP))
        v = expansive_by_weights(d, GROUP)
        assert v.status == EXPANSIVE


class TestFindExpansiveElement:
    def test_complementary_diagonals_need_a_product(self):
        a = act([[[2, 0], [0, 1]], [[1, 0], [0, 2]]], GROUP)
        res = find_expansive_element(a)
        assert res is not None
        assert res["word"] == ["g1", "g2"]
        assert res["matrix"] == M([[2, 0], [0, 2]])
        assert res["profile"] == unit_disk_profile(char_poly(res["matrix"]))

    def test_hyperbolic_generator_is_its_own_witness(self):
        res = find_expansive_element(act([CAT], GROUP, names=["a"]))
        assert res is not None
        assert res["word"] == ["a"]
        assert res["matrix"] == M(CAT)
        assert res["profile"].to_json() == {"at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}

    def test_identity_has_no_witness(self):
        assert find_expansive_element(act([[[1, 0], [0, 1]]], GROUP)) is None

    def test_rotation_has_no_witness(self):
        assert find_expansive_element(act([ROTATION], GROUP)) is None

    def test_semigroup_mode_rejected(self):
        with pytest.raises(NotGroupModeError):
            find_expansive_element(act([CAT], SEMIGROUP))

    def test_word_cap_respected(self):
        a = act([[[2, 0], [0, 1]], [[1, 0], [0, 2]]], GROUP)
        assert find_expansive_element(a, word_cap=1) is None

    def test_found_word_always_verifies(self):
        for gens in ([CAT], [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], [[[0, -2], [1, 0]]]):
            a = act(gens, GROUP)
            res = find_expansive_element(a)
            if res is not None:
                assert len(res["word"]) <= 64
                assert single_expansive(a.word_matrix(tuple(res["word"])), GROUP).expansive


def reference_stuck(block, mode):
    """The stuck test by each generator's eigenvalue polynomial, the squarefree
    part of its minimal polynomial: in semigroup mode no root outside the
    unit disk; in group mode no root at zero and every other root on the
    unit circle."""
    for g in block.restriction.mats:
        eigen = squarefree_part(minimal_poly(g))
        if mode == SEMIGROUP:
            if unit_disk_profile(eigen).outside:
                return False
            continue
        zeros, stripped = root_multiplicity(eigen, F(0))
        if zeros or stripped.degree == 0 or circle_root_count(stripped) != stripped.degree:
            return False
    return True


def test_stuck_blocks_match_the_eigenvalue_polynomial_test():
    # the pairs t, t^2 + ct (+ I) commute; entries in [-2, 2], n <= 3
    rng = random.Random(22)
    outcomes, blocks = set(), 0
    while blocks < 1000:
        n = rng.randint(1, 3)
        t = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        second = t @ t + t.scale(F(rng.randint(-2, 2)))
        if rng.random() < 0.5:
            second = second + QMatrix.identity(n)
        d = weight_decomposition(SemigroupAction.from_generators([("t", t), ("p", second)], SEMIGROUP))
        for block in d.blocks:
            blocks += 1
            for mode in (GROUP, SEMIGROUP):
                stuck = weights._block_is_stuck(block, mode)
                assert stuck == reference_stuck(block, mode), (t, second, mode)
                outcomes.add((mode, stuck))
    assert outcomes == {(m, s) for m in (GROUP, SEMIGROUP) for s in (True, False)}


int_entries = st.integers(min_value=-2, max_value=2)


@st.composite
def small_matrix(draw, n=2):
    rows = [[draw(int_entries) for _ in range(n)] for _ in range(n)]
    return M(rows)


class TestAgainstOrbitEngine:
    @settings(max_examples=25, deadline=None)
    @given(small_matrix())
    def test_single_matrix_semigroup_agreement(self, m):
        a = SemigroupAction.from_generators([("g", m)], SEMIGROUP)
        d = weight_decomposition(a)
        assert sum(b.dim for b in d.blocks) == 2
        weights_status = expansive_by_weights(d, SEMIGROUP).status
        if weights_status == UNKNOWN:
            return
        engine_status = expansiveness_check(a, depth=6).status
        if engine_status != UNKNOWN:
            assert weights_status == engine_status

    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), st.integers(min_value=-2, max_value=2))
    def test_commuting_polynomial_pair_agreement(self, m, c):
        second = m @ m + m.scale(F(c))
        a = SemigroupAction.from_generators([("t", m), ("p", second)], SEMIGROUP)
        d = weight_decomposition(a)
        weights_status = expansive_by_weights(d, SEMIGROUP).status
        spectral = single_expansive(m, SEMIGROUP)
        # one generator already expansive forces the family verdict
        if spectral.expansive and weights_status != UNKNOWN:
            assert weights_status == EXPANSIVE
