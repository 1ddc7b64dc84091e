"""Weight decomposition and commuting-family expansiveness tests."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import weights
from expansive.actions import EXPANSIVE, NOT_EXPANSIVE, UNKNOWN, SemigroupAction
from expansive.cli import parse_action
from expansive.exact import QMatrix, SelfCheckError, Subspace, char_poly, intersect
from expansive.orbits import expansiveness_check
from expansive.spectral import GROUP, SEMIGROUP, single_expansive
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
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def block_pair(a, b):
    """The commuting generators diag(A, I) and diag(I, B)."""
    ka, kb = len(a), len(b)
    n = ka + kb
    first = [[a[i][j] if i < ka and j < ka else int(i == j) for j in range(n)] for i in range(n)]
    second = [[b[i - ka][j - ka] if i >= ka and j >= ka else int(i == j) for j in range(n)] for i in range(n)]
    return first, second


class TestDecomposition:
    def test_diagonal_splits_into_lines(self):
        d = weight_decomposition(act([[[2, 0], [0, 3]]], SEMIGROUP))
        assert [b.dim for b in d.blocks] == [1, 1]
        intervals = sorted(b.per_generator["g1"].modulus_interval for b in d.blocks)
        assert intervals == [(F(2), F(2)), (F(3), F(3))]
        for b in d.blocks:
            assert b.per_generator["g1"].modulus_is_one == "no"

    def test_irrational_modulus_bracketed(self):
        d = weight_decomposition(act([[[0, -2], [1, 0]]], SEMIGROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 2
        data = d.blocks[0].per_generator["g1"]
        assert data.minimal_poly.coeffs == (F(2), F(0), F(1))
        lo, hi = data.modulus_interval
        assert lo * lo <= 2 <= hi * hi
        assert hi - lo < Fraction(1, 4)
        assert data.modulus_is_one == "no"

    def test_squared_generator_squares_the_interval(self):
        a = M(CAT)
        d = weight_decomposition(
            SemigroupAction.from_generators([("a", a), ("b", a @ a)], SEMIGROUP)
        )
        assert len(d.blocks) == 1
        lo_a, hi_a = d.blocks[0].per_generator["a"].modulus_interval
        lo_b, hi_b = d.blocks[0].per_generator["b"].modulus_interval
        assert abs(lo_b - lo_a * lo_a) < Fraction(1, 1000)
        assert abs(hi_b - hi_a * hi_a) < Fraction(1, 1000)

    def test_rotation_block_sits_on_circle(self):
        d = weight_decomposition(act([ROTATION], GROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 2
        data = d.blocks[0].per_generator["g1"]
        assert data.modulus_interval == (F(1), F(1))
        assert data.modulus_is_one == "yes"

    def test_mixed_moduli_inside_one_block(self):
        # companion of z^4 - 3z^3 + 3z^2 - 3z + 1: irreducible, one root
        # pair on the unit circle and one hyperbolic real pair
        companion = [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -3], [0, 0, 1, 3]]
        d = weight_decomposition(act([companion], SEMIGROUP))
        assert len(d.blocks) == 1 and d.blocks[0].dim == 4
        data = d.blocks[0].per_generator["g1"]
        assert data.modulus_is_one == "mixed"
        lo, hi = data.modulus_interval
        assert lo < 1 < hi
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

    def test_json_round_trip_shape(self):
        d = weight_decomposition(act([[[2, 0], [0, 3]]], SEMIGROUP))
        blob = d.to_json()
        assert len(blob["blocks"]) == 2
        entry = blob["blocks"][0]["per_generator"]["g1"]
        assert set(entry) == {"minimal_poly", "modulus_interval", "modulus_is_one"}
        assert all(isinstance(s, str) for s in entry["modulus_interval"])


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

    def test_hyperbolic_generator_is_its_own_witness(self):
        res = find_expansive_element(act([CAT], GROUP, names=["a"]))
        assert res is not None
        assert res["word"] == ["a"]
        assert res["matrix"] == M(CAT)

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

    def test_decision_path_computes_no_modulus_bracket(self, monkeypatch):
        cat_map = parse_action(json.loads((FIXTURES / "cat_map.json").read_text()))
        actions = [cat_map] + [
            act(list(block_pair(a, b)), GROUP) for a, b in ((CAT, [[0, -2], [1, 0]]), ([[0, -2], [1, 0]], [[3]]))
        ]
        expected = [find_expansive_element(a) for a in actions]

        def refuse(*_args):
            raise AssertionError("the decision read a modulus bracket")

        monkeypatch.setattr(weights, "_modulus_interval", refuse)
        monkeypatch.setattr(weights, "_modulus_flag", refuse)
        found = [find_expansive_element(a) for a in actions]
        assert all(res is not None for res in found)
        assert [res["word"] for res in found] == [res["word"] for res in expected]
        assert [res["matrix"] for res in found] == [res["matrix"] for res in expected]

    def test_found_word_always_verifies(self):
        for gens in ([CAT], [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], [[[0, -2], [1, 0]]]):
            a = act(gens, GROUP)
            res = find_expansive_element(a)
            if res is not None:
                assert len(res["word"]) <= 64
                assert single_expansive(a.word_matrix(tuple(res["word"])), GROUP).expansive


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
