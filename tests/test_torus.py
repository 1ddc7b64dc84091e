"""Torus action tests: irreducibility, the two verdict routes, grid oracle."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive.actions import SemigroupAction
from expansive.cli import parse_action
from expansive.exact import IntEchelon, QMatrix, rref
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP, UNKNOWN
from expansive.torus import (
    GridTooLargeError,
    NonIntegerEntriesError,
    NotUnimodularError,
    TorusPoint,
    _algebra_basis,
    _point_separates,
    algebra_dimension,
    certified_infinite_word,
    irreducibility_check,
    orbit_closure,
    orbit_spread,
    rational_orbit_oracle,
    torus_expansive,
)
from test_orbits import perfbench_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def F(x):
    return Fraction(x)


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


def act(gens, mode, names=None):
    names = names or [f"g{i + 1}" for i in range(len(gens))]
    return SemigroupAction.from_generators(list(zip(names, [M(g) for g in gens])), mode)


def invariant_by_rank(space, m):
    """Invariance oracle: [basis | images] has rank dim."""
    return len(rref(QMatrix.from_columns(space.basis + tuple(map(m.apply, space.basis))))[1]) == space.dim


ROTATION = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
CAT = [[2, 1], [1, 1]]
DOUBLING = [[2]]


class TestTorusPoint:
    def test_reduction_into_unit_cube(self):
        p = TorusPoint.from_coords([F("5/4"), F("-1/3"), 2])
        assert p.coords == (F("1/4"), F("2/3"), F(0))

    def test_distance_wraps_around(self):
        assert TorusPoint.from_coords([F("7/8")]).distance_to_zero() == F("1/8")
        assert TorusPoint.from_coords([F("1/2"), F("1/8")]).distance_to_zero() == F("1/2")
        assert TorusPoint.from_coords([0, 0]).distance_to_zero() == 0

    def test_json_uses_strings(self):
        assert TorusPoint.from_coords([F("1/8")]).to_json() == ["1/8"]


class TestIrreducibility:
    def test_sl2_generators_span_everything(self):
        a = act([ROTATION, SHEAR], SEMIGROUP)
        assert algebra_dimension(a) == 4
        rep = irreducibility_check(a)
        assert rep.conclusion == "Irreducible"
        assert rep.absolutely_irreducible
        assert rep.rational_invariant_subspace is None

    def test_diagonal_is_reducible_with_axis_witness(self):
        rep = irreducibility_check(act([[[2, 0], [0, 3]]], SEMIGROUP))
        assert rep.conclusion == "Reducible"
        w = rep.rational_invariant_subspace
        assert w is not None and w.dim == 1
        assert w.contains((F(1), F(0))) or w.contains((F(0), F(1)))

    def test_rotation_alone_is_undecided(self):
        rep = irreducibility_check(act([ROTATION], SEMIGROUP))
        assert rep.algebra_dim == 2
        assert rep.conclusion == "Unknown"
        assert rep.rational_invariant_subspace is None

    def test_reducible_witness_is_exactly_invariant(self):
        a = act([[[2, 0], [0, 3]], [[1, 0], [0, 5]]], SEMIGROUP)
        rep = irreducibility_check(a)
        assert rep.conclusion == "Reducible"
        for g in a.mats:
            assert invariant_by_rank(rep.rational_invariant_subspace, g)

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerEntriesError):
            irreducibility_check(act([[[F("1/2")]]], SEMIGROUP))
        # a given generator is checked whatever its name reads like
        with pytest.raises(NonIntegerEntriesError, match=r"'a\^-1'"):
            irreducibility_check(act([[[F("1/2")]]], SEMIGROUP, ["a^-1"]))


class TestInfiniteOrderCertificate:
    def test_hyperbolic_word(self):
        assert certified_infinite_word(act([CAT], GROUP)) == ("g1",)

    def test_unipotent_word(self):
        assert certified_infinite_word(act([SHEAR], GROUP)) == ("g1",)

    def test_finite_order_yields_nothing(self):
        assert certified_infinite_word(act([ROTATION], GROUP)) is None
        assert certified_infinite_word(act([[[1, 0], [0, 1]]], SEMIGROUP)) is None

    def test_finite_group_with_several_generators(self):
        flip = [[0, 1], [1, 0]]
        neg = [[-1, 0], [0, -1]]
        assert certified_infinite_word(act([flip, neg], GROUP)) is None

    def test_singular_words_with_finitely_many_powers_yield_nothing(self):
        # the matrix units generate a finite semigroup although each E_ij^L != I
        units = act([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]], SEMIGROUP)
        assert certified_infinite_word(units) is None
        assert torus_expansive(units).status == NOT_EXPANSIVE


class TestTorusVerdicts:
    def test_sl2_semigroup_uses_fast_path(self):
        v = torus_expansive(act([ROTATION, SHEAR], SEMIGROUP))
        assert v.status == EXPANSIVE
        assert v.evidence["route"] == "irreducible-fast-path"
        assert v.certificate["kind"] == "irreducible_fast_path"
        assert v.certificate["algebra_dim"] == 4

    def test_doubling_map_expansive(self):
        v = torus_expansive(act([DOUBLING], SEMIGROUP))
        assert v.status == EXPANSIVE

    def test_rotation_group_not_expansive(self):
        v = torus_expansive(act([ROTATION], GROUP))
        assert v.status == NOT_EXPANSIVE
        assert v.witness is not None

    def test_cat_map_group_expansive(self):
        v = torus_expansive(act([CAT], GROUP))
        assert v.status == EXPANSIVE

    def test_group_mode_requires_unimodular(self):
        with pytest.raises(NotUnimodularError):
            torus_expansive(act([DOUBLING], GROUP))

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerEntriesError):
            torus_expansive(act([[[F("1/2"), 0], [0, 2]]], SEMIGROUP))
        with pytest.raises(NonIntegerEntriesError, match=r"'a\^-1'"):
            torus_expansive(act([[[F("1/2")]]], SEMIGROUP, ["a^-1"]))
        # given generators that invert each other are both generators
        with pytest.raises(NonIntegerEntriesError, match="'b'"):
            torus_expansive(act([[[2]], [[F("1/2")]]], SEMIGROUP, ["a", "b"]))

    def test_fast_path_agrees_with_engine_on_fixtures(self):
        fixtures = [
            (act([ROTATION, SHEAR], SEMIGROUP), EXPANSIVE),
            (act([DOUBLING], SEMIGROUP), EXPANSIVE),
            (act([ROTATION], GROUP), NOT_EXPANSIVE),
            (act([CAT], GROUP), EXPANSIVE),
            (act([[[2, 0], [0, 3]]], SEMIGROUP), EXPANSIVE),
            (act([[[1, 0], [0, 1]]], SEMIGROUP), NOT_EXPANSIVE),
        ]
        for action, expected in fixtures:
            assert torus_expansive(action).status == expected


class TestOrbitGeometry:
    def test_doubling_orbit_of_one_eighth(self):
        a = act([DOUBLING], SEMIGROUP)
        assert orbit_spread(a, TorusPoint.from_coords([F("1/8")])) == F("1/2")

    def test_rotation_orbit_spread_shrinks_with_the_point(self):
        a = act([ROTATION], GROUP)
        spreads = [
            orbit_spread(a, TorusPoint.from_coords([Fraction(1, 2**k), 0])) for k in (3, 4, 5)
        ]
        assert spreads == [F("1/8"), F("1/16"), F("1/32")]
        assert spreads[0] > spreads[1] > spreads[2]


    def test_the_oracle_and_the_closure_walk_the_same_orbits_under_the_same_cap(self):
        a = act([CAT, [[0, -1], [1, 0]]], GROUP)
        for q in (3, 5, 6):
            for i in range(q):
                for j in range(q):
                    point = TorusPoint.from_coords([Fraction(i, q), Fraction(j, q)])
                    size = len(orbit_closure(a, point))
                    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                        assert _point_separates(a, point, eps, size) == (orbit_spread(a, point, size) >= eps)
                    if size > 1:
                        with pytest.raises(GridTooLargeError):
                            orbit_closure(a, point, size - 1)
                        with pytest.raises(GridTooLargeError):
                            # no orbit point is as far as 1: the walk visits them all
                            _point_separates(a, point, Fraction(1), size - 1)


class TestRationalOrbitOracle:
    def test_doubling_grid_is_separated(self):
        res = rational_orbit_oracle(act([DOUBLING], SEMIGROUP), q=8, epsilon=F("1/4"))
        assert res.separated and res.failing_point is None
        assert res.states == 7

    def test_identity_fails_at_the_first_grid_point(self):
        res = rational_orbit_oracle(act([[[1]]], SEMIGROUP), q=8, epsilon=F("1/4"))
        assert not res.separated
        assert res.failing_point.coords == (F("1/8"),)

    def test_cat_map_grid_is_separated(self):
        res = rational_orbit_oracle(act([CAT], GROUP), q=5, epsilon=F("1/4"))
        assert res.separated
        assert res.states == 24

    def test_parameter_validation(self):
        a = act([DOUBLING], SEMIGROUP)
        with pytest.raises(ValueError):
            rational_orbit_oracle(a, q=1, epsilon=F("1/4"))
        with pytest.raises(ValueError):
            rational_orbit_oracle(a, q=4, epsilon=F("3/4"))
        with pytest.raises(ValueError):
            rational_orbit_oracle(a, q=4, epsilon=0)

    def test_grid_cap(self):
        with pytest.raises(GridTooLargeError):
            rational_orbit_oracle(act([CAT], GROUP), q=10**4, epsilon=F("1/4"))

    def test_json_shape(self):
        res = rational_orbit_oracle(act([[[1]]], SEMIGROUP), q=8, epsilon=F("1/4"))
        blob = res.to_json()
        assert blob["separated"] is False
        assert blob["failing_point"] == ["1/8"]
        assert blob["epsilon"] == "1/4"

    def test_expansive_verdicts_imply_separation(self):
        # grid orbits are a subset of all orbits, so an expansive action
        # can never leave a grid point stranded below the constant
        for gens, mode in (([DOUBLING], SEMIGROUP), ([CAT], GROUP), ([ROTATION, SHEAR], SEMIGROUP)):
            a = act(gens, mode)
            assert torus_expansive(a).status == EXPANSIVE
            for q in (2, 3, 4):
                assert rational_orbit_oracle(a, q=q, epsilon=F("1/4")).separated


@st.composite
def unimodular_2x2(draw):
    # random words in the standard generators stay in SL2(Z)
    s = M([[0, -1], [1, 0]])
    t = M([[1, 1], [0, 1]])
    out = QMatrix.identity(2)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        out = out @ draw(st.sampled_from([s, t]))
    return out


class TestRandomized:
    @settings(max_examples=20, deadline=None)
    @given(unimodular_2x2())
    def test_group_verdict_never_contradicts_small_grid(self, m):
        a = SemigroupAction.from_generators([("g", m)], GROUP)
        v = torus_expansive(a, depth=6)
        if v.status == EXPANSIVE:
            assert rational_orbit_oracle(a, q=4, epsilon=F("1/4")).separated
        elif v.status == NOT_EXPANSIVE and v.witness is not None:
            spreads = [
                orbit_spread(a, TorusPoint.from_coords([c / 2**k for c in v.witness]))
                for k in (4, 6, 8)
            ]
            assert spreads[0] >= spreads[1] >= spreads[2]


def algebra_basis_by_echelon(action: SemigroupAction) -> list[tuple[str, ...]]:
    """``torus._algebra_basis`` with its basis held in one ``IntEchelon``: a
    product joins the basis when its integer numerators raise the rank, in
    place of one ``rref`` of [basis | product] per candidate."""
    n = action.dim
    span = IntEchelon(n * n)
    words: list[tuple[str, ...]] = []
    stack: list[tuple[tuple[str, ...], QMatrix]] = []
    candidates = [((), QMatrix.identity(n))]
    while True:
        for word, m in candidates:
            if span.add(m.num):
                words.append(word)
                stack.append((word, m))
        if not stack or len(words) == n * n:
            return words
        word, m = stack.pop()
        candidates = [(word + (name,), m @ g) for name, g in zip(action.names, action.mats)]


def test_the_algebra_walk_on_one_integer_echelon_finds_the_same_words():
    # the walk of item 2 of the roadmap: the same words, in the same order, on
    # every torus fixture in both modes and on the perfbench torus cases of
    # seeds 1-3 with n <= 4
    actions = []
    for path in sorted(FIXTURES.glob("*.json")):
        case = json.loads(path.read_text())
        if isinstance(case, dict) and "generators" in case:
            actions += [parse_action(case, mode) for mode in (GROUP, SEMIGROUP)]
    for seed in (1, 2, 3):
        for op in perfbench_cases().torus_solenoid_cases(seed):
            if op["kind"] == "torus":
                action = parse_action(op["case"])
                if action.dim <= 4:
                    actions.append(action)
    assert len(actions) == 14 + 21
    for action in actions:
        assert algebra_basis_by_echelon(action) == _algebra_basis(action), action.names
