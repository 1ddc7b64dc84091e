"""Dual-module solenoid tests: chains, windows, lifting, expansiveness."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive.exact import DimensionMismatchError, QMatrix, coordinates_in_span
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP
from expansive.solenoid import (
    Ball,
    ChainTable,
    DualModuleAction,
    HomVector,
    InvalidDepthError,
    KExceededError,
    LiftOutOfRangeError,
    NotInSpanError,
    PrecisionExhaustedError,
    SolenoidWindow,
    E_window,
    _base_level_plan,
    _best_relation,
    _multiple,
    _pair_relation,
    _span_relation,
    character,
    circle_gap,
    d_A,
    d_star_A,
    enumerate_basis,
    lift,
    regular_chain,
    solenoid_expansive,
    span_restriction,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def F(x):
    return Fraction(x)


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


def dyadic_module():
    return DualModuleAction.from_generators(1, [[1]], [("g", M([[2]]))], GROUP)


def sixth_module():
    return DualModuleAction.from_generators(1, [[1]], [("t", M([[2]])), ("u", M([[3]]))], GROUP)


def cat_module():
    return DualModuleAction.from_generators(
        2, [[1, 0], [0, 1]], [("a", M([[2, 1], [1, 1]]))], GROUP
    )


def fixed_module():
    return DualModuleAction.from_generators(1, [[1]], [("g", M([[1]]))], GROUP)


class TestBallArithmetic:
    def test_quantization_covers_the_input(self):
        b = Ball.quantized(F("1/10"), precision=10)
        assert abs(b.mid - F("1/10")) <= b.rad
        assert b.mid.denominator <= 2**10

    def test_unique_integer_detection(self):
        assert Ball(F("3/10"), F("2/5")).unique_integer() == 0
        assert Ball(F("3/10"), F("1/5")).unique_integer() is None
        assert Ball(F("9/10"), F("1/5")).unique_integer() == 1
        with pytest.raises(PrecisionExhaustedError):
            Ball(F("1/2"), F("1/2")).unique_integer()

    def test_centered_representative(self):
        assert Ball(F("3/4"), 0).centered().mid == F("-1/4")
        assert Ball(F("1/2"), 0).centered().mid == F("1/2")
        assert Ball(F("13/4"), 0).centered().mid == F("1/4")

    def test_circle_gap_examples(self):
        assert circle_gap(Ball(F("2/5"), 0)).mid == F("2/5")
        assert circle_gap(Ball(F("3/4"), 0)).mid == F("1/4")


class TestEnumerateBasis:
    def test_dyadic_powers(self):
        levels = enumerate_basis(dyadic_module(), 3)
        assert set(levels[0]) == {(F(1),), (F(2),), (F("1/2"),)}
        assert set(levels[2]) == {(F(2) ** j,) for j in range(-3, 4)}
        assert set(levels[0]) <= set(levels[1]) <= set(levels[2])

    def test_cat_first_level(self):
        levels = enumerate_basis(cat_module(), 1)
        expected = {
            (F(1), F(0)),
            (F(0), F(1)),
            (F(2), F(1)),
            (F(1), F(1)),
            (F(1), F(-1)),
            (F(-1), F(2)),
        }
        assert set(levels[0]) == expected

    def test_fixed_point_never_grows(self):
        levels = enumerate_basis(fixed_module(), 5)
        assert all(set(level) == {(F(1),)} for level in levels)



def numerators(*chars):
    """The characters' numerators over their least common denominator: an
    integer relation holds among these vectors exactly when it holds among
    the characters."""
    den = math.lcm(*(x.denominator for chi in chars for x in chi))
    return [tuple(x.numerator * (den // x.denominator) for x in chi) for chi in chars]


def relations_by_character(chain):
    """target -> (n0, ((coef, character), ...)) of the chain's relations,
    each position read as its character."""
    return {
        chain.character(t): (n0, tuple((c, chain.character(j)) for c, j in terms)) for t, n0, terms in chain.relations
    }


def top_characters(chain):
    """The characters of the chain's last level."""
    return [chain.character(i) for i in chain.levels[-1]]


def _pair_relation_by_search(target, a, b, budget):
    """Every (n0, ni, nj) in the order _pair_relation promises, tried in full."""
    for n0 in range(1, budget - 1):
        rest = budget - n0
        for ni in range(-rest + 1, rest):
            for nj in range(-(rest - abs(ni)), rest - abs(ni) + 1):
                if (ni or nj) and all(n0 * t == ni * x + nj * y for t, x, y in zip(target, a, b)):
                    return n0, ni, nj
    return None


class TestRegularChain:
    def test_dyadic_relations_cost_three(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        assert chain.k == 3
        assert chain.verify()
        by_target = relations_by_character(chain)
        assert by_target[(F(4),)] == (1, ((2, (F(2),)),))
        assert by_target[(F("1/4"),)] == (2, ((1, (F("1/2"),)),))

    def test_sixth_chain_minimal_cost_is_four(self):
        # the first character at 3-adic depth 2 (here 1/9) forces 3 | n0:
        # every previous-level character has valuation >= -1, so the
        # ultrametric bound leaves no relation cheaper than 3*(1/9) = 1*(1/3)
        chain = regular_chain(enumerate_basis(sixth_module(), 2))
        assert chain.k == 4
        assert chain.verify()
        n0, terms = relations_by_character(chain)[(F("1/9"),)]
        assert n0 + sum(abs(c) for c, _ in terms) == 4

    def test_integer_lattice_unit_n0(self):
        dm = cat_module()
        levels = [dm.module_generators, enumerate_basis(dm, 1)[0]]
        chain = regular_chain(levels)
        assert all(n0 == 1 for _, n0, _ in chain.relations)
        assert chain.k == 4  # 1 + |(2, 1)|_1 at the widest image

    def test_not_in_span(self):
        levels = [
            (character([1, 0]),),
            (character([1, 0]), character([0, 1])),
        ]
        with pytest.raises(NotInSpanError):
            regular_chain(levels)

    def test_k_cap(self):
        with pytest.raises(KExceededError):
            regular_chain(enumerate_basis(dyadic_module(), 3), k_max=2)

    def test_tampered_relation_fails_verification(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 2))
        bad = tuple((t, n0 + 1, terms) for t, n0, terms in chain.relations)
        fields = {name: getattr(chain, name) for name in ChainTable.__slots__}
        assert not ChainTable(**{**fields, "relations": bad}).verify()

    def test_positions_of_a_built_chain(self):
        # levels and relations hold positions, character(i) gives the Fractions
        levels = enumerate_basis(sixth_module(), 2)
        chain = regular_chain(levels)
        assert [[chain.character(i) for i in level] for level in chain.levels] == [list(level) for level in levels]
        assert len(chain.chars) == len(levels[-1])
        assert all(chain.find(chi) == i for i, chi in zip(chain.levels[-1], levels[-1]))

    def test_pair_relation_is_the_first_hit_of_the_full_search(self):
        # every branch of _pair_relation on purpose, with a hit and a miss
        # wherever both can happen; the full search runs on the same integer
        # numerators, over which it finds the same relations
        seen = Counter()
        for target, a, b, budget in PAIR_CASES + PAIR_GRID:
            t, va, vb = numerators(target, a, b)
            hit = _pair_relation_by_search(t, va, vb, budget)
            assert _pair_relation(t, va, vb, budget) == hit
            hit = hit is not None
            if not any(a) or not any(b):
                seen["zero character", hit] += 1
            elif coordinates_in_span([a], b) is None:
                seen["independent", coordinates_in_span([a, b], target) is not None, hit] += 1
            else:
                seen["parallel", coordinates_in_span([a], target) is not None, hit] += 1
            if not any(target):
                seen["zero target", hit] += 1
        branches = [("zero character", True), ("zero character", False), ("zero target", True), ("zero target", False),
                    ("independent", True, True), ("independent", True, False), ("independent", False, False),
                    ("parallel", True, True), ("parallel", True, False), ("parallel", False, False)]
        assert all(seen[branch] >= 40 for branch in branches), seen
        assert max(budget for *_, budget in PAIR_CASES) == PAIR_BUDGET

    def test_pair_relation_with_a_zero_character(self):
        zero, half = (F(0), F(0)), (F("1/2"), F(1))
        target = (F(1), F(2))
        assert _pair_relation(*numerators(target, half, zero), 6) == _pair_relation_by_search(target, half, zero, 6)
        assert _pair_relation(*numerators(target, half, zero), 6) == (1, 2, -3)
        # two zero characters: any pair of coefficients, the first one scanned
        assert _pair_relation((0, 0), (0, 0), (0, 0), 6) == (1, -4, -1) == _pair_relation_by_search(zero, zero, zero, 6)
        assert _pair_relation((0, 1), (0, 0), (0, 0), 6) is None

    def test_pair_search_runs_through_the_module_global(self, monkeypatch):
        # the traced bench counts the pair search by wrapping the module
        # attribute; no pair is tried once no relation can beat the best
        from expansive import solenoid

        budgets = []
        pair = solenoid._pair_relation

        def counting(t, a, b, budget):
            budgets.append(budget)
            return pair(t, a, b, budget)

        monkeypatch.setattr(solenoid, "_pair_relation", counting)
        assert regular_chain(enumerate_basis(sixth_module(), 2)).k == 4
        assert regular_chain(enumerate_basis(cat_module(), 2)).k == 4
        assert budgets and min(budgets) >= 3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_multiple_test_matches_the_one_column_span(self, dim, data):
        # the one-column coordinates_in_span([chi], target) that _best_relation
        # once ran for every previous character is the oracle: target = c chi
        # with c = p/q in lowest terms is n0 = q, coefficient p
        frac = st.one_of(st.just(F(0)), st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4])))
        vec = st.lists(frac, min_size=dim, max_size=dim).map(tuple)
        chi = data.draw(st.one_of(vec, st.just((F(0),) * dim)))
        c = data.draw(frac)
        multiple = tuple(c * x for x in chi)
        # a multiple with one coordinate moved, which only the cross-check catches
        i = data.draw(st.integers(0, dim - 1))
        moved = multiple[:i] + (multiple[i] + data.draw(st.sampled_from([F(1), Fraction(-1, 3)])),) + multiple[i + 1 :]
        target = data.draw(st.one_of(st.sampled_from([multiple, moved, (F(0),) * dim]), vec))
        span = coordinates_in_span([chi], target)
        expected = None if span is None else (span[0].denominator, span[0].numerator)
        assert _multiple(*numerators(chi, target)) == expected

    def test_multiple_test_examples(self):
        assert _multiple((0, 0), (0, 0)) == (1, 0)
        assert _multiple((0, 0), (0, 1)) is None
        assert _multiple((0, 2), (0, -3)) == (2, -3)
        assert _multiple((0, -2), (0, -3)) == (2, 3)
        assert _multiple((0, 2), (1, -3)) is None
        assert _multiple((1, 2), (0, 0)) == (1, 0)
        assert _multiple((2, 4), (3, 6)) == (2, 3)
        assert _multiple((-4, 2), (6, -3)) == (2, -3)

    def test_regular_chain_runs_no_fraction_gauss_jordan(self, monkeypatch):
        # the span solve, the multiple test and the pair search all run on
        # integer numerators, on every module of this file and of fixtures/
        from expansive import exact
        from expansive.cli import parse_dual_module

        calls = []
        gauss_jordan = exact._gauss_jordan

        def counted(a, ncols):
            calls.append(ncols)
            return gauss_jordan(a, ncols)

        monkeypatch.setattr(exact, "_gauss_jordan", counted)
        modules = [dyadic_module(), sixth_module(), cat_module(), fixed_module()]
        modules += [parse_dual_module(json.loads((FIXTURES / f"{name}.json").read_text()))
                    for name in ("cat_map", "doubling", "dyadic_solenoid", "sixth_solenoid")]
        chains = [regular_chain(enumerate_basis(dm, 3)) for dm in modules]
        assert sum(len(chain.relations) for chain in chains) > 50
        assert calls == []

    def test_json_shape(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 2))
        blob = chain.to_json()
        assert blob["k"] == 3
        assert blob["relations"][0].keys() == {"target", "n0", "terms"}

    @pytest.mark.parametrize("module", [dyadic_module, sixth_module, cat_module])
    def test_json_reads_back_to_the_built_chain(self, module):
        # the built table and the one read back differ only in the spellings
        # they have seen: Fractions for the one, strings for the other
        chain = regular_chain(enumerate_basis(module(), 2))
        blob = chain.to_json()
        table = ChainTable.from_json(json.loads(json.dumps(blob)))
        fields = ("den", "chars", "index", "levels", "k", "relations")
        assert [getattr(table, f) for f in fields] == [getattr(chain, f) for f in fields]
        assert table.to_json() == blob

    def test_one_character_spelled_two_ways_is_one_position(self):
        table = ChainTable.read([[["1/2"]], [["2/4"], ["1/4"]]], [(["1/4"], 2, [(1, ["2/4"])])], 3)
        assert table.levels == ((0,), (0, 1)) and table.relations == ((1, 2, ((1, 0),)),)
        assert table.character(0) == (F("1/2"),) and table.character(1) == (F("1/4"),)
        assert table.verify()
        assert table.to_json() == {
            "levels": [[["1/2"]], [["1/2"], ["1/4"]]],
            "k": 3,
            "relations": [{"target": ["1/4"], "n0": 2, "terms": [{"coef": 1, "character": ["1/2"]}]}],
        }


def pullback(p, m):
    """The functional chi -> p(m chi), the adjoint action of m on p."""
    return HomVector(tuple(
        sum((p.coords[j].scale(m[j, i]) for j in range(m.rows)), Ball.exact(0)) for i in range(m.cols)
    ))


def combine(x, y):
    """The window of the product of two group elements: angles add on every character."""
    return SolenoidWindow(tuple((c, (b + y.angle(c)).angle()) for c, b in x.values))


class TestWindows:
    def test_evaluation_angles(self):
        p = HomVector.from_exact([F("1/10")])
        w = E_window(p, [(F(1),), (F(2),), (F(4),)])
        assert [b.mid for _, b in w.values] == [F("1/10"), F("1/5"), F("2/5")]

    def test_zero_functional_gives_identity_window(self):
        w = E_window(HomVector.zero(1), [(F(1),), (F(8),)])
        assert all(b.mid == 0 and b.rad == 0 for _, b in w.values)

    def test_large_character_scales_the_angle(self):
        p = HomVector.from_exact([F("1/1000")])
        w = E_window(p, [(F(32),)])
        assert w.angle((F(32),)).mid == F("4/125")

    def test_window_homomorphism(self):
        chars = [(F(1),), (F(2),), (F(4),)]
        p = HomVector.from_exact([F("3/10")])
        q = HomVector.from_exact([F("9/20")])
        left = E_window(p + q, chars)
        right = combine(E_window(p, chars), E_window(q, chars))
        for chi in chars:
            assert left.angle(chi).mid == right.angle(chi).mid

    def test_equivariance_through_pullback(self):
        dm = cat_module()
        g = dm.action.mats[0]
        chars = list(enumerate_basis(dm, 1)[0])
        p = HomVector.from_exact([F("1/7"), F("2/7")])
        moved = E_window(pullback(p, g), chars)
        still = E_window(p, [tuple(g.apply(c)) for c in chars])
        for chi, (_, b) in zip(chars, still.values):
            assert moved.angle(chi).mid == b.mid


class TestMetrics:
    def test_d_star_peaks_at_the_largest_character(self):
        chars = [(F(2) ** j,) for j in range(0, 6)]
        p = HomVector.from_exact([F("1/100")])
        d = d_star_A(HomVector.zero(1), p, chars)
        assert d.mid == F("32/100") and d.rad == 0

    def test_d_A_self_distance_zero(self):
        chars = [(F(1),), (F(2),)]
        w = E_window(HomVector.from_exact([F("1/3")]), chars)
        d = d_A(w, w, chars)
        assert d.mid == 0 and d.rad == 0

    def test_d_star_rational_homogeneity(self):
        chars = [(F(1),), (F(3),)]
        p = HomVector.from_exact([F("2/7")])
        base = d_star_A(HomVector.zero(1), p, chars).mid
        for c in (F(2), F("1/3"), F(-5)):
            scaled = d_star_A(HomVector.zero(1), p.scale(c), chars).mid
            assert scaled == abs(c) * base

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.fractions(min_value=0, max_value=1), min_size=3, max_size=3),
        st.lists(st.fractions(min_value=0, max_value=1), min_size=3, max_size=3),
        st.lists(st.fractions(min_value=0, max_value=1), min_size=3, max_size=3),
    )
    def test_d_A_metric_axioms(self, xs, ys, zs):
        chars = [(F(1),), (F(2),), (F(3),)]
        wx = _window(chars, xs)
        wy = _window(chars, ys)
        wz = _window(chars, zs)
        assert d_A(wx, wy, chars).mid == d_A(wy, wx, chars).mid
        assert d_A(wx, wz, chars).mid <= d_A(wx, wy, chars).mid + d_A(wy, wz, chars).mid


def _window(chars, angles):
    from expansive.solenoid import SolenoidWindow

    return SolenoidWindow(tuple((c, Ball(F(a) % 1, F(0))) for c, a in zip(chars, angles)))


class TestLift:
    def test_exact_roundtrip(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        p = HomVector.from_exact([F("1/1000")])
        got = lift(E_window(p, top_characters(chain)), chain, F("3/10"))
        for chi in top_characters(chain):
            assert got.value(chi).mid == p.pair(chi).mid
            assert abs(got.value(chi).mid) < F("3/10")

    def test_quantized_roundtrip_within_radius(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        p = HomVector.from_rationals([F("1/1000")])
        window = E_window(p, top_characters(chain))
        got = lift(window, chain, F("3/10"))
        for chi in top_characters(chain):
            truth = F("1/1000") * chi[0]
            b = got.value(chi)
            assert abs(b.mid - truth) <= 4 * b.rad + b.rad

    def test_identity_window_lifts_to_zero(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 4))
        got = lift(E_window(HomVector.zero(1), top_characters(chain)), chain, F("1/4"))
        assert all(b.mid == 0 for _, b in got.values)

    def test_out_of_range_at_the_top(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        p = HomVector.from_exact([F("1/50")])
        with pytest.raises(LiftOutOfRangeError):
            lift(E_window(p, top_characters(chain)), chain, F("3/10"))

    def test_bound_validation(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        w = E_window(HomVector.zero(1), top_characters(chain))
        with pytest.raises(ValueError):
            lift(w, chain, F("1/2"))
        with pytest.raises(ValueError):
            lift(w, chain, 0)

    def test_precision_exhaustion_is_reported(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        fuzzy = HomVector(coords=(Ball(F("1/10"), F("2/5")),))
        with pytest.raises((PrecisionExhaustedError, LiftOutOfRangeError)):
            lift(E_window(fuzzy, top_characters(chain)), chain, F("3/10"))

    def test_deterministic_uniqueness(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        window = E_window(HomVector.from_rationals([F("1/2048")]), top_characters(chain))
        a = lift(window, chain, F("3/10"))
        b = lift(window, chain, F("3/10"))
        assert a == b

    def test_a_character_with_no_relation_is_named(self):
        # levels [[1]], [[1], [2]] and no relation for the new character 2
        chain = ChainTable.read([[[1]], [[1], [2]]], (), 3)
        window = E_window(HomVector.from_exact([F("1/100")]), [(F(1),), (F(2),)])
        with pytest.raises(ValueError, match=r"character \('2',\) at level 1 has no relation"):
            lift(window, chain, F("1/4"))

    def test_two_generator_chain_lift(self):
        chain = regular_chain(enumerate_basis(sixth_module(), 2))
        p = HomVector.from_exact([F("1/2000")])
        got = lift(E_window(p, top_characters(chain)), chain, F("1/5"))
        for chi in top_characters(chain):
            assert got.value(chi).mid == p.pair(chi).mid


class TestSolenoidExpansiveness:
    def test_dyadic_solenoid_expansive(self):
        v = solenoid_expansive(dyadic_module())
        assert v.status == EXPANSIVE
        assert v.evidence["span_dim"] == 1
        assert v.evidence["finitely_generated"] == "by presentation"

    def test_identity_dual_not_expansive(self):
        v = solenoid_expansive(fixed_module())
        assert v.status == NOT_EXPANSIVE
        assert v.witness is not None and any(c != 0 for c in v.witness)

    def test_cat_solenoid_expansive(self):
        assert solenoid_expansive(cat_module()).status == EXPANSIVE

    def test_restriction_to_an_embedded_line(self):
        dm = DualModuleAction.from_generators(
            2, [[1, 0]], [("g", M([[2, 0], [0, 3]]))], GROUP
        )
        basis, adjoint = span_restriction(dm)
        assert len(basis) == 1
        assert adjoint.dim == 1
        assert solenoid_expansive(dm).status == EXPANSIVE
        assert solenoid_expansive(dm).evidence["span_dim"] == 1

    def test_bounded_witness_fits_in_any_ball(self):
        dm = DualModuleAction.from_generators(
            2, [[1, 0], [0, 1]], [("r", M([[0, -1], [1, 0]]))], GROUP
        )
        v = solenoid_expansive(dm)
        assert v.status == NOT_EXPANSIVE
        chars = enumerate_basis(dm, 4)[-1]
        p = HomVector.from_exact(v.witness)
        sup = d_star_A(HomVector.zero(2), p, chars).mid
        assert sup > 0
        for C in (F("1/4"), F("1/64")):
            scaled = p.scale(C / (2 * sup))
            assert d_star_A(HomVector.zero(2), scaled, chars).mid <= C


def test_enumerate_basis_refuses_depth_below_one():
    with pytest.raises(InvalidDepthError):
        enumerate_basis(dyadic_module(), 0)


def test_dual_module_refuses_matrices_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        DualModuleAction.from_generators(2, [[1, 0]], [("g", M([[2]]))], GROUP)


# --- the greedy loops one rref replaced, kept as oracles ---


def base_plan_by_greedy_loop(level):
    """Each character joins the basis unless it has coordinates over the basis so far."""
    basis_idx, basis_vecs, dependents = [], [], []
    for i, chi in enumerate(level):
        coords = coordinates_in_span(basis_vecs, chi)
        if coords is None:
            basis_idx.append(i)
            basis_vecs.append(chi)
        else:
            terms = [(c, basis_idx[j]) for j, c in enumerate(coords) if c != 0]
            n0 = 1
            for c, _ in terms:
                n0 = n0 * c.denominator // math.gcd(n0, c.denominator)
            dependents.append((i, Fraction(n0), terms))
    return basis_idx, dependents


def span_basis_by_greedy_loop(dm):
    """The module generators outside the span so far, then the images outside it."""
    basis = []
    for f in dm.module_generators:
        if coordinates_in_span(basis, f) is None:
            basis.append(f)
    queue = list(basis)
    while queue:
        v = queue.pop()
        for g in dm.action.mats:
            img = g.apply(v)
            if coordinates_in_span(basis, img) is None:
                basis.append(img)
                queue.append(img)
    return basis


def characters_with_zeros_and_repeats(dim):
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), Fraction(1, 2), Fraction(-2, 3)])
    pool = st.lists(st.lists(entry, min_size=dim, max_size=dim).map(tuple), min_size=1, max_size=4)
    # the zero character and repeats of the pool's characters
    return pool.flatmap(lambda chars: st.lists(st.sampled_from(chars + [(F(0),) * dim]), max_size=7))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(characters_with_zeros_and_repeats))
def test_base_level_plan_matches_the_greedy_loop(level):
    assert _base_level_plan(level) == base_plan_by_greedy_loop(level)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            characters_with_zeros_and_repeats(n),
            st.lists(
                st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
                min_size=1,
                max_size=2,
            ),
        )
    )
)
def test_span_restriction_matches_the_greedy_loop(drawn):
    chars, gens = drawn
    n = len(gens[0])
    dm = DualModuleAction.from_generators(n, chars, [(f"g{i}", M(g)) for i, g in enumerate(gens)], SEMIGROUP)
    basis, adjoint = span_restriction(dm)
    assert basis == span_basis_by_greedy_loop(dm)
    for g, adj in zip(dm.action.mats, adjoint.mats):
        cols = [coordinates_in_span(basis, g.apply(b)) for b in basis]
        assert adj == (QMatrix.from_columns(cols).transpose() if cols else QMatrix.identity(0))


# --- the relation search on Fractions that the integer one replaced, kept as oracles ---
# a relation is (n0, ((coef, character), ...)): n0 * target = sum(coef * character)


def cost(relation):
    n0, terms = relation
    return n0 + sum(abs(c) for c, _ in terms)


def integer_relation_by_fractions(coeffs, chars):
    n0 = math.lcm(*(c.denominator for c in coeffs))
    terms = tuple(
        (int(c * n0), chars[j]) for j, c in enumerate(coeffs) if c != 0
    )
    return n0, terms


def pair_relation_by_fractions(target, a, b, budget):
    den = math.lcm(*(x.denominator for x in (*target, *a, *b)))
    t, va, vb = ([x.numerator * (den // x.denominator) for x in v] for v in (target, a, b))
    pivot = next((d for d, x in enumerate(vb) if x), None)
    for n0 in range(1, budget - 1):
        rest = budget - n0
        for ni in range(-rest + 1, rest):
            span = rest - abs(ni)
            r = [n0 * x - ni * y for x, y in zip(t, va)]  # must equal nj * b
            if pivot is None:
                # b = 0: any nj in range works, and the first is -span, never (0, 0) as span >= 2 when ni = 0
                if any(r):
                    continue
                nj = -span
            else:
                nj, rem = divmod(r[pivot], vb[pivot])
                if rem or abs(nj) > span or (ni == 0 and nj == 0) or any(x != nj * y for x, y in zip(r, vb)):
                    continue
            return n0, tuple((c, chi) for c, chi in ((ni, a), (nj, b)) if c != 0)
    return None


def multiple_by_fractions(chi, target):
    i = next((i for i, x in enumerate(chi) if x), None)
    if i is None:
        return None if any(target) else (Fraction(0),)
    c = Fraction(target[i]) / chi[i]
    return (c,) if all(c * x == y for x, y in zip(chi, target)) else None


def best_relation_by_fractions(target, prev, k_max):
    coords = coordinates_in_span(list(prev), target)
    if coords is None:
        raise NotInSpanError(target)
    best = integer_relation_by_fractions(coords, prev)
    for chi in prev:
        c = multiple_by_fractions(chi, target)
        if c is not None:
            cand = integer_relation_by_fractions(c, [chi])
            if cost(cand) < cost(best):
                best = cand
    budget = min(k_max, cost(best) - 1)
    if budget >= 3:
        for i, j in itertools.islice(itertools.combinations(range(len(prev)), 2), 300):
            cand = pair_relation_by_fractions(target, prev[i], prev[j], budget)
            if cand is not None and cost(cand) < cost(best):
                best = cand
                budget = min(budget, cost(best) - 1)
    if cost(best) > k_max:
        raise KExceededError(
            f"no relation of cost <= {k_max} for {tuple(map(str, target))}; best found {cost(best)}"
        )
    return best


def best_relation_on_a_table(target, prev, k_max):
    """``_best_relation`` on the table of the levels (prev, prev + target),
    its positions read back as characters."""
    table = ChainTable.read([prev, [*prev, target]], (), 1)
    n0, terms = _best_relation(table, table.levels[1][-1], table.levels[0], k_max)
    return n0, tuple((c, table.character(j)) for c, j in terms)


PAIR_BUDGET = 30


def pair_cases(count):
    """(target, a, b, budget) drawn from a fixed seed, each branch of
    _pair_relation on purpose: independent and parallel pairs, with a target
    in their span (a combination with small or large coefficients) or off
    it, zero characters and zero targets."""
    rng = random.Random(20261020)

    def vec(dim):
        return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(dim))

    cases = []
    for _ in range(count):
        shape = rng.choice(("independent", "independent", "parallel", "parallel", "zero"))
        dim = rng.randint(2 if shape == "independent" else 1, 3)
        zero = (F(0),) * dim
        a, b = vec(dim), vec(dim)
        if shape == "parallel":
            c = rng.choice((-2, -1, 1, 3, Fraction(1, 2), Fraction(-3, 2)))
            b = tuple(c * x for x in a)
        elif shape == "zero":
            a, b = rng.choice(((zero, b), (a, zero), (zero, zero)))
        n0 = rng.choice((1, 1, 2, 3, 4, 6))
        small = rng.random() < 0.6
        ci, cj = (rng.randint(-3, 3), rng.randint(-3, 3)) if small else (rng.randint(-12, 12), rng.randint(-12, 12))
        kind = rng.choice(("combination", "combination", "random", "random" if dim > 1 else "zero", "zero"))
        if kind == "combination":
            target = tuple((ci * x + cj * y) / n0 for x, y in zip(a, b))
        else:
            target = vec(dim) if kind == "random" else zero
        # a budget at the drawn combination's cost, one off, or anywhere
        edge = n0 + abs(ci) + abs(cj) * rng.randint(0, 1) + rng.randint(-1, 1)
        cases.append((target, a, b, min(edge, PAIR_BUDGET) if rng.random() < 0.3 else rng.randint(0, PAIR_BUDGET)))
    return cases


PAIR_CASES = pair_cases(1500)
# every small combination of a few fixed pairs, at every budget up to 8: the
# edges of each bound of the search
PAIR_GRID = [
    (tuple(Fraction(ci * x + cj * y, n0) for x, y in zip(a, b)), a, b, budget)
    for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, 2), (2, 4)), ((1, 2), (0, 0)), ((0, 0), (0, 3)),
                 ((0, 0), (0, 0)), ((1,), (2,)), ((2,), (-3,)), ((4,), (6,))]
    for n0 in (1, 2, 3)
    for ci in range(-2, 3)
    for cj in range(-2, 3)
    for budget in range(9)
]


def chain_levels():
    """Chain levels from a fixed seed: 1-D modules with one to three scalar
    generators (fractions such as 3/2 among them) and 2-D integer modules,
    in group and semigroup mode."""
    rng = random.Random(20261021)
    scalars = [2, 3, 5, -2, -3, 6, Fraction(3, 2), Fraction(4, 3), Fraction(2, 5), Fraction(-5, 2)]
    for _ in range(24):
        k = rng.randint(1, 3)
        gens = [("g%d" % j, M([[s]])) for j, s in enumerate(rng.sample(scalars, k))]
        f = [[rng.choice((1, 2, 3, Fraction(1, 2), Fraction(2, 3)))] for _ in range(rng.randint(1, 2))]
        dm = DualModuleAction.from_generators(1, f, gens, rng.choice((GROUP, SEMIGROUP)))
        yield enumerate_basis(dm, {1: 4, 2: 3, 3: 2}[k])
    mats = [[[1, 1], [1, 0]], [[2, 1], [1, 1]], [[0, -1], [1, 0]], [[2, 1], [1, 0]], [[0, -1], [1, 3]],
            [[2, 0], [0, 3]], [[1, 1], [0, 1]], [[3, 1], [1, 0]], [[1, 2], [0, 2]], [[0, 0], [1, 0]]]
    for _ in range(16):
        gens = [("g%d" % j, M(m)) for j, m in enumerate(rng.sample(mats[:-1], rng.randint(1, 2)))]
        mode = GROUP
        if rng.random() < 0.3:
            gens.append(("s", M(mats[-1])))
            mode = SEMIGROUP
        f = [[1, 0], [0, 1]]
        if rng.random() < 0.5:
            f = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(rng.randint(1, 2))]
        dm = DualModuleAction.from_generators(2, f, gens, mode)
        yield enumerate_basis(dm, 2)


def relation_or_error(search, target, prev, k_max):
    try:
        return "relation", search(target, prev, k_max)
    except (NotInSpanError, KExceededError) as exc:
        return type(exc), str(exc)


def test_best_relation_matches_the_fraction_search():
    outcomes = Counter()
    for levels in chain_levels():
        for prev, level in zip(levels, levels[1:]):
            for chi in level:
                if chi in prev:
                    continue
                for k_max in (3, 5, 64):
                    got = relation_or_error(best_relation_on_a_table, chi, prev, k_max)
                    assert got == relation_or_error(best_relation_by_fractions, chi, prev, k_max)
                    outcomes[got[0]] += 1
    assert outcomes["relation"] >= 500 and outcomes[KExceededError] >= 100, outcomes


def test_best_relation_matches_the_fraction_search_off_a_module():
    # drawn previous levels that need not span, so that NotInSpanError occurs,
    # with zero, repeated and parallel characters
    rng = random.Random(20261022)
    entries = [F(0), F(0), F(1), F(-1), F(2), F(3), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    outcomes = Counter()
    for _ in range(400):
        dim = rng.randint(1, 3)
        pool = [tuple(rng.choice(entries) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        # the pool's characters and their multiples, zero among them
        scaled = [(rng.choice((1, 1, 1, -2, 0, 3)), rng.choice(pool)) for _ in range(rng.randint(1, 8))]
        prev = [tuple(c * x for x in chi) for c, chi in scaled]
        prev = list(dict.fromkeys(prev))
        target = tuple(rng.choice(entries) for _ in range(dim))
        if rng.random() < 0.6:
            chosen = rng.sample(prev, min(len(prev), rng.randint(1, 3)))
            coefs, n0 = [rng.randint(-3, 3) for _ in chosen], rng.choice((1, 2, 3))
            target = tuple(sum((c * v[i] for c, v in zip(coefs, chosen)), F(0)) / n0 for i in range(dim))
        k_max = rng.choice((3, 4, 8, 64))
        got = relation_or_error(best_relation_on_a_table, target, prev, k_max)
        assert got == relation_or_error(best_relation_by_fractions, target, prev, k_max)
        outcomes[got[0]] += 1
    assert min(outcomes["relation"], outcomes[NotInSpanError], outcomes[KExceededError]) >= 40, outcomes


@pytest.mark.parametrize("scale", [2, 6, 35])
def test_relation_steps_ignore_a_common_scale(scale):
    # regular_chain hands the steps the chain's numerators over its one
    # common denominator, not over the least one of the vectors at hand: each
    # step returns the same relation for every vector scaled by one integer
    seen = Counter()

    def same(t, chars):
        scaled = [scale * x for x in t], [[scale * x for x in v] for v in chars]
        found = _span_relation(t, chars)
        assert _span_relation(*scaled) == found
        return found is not None

    for target, a, b, budget in PAIR_CASES + PAIR_GRID:
        t, va, vb = numerators(target, a, b)
        st_, sa, sb = ([scale * x for x in v] for v in (t, va, vb))
        assert _pair_relation(st_, sa, sb, budget) == _pair_relation(t, va, vb, budget)
        assert _multiple(sa, st_) == _multiple(va, t) and _multiple(sb, st_) == _multiple(vb, t)
        parallel = coordinates_in_span([a], b) is not None or not any(a)
        seen["parallel" if parallel else "independent", same(t, [va, vb])] += 1
    for levels in chain_levels():
        for prev, level in zip(levels, levels[1:]):
            for chi in level:
                if chi not in prev:
                    t, *chars = numerators(chi, *prev)
                    seen["chain", same(t, chars)] += 1
    branches = [("parallel", True), ("parallel", False), ("independent", True), ("independent", False), ("chain", True)]
    assert all(seen[branch] >= 40 for branch in branches), seen
