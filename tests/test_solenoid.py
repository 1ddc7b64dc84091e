"""Dual-module solenoid tests: chains, windows, lifting, expansiveness."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive.exact import DimensionMismatchError, QMatrix, coordinates_in_span
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP
from expansive.solenoid import (
    Ball,
    DualModuleAction,
    HomVector,
    InvalidDepthError,
    KExceededError,
    LiftOutOfRangeError,
    NotInSpanError,
    PrecisionExhaustedError,
    Relation,
    RhoBasisChain,
    SolenoidWindow,
    E_window,
    _base_level_plan,
    _multiple,
    _pair_relation,
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



def _pair_relation_by_search(target, a, b, budget):
    """Every (n0, ni, nj) in the order _pair_relation promises, tried in full."""
    for n0 in range(1, budget - 1):
        rest = budget - n0
        for ni in range(-rest + 1, rest):
            for nj in range(-(rest - abs(ni)), rest - abs(ni) + 1):
                if (ni or nj) and all(n0 * t == ni * x + nj * y for t, x, y in zip(target, a, b)):
                    return Relation(target, n0, tuple((c, chi) for c, chi in ((ni, a), (nj, b)) if c))
    return None


class TestRegularChain:
    def test_dyadic_relations_cost_three(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        assert chain.k == 3
        assert chain.verify()
        by_target = {r.target: r for r in chain.relations}
        up = by_target[(F(4),)]
        assert up.n0 == 1 and up.terms == ((2, (F(2),)),)
        down = by_target[(F("1/4"),)]
        assert down.n0 == 2 and down.terms == ((1, (F("1/2"),)),)

    def test_sixth_chain_minimal_cost_is_four(self):
        # the first character at 3-adic depth 2 (here 1/9) forces 3 | n0:
        # every previous-level character has valuation >= -1, so the
        # ultrametric bound leaves no relation cheaper than 3*(1/9) = 1*(1/3)
        chain = regular_chain(enumerate_basis(sixth_module(), 2))
        assert chain.k == 4
        assert chain.verify()
        by_target = {r.target: r for r in chain.relations}
        assert by_target[(F("1/9"),)].cost == 4

    def test_integer_lattice_unit_n0(self):
        dm = cat_module()
        levels = [dm.module_generators, enumerate_basis(dm, 1)[0]]
        chain = regular_chain(levels)
        assert all(r.n0 == 1 for r in chain.relations)
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
        bad = tuple(
            type(r)(r.target, r.n0 + 1, r.terms) for r in chain.relations
        )
        assert not RhoBasisChain(chain.levels, chain.k, bad).verify()

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 3),
        data=st.data(),
        budget=st.integers(0, 14),
    )
    def test_pair_relation_is_the_first_hit_of_the_full_search(self, dim, data, budget):
        frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
        vec = st.lists(frac, min_size=dim, max_size=dim).map(tuple)
        a, b = data.draw(vec), data.draw(vec)
        n0, ci, cj = data.draw(st.integers(1, 4)), data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
        target = data.draw(st.one_of(vec, st.just(tuple((ci * x + cj * y) / n0 for x, y in zip(a, b)))))
        assert _pair_relation(target, a, b, budget) == _pair_relation_by_search(target, a, b, budget)

    def test_pair_relation_with_a_zero_character(self):
        zero, half = (F(0), F(0)), (F("1/2"), F(1))
        rel = _pair_relation((F(1), F(2)), half, zero, 6)
        assert rel == _pair_relation_by_search((F(1), F(2)), half, zero, 6)
        assert rel.n0 == 1 and rel.terms[0] == (2, half) and rel.holds()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_multiple_test_matches_the_one_column_span(self, dim, data):
        # the one-column coordinates_in_span([chi], target) that _best_relation
        # ran for every previous character is the oracle
        frac = st.one_of(st.just(F(0)), st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4])))
        vec = st.lists(frac, min_size=dim, max_size=dim).map(tuple)
        chi = data.draw(st.one_of(vec, st.just((F(0),) * dim)))
        c = data.draw(frac)
        multiple = tuple(c * x for x in chi)
        # a multiple with one coordinate moved, which only the cross-check catches
        i = data.draw(st.integers(0, dim - 1))
        moved = multiple[:i] + (multiple[i] + data.draw(st.sampled_from([F(1), Fraction(-1, 3)])),) + multiple[i + 1 :]
        target = data.draw(st.one_of(st.sampled_from([multiple, moved, (F(0),) * dim]), vec))
        assert _multiple(chi, target) == coordinates_in_span([chi], target)

    def test_multiple_test_examples(self):
        zero = (F(0), F(0))
        assert _multiple(zero, zero) == (F(0),) == coordinates_in_span([zero], zero)
        assert _multiple(zero, (F(0), F(1))) is None
        assert _multiple((F(0), F(2)), (F(0), F(-3))) == (Fraction(-3, 2),)
        assert _multiple((F(0), F(2)), (F(1), F(-3))) is None
        assert _multiple((F(1), F(2)), zero) == (F(0),)
        # int coordinates divide exactly too
        assert _multiple((2, 4), (3, 6)) == (Fraction(3, 2),)

    def test_best_relation_solves_one_span_per_character(self, monkeypatch):
        # one general coordinates_in_span over the previous level; the test
        # against each single character is _multiple
        from expansive import solenoid

        calls = []
        span = solenoid.coordinates_in_span

        def counting(basis, v):
            calls.append(len(basis))
            return span(basis, v)

        monkeypatch.setattr(solenoid, "coordinates_in_span", counting)
        levels = enumerate_basis(sixth_module(), 2)
        chain = regular_chain(levels)
        new = [len(prev) for prev, level in zip(levels, levels[1:]) for chi in level if chi not in prev]
        assert calls == new
        assert len(calls) == len(chain.relations) and chain.k == 4

    def test_json_shape(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 2))
        blob = chain.to_json()
        assert blob["k"] == 3
        assert blob["relations"][0].keys() == {"target", "n0", "terms"}


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
        got = lift(E_window(p, chain.levels[-1]), chain, F("3/10"))
        for chi in chain.levels[-1]:
            assert got.value(chi).mid == p.pair(chi).mid
            assert abs(got.value(chi).mid) < F("3/10")

    def test_quantized_roundtrip_within_radius(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        p = HomVector.from_rationals([F("1/1000")])
        window = E_window(p, chain.levels[-1])
        got = lift(window, chain, F("3/10"))
        for chi in chain.levels[-1]:
            truth = F("1/1000") * chi[0]
            b = got.value(chi)
            assert abs(b.mid - truth) <= 4 * b.rad + b.rad

    def test_identity_window_lifts_to_zero(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 4))
        got = lift(E_window(HomVector.zero(1), chain.levels[-1]), chain, F("1/4"))
        assert all(b.mid == 0 for _, b in got.values)

    def test_out_of_range_at_the_top(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        p = HomVector.from_exact([F("1/50")])
        with pytest.raises(LiftOutOfRangeError):
            lift(E_window(p, chain.levels[-1]), chain, F("3/10"))

    def test_bound_validation(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        w = E_window(HomVector.zero(1), chain.levels[-1])
        with pytest.raises(ValueError):
            lift(w, chain, F("1/2"))
        with pytest.raises(ValueError):
            lift(w, chain, 0)

    def test_precision_exhaustion_is_reported(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 3))
        fuzzy = HomVector(coords=(Ball(F("1/10"), F("2/5")),))
        with pytest.raises((PrecisionExhaustedError, LiftOutOfRangeError)):
            lift(E_window(fuzzy, chain.levels[-1]), chain, F("3/10"))

    def test_deterministic_uniqueness(self):
        chain = regular_chain(enumerate_basis(dyadic_module(), 5))
        window = E_window(HomVector.from_rationals([F("1/2048")]), chain.levels[-1])
        a = lift(window, chain, F("3/10"))
        b = lift(window, chain, F("3/10"))
        assert a == b

    def test_a_character_with_no_relation_is_named(self):
        # levels [[1]], [[1], [2]] and no relation for the new character 2
        chain = RhoBasisChain((((F(1),),), ((F(1),), (F(2),))), 3, ())
        window = E_window(HomVector.from_exact([F("1/100")]), [(F(1),), (F(2),)])
        with pytest.raises(ValueError, match=r"character \('2',\) at level 1 has no relation"):
            lift(window, chain, F("1/4"))

    def test_two_generator_chain_lift(self):
        chain = regular_chain(enumerate_basis(sixth_module(), 2))
        p = HomVector.from_exact([F("1/2000")])
        got = lift(E_window(p, chain.levels[-1]), chain, F("1/5"))
        for chi in chain.levels[-1]:
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
