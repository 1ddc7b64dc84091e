"""Weight decomposition and commuting-family expansiveness tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import weights
from expansive.actions import SemigroupAction, restrict_action
from expansive.exact import (
    QMatrix,
    QPoly,
    SelfCheckError,
    Subspace,
    char_poly,
    intersect,
    kernel,
    mat_power,
    minimal_poly,
    poly_of_matrix,
    rational_roots,
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

from oracle_roots import from_sympy, product, sympy_poly, to_sympy


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


def coprime_root_factors_by_fractions(p):
    """The monic factors in Fractions, as sympy polynomials over QQ: the
    square-free part, each rational root split off as z - lam, and what is left."""
    s = to_sympy(p)
    s = s.exquo(s.gcd(s.diff())).monic()
    out = []
    for lam in rational_roots(from_sympy(s)):
        line = sympy_poly([-lam, 1])
        out.append(line)
        s = s.exquo(line)
    return out + [s] if s.degree() > 0 else out


def test_coprime_root_factors_are_the_fraction_factors_up_to_scaling():
    rng = random.Random(27)
    pieces = [[-2, 1], [3, 2], [0, 1], [1, 1], [-1, 1], [1, 0, 1], [-2, 0, 1], [1, -3, 1], [5, 1, 3]]
    for _ in range(300):
        p = QPoly.from_coeffs([F(rng.choice([1, -2, 3]))])
        for _ in range(rng.randint(1, 4)):
            piece = QPoly.from_coeffs(rng.choice(pieces))
            for _ in range(rng.randint(1, 3)):
                p = product(p, piece)
        factors = weights._coprime_root_factors(p)
        assert all(all(c.denominator == 1 for c in f.coeffs) for f in factors)
        assert [to_sympy(f).monic() for f in factors] == coprime_root_factors_by_fractions(p)


def reference_stuck(block, mode):
    """The stuck test by each generator's eigenvalue polynomial, the squarefree
    part of its minimal polynomial: in semigroup mode no root outside the
    unit disk; in group mode no root at zero and every other root on the
    unit circle."""
    for g in block.restriction.mats:
        mu = minimal_poly(g)
        s = to_sympy(mu)
        eigen = from_sympy(s.exquo(s.gcd(s.diff())))
        if mode == SEMIGROUP:
            if unit_disk_profile(eigen).outside:
                return False
            continue
        # eigen is square-free, so a root at zero is a zero constant term
        if eigen.constant == 0 or len(eigen.coeffs) == 1 or circle_root_count(eigen) != len(eigen.coeffs) - 1:
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


def per_letter_decomposition(action):
    """The decomposition by every letter, an inverse or repeated one included:
    each pair of letters checked for commutation in order, and the blocks
    refined by the primary kernels of each letter in turn.  Returns the
    (space, restriction) pairs."""
    mats = action.mats
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] @ mats[j] != mats[j] @ mats[i]:
                raise NotCommutingError((action.names[i], action.names[j]))
    n = action.dim
    blocks = [Subspace.full(n)]
    for g in mats:
        factors = weights._coprime_root_factors(char_poly(g))
        primaries = [kernel(mat_power(poly_of_matrix(f, g), n)) for f in factors]
        blocks = [piece for b in blocks for piece in (intersect(b, prim) for prim in primaries) if piece.dim > 0]
    return [(b, restrict_action(action, list(b.basis))) for b in blocks]


def per_letter_find_expansive(action, word_cap=64):
    """find_expansive_element on the per-letter decomposition, its start
    taken over every letter."""
    pairs = per_letter_decomposition(action)
    decomp = weights.WeightDecomposition(
        action=action, blocks=tuple(weights.WeightBlock(space=b, restriction=r) for b, r in pairs)
    )
    verdict = expansive_by_weights(decomp, GROUP)
    if verdict.status != EXPANSIVE:
        return None
    restrictions = [r for _, r in pairs]
    escape_words = [tuple(rep["word"]) for rep in verdict.block_reports]

    def off_circle(r):
        return unit_disk_profile(char_poly(r)).on_circle == 0

    best = (action.names[0],)
    flags = [off_circle(r.word_matrix(best)) for r in restrictions]
    for name in action.names[1:]:
        c = [off_circle(r.word_matrix((name,))) for r in restrictions]
        if sum(c) > sum(flags):
            best, flags = (name,), c
    while not all(flags):
        target = flags.index(False)
        repair = escape_words[target]
        m = 1
        while True:
            if m * len(best) + len(repair) > word_cap or m > 2**40:
                return None
            new_flags = [off_circle(mat_power(r.word_matrix(best), m) @ r.word_matrix(repair)) for r in restrictions]
            if all(nf for nf, old in zip(new_flags, flags) if old) and new_flags[target]:
                best, flags = best * m + repair, new_flags
                break
            m *= 2
    matrix = action.word_matrix(best)
    return {"word": list(best), "matrix": matrix, "profile": unit_disk_profile(char_poly(matrix))}


def unimodular(rng, n):
    """A product of random elementary integer row operations and sign flips."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 2):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[j] = [-a for a in rows[j]]
    return M(rows)


def signed_power(u, k):
    return mat_power(u if k > 0 else u.inverse(), abs(k))


LETTER_KINDS = ("powers", "with_inverse", "second_name", "diagonal", "not_commuting")


def letter_cases(rng):
    """Yield (kind, named generators) group cases, n = 2..5."""
    for k in range(150):
        kind, n = LETTER_KINDS[k % len(LETTER_KINDS)], 2 + (k // len(LETTER_KINDS)) % 4
        u = unimodular(rng, n)
        if kind == "powers":
            exps = rng.sample([-3, -2, -1, 1, 2, 3], rng.randint(2, 3))
            gens = [signed_power(u, e) for e in exps]
        elif kind == "with_inverse":
            other = rng.choice([signed_power(u, rng.choice([-2, 2, 3])), QMatrix.identity(n).scale(F(rng.choice([2, "1/3"])))])
            gens = [u, other, u.inverse()] if rng.random() < 0.5 else [u.inverse(), u, other]
        elif kind == "second_name":
            gens = [u, signed_power(u, rng.choice([-2, 2])), u]
        elif kind == "diagonal":
            p, p_inv = u, u.inverse()
            values = [F(1), F(-1), F(2), F("1/2"), F(3), F("1/3")]
            gens = []
            for _ in range(rng.randint(2, 3)):
                d = QMatrix.from_rows([[rng.choice(values) if i == j else F(0) for j in range(n)] for i in range(n)])
                gens.append(p @ d @ p_inv)
            if rng.random() < 0.5:
                gens.append(gens[0].inverse())
        else:
            v = unimodular(rng, n)
            gens = rng.choice([[u, v], [u, u.inverse(), v], [u, signed_power(u, 2), v, u]])
        yield kind, [(f"g{i + 1}", g) for i, g in enumerate(gens)]


def outcome(fn, action):
    try:
        return fn(action)
    except NotCommutingError as exc:
        return (type(exc), str(exc), exc.pair)


def test_decomposition_by_generators_matches_the_per_letter_one():
    rng = random.Random(35)
    seen = set()
    for kind, named in letter_cases(rng):
        action = SemigroupAction.from_generators(named, GROUP)
        blocks = outcome(lambda a: [(b.space, b.restriction) for b in weight_decomposition(a).blocks], action)
        assert blocks == outcome(per_letter_decomposition, action), (kind, named)
        found = outcome(find_expansive_element, action)
        expected = outcome(per_letter_find_expansive, action)
        assert found == expected, (kind, named)
        seen.add((kind, "raised" if isinstance(found, tuple) else "none" if found is None else "found"))
        if len(action.generators) < len(action.mats):
            seen.add((kind, "skips"))
    # every kind skips a letter, every commuting kind finds a word in some
    # case, and the non-commuting draws raise
    assert {k for k, o in seen if o == "skips"} == set(LETTER_KINDS)
    assert {k for k, o in seen if o == "found"} >= set(LETTER_KINDS) - {"not_commuting"}
    assert ("not_commuting", "raised") in seen
    assert any(o == "none" for _, o in seen)


@pytest.mark.parametrize("gens, calls", [([CAT], 1), ([[[2, 0], [0, 1]], [[1, 0], [0, 2]]], 2)], ids=["cat_map", "pair"])
def test_group_mode_factors_each_generator_once(monkeypatch, gens, calls):
    # the inverse letters of group mode are not factored again
    factored = []
    original = weights._coprime_root_factors

    def counted(p):
        factored.append(p)
        return original(p)

    monkeypatch.setattr(weights, "_coprime_root_factors", counted)
    action = act(gens, GROUP)
    assert len(action.names) == 2 * len(gens)
    weight_decomposition(action)
    assert len(factored) == calls
