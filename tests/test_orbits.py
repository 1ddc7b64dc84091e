"""Tests for the expansiveness semi-decision engine."""

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import actions, orbits
from expansive.actions import NotInvertibleGeneratorError, SemigroupAction, restrict_action
from expansive.certificates import check_certificate
from expansive.cli import parse_action
from expansive.exact import (
    DimensionMismatchError,
    ParseError,
    QMatrix,
    Subspace,
    coordinates_in_span,
    is_invariant,
    is_positive_semidefinite,
)
from expansive.orbits import (
    certify_bounded,
    expansiveness_check,
    find_expansive_word,
    invariant_closure,
    iter_words,
    jsr_bounds,
)
from expansive.spectral import EXPANSIVE, NOT_EXPANSIVE, UNKNOWN, single_expansive

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def M(rows):
    return QMatrix.from_rows([[F(x) for x in r] for r in rows])


def act(named, mode):
    return SemigroupAction.from_generators(named, mode)


DOUBLING = M([[2]])
ROTATION = M([[0, -1], [1, 0]])
CAT = M([[2, 1], [1, 1]])
SHEAR = M([[1, 1], [0, 1]])

# affine Z^2 extension: SL(2,Z) block in the corner, translation column, unit
AFFINE_GENS = [
    ("s", M([[0, -1, 0], [1, 0, 0], [0, 0, 1]])),
    ("t", M([[1, 1, 0], [0, 1, 0], [0, 0, 1]])),
    ("u", M([[1, 0, 1], [0, 1, 0], [0, 0, 1]])),
    ("v", M([[1, 0, 0], [0, 1, 1], [0, 0, 1]])),
]


# --- action construction ---


def test_group_mode_adjoins_inverses():
    a = act([("g", CAT)], "group")
    assert a.names == ("g", "g^-1")
    assert a.mats[1] == CAT.inverse()
    assert a.word_matrix(["g", "g^-1"]) == QMatrix.identity(2)


def test_group_mode_skips_involutions():
    swap = M([[0, 1], [1, 0]])
    a = act([("w", swap)], "group")
    assert a.names == ("w",)


def test_semigroup_mode_keeps_generators_as_given():
    a = act([("g", DOUBLING)], "semigroup")
    assert a.names == ("g",)
    assert a.dim == 1


def test_group_mode_rejects_singular_generator():
    with pytest.raises(NotInvertibleGeneratorError):
        act([("g", M([[1, 1], [1, 1]]))], "group")


def test_group_mode_refuses_an_inverse_name_the_case_already_uses():
    # the inverse of a, 1/2, would be named a^-1, the name of the given matrix 3
    with pytest.raises(ValueError, match=r"'a\^-1'"):
        act([("a", DOUBLING), ("a^-1", M([[3]]))], "group")


def test_repeated_generator_names_are_refused():
    with pytest.raises(ValueError, match="'g'"):
        act([("g", DOUBLING), ("g", M([[3]]))], "semigroup")


def test_a_given_inverse_keeps_its_name():
    a = act([("a", DOUBLING), ("a^-1", M([["1/2"]]))], "group")
    assert a.names == ("a", "a^-1")
    assert a.matrix_for("a^-1") == M([["1/2"]])
    assert expansiveness_check(a).status == EXPANSIVE


def test_group_mode_passes_on_a_failure_that_is_not_singularity(monkeypatch):
    def broken(self):
        raise RuntimeError("inverse broke")

    monkeypatch.setattr(QMatrix, "inverse", broken)
    with pytest.raises(RuntimeError, match="inverse broke"):
        act([("a", CAT)], "group")


def test_word_matrix_composes_left_to_right():
    a = act(AFFINE_GENS, "group")
    st_mat = a.word_matrix(["s", "t"])
    assert st_mat == a.matrix_for("s") @ a.matrix_for("t")


@pytest.mark.parametrize("word", [["s^-1"], [], ["s", "w"]], ids=["inverse-in-semigroup", "empty", "unknown"])
def test_word_matrix_takes_only_the_actions_own_letters(word):
    with pytest.raises(ValueError):
        act(AFFINE_GENS, "semigroup").word_matrix(word)


def test_iter_words_deduplicates_matrices():
    a = act([("r", ROTATION)], "semigroup")
    words = list(iter_words(a, 10, 100))
    # rotation has order 4 and the identity is never yielded
    assert len(words) == 3
    mats = [m for _, m in words]
    assert len(set(mats)) == 3


# --- joint spectral radius ---


def test_jsr_single_doubling_is_exact():
    a = act([("g", DOUBLING)], "semigroup")
    out = jsr_bounds(a, depth=4, tol=1e-4)
    assert out["lower"] == pytest.approx(2.0)
    assert out["upper"] == pytest.approx(2.0)


def test_jsr_diagonal_pair_is_tight():
    a = act([("g1", M([[2, 0], [0, 0]])), ("g2", M([[0, 0], [0, 2]]))], "semigroup")
    out = jsr_bounds(a, depth=4, tol=1e-4)
    assert out["lower"] == pytest.approx(2.0)
    assert out["upper"] == pytest.approx(2.0)


def test_jsr_shear_upper_decreases_with_depth():
    a = act([("s", SHEAR)], "semigroup")
    shallow = jsr_bounds(a, depth=2, tol=1e-9)
    deep = jsr_bounds(a, depth=8, tol=1e-9)
    assert shallow["lower"] == pytest.approx(1.0)
    assert deep["upper"] < shallow["upper"]
    assert deep["upper"] >= 1.0


def test_jsr_lower_monotone_in_depth():
    a = act([("a", CAT), ("s", SHEAR)], "semigroup")
    prev = 0.0
    for depth in (1, 2, 3, 4):
        out = jsr_bounds(a, depth, 1e-4)
        assert out["lower"] >= prev - 1e-12
        assert out["lower"] <= out["upper"] + 1e-12
        prev = out["lower"]


def jsr_bounds_per_word(action, depth, tol):
    """The bracket one word and one branch at a time: the reference that the
    stacked ``jsr_bounds`` must equal bit for bit."""
    mats = [np.array(m.to_floats(), dtype=float) for m in action.mats]
    lower = 0.0
    for word, m in iter_words(action, depth, 2000):
        sr = float(np.max(np.abs(np.linalg.eigvals(np.array(m.to_floats(), dtype=float)))))
        lower = max(lower, sr ** (1.0 / len(word)))
    upper_candidates = []
    frontier = [(g, float(np.linalg.norm(g, 2))) for g in mats]
    for length in range(1, depth + 1):
        nxt = []
        for prod, beta in frontier:
            if beta <= lower + tol or length == depth:
                upper_candidates.append(beta)
                continue
            for g in mats:
                p = prod @ g
                nxt.append((p, min(beta, float(np.linalg.norm(p, 2)) ** (1.0 / (length + 1)))))
        frontier = nxt
        if not frontier:
            break
    upper = max(upper_candidates) if upper_candidates else lower
    return {"lower": lower, "upper": max(lower, upper)}


def assert_jsr_matches_per_word(action, depth, tol):
    out = jsr_bounds(action, depth, tol)
    ref = jsr_bounds_per_word(action, depth, tol)
    assert all(type(v) is float for v in out.values())
    assert {k: v.hex() for k, v in out.items()} == {k: v.hex() for k, v in ref.items()}


@pytest.mark.parametrize("fixture", ["affine_sl2", "cat_map", "doubling", "rotation", "sixth_solenoid", "sl2_generators"])
@pytest.mark.parametrize("mode", ["group", "semigroup"])
@pytest.mark.parametrize("depth, tol", [(5, 1e-4), (6, 1e-4), (3, 1e-9)])
def test_jsr_matches_per_word_reference_on_fixtures(fixture, mode, depth, tol):
    action = parse_action(json.loads((FIXTURES / f"{fixture}.json").read_text()), mode)
    assert_jsr_matches_per_word(action, depth, tol)


def test_jsr_of_the_empty_space_is_zero():
    action = act([("e", QMatrix.identity(0))], "semigroup")
    assert jsr_bounds(action, 5, 1e-4) == jsr_bounds_per_word(action, 5, 1e-4) == {"lower": 0.0, "upper": 0.0}


def int_matrices(n):
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(M)


@given(
    st.sampled_from([2, 3]).flatmap(lambda n: st.lists(int_matrices(n), min_size=1, max_size=3)),
    st.sampled_from(["group", "semigroup"]),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([1e-4, 1e-9, 0.5]),
)
@settings(max_examples=60, deadline=None)
def test_jsr_matches_per_word_reference(mats, mode, depth, tol):
    if mode == "group" and any(m.det() == 0 for m in mats):
        mode = "semigroup"
    action = act([(f"g{i}", m) for i, m in enumerate(mats)], mode)
    assert_jsr_matches_per_word(action, depth, tol)


# --- bounded subspace estimation ---


def test_bounded_estimate_contracting_coordinate():
    a = act([("g", M([[2, 0], [0, F(1, 2)]]))], "semigroup")
    candidate = orbits._bounded_directions(a, 8)
    assert candidate.basis == ((F(0), F(1)),)
    assert certify_bounded(a, candidate) is not None


def test_bounded_estimate_rotation_is_everything():
    a = act([("r", ROTATION)], "group")
    candidate = orbits._bounded_directions(a, 8)
    assert candidate.dim == 2
    assert certify_bounded(a, candidate)["gram"] == QMatrix.identity(2)


def test_bounded_estimate_doubling_is_zero():
    a = act([("g", DOUBLING)], "semigroup")
    assert orbits._bounded_directions(a, 8).dim == 0


@given(
    st.lists(
        st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
        min_size=1,
        max_size=2,
    )
)
@settings(max_examples=20, deadline=None)
def test_bounded_estimate_candidate_is_always_invariant(rows_list):
    gens = [(f"g{i}", M(rows)) for i, rows in enumerate(rows_list)]
    a = act(gens, "semigroup")
    candidate = orbits._bounded_directions(a, 6)
    for g in a.mats:
        assert is_invariant(candidate, g)


# --- boundedness certificates ---


def test_certify_euclidean_for_isometry():
    a = act([("r", ROTATION)], "group")
    cert = certify_bounded(a, Subspace.full(2))
    assert cert is not None
    assert cert["gram"] == QMatrix.identity(2)


def test_certify_contraction_line():
    a = act([("g", M([[2, 0], [0, F(1, 2)]]))], "semigroup")
    assert certify_bounded(a, Subspace.from_vectors(2, [(F(0), F(1))])) is not None
    assert certify_bounded(a, Subspace.full(2)) is None


def test_certify_finite_closure_for_conjugated_rotation():
    # P R P^-1 with P a shear: elliptic but not orthogonal
    t = M([[1, -2], [1, -1]])
    a = act([("t", t)], "group")
    cert = certify_bounded(a, Subspace.full(2))
    assert cert is not None
    q = cert["gram"]
    for g in a.mats:
        assert is_positive_semidefinite(q - (g.transpose() @ q @ g))


@pytest.mark.parametrize(
    "use_space",
    [
        lambda a, sp: restrict_action(a, list(sp.basis)),
        lambda a, sp: actions.adapted_blocks(a, list(sp.basis), actions._complete_basis(sp)),
        lambda a, sp: certify_bounded(a, sp),
    ],
    ids=["restrict", "quotient", "certify"],
)
def test_non_invariant_space_raises_value_error(use_space):
    # the shear keeps the first axis and moves the second off itself; the
    # check must not be an assert, which python -O strips
    a = act([("s", SHEAR)], "semigroup")
    use_space(a, Subspace.from_vectors(2, [(F(1), F(0))]))
    with pytest.raises(ValueError, match="invariant"):
        use_space(a, Subspace.from_vectors(2, [(F(0), F(1))]))


@st.composite
def conjugated_triangular(draw):
    """(P, k, T's): generators P T P^-1 with every T block upper triangular, [[A, B], [0, D]], A k x k."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    p = draw(int_matrices(n).filter(lambda m: m.det() != 0))
    ts = []
    for m in draw(st.lists(int_matrices(n), min_size=1, max_size=3)):
        ts.append(M([[0 if i >= k and j < k else m[i, j] for j in range(n)] for i in range(n)]))
    return p, k, ts


@given(conjugated_triangular())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_adapted_blocks_read_restriction_and_quotient_off_one_conjugation(drawn):
    p, k, ts = drawn
    n = p.rows
    pinv = p.inverse()
    a = act([(f"g{i}", p @ t @ pinv) for i, t in enumerate(ts)], "semigroup")
    cols = [p.col(j) for j in range(n)]
    p_out, blocks = actions.adapted_blocks(a, cols[:k], cols[k:])
    assert p_out == p
    assert [blk for blk, _, _ in blocks] == list(restrict_action(a, cols[:k]).mats)
    for g, (blk_a, blk_b, blk_d) in zip(a.mats, blocks):
        rows = [list(blk_a.row(i)) + list(blk_b.row(i)) for i in range(k)]
        rows += [[F(0)] * k + list(blk_d.row(i)) for i in range(n - k)]
        assert p @ M(rows) @ pinv == g


def test_invariant_closure_grows_until_stable():
    a = act([("a", CAT)], "semigroup")
    assert invariant_closure(a, [(F(1), F(0))]).dim == 2
    b = act([("d", M([[2, 0], [0, 3]]))], "semigroup")
    assert invariant_closure(b, [(F(1), F(0))]).basis == ((F(1), F(0)),)


def closure_by_fixed_point(action, vectors):
    """The reference closure: add every image the span misses until none is missed."""
    space = Subspace.from_vectors(action.dim, [tuple(v) for v in vectors])
    while True:
        extra = []
        for b in space.basis:
            for g in action.mats:
                w = g.apply(b)
                if not space.contains(w):
                    extra.append(w)
        if not extra:
            return space
        space = Subspace.from_vectors(action.dim, list(space.basis) + extra)


@st.composite
def closure_inputs(draw):
    # mostly zero entries, so that proper invariant subspaces occur
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    row = st.lists(entry, min_size=n, max_size=n)
    gens = draw(st.lists(st.lists(row, min_size=n, max_size=n).map(M), min_size=1, max_size=3))
    vector = st.one_of(st.just((F(0),) * n), row.map(tuple))
    return act([(f"g{i}", g) for i, g in enumerate(gens)], "semigroup"), draw(st.lists(vector, max_size=3))


@given(closure_inputs())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_invariant_closure_matches_the_fixed_point_loop(drawn):
    action, seeds = drawn
    space = invariant_closure(action, seeds)
    assert space == closure_by_fixed_point(action, seeds)
    assert all(is_invariant(space, g) for g in action.mats)


def restriction_by_coordinates(action, basis):
    """The replaced loop: the coordinates of each image over the basis, one
    solve per image; None when an image leaves the span."""
    mats = []
    for g in action.mats:
        cols = [coordinates_in_span(basis, g.apply(b)) for b in basis]
        if None in cols:
            return None
        mats.append(QMatrix.from_columns(cols) if cols else QMatrix.zero(0, 0))
    return mats


@given(closure_inputs())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_restrict_action_matches_the_per_image_loop(drawn):
    action, seeds = drawn
    closure = invariant_closure(action, seeds)
    spaces = [closure, Subspace.from_vectors(action.dim, seeds)]
    for space in spaces:
        basis = list(space.basis)
        expected = restriction_by_coordinates(action, basis)
        assert all(is_invariant(space, g) for g in action.mats) == (expected is not None)
        if expected is None:
            with pytest.raises(ValueError, match="invariant"):
                restrict_action(action, basis)
        else:
            assert list(restrict_action(action, basis).mats) == expected
    assert restriction_by_coordinates(action, list(closure.basis)) is not None


def complement_by_greedy_loop(space):
    """The replaced loop: each unit vector that raises the dimension of the span so far."""
    n = space.ambient_dim
    chosen, comp = list(space.basis), []
    for i in range(n):
        e = tuple(F(int(i == j)) for j in range(n))
        if Subspace.from_vectors(n, chosen + [e]).dim > len(chosen):
            chosen.append(e)
            comp.append(e)
    return comp


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)]), min_size=n, max_size=n), max_size=n + 1
        ).map(lambda vecs: Subspace.from_vectors(n, vecs) if vecs else Subspace.zero(n))
    )
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_complete_basis_matches_the_greedy_unit_vector_loop(space):
    comp = actions._complete_basis(space)
    assert comp == complement_by_greedy_loop(space)
    assert Subspace.from_vectors(space.ambient_dim, list(space.basis) + comp) == Subspace.full(space.ambient_dim)


def perfbench_cases():
    """perfbench/cases.py, the seeded case generator of the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_proper_invariant_subspace_is_invariant_on_the_engine_cases(monkeypatch):
    # the split keeps pairwise intersections of invariant closures unchecked;
    # every space the engine splits on, at every depth, must be invariant
    found = []
    original = orbits._proper_invariant_subspaces

    def recording(action):
        spaces = original(action)
        found.extend((action, sp) for sp in spaces)
        return spaces

    monkeypatch.setattr(orbits, "_proper_invariant_subspaces", recording)
    cases = perfbench_cases()
    for seed in (1, 2, 3):
        for op in cases.engine_cases(seed):
            expansiveness_check(parse_action(op["case"]), 10)
    assert len(found) >= 10
    for action, space in found:
        assert 0 < space.dim < action.dim
        assert all(coordinates_in_span(space.basis, g.apply(b)) is not None for g in action.mats for b in space.basis)


@pytest.mark.parametrize("closure", [invariant_closure, closure_by_fixed_point])
def test_invariant_closure_refuses_a_wrong_length_and_a_float(closure):
    a = act([("a", CAT)], "semigroup")
    with pytest.raises(DimensionMismatchError):
        closure(a, [(F(1), F(0)), (F(1), F(0), F(0))])
    with pytest.raises(ParseError):
        closure(a, [(0.5, F(0))])
    # every entry is read before any length is checked
    with pytest.raises(ParseError):
        closure(a, [(F(1),), (F(0), 0.5)])


# --- expansive word search ---


def test_find_expansive_word_doubling():
    a = act([("g", DOUBLING)], "semigroup")
    word, m = find_expansive_word(a, iter_words(a, 5, 100))
    assert word == ("g",)
    assert m == DOUBLING


def test_find_expansive_word_cat_group_only():
    for mode, expansive in (("group", True), ("semigroup", False)):
        a = act([("a", CAT)], mode)
        assert (find_expansive_word(a, iter_words(a, 6, 200)) is not None) == expansive


def test_find_expansive_word_in_generated_sl2():
    gens = [("s", M([[0, -1], [1, 0]])), ("t", SHEAR)]
    a = act(gens, "group")
    found = find_expansive_word(a, iter_words(a, 6, 2000))
    assert found is not None
    word, m = found
    assert abs(m.trace()) > 2


# --- the engine ---


def test_engine_doubling_expansive():
    res = expansiveness_check(act([("g", DOUBLING)], "semigroup"), depth=6)
    assert res.status == EXPANSIVE
    assert res.certificate["kind"] == "word_spectrum"
    assert res.certificate["word"] == ["g"]
    assert res.evidence["escape_words"] == [["g"]]
    # the bracket (2.0 here) is computed on request, not by the engine
    assert "jsr" not in res.evidence


def test_engine_rotation_not_expansive_with_witness():
    res = expansiveness_check(act([("r", ROTATION)], "group"), depth=6)
    assert res.status == NOT_EXPANSIVE
    assert res.witness == (F(1), F(0))
    assert res.certificate["kind"] == "InvariantNormFound"
    assert res.certificate["slack"] == "0"


def test_engine_identity_not_expansive():
    res = expansiveness_check(act([("e", QMatrix.identity(2))], "group"), depth=4)
    assert res.status == NOT_EXPANSIVE
    assert res.witness is not None
    assert any(x != 0 for x in res.witness)


def test_engine_cat_map_group_vs_semigroup():
    group = expansiveness_check(act([("a", CAT)], "group"), depth=6)
    assert group.status == EXPANSIVE
    assert group.certificate["word"] == ["a"]
    semi = expansiveness_check(act([("a", CAT)], "semigroup"), depth=6)
    assert semi.status == NOT_EXPANSIVE
    assert semi.certificate["kind"] == "spectral_obstruction"
    assert semi.certificate["profile"] == {"at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}


def test_engine_eigenvalue_one_gives_witnessed_obstruction():
    res = expansiveness_check(act([("g", M([[2, 0], [0, 1]]))], "semigroup"), depth=6)
    assert res.status == NOT_EXPANSIVE
    assert res.witness == (F(0), F(1))
    assert res.certificate["witness_eigenvalue"] == "1"


def test_engine_split_route_without_single_expansive_word():
    # no word is expansive (products are diag(2^a 2^-b, 2^-a 2^b)) but the
    # coordinate splitting certifies escape on both factors
    gens = [("g1", M([[2, 0], [0, F(1, 2)]])), ("g2", M([[F(1, 2), 0], [0, 2]]))]
    res = expansiveness_check(act(gens, "semigroup"), depth=6)
    assert res.status == EXPANSIVE
    assert res.certificate["kind"] == "split"
    assert res.evidence["escape_words"]


def test_engine_two_generators_sharing_fixed_vector():
    gens = [("g1", M([[2, 0], [0, 1]])), ("g2", M([[3, 0], [0, 1]]))]
    res = expansiveness_check(act(gens, "semigroup"), depth=6)
    assert res.status == NOT_EXPANSIVE
    assert res.witness == (F(0), F(1))
    assert res.certificate["kind"] == "InvariantNormFound"


def test_engine_affine_fixture_is_expansive():
    res = expansiveness_check(act(AFFINE_GENS, "group"), depth=8)
    assert res.status == EXPANSIVE
    assert res.certificate["kind"] in {"affine_obstruction", "split"}
    assert res.evidence["escape_words"]


def test_engine_graph_lift_finds_skew_bounded_plane():
    # conjugated block actions whose bounded plane is not coordinate-aligned
    p = M([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    pinv = p.inverse()
    g1 = p @ M([[2, 0, 0], [0, 0, -1], [0, 1, 0]]) @ pinv
    g2 = p @ M([[3, 0, 0], [0, 0, 1], [0, -1, 0]]) @ pinv
    res = expansiveness_check(act([("g1", g1), ("g2", g2)], "group"), depth=6)
    assert res.status == NOT_EXPANSIVE
    assert res.certificate["kind"] == "InvariantNormFound"
    space = Subspace.from_vectors(3, [tuple(F(x) for x in row) for row in res.certificate["space"]])
    assert space.contains((F(1), F(1), F(0)))
    assert space.contains((F(0), F(0), F(1)))


def test_engine_witness_orbit_stays_under_ten_times_bound():
    for action in (
        act([("r", ROTATION)], "group"),
        act([("g1", M([[2, 0], [0, 1]])), ("g2", M([[3, 0], [0, 1]]))], "semigroup"),
    ):
        res = expansiveness_check(action, depth=6)
        assert res.status == NOT_EXPANSIVE
        bound = res.evidence["norm_bound"]
        for _, m in iter_words(action, 8, 4000):
            assert math.sqrt(sum(float(x) ** 2 for x in m.apply(res.witness))) <= 10 * bound


@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_engine_agrees_with_single_matrix_test(rows):
    from expansive.spectral import single_expansive

    m = M(rows)
    a = act([("g", m)], "semigroup")
    res = expansiveness_check(a, depth=5)
    direct = single_expansive(m, "semigroup")
    if res.status == EXPANSIVE:
        assert direct.expansive
    if res.status == NOT_EXPANSIVE:
        assert not direct.expansive


@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_engine_group_mode_agrees_with_single_matrix_test(rows):
    from expansive.spectral import single_expansive

    m = M(rows)
    if m.det() == 0:
        return
    res = expansiveness_check(act([("g", m)], "group"), depth=5)
    direct = single_expansive(m, "group")
    if res.status == EXPANSIVE:
        assert direct.expansive
    if res.status == NOT_EXPANSIVE:
        assert not direct.expansive


# --- floats only propose ---


def jordan_action():
    """P J P^-1 in semigroup mode, J the 4x4 Jordan block of 10001/10000.

    Every word is exactly expansive, but the float eigenvalues of a
    defective block stray by about 1e-4, inside the unit circle for J and J^2.
    """
    lam = F(10001, 10000)
    p = M([[1, -1, 2, -1], [3, 2, 3, 2], [2, 1, -3, 3], [0, 3, -2, 2]])
    j = M([[lam if c == r else int(c == r + 1) for c in range(4)] for r in range(4)])
    return act([("g", p @ j @ p.inverse())], "semigroup")


@pytest.mark.parametrize("depth", [3, 10])
def test_no_float_vetoes_an_expansive_word(depth):
    action = jordan_action()
    res = expansiveness_check(action, depth=depth)
    assert res.status == EXPANSIVE
    assert res.certificate["kind"] == "word_spectrum"
    assert res.certificate["word"] == ["g"]
    assert check_certificate(res.certificate, action, res.status, res.witness)


def rotation_plus_cat(mode):
    """R(3/5) (+) cat and its square, conjugated by an integer P: the
    rotation plane is bounded, so the action is not expansive."""
    p = M([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    d = M([[F(3, 5), F(-4, 5), 0, 0], [F(4, 5), F(3, 5), 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    a = p @ d @ p.inverse()
    return act([("a", a), ("b", a @ a)], mode)


def test_rotation_plus_cat_plane_comes_from_the_bounded_direction_screen():
    # the float screen of stage 3 is the only proposer that finds the
    # rotation plane: no word has a rational eigenvalue, so the split has
    # no exact seed
    group = rotation_plus_cat("group")
    res = expansiveness_check(group, depth=10)
    assert res.status == NOT_EXPANSIVE
    assert res.evidence["route"] == "bounded-subspace"
    assert check_certificate(res.certificate, group, res.status, res.witness)
    # in semigroup mode the contracting cat direction joins the screen's
    # guess, whose closure is the whole space, so nothing decides
    assert expansiveness_check(rotation_plus_cat("semigroup"), depth=10).status == UNKNOWN


# --- the word search returns the first word the exact test accepts ---


def first_accepted_word(action, max_len, budget):
    for word, m in iter_words(action, max_len, budget):
        if single_expansive(m, action.mode).expansive:
            return word, m
    return None


def assert_search_matches_exact_scan(action, max_len, budget):
    found = find_expansive_word(action, iter_words(action, max_len, budget))
    expected = first_accepted_word(action, max_len, budget)
    if expected is None:
        assert found is None
    else:
        assert tuple(found) == expected
        assert found.profile == single_expansive(expected[1], action.mode).profile


@pytest.mark.parametrize("fixture, max_len, budget", [("sl2_generators", 10, 4000), ("affine_sl2", 4, 400)])
def test_group_word_search_matches_exact_scan_on_fixtures(fixture, max_len, budget):
    action = parse_action(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    assert action.mode == "group"
    assert_search_matches_exact_scan(action, max_len, budget)


any_2x2 = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
).map(M)
invertible_2x2 = any_2x2.filter(lambda m: m.det() != 0)


@given(st.lists(invertible_2x2, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_group_word_search_matches_exact_scan(mats):
    action = act([(f"g{i}", m) for i, m in enumerate(mats)], "group")
    assert_search_matches_exact_scan(action, 4, 60)


@given(st.lists(any_2x2, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_semigroup_word_search_matches_exact_scan(mats):
    # the word screen drops only words the exact test refutes
    action = act([(f"g{i}", m) for i, m in enumerate(mats)], "semigroup")
    assert_search_matches_exact_scan(action, 4, 60)


def test_a_failing_jsr_bracket_leaves_the_engine_untouched(monkeypatch):
    action = act([("a", CAT), ("s", SHEAR)], "group")
    honest = expansiveness_check(action, depth=6)

    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in the bracket")

    monkeypatch.setattr(orbits, "jsr_bounds", broken)
    res = expansiveness_check(action, depth=6)
    assert res == honest
    assert "jsr" not in res.evidence and "errors" not in res.evidence

