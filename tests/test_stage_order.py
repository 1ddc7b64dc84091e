"""The engine's stage order against the walk-first order it replaced.

``walk_first`` is the engine as it was before the stages were ordered by
what they prove: the whole word walk first, then the cyclic obstruction,
the bounded subspace and the split.  Installed in place of
``orbits._analyze_uncached`` it also drives every recursive analysis, so
it is a complete reference for ``expansiveness_check``.
"""

import json
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansive import orbits
from expansive.cli import parse_action
from expansive.exact import QMatrix
from expansive.actions import SemigroupAction
from expansive.orbits import EARLY_WORDS, WORD_BUDGET, ExpansivenessVerdict, expansiveness_check
from expansive.spectral import EXPANSIVE, NOT_EXPANSIVE, SEMIGROUP, UNKNOWN, single_expansive

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def walk_first(action, depth, memo):
    """The walk-first ``_analyze_uncached``: stage 1 drains its budget before stages 2-4 run."""
    if action.dim == 0:
        return ExpansivenessVerdict(EXPANSIVE, None, {"kind": "empty_space"}, {"route": "empty"}, 0)
    found = orbits.find_expansive_word(action, orbits.iter_words(action, depth, WORD_BUDGET))
    if found is not None:
        word = found[0]
        cert = {"kind": "word_spectrum", "word": list(word), "profile": found.profile.to_json()}
        ev = {"escape_words": [list(word)], "route": "word-spectrum"}
        return ExpansivenessVerdict(EXPANSIVE, None, cert, ev, depth)
    held = None
    cyclic = orbits._cyclic_generator(action)
    if cyclic is not None:
        name, m = cyclic
        if action.mode == SEMIGROUP or m.det() != 0:
            verdict = single_expansive(m, action.mode)
            if not verdict.expansive:
                cert = {"kind": "spectral_obstruction", "word": [name], "profile": verdict.profile.to_json()}
                wit = orbits._spectral_witness(m, action.mode)
                if wit is not None:
                    cert["witness_eigenvalue"] = str(wit[1])
                held = ExpansivenessVerdict(
                    NOT_EXPANSIVE, wit[0] if wit else None, cert, {"route": "single-spectrum"}, depth
                )
                if wit is not None:
                    return held
    candidate = orbits._bounded_directions(action, min(depth + 2, orbits.GRAM_DEPTH))
    if candidate.dim > 0:
        cert = orbits.certify_bounded(action, candidate)
        if cert is not None:
            return ExpansivenessVerdict(
                NOT_EXPANSIVE,
                candidate.basis[0],
                orbits._norm_cert(list(candidate.basis), cert["gram"], cert["method"]),
                {"route": "bounded-subspace"},
                depth,
            )
    for space in orbits._proper_invariant_subspaces(action):
        resolved = orbits._split_analysis(action, space, depth, memo)
        if resolved is not None and resolved.status != UNKNOWN:
            return resolved
    if held is not None:
        return held
    return ExpansivenessVerdict(UNKNOWN, None, None, {"route": "inconclusive"}, depth)


def assert_same_as_walk_first(action, depth):
    staged = expansiveness_check(action, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "_analyze_uncached", walk_first)
        reference = expansiveness_check(action, depth)
    assert staged.status == reference.status
    assert staged.certificate == reference.certificate
    assert staged.witness == reference.witness
    assert staged.evidence == reference.evidence


FIXTURE_ACTIONS = [
    (path.stem, mode)
    for path in sorted(FIXTURES.glob("*.json"))
    if "generators" in json.loads(path.read_text())
    for mode in ("group", "semigroup")
]


@pytest.mark.parametrize("fixture, mode", FIXTURE_ACTIONS, ids=[f"{f}-{m}" for f, m in FIXTURE_ACTIONS])
def test_stage_order_matches_walk_first_on_fixtures(fixture, mode):
    action = parse_action(json.loads((FIXTURES / f"{fixture}.json").read_text()), mode)
    assert_same_as_walk_first(action, 6)


def matrices(n):
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(QMatrix.from_rows)


def actions(n):
    gens = st.lists(matrices(n), min_size=1, max_size=2)
    return st.tuples(gens, st.sampled_from(["group", "semigroup"])).filter(
        lambda drawn: drawn[1] == SEMIGROUP or all(m.det() != 0 for m in drawn[0])
    )


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_stage_order_matches_walk_first_on_drawn_actions(n, data):
    mats, mode = data.draw(actions(n))
    action = SemigroupAction.from_generators([(f"g{i}", m) for i, m in enumerate(mats)], mode)
    assert_same_as_walk_first(action, 4)


def test_a_common_fixed_vector_is_decided_within_the_early_words(monkeypatch):
    # a hyperbolic and a parabolic block beside a fixed e3: no word is
    # expansive, so the walk-first order drained the whole budget
    gens = [
        ("a", QMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])),
        ("t", QMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])),
    ]
    action = SemigroupAction.from_generators(gens, "group")
    assert len(list(islice(orbits.iter_words(action, 10, WORD_BUDGET), EARLY_WORDS + 1))) > EARLY_WORDS
    walked = []
    iter_words = orbits.iter_words

    def counted(*args):
        for item in iter_words(*args):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(orbits, "iter_words", counted)
    res = expansiveness_check(action, 10)
    assert res.status == NOT_EXPANSIVE
    assert res.witness == (Fraction(0), Fraction(0), Fraction(1))
    assert len(walked) <= EARLY_WORDS


def test_a_word_past_the_early_words_beats_a_held_split(monkeypatch):
    # the plane block's first expansive word is the 94th word walked; the
    # line e3 (scalar 2 under both) splits the action into expansive parts first
    def with_line(rows):
        return QMatrix.from_rows([rows[0] + [0], rows[1] + [0], [0, 0, 2]])

    gens = [
        ("g0", with_line([[-2, -1], [Fraction(-3, 2), Fraction(-1, 2)]])),
        ("g1", with_line([[-1, Fraction(3, 2)], [Fraction(1, 2), Fraction(1, 2)]])),
    ]
    action = SemigroupAction.from_generators(gens, "semigroup")
    words = [word for word, _ in orbits.iter_words(action, 6, WORD_BUDGET)]
    splits, walks = [], []
    split_analysis, iter_words = orbits._split_analysis, orbits.iter_words

    def spied_split(analyzed, *args):
        out = split_analysis(analyzed, *args)
        if analyzed is action and out is not None:
            splits.append(out.certificate["kind"])
        return out

    def spied_walk(walked, max_len, budget):
        yielded = []
        if walked is action and budget == WORD_BUDGET:
            walks.append(yielded)
        for item in iter_words(walked, max_len, budget):
            yielded.append(item[0])
            yield item

    monkeypatch.setattr(orbits, "_split_analysis", spied_split)
    monkeypatch.setattr(orbits, "iter_words", spied_walk)
    res = expansiveness_check(action, 6)
    assert splits == ["split"]
    assert res.certificate["kind"] == "word_spectrum"
    hit = words.index(tuple(res.certificate["word"]))
    assert hit >= EARLY_WORDS
    # one walk, resumed after the split, stopped at the winning word
    assert walks == [words[: hit + 1]]
    monkeypatch.undo()
    assert_same_as_walk_first(action, 6)


@pytest.mark.parametrize("mode", ["group", "semigroup"])
def test_affine_sl2_walks_only_the_early_words(mode, monkeypatch):
    # every word has the eigenvalue 1: in group mode the held split is an
    # affine obstruction with all quotient scalars 1, in semigroup mode every
    # generator has determinant 1; the walk-first order drained the budget
    action = parse_action(json.loads((FIXTURES / "affine_sl2.json").read_text()), mode)
    assert len(list(islice(orbits.iter_words(action, 10, WORD_BUDGET), EARLY_WORDS + 1))) > EARLY_WORDS
    walked = []
    iter_words = orbits.iter_words

    def counted(walked_action, max_len, budget):
        for item in iter_words(walked_action, max_len, budget):
            if walked_action is action and budget == WORD_BUDGET:
                walked.append(item[0])
            yield item

    monkeypatch.setattr(orbits, "iter_words", counted)
    res = expansiveness_check(action, 10)
    assert (res.status, (res.certificate or {}).get("kind")) == (
        (EXPANSIVE, "affine_obstruction") if mode == "group" else (UNKNOWN, None)
    )
    assert len(walked) <= EARLY_WORDS
    monkeypatch.undo()
    assert_same_as_walk_first(action, 10)


def affine(*scalars):
    return {"kind": "affine_obstruction", "scalars": {f"g{i}": mu for i, mu in enumerate(scalars)}}


@pytest.mark.parametrize(
    "cert, group, semigroup",
    [
        (affine("1", "-1"), True, True),
        (affine("1", "1/2"), False, True),
        (affine("1", "2"), False, False),
        ({"kind": "split", "restriction": {"kind": "word_spectrum"}, "quotient": affine("-1")}, True, True),
        ({"kind": "split", "restriction": affine("1/3"), "quotient": {"kind": "word_spectrum"}}, False, True),
        ({"kind": "affine_obstruction", "scalars": {"g": "3"}, "restriction": affine("1")}, True, True),
        ({"kind": "word_spectrum"}, False, False),
        (None, False, False),
    ],
)
def test_an_affine_obstruction_anywhere_in_the_tree_traps_every_word(cert, group, semigroup):
    assert orbits._traps_every_word(cert, "group") is group
    assert orbits._traps_every_word(cert, "semigroup") is semigroup


@pytest.mark.parametrize(
    "generators, status",
    [
        ([[[3, 1, 0], [1, 1, 0], [0, 0, 0]]], NOT_EXPANSIVE),
        ([[[2, 1], [1, 1]], [[1, 0], [0, 0]]], UNKNOWN),
    ],
    ids=["cyclic", "two-generators"],
)
def test_semigroup_determinants_at_most_one_walk_no_word(generators, status, monkeypatch):
    # every word has |det| <= 1, so an eigenvalue in the closed unit disk:
    # no word can win, and the walk neither starts nor resumes
    named = [(f"g{i}", QMatrix.from_rows(rows)) for i, rows in enumerate(generators)]
    action = SemigroupAction.from_generators(named, SEMIGROUP)
    assert min(abs(m.det()) for _, m in named) == 0
    walked = []
    iter_words = orbits.iter_words

    def counted(walked_action, max_len, budget):
        # the word search's walk; the subspace stages seed from short walks of their own
        for item in iter_words(walked_action, max_len, budget):
            if budget == WORD_BUDGET:
                walked.append(item[0])
            yield item

    monkeypatch.setattr(orbits, "iter_words", counted)
    assert expansiveness_check(action, 10).status == status
    assert walked == []
    monkeypatch.undo()
    assert_same_as_walk_first(action, 10)
