"""The certificate checker against honest and adversarial reports.

Every case below runs through every subcommand whose report claims a
status, in the case's own mode and in semigroup mode; the decisive reports
are the honest ones.  Each must verify as it stands, and no mutation of one
that claims the opposite status may verify.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expansive import exact
from expansive.actions import WORD_BUDGET, SemigroupAction, adapted_blocks
from expansive.certificates import CHECKS, check_certificate, check_claims, check_lifts
from expansive.cli import main, parse_action, parse_dual_module, verify_report
from expansive.exact import CapExceededError, IntEchelon, NotInvertibleError, QMatrix, char_poly
from expansive.orbits import iter_words
from expansive.solenoid import span_restriction
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP, has_unbounded_powers, unit_disk_profile
from expansive.torus import NonIntegerEntriesError, NotUnimodularError, _check_integer_generators, _check_unimodular

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
OPPOSITE = {EXPANSIVE: NOT_EXPANSIVE, NOT_EXPANSIVE: EXPANSIVE}
DECIDING = [
    ["analyze-matrix"],
    ["analyze-semigroup"],
    ["find-expansive"],
    ["torus-check"],
    ["solenoid-check"],
]
# beyond the fixtures: a split with no single escaping word, and an empty span
EXTRA_CASES = {
    "opposed_diagonals": {
        "n": 2, "mode": "semigroup", "generators": {"a": [[2, 0], [0, "1/2"]], "b": [["1/2", 0], [0, 2]]}
    },
    "zero_module": {"n": 1, "F": [[0]], "generators": {"g": [[2]]}, "mode": "group"},
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def honest(tmp_path_factory):
    """name -> (report, case) for every decisive report of every case."""
    paths = {p.stem: p for p in FIXTURES.glob("*.json") if p.stem != "dyadic_window"}
    for name, case in EXTRA_CASES.items():
        paths[name] = tmp_path_factory.mktemp("cases") / f"{name}.json"
        paths[name].write_text(json.dumps(case))
    out = {}
    for name, path in sorted(paths.items()):
        case = json.loads(path.read_text())
        for command in DECIDING:
            for mode in ([], ["--mode", SEMIGROUP]):
                code, rep = _run([command[0], path, *command[1:], *mode])
                if code == 0 and rep.get("status") in OPPOSITE:
                    out[" ".join([*command, name, *mode])] = (rep, case)
    return out


def _action(rep: dict, case: dict) -> SemigroupAction:
    mode = rep["options"].get("mode")
    if rep["command"] == "solenoid-check":
        return span_restriction(parse_dual_module(case, mode))[1]
    return parse_action(case, mode)


def _verifies(rep: dict, case: dict) -> bool:
    try:
        return verify_report(rep, case)
    except (KeyError, TypeError, ValueError):  # what main() reports as exit 1
        return False


def _kinds(cert) -> set:
    if not isinstance(cert, dict):
        return set()
    return {cert["kind"]} | _kinds(cert.get("restriction")) | _kinds(cert.get("quotient"))


def test_every_honest_report_verifies_and_every_kind_occurs(honest):
    assert [name for name, (rep, case) in honest.items() if not verify_report(rep, case)] == []
    assert set().union(*(_kinds(rep["certificate"]) for rep, _ in honest.values())) == set(CHECKS)


def test_verify_runs_no_fraction_gauss_jordan_outside_a_solenoid_check(honest, monkeypatch):
    # verify answers its span questions on integer echelons; only the span
    # restriction of a solenoid-check report still eliminates in Fractions
    calls = []
    gauss_jordan = exact._gauss_jordan

    def counted(*args):
        calls.append(args)
        return gauss_jordan(*args)

    monkeypatch.setattr(exact, "_gauss_jordan", counted)
    reached = set()
    for name, (rep, case) in honest.items():
        calls.clear()
        assert verify_report(rep, case), name
        if calls:
            reached.add(rep["command"])
    assert reached == {"solenoid-check"}


# ------------------------------------------------------------ mutations


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _mutated_value(draw, value, letters):
    """A changed copy of one certificate or witness value."""
    if isinstance(value, bool) or value is None:
        return draw(st.sampled_from([None, not value, 0]))
    if isinstance(value, int):
        return value + draw(st.sampled_from([-1, 1, 2]))
    if isinstance(value, str):
        try:
            x = Fraction(value)
        except ValueError:
            return draw(st.sampled_from(letters + ["", "x"]))
        delta = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), -2 * x, -x]))
        return str(x + delta)
    if isinstance(value, list):
        choice = draw(st.sampled_from(["drop", "double", "reverse", "empty"]))
        if choice == "empty" or not value:
            return []
        i = draw(st.integers(0, len(value) - 1))
        if choice == "drop":
            return value[:i] + value[i + 1 :]
        if choice == "double":
            return value[: i + 1] + value[i:]
        return value[::-1]
    key = draw(st.sampled_from(sorted(value)))
    return {k: v for k, v in value.items() if k != key}


def _forgeries(action: SemigroupAction) -> list:
    """Certificates of every kind whose data is true of the action wherever it can be."""
    n = action.dim
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    out = [
        {"kind": "empty_space"},
        {"kind": "InvariantNormFound", "space": ident, "gram": ident},
        {"kind": "InvariantNormFound", "space": [], "gram": []},
    ]
    for name, m in zip(action.names, action.mats):
        profile = unit_disk_profile(char_poly(m)).to_json()
        out += [
            {"kind": "word_spectrum", "word": [name], "profile": profile},
            {"kind": "spectral_obstruction", "word": [name], "profile": profile},
            {"kind": "irreducible_fast_path", "algebra_dim": n * n, "infinite_order_word": [name]},
        ]
    return out


def test_no_forged_certificate_proves_the_opposite_status(honest):
    accepted = []
    for name, (rep, case) in honest.items():
        for cert in _forgeries(_action(rep, case)):
            bad = {**rep, "status": OPPOSITE[rep["status"]], "certificate": cert}
            if _verifies(bad, case):
                accepted.append((name, cert))
    assert accepted == []


def _mutate(draw, rep: dict, action: SemigroupAction, pool: list) -> None:
    letters = list(action.names) + [name + "^-1" for name in action.names]
    op = draw(st.sampled_from(["value", "value", "value", "certificate", "kind", "witness"]))
    if op == "certificate":
        rep["certificate"] = copy.deepcopy(draw(st.sampled_from(pool + _forgeries(action))))
    elif op == "kind" and isinstance(rep.get("certificate"), dict):
        rep["certificate"]["kind"] = draw(st.sampled_from(sorted(CHECKS)))
    elif op == "witness":
        vectors = [None, [0] * action.dim] + [[int(i == j) for j in range(action.dim)] for i in range(action.dim)]
        rep["witness"] = draw(st.sampled_from(vectors))
    else:
        tree = {"certificate": rep.get("certificate"), "witness": rep.get("witness")}
        path = draw(st.sampled_from([p for p in _paths(tree) if len(p) > 1]))
        new = _mutated_value(draw, _at(tree, path), letters)
        _at(rep, path[:-1])[path[-1]] = new


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_mutation_claiming_the_opposite_status_verifies(honest, data):
    name = data.draw(st.sampled_from(sorted(honest)))
    rep, case = honest[name]
    action = _action(rep, case)
    pool = [r["certificate"] for r, _ in honest.values()]
    bad = copy.deepcopy(rep)
    bad["status"] = OPPOSITE[rep["status"]]
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data.draw, bad, action, pool)
    assert not _verifies(bad, case), (name, bad.get("certificate"), bad.get("witness"))


def _torus_check_refuses(action: SemigroupAction) -> bool:
    """Whether torus-check refuses the action before it searches."""
    try:
        _check_integer_generators(action)
        if action.mode == GROUP:
            _check_unimodular(action)
    except (NonIntegerEntriesError, NotUnimodularError):
        return True
    return False


def test_a_report_relabelled_torus_check_verifies_only_where_torus_check_runs(honest, tmp_path):
    # beyond the honest reports: two group-mode engine reports of cases that
    # torus-check refuses, one not unimodular and one not integer
    reports = {name: pair for name, pair in honest.items() if pair[0]["command"] != "solenoid-check"}
    for name, case in {
        "doubling": json.loads((FIXTURES / "doubling.json").read_text()),
        "three_halves": {"n": 1, "generators": {"h": [["3/2"]]}, "mode": "group"},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(case))
        code, rep = _run(["analyze-semigroup", path, "--mode", GROUP])
        assert code == 0 and verify_report(rep, case)
        reports[f"analyze-semigroup {name} --mode group"] = (rep, case)
    refused, wrong = [], []
    for name, (rep, case) in reports.items():
        refuses = _torus_check_refuses(_action(rep, case))
        refused += [name] * refuses
        if _verifies({**rep, "command": "torus-check"}, case) is refuses:
            wrong.append(name)
    assert wrong == []
    assert {"analyze-semigroup doubling --mode group", "analyze-semigroup three_halves --mode group"} <= set(refused)
    assert len(refused) < len(reports)


# ------------------------------------------------------------ polarity


def _action_of(mode, **gens):
    return SemigroupAction.from_generators([(k, QMatrix.from_rows(v)) for k, v in gens.items()], mode)


def _profile(*rows):
    return unit_disk_profile(char_poly(QMatrix.from_rows(rows))).to_json()


def test_split_needs_an_expansive_quotient_proof():
    # diag(2, 1) fixes e2; its quotient by e1 is the identity, which an
    # obstruction rightly calls not expansive, so it proves no Expansive split
    action = _action_of(GROUP, g=[[2, 0], [0, 1]])
    cert = {
        "kind": "split",
        "space": [["1", "0"]],
        "complement": [["0", "1"]],
        "restriction": {"kind": "word_spectrum", "word": ["g"], "profile": _profile([2])},
        "quotient": {"kind": "spectral_obstruction", "word": ["g"], "profile": _profile([1])},
    }
    assert check_certificate(cert["quotient"], _action_of(GROUP, g=[[1]]), NOT_EXPANSIVE)
    assert not check_certificate(cert, action, EXPANSIVE)


def test_a_split_needs_space_and_complement_to_form_a_basis():
    # the cat map splits trivially along 0 or along everything, but a space
    # and a complement on one line are no basis
    action = _action_of(GROUP, cat=[[2, 1], [1, 1]])
    cat = {"kind": "word_spectrum", "word": ["cat"], "profile": _profile([2, 1], [1, 1])}
    empty = {"kind": "empty_space"}
    everything = [["1", "0"], ["0", "1"]]
    along_zero = {"kind": "split", "space": [], "complement": everything, "restriction": empty, "quotient": cat}
    along_all = {"kind": "split", "space": everything, "complement": [], "restriction": cat, "quotient": empty}
    assert check_certificate(along_zero, action, EXPANSIVE)
    assert check_certificate(along_all, action, EXPANSIVE)
    parallel = {**along_zero, "space": [["1", "0"]], "complement": [["2", "0"]], "restriction": cat}
    assert not check_certificate(parallel, action, EXPANSIVE)
    with pytest.raises(NotInvertibleError):
        adapted_blocks(action, [(Fraction(1), Fraction(0))], [(Fraction(2), Fraction(0))])


def test_affine_obstruction_needs_an_expansive_restriction_proof():
    # the shear fixes e1, and its line system (1 - 1) u = -1 has no solution
    action = _action_of(GROUP, g=[[1, 1], [0, 1]])
    restriction = {"kind": "spectral_obstruction", "word": ["g"], "profile": _profile([1])}
    cert = {
        "kind": "affine_obstruction",
        "space": [["1", "0"]],
        "complement": [["0", "1"]],
        "restriction": restriction,
        "scalars": {"g": "1", "g^-1": "1"},
    }
    assert check_certificate(restriction, _action_of(GROUP, g=[[1]]), NOT_EXPANSIVE)
    assert not check_certificate(cert, action, EXPANSIVE)


def test_a_forged_affine_obstruction_fails_verify(tmp_path):
    # diag(2, 1) is NotExpansive: it fixes e2.  The forgery splits off the
    # expansive line e1 and claims no invariant line off it, yet e2 spans one
    case = {"n": 2, "mode": "group", "generators": {"g": [[2, 0], [0, 1]]}}
    case_path, report_path = tmp_path / "case.json", tmp_path / "report.json"
    case_path.write_text(json.dumps(case))
    code, rep = _run(["analyze-semigroup", case_path])
    assert (code, rep["status"]) == (0, NOT_EXPANSIVE)
    rep.pop("witness")
    rep["status"] = EXPANSIVE
    rep["certificate"] = {
        "kind": "affine_obstruction",
        "space": [["1", "0"]],
        "complement": [["0", "1"]],
        "restriction": {"kind": "word_spectrum", "word": ["g"], "profile": _profile([2])},
        "scalars": {"g": "1", "g^-1": "1"},
    }
    assert rep["certificate"]["restriction"]["profile"]["outside"] == 1
    report_path.write_text(json.dumps(rep))
    code, out = _run(["verify", report_path, case_path])
    assert (code, out["verified"]) == (1, False)


def test_an_invariant_norm_on_dependent_rows_fails_verify(tmp_path):
    # diag(2, 1) fixes e2, and the identity form on the line e2 is a true
    # invariant norm; the same form claimed on the rows [e2, 2 e2], which
    # span that line only, proves nothing
    case = {"n": 2, "mode": "group", "generators": {"g": [[2, 0], [0, 1]]}}
    case_path, report_path = tmp_path / "case.json", tmp_path / "report.json"
    case_path.write_text(json.dumps(case))
    code, rep = _run(["analyze-semigroup", case_path])
    assert (code, rep["status"], rep["witness"]) == (0, NOT_EXPANSIVE, ["0", "1"])
    verdicts = []
    for space, gram in (([["0", "1"]], [["1"]]), ([["0", "1"], ["0", "2"]], [["1", "0"], ["0", "1"]])):
        rep["certificate"] = {"kind": "InvariantNormFound", "space": space, "gram": gram}
        report_path.write_text(json.dumps(rep))
        code, out = _run(["verify", report_path, case_path])
        verdicts.append((code, out["verified"]))
    assert verdicts == [(0, True), (1, False)]


def test_a_forged_affine_obstruction_off_a_hyperplane_fails_verify(tmp_path):
    # diag(2, 1, 1) and a shear of e2 onto e1 fix e3.  The forgery splits off
    # the expansive line e1, of codimension two, not one, and every block
    # scalar is 1; no solution u of the line equations exists, yet e3 spans
    # an invariant line, so only the hyperplane test refuses it
    case = {
        "n": 3,
        "mode": "group",
        "generators": {"g": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "h": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]},
    }
    case_path, report_path = tmp_path / "case.json", tmp_path / "report.json"
    case_path.write_text(json.dumps(case))
    code, rep = _run(["analyze-semigroup", case_path])
    assert (code, rep["status"]) == (0, NOT_EXPANSIVE)
    rep.pop("witness")
    rep["status"] = EXPANSIVE
    rep["certificate"] = {
        "kind": "affine_obstruction",
        "space": [["1", "0", "0"]],
        "complement": [["0", "1", "0"], ["0", "0", "1"]],
        "restriction": {"kind": "word_spectrum", "word": ["g"], "profile": _profile([2])},
        "scalars": {"g": "1", "h": "1", "g^-1": "1", "h^-1": "1"},
    }
    report_path.write_text(json.dumps(rep))
    code, out = _run(["verify", report_path, case_path])
    assert (code, out["verified"]) == (1, False)


def _profiles(cert, path=("certificate",)):
    """The path of the stored ``profile`` of every certificate in the tree that has one."""
    if not isinstance(cert, dict):
        return
    if "profile" in cert:
        yield path + ("profile",)
    for key in ("restriction", "quotient"):
        yield from _profiles(cert.get(key), path + (key,))


def test_an_honest_report_with_a_changed_stored_profile_fails_verify(honest):
    # one root moved to the next field of the profile: the degree is the same,
    # and the word and its spectrum are honest, so only the comparison with
    # the recomputed profile refuses it
    fields = ["at_zero", "inside", "on_circle", "outside"]
    accepted, kinds = [], set()
    for name, (rep, case) in honest.items():
        for path in _profiles(rep["certificate"]):
            bad = copy.deepcopy(rep)
            profile = _at(bad, path)
            kinds.add(_at(bad, path[:-1])["kind"])
            i = next(i for i, f in enumerate(fields) if profile[f])
            profile[fields[i]] -= 1
            profile[fields[(i + 1) % 4]] += 1
            if _verifies(bad, case):
                accepted.append((name, path))
    assert accepted == []
    assert kinds == {"word_spectrum", "spectral_obstruction"}


def _long_words(word: list) -> dict:
    """Certificates of each kind that names words, each word ``word``."""
    profile = _profile([2, 1], [1, 1])
    return {
        "word_spectrum": ({"kind": "word_spectrum", "word": word, "profile": profile}, EXPANSIVE),
        "spectral_obstruction": ({"kind": "spectral_obstruction", "word": word, "profile": profile}, NOT_EXPANSIVE),
        "fast_path_words": (
            {"kind": "irreducible_fast_path", "algebra_dim": 4, "infinite_order_word": ["cat"], "words": [word] * 3},
            EXPANSIVE,
        ),
        "fast_path_infinite_order_word": (
            {"kind": "irreducible_fast_path", "algebra_dim": 4, "infinite_order_word": word, "words": [["cat"]] * 3},
            EXPANSIVE,
        ),
    }


@pytest.mark.parametrize("kind", sorted(_long_words([])))
def test_a_certificate_word_past_the_cap_is_refused_before_any_product(kind, monkeypatch):
    action = _action_of(GROUP, cat=[[2, 1], [1, 1]])
    cert, status = _long_words(["cat"] * (WORD_BUDGET + 1))[kind]
    products = []
    word_matrix = SemigroupAction.word_matrix
    monkeypatch.setattr(SemigroupAction, "word_matrix", lambda *args: products.append(args) or word_matrix(*args))
    with pytest.raises(CapExceededError, match=str(WORD_BUDGET)):
        check_certificate(cert, action, status)
    assert products == []
    # at the cap the word is checked: a power of the cat map is hyperbolic
    cert, status = _long_words(["cat"] * WORD_BUDGET)[kind]
    assert check_certificate(cert, action, status) is (kind == "word_spectrum")


def test_a_find_expansive_word_past_the_cap_is_refused():
    action = _action_of(GROUP, cat=[[2, 1], [1, 1]])
    word = ["cat"] * (WORD_BUDGET + 1)
    rep = {"command": "find-expansive", "found": True, "word": word, "certificate": {"word": word}, "matrix": [[1]]}
    with pytest.raises(CapExceededError):
        check_claims(rep, {"generators": {"cat": [[2, 1], [1, 1]]}}, action)


def test_an_obstruction_needs_a_cyclic_action():
    # the order-4 rotation s does not generate the action of s and t
    action = _action_of(GROUP, s=[[0, -1], [1, 0]], t=[[1, 1], [0, 1]])
    cert = {"kind": "spectral_obstruction", "word": ["s"], "profile": _profile([0, -1], [1, 0])}
    assert not check_certificate(cert, action, NOT_EXPANSIVE)
    assert check_certificate(cert, _action_of(GROUP, s=[[0, -1], [1, 0]]), NOT_EXPANSIVE)


def test_an_obstruction_witness_needs_a_bounded_eigenvalue():
    # diag(2, 1/2) does not escape as a semigroup, but e1 is no bounded witness
    action = _action_of(SEMIGROUP, g=[[2, 0], [0, "1/2"]])
    cert = {"kind": "spectral_obstruction", "word": ["g"], "profile": _profile([2, 0], [0, "1/2"])}
    assert check_certificate(cert, action, NOT_EXPANSIVE)
    assert check_certificate({**cert, "witness_eigenvalue": "1/2"}, action, NOT_EXPANSIVE, ["0", "1"])
    assert not check_certificate({**cert, "witness_eigenvalue": "2"}, action, NOT_EXPANSIVE, ["1", "0"])
    assert not check_certificate(cert, action, NOT_EXPANSIVE, ["0", "1"])


def _dyadic_lift_report() -> dict:
    window = FIXTURES / "dyadic_window.json"
    code, rep = _run(["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", window, "--radius", "3/10"])
    assert code == 0 and rep["lifts"][0]["lifted"] is True
    return rep


def test_a_lift_bound_must_stay_below_1_over_k():
    rep = _dyadic_lift_report()
    dyadic = parse_dual_module(json.loads((FIXTURES / "dyadic_solenoid.json").read_text()))
    assert check_lifts(rep["chain"], rep["lifts"], dyadic)
    # the functional x -> 7x satisfies every relation, but no bound below 1/k holds it
    entry = rep["lifts"][0]
    entry["bound"] = "1000"
    for value in entry["values"]:
        value["mid"] = str(7 * Fraction(value["character"][0]))
    assert not check_lifts(rep["chain"], rep["lifts"], dyadic)


def _verify_exit(rep: dict, tmp_path) -> tuple[int, dict]:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(rep))
    return _run(["verify", path, FIXTURES / "dyadic_solenoid.json"])


def test_a_lift_value_with_a_negative_radius_fails_verify(tmp_path):
    # a negative radius shrinks the reach of every ball built from it: the
    # value 31/100 of character 16 then passes for one below the bound 3/10,
    # and a wider radius on character 8 keeps the relation 2 * 8 = 16 holding
    rep = _dyadic_lift_report()
    code, out = _verify_exit(rep, tmp_path)
    assert (code, out["verified"]) == (0, True)
    for value in rep["lifts"][0]["values"]:
        if value["character"] == ["16"]:
            value.update(mid="31/100", rad="-1/50")
        elif value["character"] == ["8"]:
            value["rad"] = "1/25"
    code, out = _verify_exit(rep, tmp_path)
    assert (code, out["verified"]) == (1, False)


@pytest.mark.parametrize("k", range(9))
def test_no_honest_lift_verifies_with_one_radius_negated(k):
    rep = _dyadic_lift_report()
    dyadic = parse_dual_module(json.loads((FIXTURES / "dyadic_solenoid.json").read_text()))
    value = rep["lifts"][0]["values"][k]
    assert check_lifts(rep["chain"], rep["lifts"], dyadic)
    value["rad"] = str(-Fraction(value["rad"]))
    assert not check_lifts(rep["chain"], rep["lifts"], dyadic)


# ------------------------------------------------------------ torus fast path

# cases whose word matrices span all of M_n, so torus-check takes the fast path
FAST_PATH_CASES = {
    "sl2_generators": json.loads((FIXTURES / "sl2_generators.json").read_text()),
    "selmer_and_cycle": {
        "n": 3,
        "mode": "group",
        "generators": {"a": [[0, 0, 1], [1, 0, 1], [0, 1, 0]], "p": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]},
    },
}


def _in_span_of_the_rest(action: SemigroupAction, words: list, k: int) -> list:
    """A word not in ``words`` whose matrix lies in the span of the identity and every word but the k-th."""
    n = action.dim
    mats = [QMatrix.identity(n)] + [action.word_matrix(w) for i, w in enumerate(words) if i != k]
    for word, m in iter_words(action, 4, 400):
        rest = IntEchelon(n * n)
        for r in mats:
            rest.add(r.num)
        if list(word) not in words and not rest.add(m.num):
            return list(word)
    raise LookupError("no word of length 4 or less lies in the span of the rest")


def _fast_path_forgeries(cert: dict, action: SemigroupAction) -> dict:
    """Name -> the certificate with one change that leaves its words no proof."""
    n, words = action.dim, cert["words"]
    finite = next(name for name, m in zip(action.names, action.mats) if not has_unbounded_powers(m))
    return {
        "a word of finite order": {**cert, "infinite_order_word": [finite]},
        "a word dropped": {**cert, "words": words[:-1]},
        "a word repeated in place of another": {**cert, "words": [words[0], words[0], *words[2:]]},
        "a word in the span of the rest": {**cert, "words": [_in_span_of_the_rest(action, words, 0), *words[1:]]},
        "a word naming no generator": {**cert, "words": [["x"], *words[1:]]},
        "an empty word": {**cert, "words": [[], *words[1:]]},
        "an extra word": {**cert, "words": [*words, words[0]]},
        "algebra_dim below n^2": {**cert, "algebra_dim": n * n - 1},
        "algebra_dim above n^2": {**cert, "algebra_dim": n * n + 1},
        "no words (an older report)": {k: v for k, v in cert.items() if k != "words"},
    }


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
@pytest.mark.parametrize("name", sorted(FAST_PATH_CASES))
def test_every_fast_path_forgery_fails_verify(name, mode, tmp_path):
    case = FAST_PATH_CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(case))
    code, rep = _run(["torus-check", path, "--mode", mode])
    cert, action = rep["certificate"], _action(rep, case)
    assert code == 0 and cert["kind"] == "irreducible_fast_path" and verify_report(rep, case)
    assert len(cert["words"]) == action.dim**2 - 1
    accepted = [why for why, bad in _fast_path_forgeries(cert, action).items()
                if _verifies({**rep, "certificate": bad}, case)]
    assert accepted == []
    # g g^-1 leaves a word's matrix as it is, but only a group has the letter g^-1
    g = action.names[0]
    with_inverse = {**cert, "words": [[*cert["words"][0], g, g + "^-1"], *cert["words"][1:]]}
    assert _verifies({**rep, "certificate": with_inverse}, case) is (mode == GROUP)


def test_a_fast_path_needs_integer_matrices():
    # the rotation by 3/5 + 4/5 i has infinite order and spans M_2 with a
    # reflection, yet the two generate isometries: only integer matrices make
    # the fast path a proof
    words = [["r"], ["f"], ["r", "f"]]
    cert = {"kind": "irreducible_fast_path", "algebra_dim": 4, "infinite_order_word": ["r"], "words": words}
    isometries = _action_of(GROUP, r=[["3/5", "-4/5"], ["4/5", "3/5"]], f=[[1, 0], [0, -1]])
    assert not check_certificate(cert, isometries, EXPANSIVE)
    # an integer generator of determinant 2 has no integer inverse in group mode
    doubling = {"r": [[0, -1], [1, 0]], "f": [[2, 1], [0, 1]]}
    cert = {**cert, "infinite_order_word": ["f"]}
    assert check_certificate(cert, _action_of(SEMIGROUP, **doubling), EXPANSIVE)
    assert not check_certificate(cert, _action_of(GROUP, **doubling), EXPANSIVE)
