"""End-to-end tests for the command line interface and report verifier."""

import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import expansive
from expansive import certificates
from expansive.cli import (
    VersionMismatch,
    case_id,
    main,
    parse_action,
    parse_dual_module,
    verify_report,
)
from expansive.actions import WORD_BUDGET
from expansive.exact import ParseError, QMatrix, char_poly
from expansive.solenoid import ChainTable
from expansive.spectral import unit_disk_profile

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(expansive.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_case(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# --- case file parsing ---


def test_parse_action_reads_rationals_and_mode():
    case = {"n": 2, "generators": {"g": [["1/2", 0], [0, 2]]}, "mode": "semigroup"}
    action = parse_action(case)
    assert action.mode == "semigroup"
    assert action.mats[0][0, 0] == Fraction(1, 2)


def test_parse_action_rejects_dimension_mismatch():
    case = {"n": 3, "generators": {"g": [[2]]}, "mode": "group"}
    with pytest.raises(ParseError):
        parse_action(case)


def test_parse_dual_module_requires_module_generators():
    with pytest.raises(ParseError):
        parse_dual_module({"n": 1, "generators": {"g": [[2]]}, "mode": "group"})


def test_case_id_is_order_insensitive():
    a = {"n": 1, "generators": {"g": [[2]]}, "mode": "group"}
    b = {"mode": "group", "generators": {"g": [[2]]}, "n": 1}
    assert case_id(a) == case_id(b)


# --- analyze-matrix ---


def test_analyze_matrix_doubling(capsys):
    code, rep = run(capsys, "analyze-matrix", "--mode", "semigroup", FIXTURES / "doubling.json")
    assert code == 0
    assert rep["expansive"] is True
    assert rep["profile"] == {"at_zero": 0, "inside": 0, "on_circle": 0, "outside": 1}
    assert rep["certificate"]["kind"] == "word_spectrum"


def test_analyze_matrix_cat_group_vs_semigroup(capsys):
    code, rep = run(capsys, "analyze-matrix", FIXTURES / "cat_map.json")
    assert (code, rep["expansive"]) == (0, True)
    code, rep = run(capsys, "analyze-matrix", "--mode", "semigroup", FIXTURES / "cat_map.json")
    assert (code, rep["expansive"]) == (0, False)
    assert rep["profile"] == {"at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}


def test_analyze_matrix_rejects_two_generators(capsys):
    code, rep = run(capsys, "analyze-matrix", FIXTURES / "sl2_generators.json")
    assert code == 1
    assert "error" in rep


def test_analyze_matrix_group_mode_rejects_singular(capsys, tmp_path):
    case = write_case(tmp_path, "singular.json", {"n": 1, "generators": {"g": [[0]]}, "mode": "group"})
    code, rep = run(capsys, "analyze-matrix", case)
    assert code == 1 and "error" in rep


# --- engine subcommands ---


def test_analyze_semigroup_cat_expansive(capsys):
    code, rep = run(capsys, "analyze-semigroup", FIXTURES / "cat_map.json")
    assert code == 0
    assert rep["status"] == "Expansive"
    assert rep["certificate"]["kind"] == "word_spectrum"


def test_analyze_semigroup_rotation_not_expansive(capsys):
    code, rep = run(capsys, "analyze-semigroup", FIXTURES / "rotation.json")
    assert code == 0
    assert rep["status"] == "NotExpansive"
    assert rep["witness"] is not None


def test_analyze_semigroup_shallow_depth_is_unknown(capsys):
    # length-1 words of the two standard generators all have unit-circle
    # spectrum and the action is irreducible, so depth 1 cannot decide
    code, rep = run(capsys, "analyze-semigroup", "--depth", "1", FIXTURES / "sl2_generators.json")
    assert code == 2
    assert rep["status"] == "Unknown"
    assert "certificate" not in rep


def test_find_expansive_on_commuting_diagonals(capsys, tmp_path):
    case = write_case(
        tmp_path,
        "diag.json",
        {"n": 2, "generators": {"g1": [[2, 0], [0, 1]], "g2": [[1, 0], [0, 2]]}, "mode": "group"},
    )
    code, rep = run(capsys, "find-expansive", case)
    assert code == 0
    assert rep["found"] is True
    assert 1 <= len(rep["word"]) <= 64


def test_torus_check_cat_by_word_spectrum(capsys):
    code, rep = run(capsys, "torus-check", FIXTURES / "cat_map.json")
    assert code == 0
    assert rep["status"] == "Expansive"
    assert rep["certificate"]["kind"] == "word_spectrum"


def test_torus_check_sl2_fast_path(capsys):
    # two generators span the full matrix algebra, one word has infinite order
    code, rep = run(capsys, "torus-check", FIXTURES / "sl2_generators.json")
    assert code == 0
    assert rep["status"] == "Expansive"
    assert rep["evidence"]["route"] == "irreducible-fast-path"


def test_torus_check_optional_grid_oracle(capsys):
    code, rep = run(
        capsys, "torus-check", FIXTURES / "cat_map.json", "--radius", "5", "--epsilon", "1/4"
    )
    assert code == 0
    assert rep["evidence"]["grid_oracle"]["separated"] is True


def test_torus_check_rejects_fractional_entries(capsys, tmp_path):
    case = write_case(tmp_path, "frac.json", {"n": 1, "generators": {"g": [["1/2"]]}, "mode": "group"})
    code, rep = run(capsys, "torus-check", case)
    assert code == 1 and "error" in rep


def test_jsr_single_matrix_brackets_spectral_radius(capsys):
    code, rep = run(capsys, "jsr", "--mode", "semigroup", FIXTURES / "doubling.json")
    assert code == 0
    assert rep["bounds"]["lower"] <= rep["bounds"]["upper"]
    assert rep["bounds"]["lower"] == pytest.approx(2.0)


def test_jsr_refuses_a_branch_level_past_its_cap():
    # affine_sl2 in group mode has 8 letters: depth 6 forms 51,080 products at
    # its widest level, and level 7 would form 238,448
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "expansive", "jsr", str(FIXTURES / "affine_sl2.json"), "--depth", "10"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    error = json.loads(done.stdout)["error"]
    assert error["type"] == "CapExceededError" and "JSR_BRANCH_CAP = 100000" in error["message"]
    assert "Traceback" not in done.stderr


# --- solenoid subcommands ---


def test_solenoid_chain_dyadic(capsys):
    code, rep = run(capsys, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    assert code == 0
    assert rep["k"] == 3
    assert rep["verified"] is True
    assert ChainTable.from_json(rep["chain"]).verify()


def dyadic_window(tmp_path, chain_rep, p):
    chars = sorted({tuple(c) for lvl in chain_rep["chain"]["levels"] for c in lvl})
    window = [{"character": list(c), "mid": str(Fraction(c[0]) * p)} for c in chars]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(window))
    return path


def test_solenoid_lift_roundtrip(capsys, tmp_path):
    _, chain_rep = run(capsys, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    window = dyadic_window(tmp_path, chain_rep, Fraction(1, 1024))
    code, rep = run(
        capsys,
        "solenoid-lift",
        FIXTURES / "dyadic_solenoid.json",
        "--window",
        window,
        "--radius",
        "3/10",
    )
    assert code == 0
    entry = rep["lifts"][0]
    assert entry["lifted"] is True
    values = {tuple(v["character"]): v for v in entry["values"]}
    for chi, v in values.items():
        assert Fraction(v["mid"]) == Fraction(chi[0]) * Fraction(1, 1024)
        assert Fraction(v["rad"]) < Fraction(1, 2**40)


def test_solenoid_lift_out_of_range_is_decisive(capsys, tmp_path):
    _, chain_rep = run(capsys, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    window = dyadic_window(tmp_path, chain_rep, Fraction(3, 100))
    code, rep = run(
        capsys,
        "solenoid-lift",
        FIXTURES / "dyadic_solenoid.json",
        "--window",
        window,
        "--radius",
        "3/10",
    )
    assert code == 0
    assert rep["lifts"][0]["lifted"] is False


def test_solenoid_check_dyadic_expansive(capsys):
    code, rep = run(capsys, "solenoid-check", FIXTURES / "dyadic_solenoid.json")
    assert code == 0
    assert rep["status"] == "Expansive"
    assert rep["evidence"]["finitely_generated"] == "by presentation"


def test_solenoid_check_identity_not_expansive(capsys, tmp_path):
    case = write_case(
        tmp_path, "fixed.json", {"n": 1, "F": [[1]], "generators": {"g": [[1]]}, "mode": "group"}
    )
    code, rep = run(capsys, "solenoid-check", case)
    assert code == 0
    assert rep["status"] == "NotExpansive"
    assert rep["witness"] is not None


# --- the verifier ---


def report_for(capsys, tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([str(a) for a in argv] + ["--out", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text()), out


def test_verify_accepts_engine_report(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
    code, out = run(capsys, "verify", path, FIXTURES / "cat_map.json")
    assert code == 0
    assert out["verified"] is True


def test_verify_accepts_affine_obstruction(capsys, tmp_path):
    _, rep, path = report_for(
        capsys, tmp_path, "analyze-semigroup", "--depth", "8", FIXTURES / "affine_sl2.json"
    )
    assert rep["certificate"]["kind"] == "affine_obstruction"
    code, out = run(capsys, "verify", path, FIXTURES / "affine_sl2.json")
    assert code == 0 and out["verified"] is True


def test_verify_accepts_torus_fast_path(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "torus-check", FIXTURES / "sl2_generators.json")
    assert rep["certificate"]["kind"] == "irreducible_fast_path"
    code, out = run(capsys, "verify", path, FIXTURES / "sl2_generators.json")
    assert code == 0 and out["verified"] is True


def test_verify_accepts_solenoid_reports(capsys, tmp_path):
    for command, fixture in [
        ("solenoid-chain", "dyadic_solenoid.json"),
        ("solenoid-check", "dyadic_solenoid.json"),
    ]:
        _, rep, path = report_for(capsys, tmp_path, command, FIXTURES / fixture)
        code, out = run(capsys, "verify", path, FIXTURES / fixture)
        assert (code, out["verified"]) == (0, True), command


def test_verify_rejects_tampered_witness(capsys, tmp_path):
    case = write_case(
        tmp_path, "stretch.json", {"n": 2, "generators": {"g": [[2, 0], [0, 1]]}, "mode": "group"}
    )
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", case)
    assert rep["witness"] == ["0", "1"]
    bad = copy.deepcopy(rep)
    bad["witness"] = ["1", "0"]  # eigenvector of 2, not of the unit eigenvalue
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out = run(capsys, "verify", bad_path, case)
    assert code == 1
    assert out["verified"] is False


def test_verify_rejects_tampered_relation(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    bad = copy.deepcopy(rep)
    bad["chain"]["relations"][0]["n0"] += 1
    bad_path = tmp_path / "bad_chain.json"
    bad_path.write_text(json.dumps(bad))
    code, out = run(capsys, "verify", bad_path, FIXTURES / "dyadic_solenoid.json")
    assert code == 1 and out["verified"] is False


def test_verify_rejects_a_chain_of_another_module(capsys, tmp_path):
    # the sixth_solenoid chain's relations hold, but 3, 1/3, 6, ... are not dyadic characters
    _, rep, path = report_for(capsys, tmp_path, "solenoid-chain", FIXTURES / "sixth_solenoid.json")
    assert rep["verified"] is True
    rep["case"] = case_id(json.loads((FIXTURES / "dyadic_solenoid.json").read_text()))
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, FIXTURES / "dyadic_solenoid.json")
    assert (code, out["verified"]) == (1, False)


@pytest.mark.parametrize("fixture", ["dyadic_solenoid", "sixth_solenoid"])
def test_verify_accepts_chain_and_lift_reports_of_both_solenoids(capsys, tmp_path, fixture):
    case = FIXTURES / f"{fixture}.json"
    _, chain_rep, chain_path = report_for(capsys, tmp_path, "solenoid-chain", case, "--depth", "2")
    # the window of the functional x -> x/4096 on every chain character
    window = tmp_path / "window.json"
    chars = chain_rep["chain"]["levels"][-1]
    window.write_text(json.dumps([{"character": chi, "mid": str(Fraction(chi[0]) / 4096 % 1)} for chi in chars]))
    lift_path = tmp_path / "lift.json"
    code = main(["solenoid-lift", str(case), "--chain", str(chain_path), "--window", str(window), "--out", str(lift_path)])
    capsys.readouterr()
    assert code == 0 and json.loads(lift_path.read_text())["lifts"][0]["lifted"] is True
    for path in (chain_path, lift_path):
        code, out = run(capsys, "verify", path, case)
        assert (code, out["verified"]) == (0, True), path.name


def test_verify_refuses_a_vacuous_or_stray_relation(capsys, tmp_path):
    # 0 * target = 0 holds for any target, and the lift's forcing step divides
    # by n0; a relation of no new character is no relation of the chain
    case = FIXTURES / "dyadic_solenoid.json"
    _, rep, path = report_for(capsys, tmp_path, "solenoid-chain", case, "--depth", "4")
    for rel in rep["chain"]["relations"]:
        rel.update(n0=0, terms=[])
    rep["k"] = rep["chain"]["k"] = 1
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (1, False)
    code = main(["solenoid-lift", str(case), "--chain", str(path), "--window", str(FIXTURES / "dyadic_window.json")])
    out, err = capsys.readouterr()
    assert code == 1 and json.loads(out)["error"]["type"] == "ParseError"
    assert "Traceback" not in err
    _, rep, path = report_for(
        capsys, tmp_path, "solenoid-lift", case, "--window", FIXTURES / "dyadic_window.json", "--radius", "3/10"
    )
    rep["chain"]["relations"].append({"target": ["1000"], "n0": 1, "terms": []})
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (1, False)


@pytest.mark.parametrize("command", ["made-up", "verify", None, ["analyze-semigroup"]])
def test_verify_refuses_a_report_of_no_subcommand(capsys, tmp_path, command):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
    path.write_text(json.dumps({**rep, "command": command}))
    code, out = run(capsys, "verify", path, FIXTURES / "cat_map.json")
    assert code == 1 and out["verified"] is False


def test_verify_rejects_wrong_case(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
    code, out = run(capsys, "verify", path, FIXTURES / "rotation.json")
    assert code == 1 and out["verified"] is False


def test_verify_reports_version_mismatch(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
    rep["tool"]["version"] = "9.9.9"
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, FIXTURES / "cat_map.json")
    assert code == 1
    assert out["error"]["type"] == "VersionMismatch"


def test_verify_report_function_raises_on_version(tmp_path):
    rep = {"tool": {"version": "0.0.0"}}
    with pytest.raises(VersionMismatch):
        verify_report(rep, {"n": 1, "generators": {"g": [[2]]}, "mode": "group"})


def _flip_status(rep):
    rep["status"] = {"Expansive": "NotExpansive", "NotExpansive": "Expansive"}[rep["status"]]


def _obstruction_on_s(rep):
    rep["status"] = "NotExpansive"
    rotation = {"at_zero": 0, "inside": 0, "on_circle": 2, "outside": 0}
    rep["certificate"] = {"kind": "spectral_obstruction", "word": ["s"], "profile": rotation}


@pytest.mark.parametrize(
    "fixture, forge",
    [("cat_map", _flip_status), ("rotation", _flip_status), ("sl2_generators", _obstruction_on_s)],
    ids=["cat-map-flipped", "rotation-flipped", "sl2-obstruction-on-s"],
)
def test_verify_rejects_a_certificate_of_the_other_status(capsys, tmp_path, fixture, forge):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / f"{fixture}.json")
    forge(rep)
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, FIXTURES / f"{fixture}.json")
    assert (code, out["verified"]) == (1, False)


# the fixtures whose one-word reports exit 0 or 2, rather than refuse the case
ONE_WORD_FIXTURES = {
    "analyze-matrix": ["cat_map", "doubling", "dyadic_solenoid", "rotation"],
    "find-expansive": ["cat_map", "dyadic_solenoid", "rotation", "sixth_solenoid"],
}


@pytest.mark.parametrize(
    "command, fixture", [(c, f) for c, fixtures in ONE_WORD_FIXTURES.items() for f in fixtures]
)
def test_honest_one_word_reports_verify(capsys, tmp_path, command, fixture):
    case = FIXTURES / f"{fixture}.json"
    code, rep, path = report_for(capsys, tmp_path, command, case)
    assert code in (0, 2)
    if command == "find-expansive" and rep["found"]:
        matrix = QMatrix.from_json(rep["matrix"])
        assert rep["certificate"]["profile"] == unit_disk_profile(char_poly(matrix)).to_json()
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (0, True)


def test_verify_rejects_a_find_expansive_report_of_a_non_commuting_action(capsys, tmp_path):
    # cat and a shear do not commute, so find-expansive refuses the case
    case = write_case(tmp_path, "pair.json", {"n": 2, "generators": {"a": [[2, 1], [1, 1]], "b": [[1, 1], [0, 1]]}})
    assert main(["find-expansive", str(case)]) == 1
    # an honest engine report, relabelled find-expansive
    code, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", case)
    assert code == 0 and rep["certificate"]["word"] == ["a"]
    assert verify_report(rep, json.loads(case.read_text())) is True
    rep.update(command="find-expansive", found=True, word=["a"], matrix=[["2", "1"], ["1", "1"]])
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (1, False)


@pytest.mark.parametrize("fixture, pairs", [("sixth_solenoid", 1), ("cat_map", 0)])
def test_verify_of_find_expansive_tests_each_pair_of_generators_once(capsys, tmp_path, monkeypatch, fixture, pairs):
    # the inverse letters of group mode commute when their generators do, so
    # two generators form one pair to test, not the 6 pairs of their 4 letters
    case = FIXTURES / f"{fixture}.json"
    code, rep, path = report_for(capsys, tmp_path, "find-expansive", case)
    assert (code, rep["found"]) == (0, True)
    formed = []
    original = certificates.combinations

    def counted(items, r):
        for pair in original(items, r):
            formed.append(pair)
            yield pair

    monkeypatch.setattr(certificates, "combinations", counted)
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"], len(formed)) == (0, True, pairs)


def _two_generator_matrix_report(rep):
    # an honest find-expansive report of two generators, relabelled a one-generator command
    rep.update(command="analyze-matrix", expansive=True, profile=rep["certificate"]["profile"])


@pytest.mark.parametrize(
    "command, fixture, forge",
    [
        ("find-expansive", "cat_map", lambda rep: rep.update(matrix=[[9, 9], [9, 9]])),
        ("find-expansive", "cat_map", lambda rep: rep.update(word=["cat", "cat", "nope"])),
        ("find-expansive", "cat_map", lambda rep: rep.update(word=["cat", "cat"], matrix=[[5, 3], [3, 2]])),
        ("find-expansive", "cat_map", lambda rep: rep.update(found=False)),
        ("find-expansive", "cat_map", lambda rep: rep.pop("matrix")),
        ("find-expansive", "dyadic_solenoid", lambda rep: rep["options"].update(mode="semigroup")),
        ("analyze-matrix", "doubling", lambda rep: rep.update(expansive=False)),
        ("analyze-matrix", "rotation", lambda rep: rep.update(expansive=True)),
        ("analyze-matrix", "doubling", lambda rep: rep["profile"].update(outside=0, inside=1)),
        ("analyze-matrix", "doubling", lambda rep: rep.pop("profile")),
        ("find-expansive", "sixth_solenoid", _two_generator_matrix_report),
    ],
    ids=["fe-matrix", "fe-word", "fe-word-and-matrix", "fe-not-found", "fe-no-matrix", "fe-semigroup-mode",
         "am-expansive-false", "am-rotation-expansive", "am-profile", "am-no-profile", "am-two-generators"],
)
def test_verify_rejects_forged_top_level_fields(capsys, tmp_path, command, fixture, forge):
    case = FIXTURES / f"{fixture}.json"
    code, rep, path = report_for(capsys, tmp_path, command, case)
    assert code == 0 and verify_report(rep, json.loads(case.read_text())) is True
    forge(rep)
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (1, False)


@pytest.mark.parametrize(
    "case, error",
    [
        (json.loads((FIXTURES / "doubling.json").read_text()), "NotUnimodularError"),
        ({"n": 1, "generators": {"h": [["3/2"]]}, "mode": "group"}, "NonIntegerEntriesError"),
        # a given generator named like an inverse letter is checked too
        ({"n": 1, "generators": {"a^-1": [[2]]}, "mode": "group"}, "NotUnimodularError"),
        ({"n": 2, "generators": {"b^-1": [["1/2", 0], [0, 3]]}, "mode": "group"}, "NonIntegerEntriesError"),
    ],
    ids=["doubling-not-unimodular", "three-halves-not-integer", "inverse-named-not-unimodular",
         "inverse-named-not-integer"],
)
def test_verify_refuses_a_torus_check_report_that_torus_check_refuses(capsys, tmp_path, case, error):
    path = write_case(tmp_path, "case.json", case)
    code, rep = run(capsys, "torus-check", path, "--mode", "group")
    assert (code, rep["error"]["type"]) == (1, error)
    # an honest group-mode engine report, relabelled torus-check
    code, rep, report = report_for(capsys, tmp_path, "analyze-semigroup", path, "--mode", "group")
    assert code == 0 and verify_report(rep, case) is True
    rep["command"] = "torus-check"
    report.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", report, path)
    assert (code, out["verified"]) == (1, False)


def _forged_jsr_bounds(rep):
    # the joint spectral radius of the cat map is about 2.618
    rep["bounds"] = {"lower": 0.0, "upper": 0.5}


@pytest.mark.parametrize(
    "argv, forge",
    [
        (["jsr", FIXTURES / "cat_map.json"], _forged_jsr_bounds),
        (["jsr", FIXTURES / "cat_map.json"], lambda rep: None),
        (["analyze-semigroup", "--depth", "1", FIXTURES / "sl2_generators.json"], lambda rep: None),
    ],
    ids=["jsr-forged-bounds", "jsr", "unknown"],
)
def test_verify_says_that_it_checked_nothing_exact_in_a_report_that_claims_nothing_exact(
    capsys, tmp_path, argv, forge
):
    _, rep, path = report_for(capsys, tmp_path, *argv)
    assert "status" not in rep or rep["status"] == "Unknown"
    forge(rep)
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, argv[-1])
    assert code == 0 and (out["verified"], out["checked_exactly"]) == (True, False)


@pytest.mark.parametrize("status", ["Bogus", None, [], {"x": 1}, "absent"])
def test_verify_refuses_a_status_that_is_not_a_verdict(capsys, tmp_path, status):
    # an Unknown report claims nothing exact, so nothing but its status is checked
    case = FIXTURES / "sl2_generators.json"
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", case, "--mode", "semigroup")
    assert rep["status"] == "Unknown"
    if status == "absent":
        del rep["status"]
    else:
        rep["status"] = status
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, case)
    assert (code, out["error"]["type"]) == (1, "ParseError")


@pytest.mark.parametrize(
    "argv, status",
    [
        (["analyze-matrix", FIXTURES / "cat_map.json"], "Unknown"),
        (["find-expansive", FIXTURES / "cat_map.json"], "NotExpansive"),
        (["jsr", FIXTURES / "cat_map.json"], "Unknown"),
        (["jsr", FIXTURES / "cat_map.json"], None),
        (["solenoid-chain", FIXTURES / "dyadic_solenoid.json"], "Expansive"),
    ],
    ids=["analyze-matrix-unknown", "find-expansive-not-expansive", "jsr-unknown", "jsr-null", "chain-expansive"],
)
def test_verify_refuses_a_status_its_command_never_states(capsys, tmp_path, argv, status):
    _, rep, path = report_for(capsys, tmp_path, *argv)
    code, out = run(capsys, "verify", path, argv[-1])
    assert (code, out["verified"]) == (0, True)
    rep["status"] = status
    rep.pop("certificate", None)
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, argv[-1])
    assert (code, out["error"]["type"]) == (1, "ParseError")


def test_verify_stops_at_a_certificate_word_past_the_cap(capsys, tmp_path):
    # every power of the cat map is hyperbolic, so only the cap refuses the long word
    _, rep, path = report_for(capsys, tmp_path, "analyze-matrix", FIXTURES / "cat_map.json")
    for length, code, field in [(WORD_BUDGET, 0, "verified"), (WORD_BUDGET + 1, 2, "error")]:
        rep["certificate"]["word"] = ["cat"] * length
        path.write_text(json.dumps(rep))
        got, out = run(capsys, "verify", path, FIXTURES / "cat_map.json")
        assert (got, field in out) == (code, True)
    assert out["error"]["type"] == "CapExceededError"
    assert f"WORD_BUDGET = {WORD_BUDGET}" in out["error"]["message"]


def padded(x: str, length: int) -> str:
    """The rational string x written with leading zeros to ``length`` characters."""
    sign = "-" if x.startswith("-") else ""
    return sign + "0" * (length - len(x)) + x[len(sign) :]


ROTATION = ("analyze-semigroup", FIXTURES / "rotation.json")
AFFINE = ("analyze-semigroup", FIXTURES / "affine_sl2.json", "--depth", "8")
LIFT = (
    "solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", FIXTURES / "dyadic_window.json", "--radius", "3/10"
)


@pytest.mark.parametrize(
    "argv, entry",
    [
        (ROTATION, lambda rep: (rep["certificate"]["gram"][0], 0)),
        (ROTATION, lambda rep: (rep["certificate"]["space"][1], 1)),
        (ROTATION, lambda rep: (rep["witness"], 0)),
        (AFFINE, lambda rep: (rep["certificate"]["scalars"], "t_e1")),
        (LIFT, lambda rep: (rep["lifts"][0]["values"][-1], "mid")),
        (LIFT, lambda rep: (rep["lifts"][0], "bound")),
    ],
    ids=["gram", "space", "witness", "scalars", "lift-value", "lift-bound"],
)
def test_verify_stops_at_a_report_entry_past_the_cap(capsys, tmp_path, argv, entry):
    # leading zeros keep the number, so only the cap tells the two lengths apart
    from expansive.certificates import ENTRY_DIGITS

    _, rep, path = report_for(capsys, tmp_path, *argv)
    owner, key = entry(rep)
    for length, code, field in [(ENTRY_DIGITS, 0, "verified"), (ENTRY_DIGITS + 1, 2, "error")]:
        owner[key] = padded(owner[key], length)
        path.write_text(json.dumps(rep))
        got, out = run(capsys, "verify", path, argv[1])
        assert (got, field in out) == (code, True)
    assert out["error"]["type"] == "CapExceededError"
    assert f"ENTRY_DIGITS = {ENTRY_DIGITS}" in out["error"]["message"]


@pytest.mark.parametrize("entry", ["1e1000000", "-2.5E-5000", "1_0e99_9", 10**1000])
def test_verify_stops_at_a_short_entry_that_writes_a_long_number(capsys, tmp_path, entry):
    # an exponent writes a number far longer than its text; a JSON integer is counted in digits
    _, rep, path = report_for(capsys, tmp_path, *ROTATION)
    rep["certificate"]["gram"][1][1] = entry
    path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify", path, ROTATION[1])
    assert (code, out["error"]["type"]) == (2, "CapExceededError")


def test_find_expansive_refuses_a_depth_past_the_word_cap(capsys, monkeypatch):
    from expansive import weights

    searched = []
    search = weights.find_expansive_element
    monkeypatch.setattr(weights, "find_expansive_element", lambda *a, **k: searched.append(1) or search(*a, **k))
    code, out = run(capsys, "find-expansive", FIXTURES / "cat_map.json", "--depth", WORD_BUDGET + 1)
    assert (code, out["error"]["type"], searched) == (1, "UsageError", [])
    assert f"WORD_BUDGET = {WORD_BUDGET}" in out["error"]["message"]
    code, out = run(capsys, "find-expansive", FIXTURES / "cat_map.json", "--depth", WORD_BUDGET)
    assert (code, out["status"], out["options"]["depth"], searched) == (0, "Expansive", WORD_BUDGET, [1])


def test_verify_of_a_decisive_report_adds_no_field(capsys, tmp_path):
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
    code, out = run(capsys, "verify", path, FIXTURES / "cat_map.json")
    assert code == 0 and "checked_exactly" not in out
    assert list(out)[-3:] == ["verified", "checked_command", "timings"]


@pytest.mark.parametrize("command", ["solenoid-chain", "solenoid-lift"])
def test_verify_of_a_report_without_a_chain_is_a_parse_error(capsys, tmp_path, command):
    case = FIXTURES / "dyadic_solenoid.json"
    window = ["--window", FIXTURES / "dyadic_window.json"] if command == "solenoid-lift" else []
    _, rep, path = report_for(capsys, tmp_path, command, case, *window)
    del rep["chain"]
    path.write_text(json.dumps(rep))
    code = main(["verify", str(path), str(case)])
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert (code, error["type"]) == (1, "ParseError") and "'chain'" in error["message"]
    assert "Traceback" not in err


def test_unknown_report_carries_no_certificate_and_verifies(capsys, tmp_path):
    _, rep, path = report_for(
        capsys, tmp_path, "analyze-semigroup", "--depth", "1", FIXTURES / "sl2_generators.json"
    )
    assert "certificate" not in rep
    code, out = run(capsys, "verify", path, FIXTURES / "sl2_generators.json")
    assert code == 0 and out["verified"] is True


# --- plumbing ---


CLASHING_INVERSE = {"n": 1, "generators": {"a": [[2]], "a^-1": [[3]]}, "mode": "group"}


def test_a_case_whose_inverse_name_clashes_is_refused(capsys, tmp_path):
    code, rep = run(capsys, "analyze-semigroup", write_case(tmp_path, "clash.json", CLASHING_INVERSE))
    assert code == 1
    assert rep["error"]["type"] == "ValueError" and "'a^-1'" in rep["error"]["message"]


def test_verify_refuses_a_case_whose_inverse_name_clashes(capsys, tmp_path):
    # the word a escapes, so the certificate is true of the matrix the case names a
    report = {
        "case": case_id(CLASHING_INVERSE),
        "command": "analyze-semigroup",
        "tool": {"name": "expansive", "version": expansive.__version__},
        "options": {"mode": "group"},
        "status": "Expansive",
        "certificate": {
            "kind": "word_spectrum",
            "word": ["a"],
            "profile": {"at_zero": 0, "inside": 0, "on_circle": 0, "outside": 1},
        },
    }
    path = write_case(tmp_path, "report.json", report)
    code, rep = run(capsys, "verify", path, write_case(tmp_path, "clash.json", CLASHING_INVERSE))
    assert code == 1
    assert rep["error"]["type"] == "ValueError" and "'a^-1'" in rep["error"]["message"]


def test_a_case_that_gives_a_true_inverse_verifies(capsys, tmp_path):
    case = write_case(tmp_path, "honest.json", {"n": 1, "generators": {"a": [[2]], "a^-1": [["1/2"]]}, "mode": "group"})
    code, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", case)
    assert (code, rep["status"]) == (0, "Expansive")
    code, out = run(capsys, "verify", path, case)
    assert (code, out["verified"]) == (0, True)


def test_missing_file_is_input_error(capsys):
    code, rep = run(capsys, "analyze-semigroup", "/nonexistent/case.json")
    assert code == 1 and "error" in rep


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, rep = run(capsys, "analyze-semigroup", path)
    assert code == 1
    assert rep["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-semigroup", FIXTURES / "dyadic_window.json"],
        ["verify", "LIST", FIXTURES / "doubling.json"],
        ["verify", "OBJECT", "LIST"],
        ["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--chain", "LIST",
         "--window", FIXTURES / "dyadic_window.json"],
        # a report field that must be an object
        ["verify", "TOOL", FIXTURES / "doubling.json"],
        ["verify", "OPTIONS", FIXTURES / "doubling.json"],
    ],
    ids=["case", "verify-report", "verify-case", "lift-chain", "report-tool", "report-options"],
)
def test_json_that_is_not_an_object_is_a_parse_error(tmp_path, argv):
    files = {
        "LIST": write_case(tmp_path, "list.json", [1, 2]),
        "OBJECT": write_case(tmp_path, "object.json", {}),
        "TOOL": write_case(tmp_path, "tool.json", {"tool": 3}),
        "OPTIONS": write_case(tmp_path, "options.json", {"tool": {"version": expansive.__version__}, "options": 5}),
    }
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "expansive", *(str(files.get(a, a)) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout)["error"]["type"] == "ParseError"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "fields",
    [
        {"F": 7},
        {"F": []},
        {"F": [1]},
        {"F": [[1, 2]]},
        {"F": [[1], [2, 3]]},
        {"F": {"a": [1]}},
        {"F": [[1.5]]},
        {"F": [["x"]]},
        {"F": [[None]]},
        {"n": "1"},
        {"n": 0},
        {"n": True},
        {"n": [1]},
    ],
    ids=["F-int", "F-empty", "F-flat", "F-row-too-long", "F-ragged", "F-object", "F-float", "F-word",
         "F-null", "n-string", "n-zero", "n-bool", "n-list"],
)
@pytest.mark.parametrize("command", ["solenoid-check", "solenoid-chain"])
def test_a_malformed_solenoid_case_is_a_parse_error(capsys, tmp_path, command, fields):
    case = write_case(tmp_path, "case.json", {"n": 1, "generators": {"g": [[2]]}, "mode": "group", "F": [[1]], **fields})
    code = main([command, str(case)])
    out, err = capsys.readouterr()
    assert code == 1 and json.loads(out)["error"]["type"] == "ParseError"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "window",
    [
        [{"mid": "1/3"}],
        [5],
        [{"character": ["1"]}],
        [{"character": 5, "mid": "0"}],
        [{"character": ["1"], "mid": "1/64", "rad": "1/64"}, {"character": ["2"], "mid": "1/32", "rad": "-1/2"}],
    ],
    ids=["no-character", "not-an-object", "no-mid", "character-not-a-list", "negative-rad"],
)
def test_a_malformed_window_is_a_parse_error(capsys, tmp_path, window):
    path = write_case(tmp_path, "window.json", window)
    code = main(["solenoid-lift", str(FIXTURES / "dyadic_solenoid.json"), "--window", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and json.loads(out)["error"]["type"] == "ParseError"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "chain",
    [
        {},
        5,
        {"levels": [[["1"]]], "k": 3},
        {"levels": [[5]], "k": 3, "relations": []},
        {"levels": [[["1"]]], "k": "3", "relations": []},
        {"levels": [[["1"]], [["1"], ["2"]]], "k": 3, "relations": [{"target": ["2"], "n0": 1, "terms": [{"coef": 2}]}]},
        # well-formed, but not a chain a lift can use
        {"levels": [], "k": 1, "relations": []},
        {"levels": [[["1"]]], "k": 0, "relations": []},
        {"levels": [[["1"]], [["1"], ["2"]]], "k": 3, "relations": []},
        {"levels": [[["1"]], [["1"], ["2"]]], "k": 1, "relations": [{"target": ["2"], "n0": 0, "terms": []}]},
        {"levels": [[["1"]], [["1"], ["2"]]], "k": 3, "relations": [
            {"target": ["2"], "n0": 1, "terms": [{"coef": 2, "character": ["1"]}]},
            {"target": ["1"], "n0": 1, "terms": [{"coef": 1, "character": ["1"]}]},
        ]},
        {"levels": [[["1"]], [["1"], ["2"]]], "k": 3, "relations": [
            {"target": ["2"], "n0": 1, "terms": [{"coef": 2, "character": ["1", "0"]}]},
        ]},
    ],
    ids=["empty", "not-an-object", "no-relations", "character-not-a-list", "k-string", "term-no-character",
         "no-levels", "k-zero", "missing-relation", "n0-zero", "relation-of-an-old-character", "term-of-two-entries"],
)
def test_a_malformed_chain_file_is_a_parse_error(capsys, tmp_path, chain):
    path = write_case(tmp_path, "chain.json", {"chain": chain})
    code = main(["solenoid-lift", str(FIXTURES / "dyadic_solenoid.json"), "--chain", str(path),
                 "--window", str(FIXTURES / "dyadic_window.json")])
    out, err = capsys.readouterr()
    assert code == 1 and json.loads(out)["error"]["type"] == "ParseError"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda lifts: 5, "'lifts'"),
        (lambda lifts: [5], "'lifts'"),
        (lambda lifts: [{**lifts[0], "values": [5]}], "'values'"),
        (lambda lifts: [{**lifts[0], "values": 5}], "'values'"),
        (lambda lifts: [{**lifts[0], "values": [{"character": ["1"], "mid": "0"}]}], "'values'"),
        (lambda lifts: [{k: v for k, v in lifts[0].items() if k != "bound"}], "'bound'"),
    ],
    ids=["lifts-not-a-list", "lift-not-an-object", "value-not-an-object", "values-not-a-list", "value-no-rad",
         "no-bound"],
)
def test_verify_of_malformed_lifts_is_a_parse_error(capsys, tmp_path, mangle, field):
    case = FIXTURES / "dyadic_solenoid.json"
    _, rep, path = report_for(
        capsys, tmp_path, "solenoid-lift", case, "--window", FIXTURES / "dyadic_window.json", "--radius", "3/10"
    )
    assert rep["lifts"][0]["lifted"] is True
    rep["lifts"] = mangle(rep["lifts"])
    path.write_text(json.dumps(rep))
    code = main(["verify", str(path), str(case)])
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert (code, error["type"]) == (1, "ParseError") and field in error["message"]
    assert "Traceback" not in err


def test_out_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["analyze-matrix", "--mode", "semigroup", str(FIXTURES / "doubling.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(out.read_text())["status"] == "Expansive"
    assert "analyze-matrix" in captured.err


def test_reports_are_deterministic_modulo_timings(capsys, tmp_path):
    reps = []
    for _ in range(2):
        _, rep, _ = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "cat_map.json")
        rep.pop("timings", None)
        reps.append(rep)
    assert reps[0] == reps[1]


def test_lift_of_two_windows_reports_both_and_its_chain_options(capsys, tmp_path):
    _, chain_rep = run(capsys, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    w1 = dyadic_window(tmp_path, chain_rep, Fraction(1, 1024))
    w2 = tmp_path / "w2.json"
    w2.write_text(
        json.dumps(
            [
                {"character": list(c), "mid": str(Fraction(c[0]) * Fraction(1, 4096))}
                for c in sorted({tuple(ch) for lvl in chain_rep["chain"]["levels"] for ch in lvl})
            ]
        )
    )
    code, rep = run(
        capsys, "solenoid-lift", FIXTURES / "dyadic_solenoid.json",
        "--window", w1, "--window", w2, "--radius", "3/10",
    )
    assert code == 0
    assert rep["options"] == {"depth": 4, "kmax": 64, "radius": "3/10", "precision": 60}
    assert rep["chain"] == chain_rep["chain"]
    for entry, p in zip(rep["lifts"], (Fraction(1, 1024), Fraction(1, 4096))):
        assert entry["lifted"] is True
        for v in entry["values"]:
            assert Fraction(v["mid"]) == Fraction(v["character"][0]) * p


def test_lift_reusing_a_chain_records_no_chain_options(capsys, tmp_path):
    _, chain_rep, chain_path = report_for(capsys, tmp_path, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    window = dyadic_window(tmp_path, chain_rep, Fraction(1, 1024))
    code, rep = run(
        capsys, "solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--chain", chain_path, "--window", window
    )
    assert code == 0
    assert rep["options"] == {"mode": chain_rep["options"]["mode"], "radius": "1/6", "precision": 60}


def test_lift_through_a_chain_of_another_mode_verifies(capsys, tmp_path):
    # doubling is a semigroup case; its group-mode chain has the characters 1/2 and 1/4
    case = FIXTURES / "doubling.json"
    _, chain_rep, chain_path = report_for(capsys, tmp_path, "solenoid-chain", case, "--mode", "group", "--depth", "2")
    chars = sorted({tuple(c) for lvl in chain_rep["chain"]["levels"] for c in lvl}, key=lambda c: Fraction(c[0]))
    assert [Fraction(c[0]) for c in chars] == [Fraction(1, 4), Fraction(1, 2), 1, 2, 4]
    # the window of the functional x -> x/100
    window = write_case(
        tmp_path, "window.json", [{"character": list(c), "mid": str(Fraction(c[0]) / 100)} for c in chars]
    )
    lift_path = tmp_path / "lift.json"
    code = main(["solenoid-lift", str(case), "--chain", str(chain_path), "--window", str(window),
                 "--out", str(lift_path)])
    capsys.readouterr()
    lift_rep = json.loads(lift_path.read_text())
    assert code == 0 and lift_rep["lifts"][0]["lifted"] is True
    assert lift_rep["options"]["mode"] == "group"
    code, out = run(capsys, "verify", lift_path, case)
    assert (code, out["verified"]) == (0, True)
    chain_rep["options"]["mode"] = "bogus"
    chain_path.write_text(json.dumps(chain_rep))
    code, out = run(capsys, "solenoid-lift", case, "--chain", chain_path, "--window", window)
    assert (code, out["error"]["type"]) == (1, "InvalidModeError")


@pytest.mark.parametrize("flag", [["--depth", "9"], ["--kmax", "1"], ["--mode", "semigroup"]], ids=lambda f: f[0])
def test_lift_refuses_chain_flags_alongside_a_chain(capsys, tmp_path, flag):
    _, chain_rep, chain_path = report_for(capsys, tmp_path, "solenoid-chain", FIXTURES / "dyadic_solenoid.json")
    window = dyadic_window(tmp_path, chain_rep, Fraction(1, 1024))
    code, rep = run(
        capsys, "solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--chain", chain_path, "--window", window, *flag
    )
    assert (code, rep["error"]["type"]) == (1, "UsageError")


def test_kmax_zero_is_honoured_by_chain_and_lift(capsys, tmp_path):
    # every relation costs at least 1, so a cap of 0 is a cap error (exit 2)
    window = tmp_path / "window.json"
    window.write_text("[]")
    for command, *extra in (["solenoid-chain"], ["solenoid-lift", "--window", window]):
        code, rep = run(capsys, command, FIXTURES / "dyadic_solenoid.json", "--kmax", "0", *extra)
        assert (code, rep["error"]["type"]) == (2, "KExceededError"), command


def test_a_grid_past_its_cap_is_a_cap_error(capsys):
    # 10000^2 grid states exceed GRID_STATE_CAP before any is visited
    code, rep = run(capsys, "torus-check", FIXTURES / "cat_map.json", "--epsilon", "1/5", "--radius", "10000")
    assert (code, rep["error"]["type"]) == (2, "GridTooLargeError")


def big_prime_rotation(tmp_path, q):
    # g has characteristic polynomial x^2 + 1/q, so q x^2 + 1 in integers:
    # its roots lie inside the unit disk, and the rational root test
    # factors q by trial division
    return write_case(tmp_path, f"rotation_{q}.json", {"n": 2, "generators": {"g": [[0, f"-1/{q}"], [1, 0]]}})


@pytest.mark.parametrize("q", [1000000000039, 10000000000037])
def test_the_engine_answers_past_the_trial_division_cap(capsys, tmp_path, q):
    # q = 10^12 + 39 is a prime that trial division up to the cap tells; at
    # q = 10^13 + 37 the cap stops it, and the witness search of the single
    # spectrum gives up, while the bounded subspace still decides
    case = big_prime_rotation(tmp_path, q)
    code, rep = run(capsys, "analyze-semigroup", "--mode", "semigroup", case)
    assert (code, rep["status"], rep["evidence"]["route"]) == (0, "NotExpansive", "bounded-subspace")
    assert verify_report(rep, json.loads(case.read_text())) is True


def test_a_weight_decomposition_past_the_trial_division_cap_is_a_cap_error(capsys, tmp_path):
    # the primary blocks need the rational roots, so there the cap ends the run
    code, rep = run(capsys, "find-expansive", big_prime_rotation(tmp_path, 10000000000037))
    assert (code, rep["error"]["type"]) == (2, "CapExceededError")
    assert "TRIAL_DIVISION_CAP" in rep["error"]["message"]


def coarse_window(tmp_path):
    # without their radii the window's entries get radius 2^-0 = 1, too wide to place any value
    entries = json.loads((FIXTURES / "dyadic_window.json").read_text())
    return write_case(tmp_path, "coarse.json", [{k: v for k, v in e.items() if k != "rad"} for e in entries])


def test_a_window_too_coarse_to_lift_is_a_cap_error(capsys, tmp_path):
    code, rep = run(
        capsys, "solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", coarse_window(tmp_path),
        "--precision", "0",
    )
    # reported like a refusal, but the window stays open: exit 2
    assert code == 2 and "error" not in rep
    [entry] = rep["lifts"]
    assert entry["lifted"] is False and "cannot be placed" in entry["reason"]


def test_a_capped_window_keeps_the_lifts_of_the_others(capsys, tmp_path):
    window = FIXTURES / "dyadic_window.json"
    code, rep, path = report_for(
        capsys, tmp_path, "solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", window,
        "--window", coarse_window(tmp_path), "--precision", "0", "--radius", "3/10",
    )
    assert code == 2
    assert [entry["lifted"] for entry in rep["lifts"]] == [True, False]
    code, out = run(capsys, "verify", path, FIXTURES / "dyadic_solenoid.json")
    assert code == 0 and out["verified"] is True


# --- usage errors ---


@pytest.mark.parametrize(
    "argv",
    [
        ["jsr", FIXTURES / "cat_map.json", "--depth", "abc"],
        ["jsr", FIXTURES / "cat_map.json", "--depth", "0"],
        ["analyze-semigroup", FIXTURES / "cat_map.json", "--no-such-flag"],
        ["verify", FIXTURES / "cat_map.json", FIXTURES / "cat_map.json", "--threads", "9"],
        ["verify", FIXTURES / "cat_map.json", FIXTURES / "cat_map.json", "--kmax", "3"],
        ["analyze-matrix", FIXTURES / "cat_map.json", "--depth", "5"],
        ["no-such-subcommand", FIXTURES / "cat_map.json"],
        [],
        ["jsr", FIXTURES / "cat_map.json", "--epsilon", "nan"],
        ["jsr", FIXTURES / "cat_map.json", "--epsilon", "inf"],
        ["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--precision", "-5"],
    ],
    ids=["depth-abc", "depth-0", "unknown-flag", "threads", "kmax-on-verify",
         "depth-on-analyze-matrix", "unknown-subcommand", "no-subcommand",
         "epsilon-nan", "epsilon-inf", "precision-negative"],
)
def test_usage_errors_exit_1_with_a_json_error(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["error"]["type"] == "UsageError"


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
def test_chain_depth_zero_is_refused_with_and_without_asserts(optimize):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, *optimize, "-m", "expansive", "solenoid-chain", str(FIXTURES / "dyadic_solenoid.json"),
         "--depth", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "error" in json.loads(done.stdout)


@pytest.mark.parametrize("keep", [0, 300], ids=["closed-at-once", "closed-after-300-bytes"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze-matrix", "doubling.json"], 0),
        (["analyze-matrix", "sl2_generators.json"], 1),
        (["analyze-semigroup", "cat_map.json"], 0),
        (["analyze-semigroup", "sl2_generators.json", "--depth", "1"], 2),
        (["find-expansive", "cat_map.json"], 0),
        (["torus-check", "cat_map.json"], 0),
        (["jsr", "doubling.json"], 0),
        (["solenoid-chain", "dyadic_solenoid.json"], 0),
        (["solenoid-lift", "dyadic_solenoid.json", "--window", "dyadic_window.json", "--radius", "3/10"], 0),
        (["solenoid-check", "sixth_solenoid.json"], 0),
        (["verify", "REPORT", "doubling.json"], 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path, argv, code, keep):
    # `expansive ... | head -c 300`: the reader closes stdout after `keep`
    # bytes (at once, before the child writes, is the case that always
    # breaks the pipe); the rest of the report is dropped, stderr holds the
    # summary line and no traceback, and the exit code is the command's
    report = tmp_path / "report.json"
    assert main(["analyze-matrix", str(FIXTURES / "doubling.json"), "--out", str(report)]) == 0
    args = [str(report) if a == "REPORT" else str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.Popen(
        [sys.executable, "-m", "expansive", *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    child.stdout.read(keep)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == code, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith(f"{argv[0]}: ")


@pytest.mark.parametrize(
    "argv, code", [(["torus-check", "cat_map.json"], 0), (["analyze-matrix", "sl2_generators.json"], 1)]
)
def test_a_reader_that_closes_stdout_and_stderr_together_leaves_the_exit_code(argv, code):
    # `expansive ... 2>&1 | head`, the reader gone before the child writes:
    # the summary line on stderr meets the closed pipe too
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    child = subprocess.Popen(
        [sys.executable, "-m", "expansive", *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    child.stdout.close()
    assert child.wait(timeout=120) == code


def test_jordan_block_near_one_is_decided_within_the_timeout(capsys, tmp_path):
    # the rational root test once listed the divisors of 9999^k and 10^(4k)
    # by trial division up to the numbers themselves, and never answered;
    # a child process lets the timeout fail the test instead of hanging it
    lam = "9999/10000"
    jordan = [[lam if i == j else int(j == i + 1) for j in range(4)] for i in range(4)]
    case = write_case(tmp_path, "jordan.json", {"n": 4, "mode": "semigroup", "generators": {"j": jordan}})
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "expansive", "analyze-semigroup", str(case), "--depth", "3", "--out", str(report)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rep = json.loads(report.read_text())
    assert (rep["status"], rep["certificate"]["kind"]) == ("NotExpansive", "spectral_obstruction")
    code, out = run(capsys, "verify", report, case)
    assert code == 0 and out["verified"] is True


def test_verify_help_lists_only_its_own_arguments(capsys):
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    help_text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z-]+", help_text)) == {"--help", "--out"}
    assert help_text.splitlines()[0].split()[-2:] == ["report", "case"]


@pytest.mark.parametrize("half", [["--radius", "5"], ["--epsilon", "1/5"]], ids=["radius", "epsilon"])
def test_torus_grid_oracle_needs_both_epsilon_and_radius(capsys, half):
    code, rep = run(capsys, "torus-check", FIXTURES / "cat_map.json", *half)
    assert code == 1
    assert rep["error"]["type"] == "ParseError"


# --- each subcommand loads only the modules it runs ---


def loaded_after(script, *args):
    """The names of the modules a fresh interpreter holds after running ``script``."""
    probe = script + "\nimport sys\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def numpy_loaded_after(script, *args):
    return "numpy" in loaded_after(script, *args)


def submodules_loaded_after(script, *args):
    """The ``expansive.*`` modules loaded, without the package prefix."""
    prefix = "expansive."
    return {name[len(prefix):] for name in loaded_after(script, *args) if name.startswith(prefix)}


RUN_MAIN = "import sys\nfrom expansive.cli import main\nassert main(sys.argv[1:]) == 0"

# what `import expansive.cli` loads, whatever the subcommand: the exact kernel
# and the spectral counts, all that analyze-matrix runs
CLI_CORE = {"cli", "exact", "spectral"}
# what verify loads besides the layers its report needs: the checker and the
# search-free action layer under it, never the search engine `orbits`
CHECKER = {"actions", "certificates"}


def test_import_expansive_loads_no_submodule():
    assert submodules_loaded_after("import expansive") == set()


def test_every_public_name_resolves_to_its_defining_module():
    for name in expansive.__all__:
        value = getattr(expansive, name)
        assert value.__module__.startswith("expansive."), name
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in dir(expansive), name


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        expansive.no_such_name
    assert not hasattr(expansive, "check_certificate")


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["analyze-matrix", FIXTURES / "cat_map.json"], set()),
        (["analyze-semigroup", FIXTURES / "cat_map.json"], {"actions", "orbits"}),
        (["find-expansive", FIXTURES / "cat_map.json"], {"actions", "orbits", "weights"}),
        (["torus-check", FIXTURES / "cat_map.json"], {"actions", "orbits", "torus"}),
        (["jsr", FIXTURES / "cat_map.json"], {"actions", "orbits"}),
        (["solenoid-chain", FIXTURES / "dyadic_solenoid.json"], {"actions", "solenoid"}),
        (["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", FIXTURES / "dyadic_window.json"],
         {"actions", "solenoid"}),
        (["solenoid-check", FIXTURES / "dyadic_solenoid.json"], {"actions", "orbits", "solenoid"}),
    ],
    ids=["analyze-matrix", "analyze-semigroup", "find-expansive", "torus-check", "jsr", "solenoid-chain",
         "solenoid-lift", "solenoid-check"],
)
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    assert submodules_loaded_after(RUN_MAIN, *argv, "--out", tmp_path / "report.json") == CLI_CORE | layers


@pytest.mark.parametrize(
    "argv, kind, layers",
    [
        (["analyze-semigroup", FIXTURES / "cat_map.json"], "word_spectrum", set()),
        (["torus-check", FIXTURES / "sl2_generators.json"], "irreducible_fast_path", set()),
        (["solenoid-chain", FIXTURES / "dyadic_solenoid.json"], None, {"solenoid"}),
        (["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", FIXTURES / "dyadic_window.json"], None,
         {"solenoid"}),
        (["solenoid-check", FIXTURES / "dyadic_solenoid.json"], "word_spectrum", {"solenoid"}),
    ],
    ids=["word-spectrum", "torus-fast-path", "chain", "lift", "solenoid-check"],
)
def test_verify_loads_only_the_layers_its_report_needs(capsys, tmp_path, argv, kind, layers):
    _, rep, path = report_for(capsys, tmp_path, *argv)
    assert rep.get("certificate", {}).get("kind") == kind
    verdict = tmp_path / "verdict.json"
    loaded = submodules_loaded_after(RUN_MAIN, "verify", path, argv[1], "--out", verdict)
    assert loaded == CLI_CORE | CHECKER | layers
    assert json.loads(verdict.read_text())["verified"] is True


SUBCOMMAND_RUNS = [
    ["analyze-matrix", FIXTURES / "cat_map.json"],
    ["analyze-semigroup", FIXTURES / "rotation.json"],
    ["find-expansive", FIXTURES / "cat_map.json"],
    ["torus-check", FIXTURES / "cat_map.json", "--epsilon", "1/5", "--radius", "5"],
    ["jsr", FIXTURES / "cat_map.json"],
    ["solenoid-chain", FIXTURES / "dyadic_solenoid.json"],
    ["solenoid-lift", FIXTURES / "dyadic_solenoid.json", "--window", FIXTURES / "dyadic_window.json"],
    ["solenoid-check", FIXTURES / "dyadic_solenoid.json"],
    ["verify"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
def test_no_subcommand_loads_dataclasses_or_inspect(capsys, tmp_path, argv):
    # both are costly to compile; inspect comes only with numpy, which imports it
    if argv == ["verify"]:
        _, _, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "rotation.json")
        argv = ["verify", path, FIXTURES / "rotation.json"]
    loaded = loaded_after(RUN_MAIN, *argv, "--out", tmp_path / "out.json")
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded or "numpy" in loaded


# --- numpy loads only for the float stages ---


def test_import_does_not_load_numpy():
    assert not numpy_loaded_after("import expansive.cli")


@pytest.mark.parametrize(
    "argv, uses_floats",
    [
        (["analyze-matrix", FIXTURES / "cat_map.json"], False),
        (["solenoid-chain", FIXTURES / "dyadic_solenoid.json"], False),
        (["jsr", FIXTURES / "cat_map.json"], True),
        # the engine deciding by a word spectrum in group mode runs no float stage
        (["analyze-semigroup", FIXTURES / "cat_map.json"], False),
        (["analyze-semigroup", FIXTURES / "sl2_generators.json"], False),
        # nor does a word spectrum in semigroup mode: the word screen is exact
        (["analyze-semigroup", FIXTURES / "doubling.json"], False),
        (["solenoid-check", FIXTURES / "doubling.json"], False),
    ],
    ids=[
        "analyze-matrix",
        "solenoid-chain",
        "jsr",
        "analyze-semigroup-cat_map",
        "analyze-semigroup-sl2_generators",
        "analyze-semigroup-doubling",
        "solenoid-check-doubling",
    ],
)
def test_numpy_loads_only_for_float_subcommands(tmp_path, argv, uses_floats):
    assert numpy_loaded_after(RUN_MAIN, *argv, "--out", tmp_path / "report.json") == uses_floats


def test_verify_of_honest_report_does_not_load_numpy(capsys, tmp_path):
    # the report carries float evidence, the orbit norm bound, which verify ignores
    _, rep, path = report_for(capsys, tmp_path, "analyze-semigroup", FIXTURES / "rotation.json")
    assert "norm_bound" in rep["evidence"]
    verdict = tmp_path / "verdict.json"
    assert not numpy_loaded_after(RUN_MAIN, "verify", path, FIXTURES / "rotation.json", "--out", verdict)
    assert json.loads(verdict.read_text())["verified"] is True
