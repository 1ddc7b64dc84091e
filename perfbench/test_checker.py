"""Tests of the independent checker: honest reports pass, forged ones fail.

    python3 -m pytest perfbench -q

Honest reports come from the command line handlers run in-process on the
fixtures; the checker itself never imports the program.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import checker  # noqa: E402
from expansive import cli  # noqa: E402


def fixture(name: str) -> dict:
    return json.loads((ROOT / "fixtures" / f"{name}.json").read_text())


def run_cli(*argv) -> tuple[dict, int]:
    buf = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return json.loads(buf.getvalue()), code


def op_for(sub: str, name: str, args=()) -> dict:
    case = fixture(name)
    op = {"truth": cases.FIXTURE_TRUTH.get(name)}
    if sub in ("solenoid-chain", "solenoid-lift"):
        depth = int(args[args.index("--depth") + 1]) if "--depth" in args else 4
        op["levels"] = cases.character_levels(case, depth)
        op["functional"] = cases.DYADIC_WINDOW_FUNCTIONAL
    return op


HONEST = list(cases.CLI_PAIRS) + [
    ("analyze-semigroup", "affine_sl2", ()),
    ("solenoid-chain", "sixth_solenoid", ()),
    ("solenoid-chain", "cat_map", ("--depth", "3")),
]


@pytest.mark.parametrize("sub,name,args", HONEST, ids=[f"{s}:{n}:{i}" for i, (s, n, _) in enumerate(HONEST)])
def test_honest_fixture_reports_pass(sub, name, args):
    rep, code = run_cli(sub, f"fixtures/{name}.json", *args)
    assert checker.reason(op_for(sub, name, list(args)), rep, fixture(name)) is None
    assert code == checker.expected_exit(rep)


def test_affine_sl2_torus_report_passes():
    rep, _ = run_cli("torus-check", "fixtures/affine_sl2.json")
    assert rep["certificate"]["kind"] == "affine_obstruction"
    assert checker.reason({"truth": "Expansive"}, rep, fixture("affine_sl2")) is None


def honest(sub: str, name: str) -> dict:
    rep, _ = run_cli(sub, f"fixtures/{name}.json")
    return rep


def test_flipped_cat_map_is_rejected():
    rep = honest("analyze-semigroup", "cat_map")
    rep["status"] = "NotExpansive"
    assert "cannot prove NotExpansive" in checker.reason({}, rep, fixture("cat_map"))


def test_flipped_rotation_is_rejected():
    rep = honest("analyze-semigroup", "rotation")
    assert rep["certificate"]["kind"] == "InvariantNormFound"
    rep["status"] = "Expansive"
    assert "cannot prove Expansive" in checker.reason({}, rep, fixture("rotation"))


def test_spectral_obstruction_on_a_non_cyclic_action_is_rejected():
    rep = honest("analyze-semigroup", "sl2_generators")
    rep["status"] = "NotExpansive"
    # the profile of the quarter turn s is honest; only cyclicity fails
    rep["certificate"] = {"kind": "spectral_obstruction", "word": ["s"],
                          "profile": {"at_zero": 0, "inside": 0, "on_circle": 2, "outside": 0}}
    assert checker.reason({}, rep, fixture("sl2_generators")) == "action is not cyclic"


def test_verdict_against_constructed_truth():
    rep = honest("analyze-semigroup", "cat_map")
    assert "construction fixes" in checker.reason({"truth": "NotExpansive"}, rep, fixture("cat_map"))


def test_wrong_profile_and_case_hash_are_rejected():
    rep = honest("analyze-matrix", "cat_map")
    bad = copy.deepcopy(rep)
    bad["certificate"]["profile"]["outside"] = 2
    assert "profile" in checker.reason({}, bad, fixture("cat_map"))
    bad = copy.deepcopy(rep)
    bad["case"] = "0" * 64
    assert checker.reason({}, bad, fixture("cat_map")) == "case hash mismatch"


def test_forged_gram_is_rejected():
    rep = honest("analyze-semigroup", "rotation")
    rep["certificate"]["gram"] = [["1", "0"], ["0", "-1"]]
    assert "positive definite" in checker.reason({}, rep, fixture("rotation"))


def test_chain_cost_is_not_pinned():
    # the {2,3} chain needs cost 4 (the character 1/9); the checker asks only k = largest cost
    rep, _ = run_cli("solenoid-chain", "fixtures/sixth_solenoid.json")
    assert rep["k"] == 4
    assert checker.reason(op_for("solenoid-chain", "sixth_solenoid"), rep, fixture("sixth_solenoid")) is None
    rep["k"] = rep["chain"]["k"] = 3
    assert checker.reason(op_for("solenoid-chain", "sixth_solenoid"), rep, fixture("sixth_solenoid")) is not None


def test_broken_relation_is_rejected():
    rep, _ = run_cli("solenoid-chain", "fixtures/dyadic_solenoid.json")
    rep["chain"]["relations"][0]["n0"] += 1
    assert checker.reason(op_for("solenoid-chain", "dyadic_solenoid"), rep, fixture("dyadic_solenoid")) is not None


def test_lift_of_another_functional_is_rejected():
    rep, _ = run_cli("solenoid-lift", "fixtures/dyadic_solenoid.json",
                     "--window", "fixtures/dyadic_window.json", "--radius", "3/10")
    op = op_for("solenoid-lift", "dyadic_solenoid")
    assert checker.reason(op, rep, fixture("dyadic_solenoid")) is None
    op["functional"] = [str(Fraction(1, 64) + Fraction(1, 2**40))]
    assert checker.reason(op, rep, fixture("dyadic_solenoid")) == "lifted value misses the functional"


def test_jsr_below_a_spectral_radius_is_rejected():
    rep = honest("jsr", "cat_map")
    rep["bounds"]["lower"] = 2.0
    assert "spectral radius" in checker.reason({}, rep, fixture("cat_map"))


def test_disk_profile_certifies_circle_roots():
    # z^4 - 1: two real and two complex roots on the circle; (z - 2)(z - 1/3)
    assert checker.disk_profile([-1, 0, 0, 0, 1]) == {"at_zero": 0, "inside": 0, "on_circle": 4, "outside": 0}
    assert checker.disk_profile([Fraction(2, 3), Fraction(-7, 3), 1]) == {
        "at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}
    # z^2 (z^2 + z + 1)^2: a double pair of cube roots of unity
    assert checker.disk_profile([0, 0, 1, 2, 3, 2, 1]) == {"at_zero": 2, "inside": 0, "on_circle": 4, "outside": 0}


def test_generated_truths_hold_for_every_workload_seed_shape():
    for seed in (1, 2):
        for op in cases.engine_cases(seed):
            assert op["truth"] in ("Expansive", "NotExpansive")
        for op in cases.torus_solenoid_cases(seed):
            assert op["kind"] == "find_expansive" or op["truth"] in ("Expansive", "NotExpansive")
    assert cases.engine_cases(3) == cases.engine_cases(3)
    assert cases.engine_cases(3) != cases.engine_cases(4)
