"""SHA-256 digests of the reports of a fixed set of runs, one line per report.

Each line reads ``id exit-code sha256``.  The digest is taken over the
report's JSON with ``timings`` removed and the key order kept, so two
checkouts that print the same lines wrote byte-identical reports.  Every
decisive report is also passed to ``verify``, on a line whose id ends in
``/verify``.  The runs:

- every ``engine_search`` case of seeds 1-3 (``analyze-semigroup``) and every
  ``torus_solenoid`` case of seed 1 (``torus-check``, ``find-expansive``, or
  ``solenoid-chain``, ``solenoid-lift`` and ``solenoid-check``), built by
  perfbench/cases.py;
- every fixture that holds a case, under ``analyze-semigroup``,
  ``torus-check`` and ``solenoid-check`` in group and in semigroup mode;
- the commands of the README;
- the ``find_expansive`` and dual-module cases of ``torus_solenoid`` seeds
  2 and 3;
- the ``solenoid-chain`` of ``cat_map`` and ``sixth_solenoid`` at depth 4,
  which no other run builds (the bench leaves them out for their cost);
- every subcommand and fixture pair of the ``cli_fixtures`` workload;
- ``find-expansive`` on group cases that list a generator next to its
  inverse or under a second name, on three commuting generators, and on a
  pair that does not commute (exit 1);
- ``torus-check`` and ``find-expansive`` on the cat map in group mode under
  the one name ``c^-1``, which reads like an inverse letter but is a
  generator the case gives.

Usage: python3 scripts/report_digests.py > digests.txt
Run it in two checkouts and compare the outputs with diff.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cases  # noqa: E402
from expansive.cli import main  # noqa: E402

FIXTURES = ROOT / "fixtures"
DECIDED = ("Expansive", "NotExpansive")
README = (
    ["analyze-matrix", "fixtures/doubling.json"],
    ["analyze-semigroup", "fixtures/cat_map.json", "--depth", "10"],
    ["find-expansive", "fixtures/cat_map.json"],
    ["torus-check", "fixtures/sl2_generators.json"],
    ["torus-check", "fixtures/cat_map.json", "--epsilon", "1/5", "--radius", "5"],
    ["jsr", "fixtures/doubling.json", "--depth", "6"],
    ["solenoid-chain", "fixtures/dyadic_solenoid.json", "--depth", "4"],
    ["solenoid-lift", "fixtures/dyadic_solenoid.json", "--window", "fixtures/dyadic_window.json", "--radius", "3/10"],
    ["solenoid-check", "fixtures/sixth_solenoid.json"],
)
DEEP_CHAINS = (
    ["solenoid-chain", "fixtures/cat_map.json", "--depth", "4"],
    ["solenoid-chain", "fixtures/sixth_solenoid.json", "--depth", "4"],
)

# group cases for find-expansive; a letter may repeat or invert an earlier one
FIND_EXPANSIVE = {
    "inverse_pair": {"a": [[2, 1], [1, 1]], "b": [[1, -1], [-1, 2]]},
    "second_name": {"a": [[2, 1], [1, 1]], "c": [[2, 1], [1, 1]]},
    "three_commuting": {
        "x": [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
        "y": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        "z": [[-1, 0, 0], [0, -1, 0], [0, 0, "1/3"]],
    },
    "not_commuting": {"a": [[2, 1], [1, 1]], "r": [[0, -1], [1, 0]]},
}
# a given generator whose name ends like an inverse letter's
INVERSE_NAMED = {"n": 2, "mode": "group", "generators": {"c^-1": [[2, 1], [1, 1]]}}


def in_checkout(argv) -> list:
    """The arguments with each ``fixtures/`` path made absolute."""
    return [ROOT / a if isinstance(a, str) and a.startswith("fixtures/") else a for a in argv]


class Digests:
    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.files = 0

    def write(self, payload) -> Path:
        self.files += 1
        path = self.scratch / f"{self.files}.json"
        path.write_text(json.dumps(payload))
        return path

    def run(self, ident: str, argv: list) -> dict:
        """Print the line of one run and, for a decisive report, of its verify."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        rep = json.loads(out.getvalue())
        rep.pop("timings", None)
        print(ident, code, hashlib.sha256(json.dumps(rep).encode("utf-8")).hexdigest(), flush=True)
        if rep.get("status") in DECIDED or rep.get("command") in ("solenoid-chain", "solenoid-lift"):
            self.run(ident + "/verify", ["verify", self.write(rep), argv[1]])
        return rep

    def workload_case(self, ident: str, op: dict) -> None:
        case = self.write(op["case"])
        if op["kind"] == "decide":
            self.run(ident, ["analyze-semigroup", case, "--depth", "10"])
        elif op["kind"] == "torus":
            self.run(ident, ["torus-check", case, "--depth", "10"])
        elif op["kind"] == "find_expansive":
            self.run(ident, ["find-expansive", case])
        else:
            depth = str(op["depth"])
            self.run(ident + ":chain", ["solenoid-chain", case, "--depth", depth])
            self.run(ident + ":lift", ["solenoid-lift", case, "--depth", depth, "--window", self.write(op["window"])])
            self.run(ident + ":check", ["solenoid-check", case])


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        d = Digests(Path(scratch))
        for seed in (1, 2, 3):
            for op in cases.engine_cases(seed):
                d.workload_case(f"engine_search:{seed}:{op['id']}", op)
        for op in cases.torus_solenoid_cases(1):
            d.workload_case(f"torus_solenoid:1:{op['id']}", op)
        for path in sorted(FIXTURES.glob("*.json")):
            if not isinstance(json.loads(path.read_text()), dict):
                continue
            for command in ("analyze-semigroup", "torus-check", "solenoid-check"):
                for mode in ("group", "semigroup"):
                    d.run(f"fixture:{path.stem}:{command}:{mode}", [command, path, "--mode", mode])
        for k, argv in enumerate(README):
            d.run(f"readme:{k}:{argv[0]}", in_checkout(argv))
        for seed in (2, 3):
            for op in cases.torus_solenoid_cases(seed):
                if op["kind"] in ("find_expansive", "module"):
                    d.workload_case(f"torus_solenoid:{seed}:{op['id']}", op)
        for argv in DEEP_CHAINS:
            d.run(f"deep_chain:{Path(argv[1]).stem}", in_checkout(argv))
        for k, (sub, fixture, args) in enumerate(cases.CLI_PAIRS):
            d.run(f"cli_fixtures:{k}:{fixture}:{sub}", [sub, FIXTURES / f"{fixture}.json", *in_checkout(args)])
        for name, gens in FIND_EXPANSIVE.items():
            case = d.write({"n": len(next(iter(gens.values()))), "mode": "group", "generators": gens})
            d.run(f"find_expansive:{name}", ["find-expansive", case])
        case = d.write(INVERSE_NAMED)
        for command in ("torus-check", "find-expansive"):
            d.run(f"inverse_named:{command}", [command, case])
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
