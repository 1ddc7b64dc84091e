"""Command line front door: JSON case files in, JSON reports out.

A case file holds ``{"n": int, "F": [[rationals]], "generators":
{name: [[rationals]]}, "mode": "group"|"semigroup"}``; rationals may be
ints or strings like ``"3/7"``.  Every subcommand emits a report whose
exact certificates the ``verify`` subcommand re-checks against the case
file with ``expansive.certificates``.

Beyond this module, ``exact`` and ``spectral``, every layer is imported
inside the handlers that run it: ``actions`` where a case is parsed into an
action, the checker ``certificates`` in ``verify``, and the search engine
(``orbits``) and the torus, solenoid and weights layers in their
subcommands.  So ``analyze-matrix`` loads nothing more, and ``verify`` never
loads the engine.

Exit codes: 0 decisive, 1 malformed input or failed verification,
2 inconclusive (Unknown verdicts, exhausted enumeration caps).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .exact import CapExceededError, ParseError, QMatrix, to_fraction
from .spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP, UNKNOWN, check_mode, single_expansive

if TYPE_CHECKING:
    from .actions import SemigroupAction
    from .solenoid import DualModuleAction, SolenoidWindow

TOOL_NAME = "expansive"


class VersionMismatch(ValueError):
    """The report was written by a different tool version."""


class UsageError(ValueError):
    """The command line does not parse."""


# ------------------------------------------------------------ case files


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def case_id(case: dict) -> str:
    return hashlib.sha256(canonical_json(case).encode("utf-8")).hexdigest()


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


def load_object(path: str) -> dict:
    """A JSON file that must hold an object: a case, a report or a chain."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def object_field(data: dict, key: str) -> dict:
    """The field ``key`` of a report or chain file, which must hold an object
    when present; an absent field reads as an empty one."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"field {key!r} must be a JSON object, got {type(value).__name__}")
    return value


def named_generators(case: dict) -> list[tuple[str, QMatrix]]:
    gens = case.get("generators")
    if not isinstance(gens, dict) or not gens:
        raise ParseError("case field 'generators' must be a nonempty object")
    named = []
    for name in sorted(gens):
        try:
            named.append((name, QMatrix.from_json(gens[name])))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"generator {name!r}: {exc}") from exc
    n = case.get("n")
    if n is not None and any(m.rows != n for _, m in named):
        raise ParseError(f"case field 'n' = {n} does not match the generator shapes")
    return named


def case_mode(case: dict, override: Optional[str]) -> str:
    return check_mode(override or case.get("mode", GROUP))


def parse_action(case: dict, override: Optional[str] = None) -> SemigroupAction:
    from .actions import SemigroupAction

    return SemigroupAction.from_generators(named_generators(case), case_mode(case, override))


def parse_dual_module(case: dict, override: Optional[str] = None) -> DualModuleAction:
    from .solenoid import DualModuleAction

    n, rows = case.get("n"), case.get("F")
    if not isinstance(rows, list) or not rows:
        raise ParseError("solenoid cases need the module generator field 'F'")
    if type(n) is not int or n < 1:
        raise ParseError("solenoid cases need the dimension field 'n'")
    if any(not isinstance(row, list) or len(row) != n for row in rows):
        raise ParseError(f"each row of the field 'F' must be a list of n = {n} rationals")
    return DualModuleAction.from_generators(n, rows, named_generators(case), case_mode(case, override))


# --------------------------------------------------------------- reports


def _plain(x):
    """Recursively coerce report values into JSON-encodable primitives."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def _report(command: str, case: dict, options: dict, **fields) -> dict:
    rep = {
        "case": case_id(case),
        "command": command,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "options": {k: _plain(v) for k, v in options.items() if v is not None},
        "numerics": {
            "exact": "rational strings p/q",
            "interval": "balls {mid, rad}, both rational strings",
            "float": "advisory evidence only, never part of a certificate",
        },
    }
    for k, v in fields.items():
        if v is not None:
            rep[k] = _plain(v)
    return rep


def _verdict_fields(res) -> dict:
    return {
        "status": res.status,
        "witness": [str(x) for x in res.witness] if res.witness is not None else None,
        "certificate": res.certificate,
        "evidence": res.evidence,
        "search_depth": res.search_depth,
    }


def _exit_for(status: str) -> int:
    return 0 if status in (EXPANSIVE, NOT_EXPANSIVE) else 2


# ------------------------------------------------------------ subcommands


def cmd_analyze_matrix(args) -> tuple[dict, int]:
    case = load_object(args.case)
    named = named_generators(case)
    if len(named) != 1:
        raise ParseError("analyze-matrix expects exactly one generator")
    mode = case_mode(case, args.mode)
    name, m = named[0]
    verdict = single_matrix_report(name, m, mode)
    rep = _report("analyze-matrix", case, {"mode": mode}, **verdict)
    return rep, 0


def single_matrix_report(name: str, m: QMatrix, mode: str) -> dict:
    v = single_expansive(m, mode)
    kind = "word_spectrum" if v.expansive else "spectral_obstruction"
    return {
        "status": EXPANSIVE if v.expansive else NOT_EXPANSIVE,
        "expansive": v.expansive,
        "profile": v.profile.to_json(),
        "certificate": {"kind": kind, "word": [name], "profile": v.profile.to_json()},
    }


def cmd_analyze_semigroup(args) -> tuple[dict, int]:
    from .orbits import expansiveness_check

    case = load_object(args.case)
    action = parse_action(case, args.mode)
    res = expansiveness_check(action, args.depth)
    rep = _report(
        "analyze-semigroup",
        case,
        {"mode": action.mode, "depth": args.depth},
        **_verdict_fields(res),
    )
    return rep, _exit_for(res.status)


def cmd_find_expansive(args) -> tuple[dict, int]:
    from .weights import find_expansive_element
    from .actions import WORD_BUDGET

    # a longer word would make a report that verify refuses
    if args.depth > WORD_BUDGET:
        raise UsageError(f"--depth {args.depth} is past the word cap WORD_BUDGET = {WORD_BUDGET}")
    case = load_object(args.case)
    action = parse_action(case, args.mode)
    found = find_expansive_element(action, word_cap=args.depth)
    options = {"mode": action.mode, "depth": args.depth}
    if found is None:
        rep = _report("find-expansive", case, options, status=UNKNOWN, found=False)
        return rep, 2
    word, m, profile = found["word"], found["matrix"], found["profile"].to_json()
    rep = _report(
        "find-expansive",
        case,
        options,
        status=EXPANSIVE,
        found=True,
        word=list(word),
        matrix=m.to_json(),
        certificate={"kind": "word_spectrum", "word": list(word), "profile": profile},
    )
    return rep, 0


def cmd_torus_check(args) -> tuple[dict, int]:
    from .torus import rational_orbit_oracle, torus_expansive

    case = load_object(args.case)
    if (args.epsilon is None) != (args.radius is None):
        raise ParseError("the grid oracle needs both --epsilon and --radius")
    action = parse_action(case, args.mode)
    res = torus_expansive(action, args.depth)
    fields = _verdict_fields(res)
    if args.epsilon is not None:
        # optional finite-grid cross check, reported as evidence only
        oracle = rational_orbit_oracle(action, int(args.radius), to_fraction(args.epsilon))
        fields["evidence"] = dict(fields["evidence"] or {})
        fields["evidence"]["grid_oracle"] = oracle.to_json()
    rep = _report(
        "torus-check",
        case,
        {"mode": action.mode, "depth": args.depth, "epsilon": args.epsilon, "radius": args.radius},
        **fields,
    )
    return rep, _exit_for(res.status)


def cmd_jsr(args) -> tuple[dict, int]:
    from .orbits import jsr_bounds

    case = load_object(args.case)
    action = parse_action(case, args.mode)
    bounds = jsr_bounds(action, args.depth, args.epsilon)
    rep = _report(
        "jsr",
        case,
        {"mode": action.mode, "depth": args.depth, "epsilon": args.epsilon},
        bounds=bounds,
    )
    return rep, 0


def cmd_solenoid_chain(args) -> tuple[dict, int]:
    from .solenoid import enumerate_basis, regular_chain

    case = load_object(args.case)
    dm = parse_dual_module(case, args.mode)
    chain = regular_chain(enumerate_basis(dm, args.depth), k_max=args.kmax)
    rep = _report(
        "solenoid-chain",
        case,
        {"mode": dm.mode, "depth": args.depth, "kmax": args.kmax},
        chain=chain.to_json(),
        k=chain.k,
        levels=len(chain.levels),
        verified=chain.verify(),
    )
    return rep, 0


def parse_window(data, precision: int) -> SolenoidWindow:
    from .solenoid import Ball, SolenoidWindow, character

    if not isinstance(data, list):
        raise ParseError("a window file holds a list of {character, mid, rad} entries")
    values = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not {"character", "mid"} <= entry.keys():
            raise ParseError(f"window entry {i} must be an object with the fields 'character' and 'mid'")
        chi = character(entry["character"])
        rad = to_fraction(entry["rad"]) if "rad" in entry else Fraction(1, 2**precision)
        if rad < 0:
            raise ParseError(f"window entry {i} has a negative 'rad'")
        values.append((chi, Ball(to_fraction(entry["mid"]), rad).angle()))
    return SolenoidWindow(tuple(values))


def cmd_solenoid_lift(args) -> tuple[dict, int]:
    from .solenoid import ChainTable, LiftOutOfRangeError, PrecisionExhaustedError, enumerate_basis, lift, regular_chain

    case = load_object(args.case)
    options = {}
    if args.chain:
        if (args.depth, args.kmax, args.mode) != (None, None, None):
            raise UsageError("--depth, --kmax and --mode shape only a chain solenoid-lift builds, not one from --chain")
        data = load_object(args.chain)
        chain = ChainTable.from_json(data.get("chain", data))
        if chain.k < 1 or not chain.verify():
            raise ParseError("a --chain needs a first level, a cost bound k >= 1 and relations that verify")
        chain_options = object_field(data, "options")
        if "mode" in chain_options:
            # verify checks the chain against the module in the mode it was built in
            options = {"mode": check_mode(chain_options["mode"])}
    else:
        dm = parse_dual_module(case, args.mode)
        options = {"depth": args.depth or 4, "kmax": 64 if args.kmax is None else args.kmax}
        chain = regular_chain(enumerate_basis(dm, options["depth"]), k_max=options["kmax"])
    if not args.window:
        raise ParseError("solenoid-lift needs at least one --window file")
    bound = to_fraction(args.radius) if args.radius is not None else Fraction(1, 2 * chain.k)
    windows = [parse_window(load_json(path), args.precision) for path in args.window]

    lifts, code = [], 0
    for window in windows:
        try:
            lifted = lift(window, chain, bound)
        except PrecisionExhaustedError as exc:
            # a cap leaves this window open; the other windows keep their lifts
            lifts.append({"lifted": False, "reason": str(exc)})
            code = 2
        except LiftOutOfRangeError as exc:
            lifts.append({"lifted": False, "reason": str(exc)})
        else:
            lifts.append({"lifted": True, "values": lifted.to_json(), "bound": str(lifted.bound)})
    rep = _report(
        "solenoid-lift",
        case,
        {**options, "radius": str(bound), "precision": args.precision},
        chain=chain.to_json(),
        k=chain.k,
        lifts=lifts,
    )
    return rep, code


def cmd_solenoid_check(args) -> tuple[dict, int]:
    from .solenoid import solenoid_expansive

    case = load_object(args.case)
    dm = parse_dual_module(case, args.mode)
    res = solenoid_expansive(dm, args.depth)
    rep = _report(
        "solenoid-check",
        case,
        {"mode": dm.mode, "depth": args.depth},
        **_verdict_fields(res),
    )
    return rep, _exit_for(res.status)


# ------------------------------------------------------------ the verifier


def check_certificate(cert, action: SemigroupAction, status: str, witness) -> bool:
    """``certificates.check_certificate``, a function of this module so that
    a trace of ``verify`` (perfbench/spans.py) sees each certificate check."""
    from .certificates import check_certificate

    return check_certificate(cert, action, status, witness)


# command -> the statuses its reports state; the reports of the others state none
STATUSES = {
    "analyze-matrix": (EXPANSIVE, NOT_EXPANSIVE),
    "analyze-semigroup": (EXPANSIVE, NOT_EXPANSIVE, UNKNOWN),
    "find-expansive": (EXPANSIVE, UNKNOWN),
    "torus-check": (EXPANSIVE, NOT_EXPANSIVE, UNKNOWN),
    "solenoid-check": (EXPANSIVE, NOT_EXPANSIVE, UNKNOWN),
}


def check_status(rep: dict, command: str) -> None:
    """A ParseError unless the report states a status its command writes, or
    none when its command writes none."""
    statuses = STATUSES.get(command)
    if statuses is None:
        if "status" in rep:
            raise ParseError(f"a report of {command} states no 'status'")
    elif rep.get("status") not in statuses:
        got = rep.get("status")
        raise ParseError(f"the 'status' of a report of {command} is one of {', '.join(statuses)}, not {got!r}")


def claims_nothing_exact(rep: dict) -> bool:
    """Whether a report is inconclusive or advisory (a ``jsr`` bracket, an Unknown
    verdict): it states no status and no chain, so it has no exact claim to check."""
    chain = rep.get("command") in ("solenoid-chain", "solenoid-lift")
    return not chain and rep.get("status") not in (EXPANSIVE, NOT_EXPANSIVE)


def verify_report(rep: dict, case: dict) -> bool:
    from .certificates import check_chain, check_claims, check_entry_sizes, check_lifts

    tool, options = object_field(rep, "tool"), object_field(rep, "options")
    version = tool.get("version")
    if version != __version__:
        raise VersionMismatch(f"report written by version {version!r}, tool is {__version__!r}")
    if rep.get("case") != case_id(case):
        return False
    command = rep.get("command")
    if not isinstance(command, str) or command == "verify" or command not in HANDLERS:
        # only a subcommand that writes reports makes a claim to check
        return False
    check_status(rep, command)
    check_entry_sizes(rep)
    mode = options.get("mode")
    if command in ("solenoid-chain", "solenoid-lift") and "chain" not in rep:
        raise ParseError(f"a {command} report needs the field 'chain'")
    if command == "solenoid-chain":
        return check_chain(rep["chain"], parse_dual_module(case, mode), rep.get("k"))
    if command == "solenoid-lift":
        return check_lifts(rep["chain"], rep.get("lifts", []), parse_dual_module(case, mode))
    cert = rep.get("certificate")
    if claims_nothing_exact(rep):
        return cert is None
    if command == "solenoid-check":
        from .solenoid import span_restriction

        action = span_restriction(parse_dual_module(case, mode))[1]
    else:
        action = parse_action(case, mode)
    return check_certificate(cert, action, rep["status"], rep.get("witness")) and check_claims(rep, case, action)


def cmd_verify(args) -> tuple[dict, int]:
    rep = load_object(args.report)
    case = load_object(args.case)
    ok = verify_report(rep, case)
    # such a report verifies, but it holds nothing exact to check
    checked_exactly = False if ok and claims_nothing_exact(rep) else None
    out = _report("verify", case, {}, verified=ok, checked_command=rep.get("command"), checked_exactly=checked_exactly)
    return out, 0 if ok else 1


# ------------------------------------------------------------- plumbing


HANDLERS = {
    "analyze-matrix": cmd_analyze_matrix,
    "analyze-semigroup": cmd_analyze_semigroup,
    "find-expansive": cmd_find_expansive,
    "torus-check": cmd_torus_check,
    "jsr": cmd_jsr,
    "solenoid-chain": cmd_solenoid_chain,
    "solenoid-lift": cmd_solenoid_lift,
    "solenoid-check": cmd_solenoid_check,
    "verify": cmd_verify,
}

SUMMARY_KEYS = ("status", "verified", "checked_exactly", "k", "bounds", "found")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as malformed input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _checked(kind, holds, need: str):
    """An argparse type: ``kind(text)``, a usage error unless it ``holds``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {'an integer' if kind is int else 'a number'}: {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value

    return parse


positive_int = _checked(int, lambda v: v >= 1, "at least 1")
non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")
finite_float = _checked(float, math.isfinite, "finite")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog=TOOL_NAME, description="Exact expansiveness analysis of rational matrix actions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, depth: Optional[int] = None, depth_help: str = "word depth"):
        """A subcommand taking a case file, --mode, --out and, given a default, --depth."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("case", help="case file (JSON)")
        p.add_argument("--mode", choices=(GROUP, SEMIGROUP), help="override the case file mode")
        if depth is not None:
            p.add_argument(
                "--depth", type=positive_int, default=depth, help=depth_help + " (default %(default)s)"
            )
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        return p

    add("analyze-matrix", "spectral expansiveness of a single matrix")
    add("analyze-semigroup", "certificate search for a finitely generated action", 10)
    add("find-expansive", "look for one expansive element in a commuting group action", 64, "longest word")
    torus = add("torus-check", "expansiveness of an integer action on the torus", 10)
    torus.add_argument("--epsilon", help="separation radius of the grid oracle (with --radius)")
    torus.add_argument("--radius", help="grid denominator q of the grid oracle (with --epsilon)")
    jsr = add("jsr", "joint spectral radius bracket", 6, "word length")
    jsr.add_argument(
        "--epsilon", type=finite_float, default=1e-4, help="branch-and-bound tolerance (default 1e-4)"
    )
    chain = add("solenoid-chain", "build and verify a bounded-cost character chain", 4, "chain levels")
    # the lift's chain flags default to None: they are refused alongside --chain
    lift_cmd = add("solenoid-lift", "lift windows through a chain to functional values")
    lift_cmd.add_argument("--depth", type=positive_int, help="chain levels (default 4)")
    for p, kmax in ((chain, 64), (lift_cmd, None)):
        p.add_argument("--kmax", type=int, default=kmax, help="largest admissible relation cost (default 64)")
    lift_cmd.add_argument("--radius", help="lift bound C < 1/k (default 1/(2k))")
    lift_cmd.add_argument(
        "--precision", type=non_negative_int, default=60, help="radius 2^-P of window entries without one"
    )
    lift_cmd.add_argument("--window", action="append", help="window file, repeatable")
    lift_cmd.add_argument("--chain", help="reuse a chain from a solenoid-chain report")
    add("solenoid-check", "expansiveness of a solenoidal action", 10)
    verify = sub.add_parser("verify", help="re-check a report's exact certificates")
    verify.add_argument("report", help="report file produced by this tool")
    verify.add_argument("case", help="case file the report was produced from")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    return ap


def _write(text: str, stream) -> None:
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): the rest of the stream goes
        # to devnull, and the exit code stays the command's
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def emit(rep: dict, out_path: Optional[str]) -> None:
    text = json.dumps(rep, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        _write(text, sys.stdout)
    summary = {k: rep[k] for k in SUMMARY_KEYS if k in rep}
    if "error" in rep:
        summary["error"] = rep["error"]["type"]
    _write(f"{rep.get('command', TOOL_NAME)}: {canonical_json(summary)}", sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        emit({"error": {"type": "UsageError", "message": str(exc)}}, None)
        return 1
    t0 = time.perf_counter()
    try:
        rep, code = HANDLERS[args.command](args)
    except VersionMismatch as exc:
        emit({"command": args.command, "error": {"type": "VersionMismatch", "message": str(exc)}}, args.out)
        return 1
    except CapExceededError as exc:
        emit({"command": args.command, "error": {"type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 2
    except (OSError, KeyError, TypeError, ValueError) as exc:
        emit({"command": args.command, "error": {"type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 1
    rep["timings"] = {"seconds": round(time.perf_counter() - t0, 6)}
    emit(rep, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
