"""Command line front door: JSON case files in, JSON reports out.

A case file holds ``{"n": int, "F": [[rationals]], "generators":
{name: [[rationals]]}, "mode": "group"|"semigroup"}``; rationals may be
ints or strings like ``"3/7"``.  Every subcommand emits a report whose
exact certificates the ``verify`` subcommand can re-check against the
case file without re-running any search.

Exit codes: 0 decisive, 1 malformed input or failed verification,
2 inconclusive (Unknown verdicts, exhausted enumeration caps).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exact import (
    ParseError,
    QMatrix,
    Subspace,
    char_poly,
    coordinates_in_span,
    is_invariant,
    is_positive_definite,
    is_positive_semidefinite,
    mat_power,
    solve_exact,
    to_fraction,
)
from .orbits import EXPANSIVE, NOT_EXPANSIVE, SemigroupAction, expansiveness_check, jsr_bounds
from .solenoid import (
    Ball,
    DualModuleAction,
    KExceededError,
    LiftOutOfRangeError,
    PrecisionExhaustedError,
    Relation,
    RhoBasisChain,
    SolenoidWindow,
    character,
    enumerate_basis,
    lift,
    regular_chain,
    solenoid_expansive,
    span_restriction,
)
from .spectral import GROUP, SEMIGROUP, check_mode, single_expansive, unit_disk_profile
from .torus import (
    GridTooLargeError,
    _finite_order_exponent,
    irreducibility_check,
    rational_orbit_oracle,
    torus_expansive,
)
from .weights import find_expansive_element

TOOL_NAME = "expansive"

CAP_ERRORS = (KExceededError, GridTooLargeError, PrecisionExhaustedError)


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
    return SemigroupAction.from_generators(named_generators(case), case_mode(case, override))


def parse_dual_module(case: dict, override: Optional[str] = None) -> DualModuleAction:
    if "F" not in case:
        raise ParseError("solenoid cases need the module generator field 'F'")
    if "n" not in case:
        raise ParseError("solenoid cases need the dimension field 'n'")
    return DualModuleAction.from_generators(
        case["n"], case["F"], named_generators(case), case_mode(case, override)
    )


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
    case = load_json(args.case)
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
    case = load_json(args.case)
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
    case = load_json(args.case)
    action = parse_action(case, args.mode)
    found = find_expansive_element(action, word_cap=args.depth)
    options = {"mode": action.mode, "depth": args.depth}
    if found is None:
        rep = _report("find-expansive", case, options, status="Unknown", found=False)
        return rep, 2
    word, m = found["word"], found["matrix"]
    profile = unit_disk_profile(char_poly(m)).to_json()
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
    case = load_json(args.case)
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
    case = load_json(args.case)
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
    case = load_json(args.case)
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
    if not isinstance(data, list):
        raise ParseError("a window file holds a list of {character, mid, rad} entries")
    values = []
    for entry in data:
        chi = character(entry["character"])
        rad = to_fraction(entry["rad"]) if "rad" in entry else Fraction(1, 2**precision)
        values.append((chi, Ball(to_fraction(entry["mid"]), rad).angle()))
    return SolenoidWindow(tuple(values))


def chain_from_json(data) -> RhoBasisChain:
    levels = tuple(tuple(character(c) for c in lvl) for lvl in data["levels"])
    first_level = {}
    for i, lvl in enumerate(levels):
        for chi in lvl:
            first_level.setdefault(chi, i)
    rels = []
    for r in data["relations"]:
        target = character(r["target"])
        terms = tuple((int(t["coef"]), character(t["character"])) for t in r["terms"])
        rels.append(Relation(target, int(r["n0"]), terms, first_level.get(target, 0)))
    return RhoBasisChain(levels, int(data["k"]), tuple(rels))


def cmd_solenoid_lift(args) -> tuple[dict, int]:
    case = load_json(args.case)
    options = {}
    if args.chain:
        data = load_json(args.chain)
        chain = chain_from_json(data.get("chain", data))
    else:
        dm = parse_dual_module(case, args.mode)
        chain = regular_chain(enumerate_basis(dm, args.depth), k_max=args.kmax)
        options = {"depth": args.depth, "kmax": args.kmax}
    if not args.window:
        raise ParseError("solenoid-lift needs at least one --window file")
    bound = to_fraction(args.radius) if args.radius is not None else Fraction(1, 2 * chain.k)
    windows = [parse_window(load_json(path), args.precision) for path in args.window]

    def one(window: SolenoidWindow) -> dict:
        try:
            lifted = lift(window, chain, bound)
        except LiftOutOfRangeError as exc:
            return {"lifted": False, "reason": str(exc)}
        return {"lifted": True, "values": lifted.to_json(), "bound": str(lifted.bound)}

    rep = _report(
        "solenoid-lift",
        case,
        {**options, "radius": str(bound), "precision": args.precision},
        chain=chain.to_json(),
        k=chain.k,
        lifts=[one(w) for w in windows],
    )
    return rep, 0


def cmd_solenoid_check(args) -> tuple[dict, int]:
    case = load_json(args.case)
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


def _parse_rows(rows) -> list[tuple[Fraction, ...]]:
    return [tuple(to_fraction(x) for x in row) for row in rows]


def _restricted_lookup(lookup: dict[str, QMatrix], rows: list[tuple[Fraction, ...]]) -> Optional[dict]:
    out = {}
    for name, m in lookup.items():
        cols = []
        for row in rows:
            coords = coordinates_in_span(rows, m.apply(row))
            if coords is None:
                return None
            cols.append(coords)
        out[name] = QMatrix.from_columns(cols)
    return out


def _word_product(lookup: dict[str, QMatrix], word: Sequence[str]) -> Optional[QMatrix]:
    if not word or any(name not in lookup for name in word):
        return None
    m = lookup[word[0]]
    for name in word[1:]:
        m = m @ lookup[name]
    return m


def _adapted(lookup: dict[str, QMatrix], p: QMatrix, k: int):
    pinv = p.inverse()
    n = p.rows
    for name, g in lookup.items():
        t = pinv @ g @ p
        a = QMatrix.from_rows([[t[i, j] for j in range(k)] for i in range(k)])
        b = QMatrix.from_rows([[t[i, j] for j in range(k, n)] for i in range(k)])
        d = QMatrix.from_rows([[t[i, j] for j in range(k, n)] for i in range(k, n)])
        yield name, a, b, d


def check_certificate(
    cert: dict,
    lookup: dict[str, QMatrix],
    mode: str,
    witness: Optional[tuple[Fraction, ...]],
    dim: int,
) -> bool:
    """Exact re-validation of a decisive certificate, no searching involved."""
    kind = cert.get("kind")

    if kind == "empty_space":
        return dim == 0

    if kind in ("word_spectrum", "spectral_obstruction"):
        m = _word_product(lookup, cert.get("word", []))
        if m is None:
            return False
        profile = unit_disk_profile(char_poly(m))
        if profile.to_json() != cert.get("profile"):
            return False
        if kind == "word_spectrum":
            return profile.escapes(mode)
        if profile.escapes(mode):
            return False
        lam = cert.get("witness_eigenvalue")
        if lam is not None and witness is not None:
            f = to_fraction(lam)
            if all(x == 0 for x in witness):
                return False
            if m.apply(witness) != tuple(f * x for x in witness):
                return False
        return True

    if kind == "InvariantNormFound":
        rows = _parse_rows(cert["space"])
        gram = QMatrix.from_json(cert["gram"])
        if not rows or gram.rows != len(rows):
            return False
        space = Subspace.from_vectors(dim, rows)
        if space.dim != len(rows):
            return False
        if not all(is_invariant(space, m) for m in lookup.values()):
            return False
        restricted = _restricted_lookup(lookup, rows)
        if restricted is None or not is_positive_definite(gram):
            return False
        for m in restricted.values():
            if not is_positive_semidefinite(gram - (m.transpose() @ gram @ m)):
                return False
        if witness is not None:
            if all(x == 0 for x in witness):
                return False
            if coordinates_in_span(rows, witness) is None:
                return False
        return True

    if kind in ("split", "affine_obstruction"):
        rows = _parse_rows(cert["space"])
        comp = _parse_rows(cert["complement"])
        k = len(rows)
        if k + len(comp) != dim:
            return False
        space = Subspace.from_vectors(dim, rows)
        if not all(is_invariant(space, m) for m in lookup.values()):
            return False
        restricted = _restricted_lookup(lookup, rows)
        inner = cert.get("restriction")
        if restricted is None or inner is None:
            return False
        if not check_certificate(inner, restricted, mode, None, k):
            return False
        p = QMatrix.from_columns([list(r) for r in rows] + [list(c) for c in comp])
        if p.det() == 0:
            return False
        blocks = list(_adapted(lookup, p, k))
        if kind == "split":
            quo = cert.get("quotient")
            if quo is None:
                return False
            quotient_lookup = {name: d for name, _, _, d in blocks}
            return check_certificate(quo, quotient_lookup, mode, None, dim - k)
        scalars = cert.get("scalars") or {}
        sys_rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for name, a, b, d in blocks:
            if name not in scalars:
                return False
            mu = to_fraction(scalars[name])
            if d.rows != 1 or d[0, 0] != mu:
                return False
            shifted = a - QMatrix.identity(k).scale(mu)
            for i in range(k):
                sys_rows.append([shifted[i, j] for j in range(k)])
                rhs.append(-b[i, 0])
        # the obstruction claims the joint affine system has no solution
        return solve_exact(QMatrix.from_rows(sys_rows), rhs) is None

    return False


def _verify_chain(rep: dict) -> bool:
    chain = chain_from_json(rep["chain"])
    if not chain.verify():
        return False
    return rep.get("k") is None or chain.k == rep["k"]


def _verify_lifts(rep: dict) -> bool:
    chain = chain_from_json(rep["chain"])
    if not chain.verify():
        return False
    chars = [chi for level in chain.levels for chi in level]
    for entry in rep.get("lifts", []):
        if not entry.get("lifted"):
            continue
        bound = to_fraction(entry["bound"])
        values: dict = {}
        for item in entry["values"]:
            values[character(item["character"])] = Ball(
                to_fraction(item["mid"]), to_fraction(item["rad"])
            )
        if any(chi not in values for chi in chars):
            return False
        if any(v.abs_upper() >= bound for v in values.values()):
            return False
        for rel in chain.relations:
            ball = values[rel.target].scale(rel.n0)
            for coef, a in rel.terms:
                ball = ball - values[a].scale(coef)
            # a true functional satisfies the relation exactly
            if abs(ball.mid) > ball.rad:
                return False
    return True


def verify_report(rep: dict, case: dict) -> bool:
    version = rep.get("tool", {}).get("version")
    if version != __version__:
        raise VersionMismatch(f"report written by version {version!r}, tool is {__version__!r}")
    if rep.get("case") != case_id(case):
        return False
    command = rep.get("command")
    if command == "solenoid-chain":
        return _verify_chain(rep)
    if command == "solenoid-lift":
        return _verify_lifts(rep)
    cert = rep.get("certificate")
    status = rep.get("status")
    if status in (EXPANSIVE, NOT_EXPANSIVE):
        if cert is None:
            return False
        if command in ("solenoid-check",):
            dm = parse_dual_module(case, rep.get("options", {}).get("mode"))
            _, action = span_restriction(dm)
        else:
            action = parse_action(case, rep.get("options", {}).get("mode"))
        lookup = dict(zip(action.names, action.mats))
        witness = None
        if rep.get("witness") is not None:
            witness = tuple(to_fraction(x) for x in rep["witness"])
        if cert.get("kind") == "irreducible_fast_path":
            m = _word_product(lookup, cert.get("infinite_order_word", []))
            if m is None:
                return False
            exponent = _finite_order_exponent(action.dim)
            infinite = (
                unit_disk_profile(char_poly(m)).outside > 0
                or mat_power(m, exponent) != QMatrix.identity(action.dim)
            )
            return infinite and irreducibility_check(action).conclusion == "Irreducible"
        return check_certificate(cert, lookup, action.mode, witness, action.dim)
    # inconclusive and advisory reports claim nothing exact
    return cert is None


def cmd_verify(args) -> tuple[dict, int]:
    rep = load_json(args.report)
    case = load_json(args.case)
    ok = verify_report(rep, case)
    out = _report("verify", case, {}, verified=ok, checked_command=rep.get("command"))
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

SUMMARY_KEYS = ("status", "verified", "k", "bounds", "found")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as malformed input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    jsr.add_argument("--epsilon", type=float, default=1e-4, help="branch-and-bound tolerance (default 1e-4)")
    chain = add("solenoid-chain", "build and verify a bounded-cost character chain", 4, "chain levels")
    lift_cmd = add("solenoid-lift", "lift windows through a chain to functional values", 4, "chain levels")
    for p in (chain, lift_cmd):
        p.add_argument("--kmax", type=int, default=64, help="largest admissible relation cost (default 64)")
    lift_cmd.add_argument("--radius", help="lift bound C < 1/k (default 1/(2k))")
    lift_cmd.add_argument("--precision", type=int, default=60, help="radius 2^-P of window entries without one")
    lift_cmd.add_argument("--window", action="append", help="window file, repeatable")
    lift_cmd.add_argument("--chain", help="reuse a chain from a solenoid-chain report")
    add("solenoid-check", "expansiveness of a solenoidal action", 10)
    verify = sub.add_parser("verify", help="re-check a report's exact certificates")
    verify.add_argument("report", help="report file produced by this tool")
    verify.add_argument("case", help="case file the report was produced from")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    return ap


def emit(rep: dict, out_path: Optional[str]) -> None:
    text = json.dumps(rep, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    summary = {k: rep[k] for k in SUMMARY_KEYS if k in rep}
    if "error" in rep:
        summary["error"] = rep["error"]["type"]
    print(f"{rep.get('command', TOOL_NAME)}: {canonical_json(summary)}", file=sys.stderr)


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
    except CAP_ERRORS as exc:
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
