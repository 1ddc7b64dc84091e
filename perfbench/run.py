"""One benchmark for expansive: three workloads, outputs checked independently.

    python3 perfbench/run.py --workload engine_search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  ``--trace 0`` runs whole rounds of the
workload's operations, at least MIN_ROUNDS and more while another round
should end within ``--seconds``, then prints the end-to-end metrics: each
operation's median time over the rounds, scaled to a reference speed by a
probe timed between operations.  ``--trace 1`` runs one untraced and one
traced round and prints the per-layer metrics.  Every output is then checked
by ``checker.py``; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402  (the benchmark's own module, beside this file)

DEPTH = 10
SETUP_RUNS = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
# every operation is timed this many times at least, spread over the run;
# a cli_fixtures round (57 processes) takes about as long as three of the others
MIN_ROUNDS = {"cli_fixtures": 1, "engine_search": 3, "torus_solenoid": 3}
# Times are reported at the reference speed, at which the probe (the sum of
# 1/i for i < PROBE_TERMS in Fractions) takes PROBE_REFERENCE_S; README.md says why.
PROBE_TERMS = 900
PROBE_REFERENCE_S = 0.002
PROBES_BETWEEN_OPS = 3
PROBE_WINDOW = 4  # an operation's speed is read from the probes of its 2 * 4 + 1 neighbours
EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def plain(x):
    return json.loads(json.dumps(x, default=str))


# ------------------------------------------------------------ the program


class Program:
    """The program's public modules, imported from src/."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import expansive
        from expansive import cli, exact, orbits, solenoid, spectral, torus, weights

        self.version = expansive.__version__
        self.cli, self.exact, self.orbits = cli, exact, orbits
        self.solenoid, self.spectral, self.torus, self.weights = solenoid, spectral, torus, weights

    def report(self, command: str, case: dict, options: dict, **fields) -> dict:
        """The fields of a CLI report that the checker and verify read."""
        rep = {
            "case": self.cli.case_id(case),
            "command": command,
            "tool": {"name": "expansive", "version": self.version},
            "options": options,
        }
        rep.update(plain(fields))
        return rep

    def verdict(self, command: str, case: dict, mode: str, res) -> dict:
        witness = [str(x) for x in res.witness] if res.witness is not None else None
        return self.report(command, case, {"mode": mode, "depth": DEPTH},
                           status=res.status, witness=witness, certificate=res.certificate)


def decisive(report: dict) -> bool:
    if report.get("command") == "solenoid-lift":
        return any(e.get("lifted") for e in report.get("lifts", []))
    return report.get("command") == "solenoid-chain" or report.get("status") in (EXPANSIVE, NOT_EXPANSIVE)


class Result:
    """One operation: its search time, its reports, and verify's answer on each."""

    __slots__ = ("op", "search_s", "verify_s", "reports", "verified", "exit_code", "verify_exit", "error", "probes")

    def __init__(self, op, search_s, reports=(), error=None):
        self.op, self.search_s, self.reports, self.error = op, search_s, list(reports), error
        self.verify_s, self.verified, self.exit_code, self.verify_exit = 0.0, [], None, None
        self.probes = []  # probe times just before and just after the operation


# ------------------------------------------------------------ in-process workloads


class InProcess:
    """engine_search and torus_solenoid: timed calls into the library."""

    def __init__(self, workload: str, seed: int) -> None:
        self.prog = Program()
        self.ops = cases.WORKLOADS[workload](seed)
        cli = self.prog.cli
        for op in self.ops:
            if op["kind"] == "module":
                op["module"] = cli.parse_dual_module(op["case"])
                op["window_obj"] = cli.parse_window(op["window"], 60)
            else:
                op["action"] = cli.parse_action(op["case"])

    def search(self, op) -> list[dict]:
        """The timed part of an operation; returns its reports."""
        p = self.prog
        kind, case = op["kind"], op["case"]
        if kind == "decide":
            res = p.orbits.expansiveness_check(op["action"], DEPTH)
            return [p.verdict("analyze-semigroup", case, op["action"].mode, res)]
        if kind == "torus":
            return [p.verdict("torus-check", case, "group", p.torus.torus_expansive(op["action"], DEPTH))]
        if kind == "find_expansive":
            found = p.weights.find_expansive_element(op["action"], word_cap=64)
            opts = {"mode": "group", "depth": 64}
            if found is None:
                return [p.report("find-expansive", case, opts, status="Unknown", found=False)]
            word = list(found["word"])
            profile = p.spectral.unit_disk_profile(p.exact.char_poly(found["matrix"])).to_json()
            return [p.report("find-expansive", case, opts, status=EXPANSIVE, found=True, word=word,
                             matrix=found["matrix"].to_json(),
                             certificate={"kind": "word_spectrum", "word": word, "profile": profile})]
        # a dual module: chain, lift of the seeded window, solenoid verdict
        chain = p.solenoid.regular_chain(p.solenoid.enumerate_basis(op["module"], op["depth"]), k_max=64)
        bound = Fraction(1, 2 * chain.k)
        lifted = p.solenoid.lift(op["window_obj"], chain, bound)
        res = p.solenoid.solenoid_expansive(op["module"], DEPTH)
        chain_json = chain.to_json()
        return [
            p.report("solenoid-chain", case, {"depth": op["depth"], "kmax": 64},
                     chain=chain_json, k=chain.k, levels=len(chain.levels)),
            p.report("solenoid-lift", case, {"radius": str(bound)}, chain=chain_json, k=chain.k,
                     lifts=[{"lifted": True, "values": lifted.to_json(), "bound": str(lifted.bound)}]),
            p.verdict("solenoid-check", case, "group", res),
        ]

    def run_op(self, op) -> Result:
        clock = time.perf_counter
        t0 = clock()
        try:
            reports = self.search(op)
        except Exception as exc:  # an exception is a failed operation, reported with its type
            return Result(op, clock() - t0, error=f"{type(exc).__name__}: {exc}")
        out = Result(op, clock() - t0, reports)
        for rep in reports:
            ok = None
            if decisive(rep):
                t2 = clock()
                try:
                    ok = self.prog.cli.verify_report(rep, op["case"])
                except Exception as exc:
                    out.error = f"verify raised {type(exc).__name__}: {exc}"
                out.verify_s += clock() - t2
            out.verified.append(ok)
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ cli_fixtures


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """cli_fixtures: fresh `python -m expansive` processes, one at a time."""

    def __init__(self, workload: str, seed: int, in_process: bool = False) -> None:
        self.ops = cases.WORKLOADS[workload](seed)
        self.reports = OUT / f"{workload}-{seed}"
        self.reports.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            op["case_path"] = f"fixtures/{op['fixture']}.json"
            op["case"] = json.loads((ROOT / op["case_path"]).read_text())
            op["truth"] = cases.FIXTURE_TRUTH[op["fixture"]]
            if op["subcommand"] in ("solenoid-chain", "solenoid-lift"):
                depth = int(op["args"][op["args"].index("--depth") + 1]) if "--depth" in op["args"] else 4
                op["levels"] = [[[str(x) for x in c] for c in lv] for lv in cases.character_levels(op["case"], depth)]
            if op["subcommand"] == "solenoid-lift":
                op["functional"] = cases.DYADIC_WINDOW_FUNCTIONAL
        self.env = child_env()
        self.prog = Program() if in_process else None

    def _process(self, argv):
        clock = time.perf_counter
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "expansive", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return clock() - t0, proc.returncode, proc.stdout

    def _in_process(self, argv):
        buf = io.StringIO()
        clock = time.perf_counter
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = clock()
            code = self.prog.cli.main(argv)
            elapsed = clock() - t0
        return elapsed, code, buf.getvalue()

    def warm_up(self) -> None:
        """Fill the bytecode cache of src/ before anything is timed."""
        self._process(["verify", "--help"])

    def run_op(self, op) -> Result:
        call = self._in_process if self.prog is not None else self._process
        argv = [op["subcommand"], op["case_path"], *op["args"]]
        try:
            elapsed, code, stdout = call(argv)
            rep = json.loads(stdout)
        except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            return Result(op, 0.0, error=f"{type(exc).__name__}: {exc}")
        out = Result(op, elapsed, [rep])
        out.exit_code = code
        out.verified.append(None)
        if decisive(rep):
            path = self.reports / f"{op['id'].replace(':', '_')}.json"
            path.write_text(json.dumps(rep))
            try:
                out.verify_s, out.verify_exit, vout = call(["verify", str(path.relative_to(ROOT)), op["case_path"]])
                out.verified[0] = json.loads(vout).get("verified")
            except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                out.error = f"verify: {type(exc).__name__}: {exc}"
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make_runner(workload: str, seed: int, in_process_cli: bool = False):
    if workload == "cli_fixtures":
        return Cli(workload, seed, in_process_cli)
    return InProcess(workload, seed)


# ------------------------------------------------------------ checking


def check_results(results) -> tuple[list[str], list[str]]:
    """(operations that raised, operations with a rejected output);
    identical outputs of one operation are checked once."""
    import checker  # sympy and mpmath load only after the timed pass

    errors, failures, seen = [], [], {}
    for r in results:
        op = r.op
        if r.error is not None:
            errors.append(f"{op['id']}: {r.error}")
            continue
        for rep, verified in zip(r.reports, r.verified):
            rep = {k: v for k, v in rep.items() if k != "timings"}
            key = (op["id"], checker.canonical_json(rep), verified, r.exit_code, r.verify_exit)
            if key not in seen:
                why = checker.reason(op, rep, op["case"])
                if why is None and r.exit_code is not None and r.exit_code != checker.expected_exit(rep):
                    why = f"exit code {r.exit_code} does not match status {rep.get('status')}"
                if why is None and decisive(rep) and verified is not True:
                    why = "verify rejected an honest report"
                if why is None and r.verify_exit is not None and r.verify_exit != (0 if verified else 1):
                    why = f"verify exit code {r.verify_exit} does not match verified={verified}"
                seen[key] = why
            if seen[key] is not None:
                failures.append(f"{op['id']} {rep.get('command')}: {seen[key]}")
                break
    return errors, failures


# ------------------------------------------------------------ metrics


def tail_percentile(per_round: int) -> int:
    """Highest whole percentile with at least ten samples of one round beyond it."""
    return math.floor(100 * (per_round - 10) / per_round)


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def probe_s() -> float:
    """One timing of a fixed piece of pure-Python exact arithmetic (about 2 ms)."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def probe_batch() -> list[float]:
    gc.disable()  # a collection here would time the heap, not the machine
    try:
        return [probe_s() for _ in range(PROBES_BETWEEN_OPS)]
    finally:
        gc.enable()


def local_speed(rnd, i: int) -> float:
    """Median probe time of the operations within PROBE_WINDOW of operation i."""
    near = rnd[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
    return statistics.median(p for r in near for p in r.probes)


def scaled_times(rounds) -> tuple[list[float], list[float], float]:
    """Each operation's search and verify time at the reference speed,
    median over the rounds; and the run's median probe time.

    The probe runs between operations.  An operation's time is scaled by
    PROBE_REFERENCE_S over the median probe time around it.  Other tenants
    of the shared host slow every instruction by 20-70 % for seconds to
    minutes, and at times even the fastest probe of a 30-second run is 45 %
    slower than in another; the program's work relative to the probe's
    stays put.  The program's own work is never inside a probe.
    """
    scale = [[PROBE_REFERENCE_S / local_speed(rnd, i) for i in range(len(rnd))] for rnd in rounds]
    ops = range(len(rounds[0]))
    search = [statistics.median(rnd[i].search_s * sc[i] for rnd, sc in zip(rounds, scale)) for i in ops]
    verify = [statistics.median(rnd[i].verify_s * sc[i] for rnd, sc in zip(rounds, scale)) for i in ops]
    probe = statistics.median(p for rnd in rounds for r in rnd for p in r.probes)
    return search, verify, probe


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    per_round = len(rounds[0])
    search, verify, probe = scaled_times(rounds)
    unscaled = [statistics.median(rnd[i].search_s + rnd[i].verify_s for rnd in rounds) for i in range(per_round)]
    lat = sorted(search)
    decided = [sum(1 for r in rnd for rep in r.reports if decisive(rep)) for rnd in rounds]
    pct = tail_percentile(per_round)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (per_round / (sum(search) + sum(verify)), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (nearest_rank(lat, pct) * 1000, "ms"),
        "search_s": (sum(search), "s"),
        "verify_s": (sum(verify), "s"),
        "decided": (statistics.median(decided), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    groups: dict = {}
    for r, s in zip(rounds[0], search):
        g = r.op.get("family") or r.op.get("kind")
        groups[g] = groups.get(g, 0.0) + s
    info = {"rounds": len(rounds), "ops_per_round": per_round, "tail_percentile": pct,
            "round_s": [round(sum(r.search_s + r.verify_s for r in rnd), 3) for rnd in rounds],
            "unscaled_round_s": round(sum(unscaled), 3), "median_probe_ms": round(probe * 1000, 4),
            "search_s_by_group": {g: round(v, 3) for g, v in sorted(groups.items())},
            "slowest": sorted(((round(s, 3), r.op["id"]) for r, s in zip(rounds[0], search)), reverse=True)[:8]}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, info


def setup_median(argv, count: int) -> float:
    """Median of `count` fresh set-ups, each timed from outside and scaled
    to the reference speed like an operation."""
    times = []
    before = probe_batch()
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        after = probe_batch()
        times.append(elapsed * PROBE_REFERENCE_S / statistics.median(before + after))
        before = after
    return statistics.median(times)


def import_probe_s() -> float:
    """`import expansive.cli` in a fresh interpreter, timed inside it; median of a few."""
    code = ("import sys, time; t = time.perf_counter(); import expansive.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


# ------------------------------------------------------------ main


def run_round(runner):
    out = []
    before = probe_batch()
    for op in runner.ops:
        gc.collect()  # start every operation without the previous one's garbage
        result = runner.run_op(op)
        after = probe_batch()
        result.probes = before + after
        out.append(result)
        before = after
    return out


def timed_pass(runner, seconds: float, min_rounds: int):
    """At least `min_rounds` whole rounds; another one starts only if it
    should end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(run_round(runner))
        r1 = time.perf_counter()
        if len(rounds) >= min_rounds and (r1 - start) + (r1 - r0) > seconds:
            return rounds


def traced_pass(runner, workload: str, seed: int):
    """Each operation untraced, then traced: the pair runs under the same
    machine conditions, so the summed difference is the tracing overhead."""
    from spans import Tracer

    tracer = Tracer()
    plain_round, traced_round = [], []
    untraced = traced = 0.0
    for op in runner.ops:
        t0 = time.perf_counter()
        plain_round.append(runner.run_op(op))
        t1 = time.perf_counter()
        with tracer:
            t2 = time.perf_counter()
            traced_round.append(runner.run_op(op))
            t3 = time.perf_counter()
        untraced += t1 - t0
        traced += t3 - t2
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_probe_s()
    metrics["bench.trace_overhead_s"] = traced - untraced
    tracer.write(OUT, f"spans-{workload}-{seed}")
    return [plain_round, traced_round], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "expansive" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        fail(f"no program source under {ROOT}: expected src/expansive/ and fixtures/")
    if hasattr(os, "sched_setaffinity"):
        # one core for the benchmark and its children, so that the probe
        # runs on the core whose speed it stands for
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_only:
        make_runner(args.workload, args.seed)
        return 0

    if args.trace:
        runner = make_runner(args.workload, args.seed, in_process_cli=True)
        rounds, metrics = traced_pass(runner, args.workload, args.seed)
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in per_layer_units().items()}
        info = {"rounds": 2, "trace_overhead_s": metrics["bench.trace_overhead_s"]}
    else:
        # set-up time: fresh processes doing imports and case generation, median of several
        setup_s = setup_median([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                "--workload", args.workload, "--seed", str(args.seed)], SETUP_RUNS)
        runner = make_runner(args.workload, args.seed)
        if isinstance(runner, Cli):
            runner.warm_up()
        rounds = timed_pass(runner, args.seconds, MIN_ROUNDS[args.workload])
        result_metrics, info = end_to_end(rounds, setup_s, runner.peak_rss_mb())

    results = [r for rnd in rounds for r in rnd]
    errors, wrong = check_results(results)
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}), file=sys.stderr)
    # a rejected output fails its operation and makes the run incorrect
    print(json.dumps({"correct": not wrong, "attempted": len(results), "failed": len(errors) + len(wrong),
                      "metrics": result_metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    from spans import per_layer_names

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        if name.endswith("ratio") or name.endswith("per_word"):
            return "ratio"
        return "count"

    return {name: unit(name) for name in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
