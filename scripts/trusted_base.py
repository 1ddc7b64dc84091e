"""The library functions that ``verify`` executes: the checker's trusted base.

Makes every run of scripts/report_digests.py under a function-entry tracer
(``sys.settrace``, which sees Python calls only) and files each library
function entered under the subcommand that entered it: ``verify``, or any
of the searches.  A nested function, comprehension or lambda counts as the
top-level function or method around it.  Prints three lists, one function
a line with the number of lines its definition spans and the number of times
``verify`` called it:

- the functions that ``verify`` executes;
- those that only ``verify`` executes, which no search enters;
- those that no digest run executes, neither ``verify`` nor a search;

each with a total and the lines per module.  The digest lines themselves
are not printed.

Usage: python3 scripts/trusted_base.py
"""

import ast
import contextlib
import io
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import report_digests  # noqa: E402  (puts src/ and perfbench/ on the path)

LIB = ROOT / "src" / "expansive"


def definitions() -> dict:
    """file -> [(first line, last line, "module.qualname")] of its top-level functions and methods."""
    out = {}
    for path in sorted(LIB.glob("*.py")):
        spans = []
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            else:
                continue
            for name, fn in defs:
                first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                spans.append((first, fn.end_lineno, f"{path.stem}.{name}"))
        out[str(path)] = spans
    return out


def traced_runs() -> dict:
    """phase ("verify" or "search") -> the library code objects entered in it, with their call counts."""
    files = {str(path) for path in LIB.glob("*.py")}
    entered = {"verify": Counter(), "search": Counter()}
    phase = ["search"]

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered[phase[-1]][code] += 1

    run_main = report_digests.main

    def main(argv):
        phase.append("verify" if argv and argv[0] == "verify" else "search")
        try:
            return run_main(argv)
        finally:
            phase.pop()

    report_digests.main = main
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            report_digests.main_digests()
    finally:
        sys.settrace(None)
        report_digests.main = run_main
    return entered


def functions(codes: Counter, spans: dict) -> dict:
    """name -> (lines, calls) of the top-level definitions around the code
    objects; the calls are those of the definition itself, not of the code
    nested in it.  Module code and class bodies are not functions and are
    left out."""
    lines, calls = {}, defaultdict(int)
    for code, count in codes.items():
        around = [s for s in spans[code.co_filename] if s[0] <= code.co_firstlineno <= s[1]]
        if around:
            first, last, name = around[0]
            lines[name] = last - first + 1
            calls[name] += count if code.co_firstlineno == first else 0
        elif code.co_name == "<lambda>":
            name = f"{Path(code.co_filename).stem}.<lambda>:{code.co_firstlineno}"
            lines[name] = 1
            calls[name] += count
    return {name: (n, calls[name]) for name, n in lines.items()}


def show(title: str, funcs: dict) -> None:
    per_module = Counter()
    for name, (lines, _) in funcs.items():
        per_module[name.split(".")[0]] += lines
    print(f"# {title}: {len(funcs)} functions, {sum(per_module.values())} lines")
    print("#   lines per module: " + ", ".join(f"{module} {lines}" for module, lines in per_module.most_common()))
    print("# lines  calls  function")
    for name in sorted(funcs):
        lines, calls = funcs[name]
        print(f"{lines:7d} {calls:6d}  {name}")


def main() -> int:
    spans = definitions()
    entered = traced_runs()
    verify = functions(entered["verify"], spans)
    search = functions(entered["search"], spans)
    show("functions that verify executes", verify)
    print()
    show("functions that only verify executes", {name: n for name, n in verify.items() if name not in search})
    print()
    unrun = {name: (last - first + 1, 0) for defs in spans.values() for first, last, name in defs}
    show("functions that no digest run executes", {name: n for name, n in unrun.items() if name not in verify | search})
    return 0


if __name__ == "__main__":
    sys.exit(main())
