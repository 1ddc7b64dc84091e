"""Joint spectral radius brackets on the shipped fixtures, depth by depth.

The lower bound is the best averaged spectral radius over enumerated
words; the upper bound comes from branch-and-bound on averaged norms.
Watching the bracket tighten with depth shows how fast the words of an
action grow; the engine never computes this bracket, no verdict uses it.

Usage: python3 scripts/jsr_demo.py [--max-depth 8] [case.json ...]
"""

import argparse
import json
from pathlib import Path

from expansive.cli import parse_action
from expansive.orbits import jsr_bounds

DEFAULT_CASES = ["doubling.json", "cat_map.json", "rotation.json", "sl2_generators.json"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cases", nargs="*", help="case files; defaults to the shipped fixtures")
    ap.add_argument("--max-depth", type=int, default=8)
    ap.add_argument("--tol", type=float, default=1e-4)
    args = ap.parse_args()

    fixture_dir = Path(__file__).resolve().parent.parent / "fixtures"
    paths = [Path(c) for c in args.cases] or [fixture_dir / name for name in DEFAULT_CASES]

    for path in paths:
        case = json.loads(path.read_text())
        action = parse_action(case)
        print(f"{path.name}  (mode {action.mode}, {len(case['generators'])} generators)")
        for depth in range(1, args.max_depth + 1):
            b = jsr_bounds(action, depth, args.tol)
            print(f"  depth {depth}: [{b['lower']:.6f}, {b['upper']:.6f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
