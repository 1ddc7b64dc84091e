"""Survey the torus engine against the exact grid oracle on random actions.

Draws random group-mode actions on T^2 from unimodular integer matrices,
runs the expansiveness engine, and cross-checks every decisive verdict
against the exhaustive rational-grid oracle.  Prints per-verdict counts
and the Unknown rate for the sampled distribution.

Usage: python3 scripts/survey_torus_random.py [--samples 100] [--depth 10] [--seed 7]
"""

import argparse
import random
from fractions import Fraction

from expansive.actions import SemigroupAction
from expansive.exact import QMatrix
from expansive.spectral import EXPANSIVE, NOT_EXPANSIVE, UNKNOWN
from expansive.torus import rational_orbit_oracle, torus_expansive


def random_unimodular(rng: random.Random, span: int = 3) -> QMatrix:
    # shear product construction keeps the determinant at +-1 by design
    while True:
        a, b, c = (rng.randint(-span, span) for _ in range(3))
        lower = QMatrix.from_rows([[1, 0], [a, 1]])
        upper = QMatrix.from_rows([[1, b], [0, 1]])
        m = lower @ upper @ QMatrix.from_rows([[1, 0], [c, 1]])
        if rng.random() < 0.5:
            m = m.scale(-1)
        if all(abs(m[i, j]) <= span for i in range(2) for j in range(2)):
            return m


def sample_action(rng: random.Random) -> SemigroupAction:
    count = rng.choice([1, 2])
    named = [(f"g{i + 1}", random_unimodular(rng)) for i in range(count)]
    return SemigroupAction.from_generators(named, "group")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--grid", type=int, default=8, help="oracle grid denominator")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    counts = {EXPANSIVE: 0, NOT_EXPANSIVE: 0, UNKNOWN: 0}
    clashes = 0
    for i in range(args.samples):
        action = sample_action(rng)
        verdict = torus_expansive(action, depth=args.depth)
        counts[verdict.status] += 1
        if verdict.status == EXPANSIVE:
            oracle = rational_orbit_oracle(action, args.grid, Fraction(1, 4))
            if not oracle.separated:
                clashes += 1
                print(f"  sample {i}: engine says Expansive, oracle found {oracle.failing_point}")

    total = sum(counts.values())
    print(f"samples          {total}")
    for status in (EXPANSIVE, NOT_EXPANSIVE, UNKNOWN):
        print(f"{status:<16} {counts[status]}")
    print(f"unknown rate     {counts[UNKNOWN] / total:.1%}")
    print(f"oracle clashes   {clashes}")
    return 1 if clashes else 0


if __name__ == "__main__":
    raise SystemExit(main())
