"""Seeded case generator for the three workloads.

Pure standard library: the program under test never helps to build its own
inputs.  Every engine case carries the verdict its construction fixes, so
the checker compares against a truth that does not come from the program.
Matrices are built as P T P^-1 with T block upper triangular, so the
spectrum is the union of the chosen diagonal blocks.

Each case has a *shape* fixed by its index: dimension, mode, generators,
the spectral class and magnitude of every block, couplings and change of
basis, drawn from a generator seeded by family and index.  The workload
seed draws the *presentation* (a signed permutation basis for every case,
the order of the operations, signs and module generators of the dual
modules, the lifted functionals).  Different seeds thus give different
inputs of the same cost, and the truth fixed by the shape holds for all.
"""

from __future__ import annotations

import random
from fractions import Fraction

EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"

# ------------------------------------------------------------ matrices


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(a))]


def mat_inv(a):
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def conjugate(p, t):
    return mat_mul(mat_mul(p, t), mat_inv(p))


def block_diag(a, b):
    k, r = len(a), len(b)
    out = [[Fraction(0)] * (k + r) for _ in range(k + r)]
    for i in range(k):
        out[i][:k] = [Fraction(x) for x in a[i]]
    for i in range(r):
        out[k + i][k:] = [Fraction(x) for x in b[i]]
    return out


def to_json_rows(m):
    return [[int(x) if Fraction(x).denominator == 1 else str(x) for x in row] for row in m]


def unimodular(rng: random.Random, n: int, steps: int, cap: int = 3):
    """Integer matrix of determinant +-1 from elementary row operations."""
    while True:
        m = identity(n)
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-1, 1, 1, 2, -2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            m[i] = [-x for x in m[i]]
        bounded = max(abs(x) for row in m for x in row) <= cap
        if bounded and any(m[i][j] != 0 for i in range(n) for j in range(n) if i != j):
            return m


def change_of_basis(shape_rng: random.Random, n: int, integral: bool):
    """Unimodular U, or (for rational entries) U with one row scaled."""
    u = unimodular(shape_rng, n, steps=n + 1, cap=2)
    if not integral:
        i = shape_rng.randrange(n)
        s = shape_rng.choice((Fraction(2), Fraction(1, 3), Fraction(3, 2)))
        u[i] = [s * x for x in u[i]]
    return u


def signed_permutation(rng: random.Random, n: int):
    perm = rng.sample(range(n), n)
    return [[Fraction(rng.choice((1, -1))) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]


def present(rng: random.Random, gens: dict) -> dict:
    """The same action in a seeded signed-permutation basis.

    Conjugating by a signed permutation permutes and negates the entries of
    every word matrix, so the seed changes the input but not its cost.
    """
    n = len(next(iter(gens.values())))
    s = signed_permutation(rng, n)
    return {name: conjugate(s, [[Fraction(x) for x in row] for row in m]) for name, m in gens.items()}


def case_json(n, mode, gens, F=None):
    case = {"n": n, "mode": mode, "generators": {name: to_json_rows(m) for name, m in gens.items()}}
    if F is not None:
        case["F"] = to_json_rows(F)
    return case


# ------------------------------------------------------------ spectra

# Spectral classes of a diagonal block: eigenvalue moduli out of, on, or
# inside the unit circle, or zero.  Values per class; a rotation entry
# (a, b) is the block [[a, -b], [b, a]] with squared modulus a^2 + b^2.
SCALARS = {
    ("out", True): [2, -2, 3, -3],
    ("out", False): [Fraction(3, 2), Fraction(-5, 2), Fraction(7, 3)],
    ("on", True): [1, -1],
    ("on", False): [1, -1],
    ("in", False): [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)],
    ("zero", True): [0],
    ("zero", False): [0],
}
ROTATIONS = {
    ("out", True): [(1, 1), (2, 1), (1, -2)],
    ("out", False): [(Fraction(3, 2), 1), (Fraction(1, 2), Fraction(3, 2))],
    ("on", True): [(0, 1), (0, -1)],
    ("on", False): [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))],
    ("in", False): [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 2))],
}


def block_shapes(shape_rng: random.Random, n: int, integral: bool, classes):
    """List of (size, class) summing to n, drawn from the shape generator."""
    out, room = [], n
    while room:
        cls = shape_rng.choice(classes)
        two = room >= 2 and (cls, integral) in ROTATIONS and shape_rng.random() < 0.35
        out.append((2 if two else 1, cls))
        room -= 2 if two else 1
    return out


def spectral_matrix(shape_rng, rng, n: int, integral: bool, classes):
    """(matrix, squared moduli with multiplicity) for a spectrum of the given classes.

    Everything here comes from the shape generator; the seed enters
    through `present`.
    """
    blocks, moduli = [], []
    for size, cls in block_shapes(shape_rng, n, integral, classes):
        sign = shape_rng.choice((1, -1))
        if size == 1:
            x = sign * Fraction(shape_rng.choice(SCALARS[(cls, integral)]))
            blocks.append([[x]])
            moduli.append(x * x)
        else:
            a, b = (Fraction(v) for v in shape_rng.choice(ROTATIONS[(cls, integral)]))
            blocks.append([[a, -sign * b], [sign * b, a]])
            moduli.extend([a * a + b * b] * 2)
    t = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        k = len(blk)
        for i in range(k):
            t[at + i][at : at + k] = blk[i]
            for j in range(at + k, n):
                t[at + i][j] = Fraction(shape_rng.choice((0, 1, -1)))
        at += k
    return conjugate(change_of_basis(shape_rng, n, integral), t), moduli


def spectrum_truth(moduli, mode: str) -> str:
    if mode == "semigroup":
        return EXPANSIVE if all(m > 1 for m in moduli) else NOT_EXPANSIVE
    return EXPANSIVE if all(m != 1 for m in moduli) else NOT_EXPANSIVE


# ------------------------------------------------------------ engine_search


def family_a(rng, i):
    """One generator: the verdict is read off the constructed spectrum."""
    shape = random.Random(f"a:{i}")
    n = 2 + i % 7
    mode = "group" if i % 2 == 0 else "semigroup"
    integral = i % 3 != 2
    classes = ["out", "out", "on"] + (["zero"] if mode == "semigroup" else []) + ([] if integral else ["in"])
    m, moduli = spectral_matrix(shape, rng, n, integral, classes)
    gens = present(rng, {"g": m})
    return {"family": "a", "case": case_json(n, mode, gens), "truth": spectrum_truth(moduli, mode)}


def family_b(rng, i):
    """A generator expansive on its own plus 1-2 arbitrary ones: Expansive.

    The first 16 cycle through n = 2..6, both modes, one or two extra
    generators and rational entries; the rest are integral group actions
    on R^5 with one extra generator, a cluster of like-cost operations
    (mostly the JSR bracket) in which `op_tail_ms` falls.
    """
    shape = random.Random(f"b:{i}")
    if i < 16:
        n, mode, extra, integral = 2 + i % 5, ("group", "semigroup")[i % 2], 1 + i % 2, i % 4 != 3
    else:
        n, mode, extra, integral = 5, "group", 1, True
    classes = ["out"] if mode == "semigroup" or integral else ["out", "in"]
    h, _ = spectral_matrix(shape, rng, n, integral, classes)
    gens = {"h": h}
    for j in range(extra):
        gens[f"u{j}"] = unimodular(shape, n, steps=n + 1)
    return {"family": "b", "case": case_json(n, mode, present(rng, gens)), "truth": EXPANSIVE}


def family_c(rng, i):
    """Two generators [[c, C_j], [0, B_j]] sharing the vector e1 (conjugated):
    c = 1 fixes it, c = -1 keeps its orbit bounded.  NotExpansive."""
    shape = random.Random(f"c:{i}")
    n = 3
    corner = Fraction(1 if i % 2 == 0 else -1)
    u = change_of_basis(shape, n, integral=True)
    gens = {}
    for j in range(2):
        lower = unimodular(shape, n - 1, steps=n + 1)
        t = [[Fraction(0)] * n for _ in range(n)]
        t[0][0] = corner
        t[0][1:] = [Fraction(shape.choice((0, 1, -1, 2))) for _ in range(n - 1)]
        for r in range(n - 1):
            t[1 + r][1:] = [Fraction(x) for x in lower[r]]
        gens[f"g{j}"] = conjugate(u, t)
    return {"family": "c", "case": case_json(n, "group", present(rng, gens)), "truth": NOT_EXPANSIVE}


AFFINE_SL2 = {
    "n": 3,
    "generators": {
        "s_e1": [[0, -1, 1], [1, 0, 0], [0, 0, 1]],
        "s_e2": [[0, -1, 0], [1, 0, 1], [0, 0, 1]],
        "t_e1": [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
        "t_e2": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
    },
    "mode": "group",
}
SL2_GENERATORS = {"n": 2, "generators": {"s": [[0, -1], [1, 0]], "t": [[1, 1], [0, 1]]}, "mode": "group"}
CAT_MAP = {"n": 2, "F": [[1, 0], [0, 1]], "generators": {"cat": [[2, 1], [1, 1]]}, "mode": "group"}
DYADIC = {"n": 1, "F": [[1]], "generators": {"double": [[2]]}, "mode": "group"}
SIXTH = {"n": 1, "F": [[1]], "generators": {"double": [[2]], "triple": [[3]]}, "mode": "group"}

# family -> generated cases per round; family d is the affine_sl2 fixture.
# README.md gives the reasons.
ENGINE_MIX = {"a": 40, "b": 24, "c": 1}


def engine_cases(seed: int) -> list[dict]:
    rng = random.Random(f"engine_search:{seed}")
    makers = {"a": family_a, "b": family_b, "c": family_c}
    out = []
    for fam, count in ENGINE_MIX.items():
        for i in range(count):
            out.append(makers[fam](rng, i))
    # SL(2, Z) is expansive through a hyperbolic word; affine_sl2 is family d
    out.append({"family": "b", "case": SL2_GENERATORS, "truth": EXPANSIVE})
    out.append({"family": "d", "case": AFFINE_SL2, "truth": EXPANSIVE})
    for k, op in enumerate(out):
        op["id"] = f"{op['family']}{k}"
        op["kind"] = "decide"
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ torus_solenoid

# torus actions: (n, irreducible?) -- irreducible ones take the fast path
TORUS_SHAPES = ((2, True), (2, True), (3, True), (3, True), (4, True), (4, True), (5, True), (5, True),
                (4, False), (6, False))
# (size of block A, size of block B) for commuting pairs diag(A, I), diag(I, B)
COMMUTING_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)) * 2
HYPERBOLIC_2 = ([[2, 1], [1, 1]], [[1, 1], [1, 0]], [[3, 1], [2, 1]], [[0, 1], [1, 3]])
# (|generator scalars| or a 2x2 matrix name, depth); signs and F come from the seed
MODULES_1D = (((2,), 4), ((3,), 4), ((2, 3), 3), ((Fraction(3, 2),), 4), ((5,), 3), ((2, 5), 3), ((6,), 4),
              ((Fraction(4, 3),), 3))
MODULES_2D = (("fib", 2), ("cat", 2), ("rotation", 2), ("pell", 2), ("trace3", 2))
MODULES_2X2 = {"fib": [[1, 1], [1, 0]], "cat": [[2, 1], [1, 1]], "rotation": [[0, -1], [1, 0]],
               "pell": [[2, 1], [1, 0]], "trace3": [[0, -1], [1, 3]]}


def expansive_block(rng, k):
    if k == 1:
        return [[rng.choice((2, -2, 3, -3))]]
    if k == 2:
        return rng.choice(HYPERBOLIC_2)
    return selmer(3)


def companion(coeffs):
    """Companion matrix of z^n + c_{n-1} z^{n-1} + ... + c_0, coeffs = [c_0, ..., c_{n-1}]."""
    n = len(coeffs)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = Fraction(-coeffs[i])
    return m


def selmer(n):
    """z^n - z - 1, irreducible over Q for every n (Selmer), with a root of modulus > 1."""
    return companion([-1, -1] + [0] * (n - 2))


def torus_case(rng, i, n, irreducible):
    """Irreducible: a Selmer companion (no rational invariant subspace, infinite
    order) plus a unimodular matrix.  Reducible: two block-diagonal matrices
    whose first one is a Selmer companion on each block."""
    shape = random.Random(f"torus:{i}")
    u = change_of_basis(shape, n, integral=True)
    if irreducible:
        gens = {"a": conjugate(u, selmer(n)), "b": unimodular(shape, n, steps=n + 2)}
    else:
        k = n // 2
        a = block_diag(selmer(k), selmer(n - k))
        b = block_diag(unimodular(shape, k, steps=k + 1), unimodular(shape, n - k, steps=n - k + 1))
        gens = {"a": conjugate(u, a), "b": conjugate(u, b)}
    # a Selmer block has no root on the circle, so `a` alone is expansive
    return {"kind": "torus", "case": case_json(n, "group", present(rng, gens)), "truth": EXPANSIVE}


def commuting_case(rng, i, ka, kb):
    """diag(A, I) and diag(I, B) commute; with A and B hyperbolic, only a
    product of the two is expansive on its own."""
    shape = random.Random(f"commuting:{i}")
    a, b = expansive_block(shape, ka), expansive_block(shape, kb)
    u = change_of_basis(shape, ka + kb, integral=True)
    gens = {"x": conjugate(u, block_diag(a, identity(kb))), "y": conjugate(u, block_diag(identity(ka), b))}
    return {"kind": "find_expansive", "case": case_json(ka + kb, "group", present(rng, gens))}


def module_case(rng, spec, depth):
    """A dual-module case; spec is a tuple of scalars or a 2x2 matrix name."""
    if isinstance(spec, tuple):
        c = rng.randint(1, 4)
        gens = {f"m{j}": [[Fraction(s) * rng.choice((1, -1))]] for j, s in enumerate(spec)}
        case = case_json(1, "group", gens, F=[[c]])
    else:
        m = [[Fraction(x) for x in row] for row in MODULES_2X2[spec]]
        if rng.random() < 0.5:
            m = [[-x for x in row] for row in m]
        if rng.random() < 0.5:
            m = [list(r) for r in zip(*m)]
        case = case_json(2, "group", {"h": m}, F=identity(2))
    return module_op(rng, case, depth, NOT_EXPANSIVE if spec == "rotation" else EXPANSIVE)


def character_levels(case: dict, depth: int) -> list[list[tuple]]:
    """Images of the module generators under words of length <= m, m = 1..depth."""
    gens = [[[Fraction(x) for x in row] for row in m] for m in case["generators"].values()]
    if case.get("mode", "group") == "group":
        gens = gens + [mat_inv(g) for g in gens]
    current = []
    for f in case["F"]:
        chi = tuple(Fraction(x) for x in f)
        if chi not in current:
            current.append(chi)
    seen = set(current)
    levels = []
    for _ in range(depth):
        grown = list(current)
        for chi in current:
            for g in gens:
                img = tuple(mat_vec(g, list(chi)))
                if img not in seen:
                    seen.add(img)
                    grown.append(img)
        current = grown
        levels.append(list(current))
    return levels


def module_op(rng, case, depth, truth=EXPANSIVE):
    """One operation: the chain, the lift of a window of a known small
    functional through it, and the solenoid verdict."""
    levels = character_levels(case, depth)
    chars = levels[-1]
    n = case["n"]
    # every chain bound is at least 1/128 (cost cap 64), so |chi . p| <= 1/512 keeps p liftable
    big = max(sum(abs(x) for x in chi) for chi in chars)
    scale = Fraction(1, 512) / big
    functional = [scale * Fraction(rng.randint(-64, 64), 64) for _ in range(n)]
    window = [
        {"character": [str(x) for x in chi], "mid": str(sum((a * b for a, b in zip(chi, functional)), Fraction(0)) % 1),
         "rad": str(Fraction(1, 2**60))}
        for chi in chars
    ]
    return {"kind": "module", "case": case, "depth": depth, "levels": [[[str(x) for x in c] for c in lv] for lv in levels],
            "window": window, "functional": [str(x) for x in functional], "truth": truth}


def torus_solenoid_cases(seed: int) -> list[dict]:
    rng = random.Random(f"torus_solenoid:{seed}")
    out = [torus_case(rng, i, n, irr) for i, (n, irr) in enumerate(TORUS_SHAPES)]
    out += [commuting_case(rng, i, ka, kb) for i, (ka, kb) in enumerate(COMMUTING_SHAPES)]
    out += [module_case(rng, spec, depth) for spec, depth in MODULES_1D + MODULES_2D]
    out += [module_op(rng, case, depth) for case, depth in ((DYADIC, 4), (SIXTH, 4), (CAT_MAP, 3))]
    for k, op in enumerate(out):
        op["id"] = f"{op['kind']}{k}"
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ cli_fixtures

# Every fixture x subcommand pair of the README that decides in well under
# 50 ms and is valid input for that subcommand.  Pairs that take seconds
# (affine_sl2, the cat_map and sixth chains) or are input errors are out.
CLI_PAIRS = (
    ("analyze-matrix", "cat_map", ()),
    ("analyze-matrix", "doubling", ()),
    ("analyze-matrix", "dyadic_solenoid", ()),
    ("analyze-matrix", "rotation", ()),
    ("analyze-semigroup", "cat_map", ("--depth", "10")),
    ("analyze-semigroup", "doubling", ()),
    ("analyze-semigroup", "dyadic_solenoid", ()),
    ("analyze-semigroup", "rotation", ()),
    ("analyze-semigroup", "sixth_solenoid", ()),
    ("analyze-semigroup", "sl2_generators", ()),
    ("find-expansive", "cat_map", ()),
    ("find-expansive", "dyadic_solenoid", ()),
    ("find-expansive", "rotation", ()),
    ("find-expansive", "sixth_solenoid", ()),
    ("torus-check", "cat_map", ()),
    ("torus-check", "cat_map", ("--epsilon", "1/5", "--radius", "5")),
    ("torus-check", "doubling", ()),
    ("torus-check", "rotation", ()),
    ("torus-check", "sl2_generators", ()),
    ("jsr", "cat_map", ()),
    ("jsr", "doubling", ("--depth", "6")),
    ("jsr", "dyadic_solenoid", ()),
    ("jsr", "rotation", ()),
    ("jsr", "sixth_solenoid", ()),
    ("jsr", "sl2_generators", ()),
    ("solenoid-chain", "doubling", ()),
    ("solenoid-chain", "dyadic_solenoid", ("--depth", "4")),
    ("solenoid-lift", "dyadic_solenoid", ("--window", "fixtures/dyadic_window.json", "--radius", "3/10")),
    ("solenoid-check", "cat_map", ()),
    ("solenoid-check", "doubling", ()),
    ("solenoid-check", "dyadic_solenoid", ()),
    ("solenoid-check", "sixth_solenoid", ()),
)
# verdicts of the fixtures, by construction: cat_map, sl2 (through a
# hyperbolic word) and the scalar maps 2 and 3 expand; the quarter turn is an
# isometry.  They hold on R^n, on the torus and on the solenoid alike.
FIXTURE_TRUTH = {
    "cat_map": EXPANSIVE,
    "doubling": EXPANSIVE,
    "dyadic_solenoid": EXPANSIVE,
    "rotation": NOT_EXPANSIVE,
    "sixth_solenoid": EXPANSIVE,
    "sl2_generators": EXPANSIVE,
}
# the functional behind fixtures/dyadic_window.json: every angle is chi/64
DYADIC_WINDOW_FUNCTIONAL = ["1/64"]


def cli_cases(seed: int) -> list[dict]:
    """The fixed pairs in a seeded order."""
    out = [
        {"id": f"{sub}:{fixture}:{k}", "kind": "cli", "subcommand": sub, "fixture": fixture, "args": list(args)}
        for k, (sub, fixture, args) in enumerate(CLI_PAIRS)
    ]
    random.Random(f"cli_fixtures:{seed}").shuffle(out)
    return out


WORKLOADS = {"cli_fixtures": cli_cases, "engine_search": engine_cases, "torus_solenoid": torus_solenoid_cases}
