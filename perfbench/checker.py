"""Independent checker for the program's outputs.

Built on sympy (exact polynomials), mpmath (certified root positions) and
``fractions``; it never imports the program.  Each certificate is checked
for what it must prove, with the polarity of its kind: a certificate that
proves NotExpansive cannot back an Expansive report, and the other way
round.  A check returns None when the output is right and a short reason
when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import mpmath as mp
import sympy as sp

EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"
UNKNOWN = "Unknown"
INVERSE_SUFFIX = "^-1"

# which status each certificate kind proves
POLARITY = {
    "empty_space": EXPANSIVE,
    "word_spectrum": EXPANSIVE,
    "split": EXPANSIVE,
    "affine_obstruction": EXPANSIVE,
    "irreducible_fast_path": EXPANSIVE,
    "spectral_obstruction": NOT_EXPANSIVE,
    "InvariantNormFound": NOT_EXPANSIVE,
}


class Reject(Exception):
    """An output failed a check; the message says which."""


def require(cond, reason: str) -> None:
    if not cond:
        raise Reject(reason)


# ------------------------------------------------------------ exact linear algebra


def frac(x) -> Fraction:
    return Fraction(x) if not isinstance(x, str) else Fraction(x.strip())


def matrix(rows) -> list[list[Fraction]]:
    return [[frac(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def apply(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det(a) -> Fraction:
    return Fraction(sp.Matrix(a).det(method="bareiss")) if a else Fraction(1)


def inverse(a):
    inv = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in a]).inv()
    return [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(len(a))] for i in range(len(a))]


def solve_in_span(basis, v):
    """Coordinates of v over independent vectors, or None."""
    k = len(basis)
    if k == 0:
        return [] if all(x == 0 for x in v) else None
    a = sp.Matrix([[sp.Rational(b[i].numerator, b[i].denominator) for b in basis] for i in range(len(v))])
    rhs = sp.Matrix([sp.Rational(x.numerator, x.denominator) for x in v])
    try:
        sol, params = a.gauss_jordan_solve(rhs)
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return [Fraction(int(x.p), int(x.q)) for x in sol]


def consistent(rows, rhs) -> bool:
    return rank(rows) == rank([list(r) + [b] for r, b in zip(rows, rhs)])


def positive_definite(q) -> bool:
    """Sylvester: every leading principal minor is positive."""
    return all(det([row[:k] for row in q[:k]]) > 0 for k in range(1, len(q) + 1))


def positive_semidefinite(q) -> bool:
    """Every principal minor is nonnegative (sizes here are at most 8)."""
    n = len(q)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if det([[q[i][j] for j in idx] for i in idx]) < 0:
            return False
    return True


def symmetric(q) -> bool:
    return all(q[i][j] == q[j][i] for i in range(len(q)) for j in range(len(q)))


# ------------------------------------------------------------ root positions

_Z = sp.Symbol("z")


def char_coeffs(m) -> list[Fraction]:
    """Characteristic polynomial coefficients, constant term first."""
    if not m:
        return [Fraction(1)]
    poly = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in m]).charpoly(_Z)
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def _roots(poly: sp.Poly, dps: int):
    with mp.workdps(dps):
        cs = [mp.mpf(int(c.p)) / int(c.q) for c in poly.all_coeffs()]
        roots, err = mp.polyroots(cs, maxsteps=400, extraprec=3 * dps, error=True)
        return [mp.mpc(r) for r in roots], mp.mpf(err)


def _count_squarefree(f: sp.Poly) -> tuple[int, int, int]:
    """(inside, on, outside) for squarefree f with f(0) != 0.

    Roots on the circle all lie in g = gcd(f, reversed f), whose roots come
    in pairs r, 1/conj(r).  A root of g within the error bound of the circle
    is certified on it when the pair partner could only be r itself, i.e.
    when the partner gap is below the distinct-root separation.  The rest
    of f has no circle root, so its roots only need to clear the bound.
    """
    rev = sp.Poly(list(reversed(f.all_coeffs())), _Z, domain=sp.QQ)
    g = sp.gcd(f, rev)
    h = sp.quo(f, g)
    counts = [0, 0, 0]
    for part, may_touch in ((g, True), (h, False)):
        if part.degree() <= 0:
            continue
        for dps in (50, 100, 200, 400):
            roots, err = _roots(part, dps)
            with mp.workdps(dps):
                bound = 4 * max(err, mp.mpf(10) ** (-dps // 2))
                sep = min((abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]), default=mp.mpf(1))
                local = [0, 0, 0]
                ok = True
                for r in roots:
                    gap = abs(r) - 1
                    if abs(gap) > bound:
                        local[0 if gap < 0 else 2] += 1
                    elif may_touch and abs(1 - abs(r) ** 2) / abs(r) + 2 * bound < sep:
                        local[1] += 1
                    else:
                        ok = False
                        break
            if ok:
                counts = [a + b for a, b in zip(counts, local)]
                break
        else:
            raise Reject("root positions could not be certified")
    return tuple(counts)


def disk_profile(coeffs) -> dict:
    """{at_zero, inside, on_circle, outside} of a polynomial, constant term first."""
    cs = [sp.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
    at_zero = 0
    while len(cs) > 1 and cs[0] == 0:
        cs = cs[1:]
        at_zero += 1
    p = sp.Poly(list(reversed(cs)), _Z, domain=sp.QQ)
    inside = on = outside = 0
    for factor, mult in p.sqf_list()[1]:
        i, o, u = _count_squarefree(sp.Poly(factor, _Z, domain=sp.QQ))
        inside, on, outside = inside + mult * i, on + mult * o, outside + mult * u
    return {"at_zero": at_zero, "inside": inside, "on_circle": on, "outside": outside}


def spectral_radius(m) -> float:
    cs = char_coeffs(m)
    if len(cs) == 1:
        return 0.0
    roots, _ = _roots(sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(cs)], _Z), 30)
    return float(max(abs(r) for r in roots))


def escapes(profile: dict, mode: str) -> bool:
    if profile["at_zero"] or profile["on_circle"]:
        return False
    return mode == "group" or profile["inside"] == 0


# ------------------------------------------------------------ cases and reports


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def case_hash(case: dict) -> str:
    return hashlib.sha256(canonical_json(case).encode("utf-8")).hexdigest()


def lookup_of(case: dict, mode: str) -> dict:
    """Generator name -> matrix; in group mode also the inverses the program adds."""
    gens = {name: matrix(rows) for name, rows in sorted(case["generators"].items())}
    if mode == "group":
        seen = list(gens.values())
        for name, m in list(gens.items()):
            inv = inverse(m)
            if inv not in seen:
                gens[name + INVERSE_SUFFIX] = inv
                seen.append(inv)
    return gens


def word_product(lookup: dict, word) -> list:
    require(isinstance(word, list) and word, "empty word")
    require(all(name in lookup for name in word), f"unknown letter in {word}")
    m = lookup[word[0]]
    for name in word[1:]:
        m = mul(m, lookup[name])
    return m


def restricted(lookup: dict, rows) -> dict:
    """Matrices of the generators on span(rows), columns = coordinates of g(row)."""
    out = {}
    for name, g in lookup.items():
        cols = []
        for r in rows:
            c = solve_in_span(rows, apply(g, r))
            require(c is not None, "space is not invariant")
            cols.append(c)
        out[name] = transpose(cols)
    return out


def adapted_blocks(lookup: dict, rows, comp):
    """(A, B, D) blocks of P^-1 g P for P = [rows | complement]."""
    n = len(rows) + len(comp)
    k = len(rows)
    p = transpose([list(v) for v in rows] + [list(v) for v in comp])
    require(det(p) != 0, "space and complement do not span")
    pinv = inverse(p)
    out = {}
    for name, g in lookup.items():
        t = mul(mul(pinv, g), p)
        out[name] = (
            [t[i][:k] for i in range(k)],
            [t[i][k:] for i in range(k)],
            [t[i][k:] for i in range(k, n)],
        )
    return out


def check_cert(cert: dict, lookup: dict, mode: str, dim: int, claim: str, witness=None) -> None:
    """Raise Reject unless cert proves `claim` for the action `lookup` on Q^dim."""
    require(isinstance(cert, dict), "certificate missing")
    kind = cert.get("kind")
    require(kind in POLARITY, f"unknown certificate kind {kind!r}")
    require(POLARITY[kind] == claim, f"{kind} cannot prove {claim}")

    if kind == "empty_space":
        require(dim == 0, "empty_space on a nonzero space")
        return

    if kind == "word_spectrum":
        m = word_product(lookup, cert.get("word"))
        prof = disk_profile(char_coeffs(m))
        require(prof == cert.get("profile"), f"profile {cert.get('profile')} != {prof}")
        require(escapes(prof, mode), "word does not escape")
        return

    if kind == "spectral_obstruction":
        m = word_product(lookup, cert.get("word"))
        prof = disk_profile(char_coeffs(m))
        require(prof == cert.get("profile"), f"profile {cert.get('profile')} != {prof}")
        require(not escapes(prof, mode), "the word escapes")
        # one spectrum decides only a cyclic action
        ident = identity(dim)
        allowed = [m, ident] + ([inverse(m)] if det(m) != 0 else [])
        require(all(g in allowed for g in lookup.values()), "action is not cyclic")
        lam = cert.get("witness_eigenvalue")
        if lam is not None and witness is not None:
            require(any(x != 0 for x in witness), "zero witness")
            require(apply(m, witness) == [frac(lam) * x for x in witness], "witness eigen-equation fails")
        return

    if kind == "InvariantNormFound":
        rows = [[frac(x) for x in r] for r in cert.get("space", [])]
        q = matrix(cert.get("gram", []))
        require(rows and len(q) == len(rows), "gram and space sizes differ")
        require(all(len(r) == dim for r in rows), "space rows have the wrong length")
        require(rank(rows) == len(rows), "space rows are dependent")
        res = restricted(lookup, rows)
        require(symmetric(q) and positive_definite(q), "gram is not positive definite")
        for name, r in res.items():
            drop = [[a - b for a, b in zip(x, y)] for x, y in zip(q, mul(mul(transpose(r), q), r))]
            require(positive_semidefinite(drop), f"Q - R'QR is not PSD for {name}")
        if witness is not None:
            require(any(x != 0 for x in witness), "zero witness")
            require(solve_in_span(rows, witness) is not None, "witness outside the space")
        return

    # split and affine_obstruction
    rows = [[frac(x) for x in r] for r in cert.get("space", [])]
    comp = [[frac(x) for x in r] for r in cert.get("complement", [])]
    k = len(rows)
    require(0 < k < dim and k + len(comp) == dim, "bad split sizes")
    res = restricted(lookup, rows)
    check_cert(cert.get("restriction"), res, mode, k, EXPANSIVE)
    blocks = adapted_blocks(lookup, rows, comp)
    if kind == "split":
        check_cert(cert.get("quotient"), {name: d for name, (_, _, d) in blocks.items()}, mode, dim - k, EXPANSIVE)
        return
    # affine_obstruction: no line (u, 1) with (A_g - mu_g) u = -b_g for every g
    require(dim - k == 1, "affine obstruction needs a line quotient")
    scalars = cert.get("scalars") or {}
    sys_rows, rhs = [], []
    for name, (a, b, d) in blocks.items():
        require(name in scalars and d[0][0] == frac(scalars[name]), f"quotient scalar of {name}")
        mu = d[0][0]
        for i in range(k):
            sys_rows.append([a[i][j] - (mu if i == j else 0) for j in range(k)])
            rhs.append(-b[i][0])
    require(not consistent(sys_rows, rhs), "the affine system has a solution")


# ------------------------------------------------------------ torus fast path

PRIME = (1 << 61) - 1


def _rank_mod_p_full(mats, n: int, cap: int = 4000) -> bool:
    """True when word products of integer matrices span all n x n matrices.

    Rank mod p never exceeds rank over Q, so full rank mod p is a proof.
    """
    basis: list[list[int]] = []  # echelon rows mod p with pivot positions
    pivots: list[int] = []

    def add(vec) -> bool:
        v = [x % PRIME for x in vec]
        for row, piv in zip(basis, pivots):
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % PRIME for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], PRIME - 2, PRIME)
        basis.append([x * inv % PRIME for x in v])
        pivots.append(lead)
        return True

    def flat(m):
        return [int(x) for row in m for x in row]

    ident = identity(n)
    add(flat(ident))
    queue = [ident]
    seen = 0
    while queue and len(basis) < n * n and seen < cap:
        m = queue.pop(0)
        for g in mats:
            p = mul(m, g)
            seen += 1
            if add(flat(p)):
                queue.append(p)
    return len(basis) == n * n


def _totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def infinite_order(m) -> bool:
    """An integer matrix has finite order only if m^L = I, L = lcm{d : phi(d) <= n}."""
    if disk_profile(char_coeffs(m))["outside"] > 0:
        return True
    n = len(m)
    big = 1
    for d in range(1, 2 * n * n + 2):
        if _totient(d) <= n:
            big = math.lcm(big, d)
    p = sp.Matrix(m) ** big
    return p != sp.eye(n)


def check_fast_path(cert: dict, case: dict, lookup: dict, mode: str) -> None:
    """An infinite semigroup of integer matrices acting absolutely irreducibly is expansive on T^n."""
    n = case["n"]
    for name, rows in case["generators"].items():
        g = matrix(rows)
        require(all(x.denominator == 1 for row in g for x in row), f"{name} is not integral")
        require(mode != "group" or abs(det(g)) == 1, f"{name} is not unimodular")
    require(_rank_mod_p_full(list(lookup.values()), n), "word span is not all of M_n")
    require(infinite_order(word_product(lookup, cert.get("infinite_order_word"))), "word has finite order")


# ------------------------------------------------------------ verdict reports


def action_of(report: dict, case: dict):
    """(lookup, dim) of the action a decide report speaks about."""
    mode = report.get("options", {}).get("mode") or case.get("mode", "group")
    if report.get("command") != "solenoid-check":
        return lookup_of(case, mode), case["n"], mode
    # the solenoid verdict is about the adjoint action on the span of the module
    lookup = lookup_of(case, mode)
    basis = []
    for f in case["F"]:
        v = [frac(x) for x in f]
        if solve_in_span(basis, v) is None:
            basis.append(v)
    queue = list(basis)
    while queue:
        v = queue.pop()
        for g in lookup.values():
            w = apply(g, v)
            if solve_in_span(basis, w) is None:
                basis.append(w)
                queue.append(w)
    adjoint = {name: transpose(r) for name, r in restricted(lookup, basis).items()}
    return adjoint, len(basis), mode


def check_verdict(report: dict, case: dict, truth=None) -> None:
    require(report.get("case") == case_hash(case), "case hash mismatch")
    status = report.get("status")
    require(status in (EXPANSIVE, NOT_EXPANSIVE, UNKNOWN), f"bad status {status!r}")
    if status == UNKNOWN:
        require(report.get("certificate") is None, "Unknown with a certificate")
        return
    if truth is not None:
        require(status == truth, f"verdict {status} but the construction fixes {truth}")
    cert = report.get("certificate")
    require(isinstance(cert, dict), "decisive report without certificate")
    lookup, dim, mode = action_of(report, case)
    if cert.get("kind") == "irreducible_fast_path":
        require(status == EXPANSIVE, "fast path cannot prove NotExpansive")
        check_fast_path(cert, case, lookup, mode)
        return
    witness = report.get("witness")
    witness = [frac(x) for x in witness] if witness is not None else None
    check_cert(cert, lookup, mode, dim, status, witness)


def check_find_expansive(report: dict, case: dict) -> None:
    require(report.get("case") == case_hash(case), "case hash mismatch")
    if report.get("status") == UNKNOWN:
        require(report.get("found") is False, "Unknown but found")
        return
    require(report.get("status") == EXPANSIVE and report.get("found") is True, "bad find-expansive status")
    lookup = lookup_of(case, "group")
    m = word_product(lookup, report.get("word"))
    if "matrix" in report:
        require(matrix(report["matrix"]) == m, "reported matrix is not the word product")
    prof = disk_profile(char_coeffs(m))
    require(prof["on_circle"] == 0 and prof["at_zero"] == 0, "a root of the word lies on the circle")
    check_cert(report.get("certificate"), lookup, "group", case["n"], EXPANSIVE)


def check_jsr(report: dict, case: dict) -> None:
    require(report.get("case") == case_hash(case), "case hash mismatch")
    b = report.get("bounds") or {}
    lo, hi = b.get("lower"), b.get("upper")
    require(isinstance(lo, float) and isinstance(hi, float), "bounds missing")
    require(lo <= hi, "lower bound above upper bound")
    mode = report.get("options", {}).get("mode") or case.get("mode", "group")
    for name, m in lookup_of(case, mode).items():
        require(lo >= spectral_radius(m) * (1 - 1e-9), f"lower bound below the spectral radius of {name}")


# ------------------------------------------------------------ solenoid chains and lifts


def character(coords) -> tuple:
    return tuple(frac(x) for x in coords)


def check_chain(report: dict, case: dict, levels=None) -> None:
    """Nested levels, exact relations over the previous level, cost <= k, k = largest cost."""
    require(report.get("case") == case_hash(case), "case hash mismatch")
    chain = report.get("chain") or {}
    got = [[character(c) for c in lv] for lv in chain.get("levels", [])]
    require(got, "chain without levels")
    if levels is not None:
        want = [{character(c) for c in lv} for lv in levels]
        require([set(lv) for lv in got] == want, "levels differ from the word images of the module")
    for a, b in zip(got, got[1:]):
        require(set(a) <= set(b), "levels are not nested")
    rels = {}
    for r in chain.get("relations", []):
        rels[character(r["target"])] = r
    costs = []
    for i in range(1, len(got)):
        prev = set(got[i - 1])
        for chi in got[i]:
            if chi in prev:
                continue
            r = rels.get(chi)
            require(r is not None, "new character without a relation")
            n0 = int(r["n0"])
            require(n0 >= 1, "relation with n0 < 1")
            rhs = [Fraction(0)] * len(chi)
            cost = n0
            for t in r["terms"]:
                a = character(t["character"])
                require(a in prev, "relation term outside the previous level")
                c = int(t["coef"])
                cost += abs(c)
                rhs = [x + c * y for x, y in zip(rhs, a)]
            require([n0 * x for x in chi] == rhs, "relation does not hold")
            costs.append(cost)
    k = int(chain.get("k", report.get("k")))
    require(all(c <= k for c in costs), "relation cost above k")
    require(k == max(costs, default=1), "k is not the largest relation cost")
    if "k" in report:
        require(int(report["k"]) == k, "report k differs from chain k")


def check_lift(report: dict, case: dict, functional, levels=None) -> None:
    """Roundtrip: every lifted value's ball holds chi . p, below the bound."""
    check_chain(report, case, levels)
    p = [frac(x) for x in functional]
    chars = [character(c) for lv in report["chain"]["levels"] for c in lv]
    lifts = report.get("lifts") or []
    require(lifts, "no lifts")
    for entry in lifts:
        require(entry.get("lifted") is True, "window of a true functional was not lifted")
        bound = frac(entry["bound"])
        require(0 < bound * int(report["chain"]["k"]) < 1, "bound not below 1/k")
        values = {character(v["character"]): (frac(v["mid"]), frac(v["rad"])) for v in entry["values"]}
        for chi in chars:
            require(chi in values, "chain character without a lifted value")
            mid, rad = values[chi]
            exact = sum((a * b for a, b in zip(chi, p)), Fraction(0))
            require(rad >= 0 and abs(mid - exact) <= rad, "lifted value misses the functional")
            require(abs(mid) + rad < bound, "lifted value not within the bound")


# ------------------------------------------------------------ CLI exit codes


def expected_exit(report: dict) -> int:
    """The exit code the CLI owes a report: 2 for Unknown, else 0."""
    return 2 if report.get("status") == UNKNOWN else 0


def check(op: dict, report: dict, case: dict) -> None:
    """Dispatch on the subcommand the report names."""
    command = report.get("command")
    if command in ("analyze-matrix", "analyze-semigroup", "torus-check", "solenoid-check"):
        check_verdict(report, case, op.get("truth"))
    elif command == "find-expansive":
        check_find_expansive(report, case)
    elif command == "jsr":
        check_jsr(report, case)
    elif command == "solenoid-chain":
        check_chain(report, case, op.get("levels"))
    elif command == "solenoid-lift":
        check_lift(report, case, op["functional"], op.get("levels"))
    else:
        raise Reject(f"unexpected command {command!r}")


def reason(op: dict, report: dict, case: dict):
    """None when the report passes, else the reason it fails."""
    try:
        check(op, report, case)
    except Reject as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
