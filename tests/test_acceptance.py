"""Acceptance checks: one end-to-end scenario per shipped guarantee.

Every test uses a frozen seed so failures replay exactly. Randomized
scenarios cross-check two independent routes to the same answer: disk
counts against the root-isolation oracle, the search engine against the
grid oracle, weight tests against the engine, lifts against the exact
functional they encode.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from oracle_roots import disk_profile_oracle

from expansive.actions import SemigroupAction
from expansive.exact import QMatrix, QPoly, char_poly, poly_of_matrix
from expansive.orbits import expansiveness_check
from expansive.solenoid import (
    Ball,
    DualModuleAction,
    E_window,
    HomVector,
    SolenoidWindow,
    d_A,
    enumerate_basis,
    lift,
    regular_chain,
    solenoid_expansive,
)
from expansive.spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, SEMIGROUP, UNKNOWN, single_expansive, unit_disk_profile
from expansive.torus import TorusPoint, orbit_spread, rational_orbit_oracle
from expansive.weights import (
    expansive_by_weights,
    find_expansive_element,
    weight_decomposition,
)


def M(rows):
    return QMatrix.from_rows([[Fraction(x) for x in r] for r in rows])


def random_unimodular(rng, span=3):
    # shear products keep the determinant at +-1; rejection keeps entries small
    while True:
        a, b, c = (rng.randint(-span, span) for _ in range(3))
        m = M([[1, 0], [a, 1]]) @ M([[1, b], [0, 1]]) @ M([[1, 0], [c, 1]])
        if rng.random() < 0.5:
            m = m.scale(-1)
        if all(abs(m[i, j]) <= span for i in range(2) for j in range(2)):
            return m


def primitive_integer(witness):
    den = 1
    for x in witness:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in witness]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v, g) for v in ints)


def real_orbit_sup(action, start, cap=200_000):
    """Exact sup-norm bound over the full word orbit of an integer vector."""
    seen = {start}
    stack = [start]
    best = max(abs(x) for x in start)
    while stack:
        v = stack.pop()
        for m in action.mats:
            nxt = tuple(m.apply(v))
            if nxt not in seen:
                assert len(seen) < cap, "bounded witness orbit exceeded the cap"
                seen.add(nxt)
                stack.append(nxt)
                best = max(best, max(abs(x) for x in nxt))
    return best


def chain_chars(chain):
    return list(dict.fromkeys(chi for level in chain.levels for chi in level))


def test_criterion_1_disk_counts_match_root_isolation_oracle():
    rng = random.Random(1001)
    t0 = time.time()
    for _ in range(500):
        deg = rng.randint(1, 8)
        while True:
            cs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if cs[0] != 0 and cs[-1] != 0:
                break
        mine = unit_disk_profile(QPoly.from_coeffs([Fraction(c) for c in cs]))
        assert mine.to_json() == disk_profile_oracle(cs), cs
    assert time.time() - t0 < 30.0


def test_criterion_2_doubling_cat_and_identity_fixtures():
    doubling = M([[2]])
    assert single_expansive(doubling, SEMIGROUP).expansive

    cat = M([[2, 1], [1, 1]])
    as_group = single_expansive(cat, GROUP)
    as_semigroup = single_expansive(cat, SEMIGROUP)
    assert as_group.expansive
    assert not as_semigroup.expansive
    expected = {"at_zero": 0, "inside": 1, "on_circle": 0, "outside": 1}
    assert as_group.profile.to_json() == expected
    assert disk_profile_oracle([1, -3, 1]) == expected

    identity = QMatrix.identity(2)
    assert not single_expansive(identity, GROUP).expansive
    assert not single_expansive(identity, SEMIGROUP).expansive


def test_criterion_3_torus_engine_against_grid_oracle():
    rng = random.Random(1003)
    counts = {EXPANSIVE: 0, NOT_EXPANSIVE: 0, UNKNOWN: 0}
    clashes = []
    for i in range(100):
        named = [(f"g{j}", random_unimodular(rng)) for j in range(rng.choice([1, 2]))]
        action = SemigroupAction.from_generators(named, GROUP)
        res = expansiveness_check(action, depth=10)
        counts[res.status] += 1
        if res.status == EXPANSIVE:
            for q in (5, 8, 16):
                oracle = rational_orbit_oracle(action, q, Fraction(1, 4))
                if not oracle.separated:
                    clashes.append((i, q, oracle.failing_point.to_json()))
        elif res.status == NOT_EXPANSIVE and res.witness is not None:
            w = primitive_integer(res.witness)
            bound = real_orbit_sup(action, w)
            e = 2
            while 2**e <= 4 * bound:
                e += 1
            # the whole orbit stays inside |.| < 1/4, so nothing wraps and
            # halving the start point halves the spread exactly
            spreads = [
                orbit_spread(action, TorusPoint.from_coords([x / 2 ** (e + s) for x in w]))
                for s in range(3)
            ]
            assert spreads[0] > 0, (i, w)
            for wide, narrow in zip(spreads, spreads[1:]):
                assert narrow <= wide <= 2 * narrow, (i, spreads)
    print(f"verdicts {counts}, oracle clashes {clashes}")
    assert counts[UNKNOWN] / 100 < 0.30
    assert clashes == [], (
        "expansive verdicts whose 1/q grids never separate at epsilon 1/4; a fixed "
        "grid point of some word (det(w - I) divisible by q) sits closer than 1/4: "
        f"{clashes}"
    )


def test_criterion_4_weight_test_matches_engine_on_commuting_families():
    rng = random.Random(1004)
    undecided = 0
    disagreements = []
    for i in range(100):
        t = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        family = SemigroupAction.from_generators(
            [("t", t), ("t_shift", t + QMatrix.identity(3).scale(2))], SEMIGROUP
        )
        engine = expansiveness_check(family, depth=6)
        weights = expansive_by_weights(weight_decomposition(family), SEMIGROUP)
        if engine.status == UNKNOWN:
            undecided += 1
        elif weights.status != engine.status:
            disagreements.append((i, engine.status, weights.status))
    print(f"engine undecided on {undecided}/100")
    assert disagreements == []


def test_criterion_5_weight_pass_yields_expansive_word():
    def check_family(action):
        verdict = expansive_by_weights(weight_decomposition(action), GROUP)
        if verdict.status != EXPANSIVE:
            return False
        found = find_expansive_element(action, word_cap=64)
        assert found is not None, action.names
        assert len(found["word"]) <= 64
        assert single_expansive(found["matrix"], GROUP).expansive, found["word"]
        return True

    assert check_family(
        SemigroupAction.from_generators(
            [("stretch_x", M([[2, 0], [0, 1]])), ("stretch_y", M([[1, 0], [0, 2]]))], GROUP
        )
    )
    assert check_family(
        SemigroupAction.from_generators([("cat", M([[2, 1], [1, 1]]))], GROUP)
    )

    rng = random.Random(1005)
    passing = 0
    for _ in range(50):
        t = random_unimodular(rng)
        while True:
            p = QPoly.from_coeffs([Fraction(rng.randint(-2, 2)) for _ in range(3)])
            pt = poly_of_matrix(p, t)
            if pt.det() != 0:
                break
        if check_family(
            SemigroupAction.from_generators([("t", t), ("p_of_t", pt)], GROUP)
        ):
            passing += 1
    print(f"{passing}/50 random commuting pairs pass the weight test")
    assert passing > 0


def test_criterion_6_affine_action_escapes_without_expansive_element():
    rng = random.Random(1006)
    action = SemigroupAction.from_generators(
        [
            ("s_e1", M([[0, -1, 1], [1, 0, 0], [0, 0, 1]])),
            ("s_e2", M([[0, -1, 0], [1, 0, 1], [0, 0, 1]])),
            ("t_e1", M([[1, 1, 1], [0, 1, 0], [0, 0, 1]])),
            ("t_e2", M([[1, 1, 0], [0, 1, 1], [0, 0, 1]])),
        ],
        GROUP,
    )
    for _ in range(20):
        word = [rng.choice(action.names) for _ in range(rng.randint(1, 6))]
        gamma = action.word_matrix(word)
        assert sum(char_poly(gamma).coeffs) == 0, word

    res = expansiveness_check(action, depth=8)
    assert res.status == EXPANSIVE
    escape_words = res.evidence.get("escape_words")
    assert escape_words

    drivers = [np.array(action.matrix_for(n).to_floats(), dtype=float) for n in action.names]
    drivers += [np.array(action.word_matrix(w).to_floats(), dtype=float) for w in escape_words]
    for _ in range(100):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        for _ in range(400):
            v = max((d @ v for d in drivers), key=np.linalg.norm)
            if np.linalg.norm(v) > 1e3:
                break
        assert np.linalg.norm(v) > 1e3


def _lift_roundtrip(chain, chars, bound, rng):
    for i in range(50):
        c = Fraction(rng.randint(-4, 4), 4096)
        window = E_window(HomVector.from_rationals([c]), chars)
        out = lift(window, chain, bound)
        for chi in chars:
            v = out.value(chi)
            assert v.rad <= Fraction(1, 2**40), (i, chi, v.rad)
            assert abs(v.mid - c * chi[0]) <= 4 * v.rad, (i, chi)
        assert lift(window, chain, bound) == out

        exact = lift(E_window(HomVector.from_exact([c]), chars), chain, bound)
        values = dict(exact.values)
        for rel in chain.relations:
            residue = values[rel.target].mid * rel.n0 - sum(
                coef * values[a].mid for coef, a in rel.terms
            )
            assert residue == 0, (i, rel)
        # uniqueness: a competing lift differs by a nonzero integer at some
        # character, which lands outside (-bound, bound) at every one of them
        for chi, v in exact.values:
            assert v.rad == 0
            assert abs(v.mid) < bound
            assert abs(v.mid - 1) > bound and abs(v.mid + 1) > bound, chi


def test_criterion_7_chain_regularity_and_lift_roundtrip():
    dyadic = DualModuleAction.from_generators(1, [[1]], [("double", M([[2]]))], GROUP)
    chain = regular_chain(enumerate_basis(dyadic, 4))
    assert chain.verify()
    assert chain.k == 3
    _lift_roundtrip(chain, chain_chars(chain), Fraction(3, 10), random.Random(1007))

    sixth = DualModuleAction.from_generators(
        1, [[1]], [("double", M([[2]])), ("triple", M([[3]]))], GROUP
    )
    chain6 = regular_chain(enumerate_basis(sixth, 4))
    assert chain6.verify()
    _lift_roundtrip(chain6, chain_chars(chain6), Fraction(1, 5), random.Random(1007))
    assert chain6.k == 3, (
        f"two-generator chain needs k = {chain6.k}: the first character at depth 1/9 "
        "only reaches the previous level through 3 * (1/9) = 1/3, total cost 4"
    )


def test_criterion_8_solenoid_verdicts_and_window_metric():
    dyadic = DualModuleAction.from_generators(1, [[1]], [("double", M([[2]]))], GROUP)
    assert solenoid_expansive(dyadic).status == EXPANSIVE

    ident = DualModuleAction.from_generators(1, [[1]], [("id", M([[1]]))], GROUP)
    res = solenoid_expansive(ident)
    assert res.status == NOT_EXPANSIVE
    assert res.witness is not None and any(x != 0 for x in res.witness)

    cat = DualModuleAction.from_generators(
        2, [[1, 0], [0, 1]], [("cat", M([[2, 1], [1, 1]]))], GROUP
    )
    assert solenoid_expansive(cat).status == EXPANSIVE

    chain = regular_chain(enumerate_basis(dyadic, 4))
    chars = chain_chars(chain)
    rng = random.Random(1008)

    def rand_window():
        return SolenoidWindow(
            tuple(
                (chi, Ball(Fraction(rng.randint(0, 999), 1000), Fraction(rng.randint(0, 5), 10**6)))
                for chi in chars
            )
        )

    for i in range(1000):
        x, y, z = rand_window(), rand_window(), rand_window()
        dxy, dyz, dxz = d_A(x, y, chars), d_A(y, z, chars), d_A(x, z, chars)
        assert dxy == d_A(y, x, chars), i
        assert dxz.mid <= dxy.mid + dyz.mid + (dxy.rad + dyz.rad + dxz.rad), i
        self_distance = d_A(x, x, chars)
        assert abs(self_distance.mid) <= self_distance.rad, i

    even = SolenoidWindow(tuple((chi, Ball(Fraction(7, 13), Fraction(1, 2**60))) for chi in chars))
    assert d_A(even, even, chars).mid == 0
