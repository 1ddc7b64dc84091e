"""Solenoids presented through their dual modules, and the lifting map.

A finitely generated invariant subgroup H of Q^n is the dual of a
solenoid; group elements are observed only through finitely many
characters at a time, as circle angles with explicit error radii.  The
central algorithm reconstructs a real-valued functional from such a
window: once the character set is organized into a chain where each new
character satisfies a small integer relation over the previous level,
the relation forces each lifted value through an integer-rounding step
whose slack comes from the strict bound (relation cost) * C < 1, and then
divides by the relation's n0, so a relation has n0 >= 1.  Each character
new at a level has exactly one relation, and no other character has one.
A chain has one record, ``ChainTable``, which ``regular_chain`` builds and
the lift and the check read: each distinct character once, as integer
numerators over the chain's common denominator, with levels and relations
holding positions.
Expansiveness of the solenoid itself reduces to unbounded orbits of the
adjoint action on the functional space.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import SemigroupAction, restrict_action
from .exact import (
    CapExceededError,
    DimensionMismatchError,
    Frozen,
    IntEchelon,
    ParseError,
    QMatrix,
    RationalLike,
    SelfCheckError,
    _echelon,
    _null_rows,
    num_den,
    primitive_integer,
    to_fraction,
)

if TYPE_CHECKING:
    from .orbits import ExpansivenessVerdict

Character = tuple[Fraction, ...]

PRECISION_EXP = 60


class NotInSpanError(ValueError):
    def __init__(self, char: Character):
        super().__init__(f"character {tuple(map(str, char))} lies outside the span of the previous level")
        self.char = char


class KExceededError(CapExceededError, ValueError):
    pass


class InvalidDepthError(ValueError):
    pass


class MissingCharacterError(KeyError):
    pass


class LiftOutOfRangeError(ValueError):
    pass


class PrecisionExhaustedError(CapExceededError, ArithmeticError):
    pass


def character(coords: Sequence[RationalLike]) -> Character:
    if not isinstance(coords, (list, tuple)):
        raise ParseError(f"a character is a list of rationals, got {type(coords).__name__}")
    return tuple(to_fraction(c) for c in coords)


# ------------------------------------------------------------ ball arithmetic


class Ball(Frozen):
    """Exact rational midpoint with exact nonnegative error radius."""

    __slots__ = ("mid", "rad")

    @staticmethod
    def exact(x: RationalLike) -> "Ball":
        return Ball(to_fraction(x), Fraction(0))

    @staticmethod
    def quantized(x: RationalLike, precision: int = PRECISION_EXP) -> "Ball":
        grid = Fraction(1, 2**precision)
        mid = Fraction(round(to_fraction(x) / grid)) * grid
        return Ball(mid, grid)

    def __add__(self, other: "Ball") -> "Ball":
        return Ball(self.mid + other.mid, self.rad + other.rad)

    def __sub__(self, other: "Ball") -> "Ball":
        return Ball(self.mid - other.mid, self.rad + other.rad)

    def scale(self, c: RationalLike) -> "Ball":
        f = to_fraction(c)
        return Ball(self.mid * f, abs(f) * self.rad)

    def angle(self) -> "Ball":
        # representative of the ball modulo 1, midpoint in [0, 1)
        return Ball(self.mid % 1, self.rad)

    def centered(self) -> "Ball":
        # representative modulo 1 with midpoint in (-1/2, 1/2]
        m = self.mid % 1
        if m > Fraction(1, 2):
            m -= 1
        return Ball(m, self.rad)

    def unique_integer(self) -> Optional[int]:
        """The single integer the ball can contain, None if it contains none."""
        lo = self.mid - self.rad
        hi = self.mid + self.rad
        first = math.ceil(lo)
        last = math.floor(hi)
        if first > last:
            return None
        if first < last:
            raise PrecisionExhaustedError(
                f"interval of width {float(2 * self.rad):.3g} spans several integers"
            )
        return first

    def surely_below(self, bound: Fraction) -> bool:
        return self.mid + self.rad < bound

    def surely_at_least(self, bound: Fraction) -> bool:
        return self.mid - self.rad >= bound

    def to_json(self) -> dict:
        return {"mid": str(self.mid), "rad": str(self.rad)}


def _ball_sup(balls: Sequence[Ball]) -> Ball:
    lo = max(b.mid - b.rad for b in balls)
    hi = max(b.mid + b.rad for b in balls)
    return Ball((lo + hi) / 2, (hi - lo) / 2)


def circle_gap(angle: Ball) -> Ball:
    """Distance from the circle point at this angle to the identity.

    The map t -> min(t mod 1, 1 - t mod 1) is 1-Lipschitz, so the radius
    carries over unchanged.
    """
    m = angle.mid % 1
    return Ball(min(m, 1 - m), angle.rad)


# ------------------------------------------------------------ dual module


class DualModuleAction(Frozen):
    """Invariant subgroup of Q^n given by module generators and matrices."""

    __slots__ = ("n", "module_generators", "action")

    @staticmethod
    def from_generators(
        n: int,
        module_generators: Sequence[Sequence[RationalLike]],
        named_matrices: Sequence[tuple[str, QMatrix]],
        mode: str,
    ) -> "DualModuleAction":
        f = tuple(character(v) for v in module_generators)
        action = SemigroupAction.from_generators(list(named_matrices), mode)
        if action.dim != n:
            raise DimensionMismatchError(f"the matrices act on Q^{action.dim}, not on Q^{n}")
        return DualModuleAction(n, f, action)

    @property
    def mode(self) -> str:
        return self.action.mode


def enumerate_basis(dm: DualModuleAction, depth: int) -> tuple[tuple[Character, ...], ...]:
    """Nested character sets A_m = images of the module generators by words of length <= m."""
    if depth < 1:
        raise InvalidDepthError(f"the chain depth must be at least 1, got {depth}")
    current: list[Character] = []
    seen: set[Character] = set()
    for f in dm.module_generators:
        if f not in seen:
            seen.add(f)
            current.append(f)
    levels = []
    for _ in range(depth):
        grown = list(current)
        for chi in current:
            for g in dm.action.mats:
                img = g.apply(chi)
                if img not in seen:
                    seen.add(img)
                    grown.append(img)
        current = grown
        levels.append(tuple(current))
    return tuple(levels)


# ------------------------------------------------------------ regular chains


def _json_field(obj, key: str, kind: type, where: str):
    """``obj[key]``, a JSON value of type ``kind`` (a bool is no int); a ParseError naming the field otherwise."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where} must be an object whose field {key!r} is of type {kind.__name__}")
    return value


def _spelling(chi) -> tuple:
    """A character as written, the tuple of its entries; a ParseError unless
    it is a list or tuple of scalars, which alone hash."""
    if isinstance(chi, (list, tuple)):
        key = tuple(chi)
        try:
            hash(key)
            return key
        except TypeError:
            pass
    raise ParseError(f"a character is a list of rationals, got {chi!r:.80}")


class ChainTable(Frozen):
    """Nested character levels, and one integer relation
    n0 * target = sum(coef * term), n0 >= 1, for each character new at a
    level over the level before, of cost n0 + sum(|coef|) at most k.

    ``chars`` holds each distinct character once, as its integer numerators
    over the chain's common denominator ``den``, so that equal values
    spelled two ways ("1/2" and "2/4") are one character; ``index`` maps
    numerators back to their position, and ``spelled`` each spelling read.
    ``levels`` hold positions in ``chars``, and a relation is
    (target, n0, ((coef, position), ...)); ``character(i)`` gives the
    Fractions at position i.
    """

    __slots__ = ("den", "chars", "index", "spelled", "levels", "k", "relations")

    @staticmethod
    def from_json(data) -> "ChainTable":
        """The table of the chain ``to_json`` wrote; a ParseError naming
        the field on any other shape."""
        levels = _json_field(data, "levels", list, "the chain")
        if not all(isinstance(lvl, list) for lvl in levels):
            raise ParseError("each of the chain's levels must be a list of characters")
        relations = [
            (_json_field(r, "target", list, "a relation"), _json_field(r, "n0", int, "a relation"), [
                (_json_field(t, "coef", int, "a term"), _json_field(t, "character", list, "a term"))
                for t in _json_field(r, "terms", list, "a relation")
            ])
            for r in _json_field(data, "relations", list, "the chain")
        ]
        return ChainTable.read(levels, relations, _json_field(data, "k", int, "the chain"))

    @staticmethod
    def read(levels, relations, k: int) -> "ChainTable":
        """The table of levels of characters and of relations
        (target, n0, ((coef, character), ...)), each character a list or
        tuple of rationals.  Each distinct spelling is parsed once."""
        spelled: dict[tuple, int] = {}
        parsed: list[list[tuple[int, int]]] = []

        def at(chi) -> int:
            key = _spelling(chi)
            i = spelled.get(key)
            if i is None:
                i = spelled[key] = len(parsed)
                parsed.append([num_den(x) for x in key])
            return i

        level_at = [[at(chi) for chi in level] for level in levels]
        relation_at = [(at(t), n0, [(c, at(a)) for c, a in terms]) for t, n0, terms in relations]
        if len({len(v) for v in parsed}) > 1:
            raise ParseError("the characters of a chain must all have the same number of entries")
        den = math.lcm(*(q for v in parsed for _, q in v))
        index: dict[tuple[int, ...], int] = {}
        # spelling -> position of its value, a new value taking the next one
        same = [index.setdefault(tuple(p * (den // q) for p, q in v), len(index)) for v in parsed]
        levels = tuple(tuple(same[i] for i in level) for level in level_at)
        relations = tuple((same[t], n0, tuple((c, same[a]) for c, a in terms)) for t, n0, terms in relation_at)
        return ChainTable(den, tuple(index), index, {key: same[i] for key, i in spelled.items()}, levels, k, relations)

    def find(self, chi) -> Optional[int]:
        """The position of a character given as a list or tuple of
        rationals, None when the chain does not hold it."""
        i = self.spelled.get(_spelling(chi))
        if i is None:
            scaled = [divmod(p * self.den, q) for p, q in map(num_den, chi)]
            if not any(r for _, r in scaled):
                i = self.index.get(tuple(x for x, _ in scaled))
        return i

    def verify(self) -> bool:
        """The chain check.  A first level, each level holding the one
        before, and for each character new at a level exactly one
        relation, of n0 >= 1 and cost at most k, whose terms lie in the
        level before and whose identity n0 * target = sum(coef * term) holds
        on the numerators; no other relation."""
        if not self.levels:
            return False
        before = set(self.levels[0])
        new: dict[int, set[int]] = {}  # character -> the level before the one it is new at
        for level in self.levels[1:]:
            here = set(level)
            if not before <= here:
                return False
            new.update(dict.fromkeys(here - before, before))
            before = here
        chars = self.chars
        for t, n0, terms in self.relations:
            prev = new.pop(t, None)
            if prev is None or n0 < 1 or n0 + sum(abs(c) for c, _ in terms) > self.k:
                return False
            if any(j not in prev for _, j in terms):
                return False
            if any(n0 * x != sum(c * chars[j][i] for c, j in terms) for i, x in enumerate(chars[t])):
                return False
        return not new

    def character(self, i: int) -> Character:
        """The character at position i, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.chars[i])

    def to_json(self) -> dict:
        chars = [[str(Fraction(x, self.den)) for x in chi] for chi in self.chars]
        return {
            "levels": [[list(chars[i]) for i in level] for level in self.levels],
            "k": self.k,
            "relations": [
                {"target": list(chars[t]), "n0": n0, "terms": [{"coef": c, "character": list(chars[j])} for c, j in terms]}
                for t, n0, terms in self.relations
            ],
        }


def _span_relation(
    t: Sequence[int], chars: Sequence[Sequence[int]]
) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
    """(n0, ((coef, index), ...)) with n0 t = sum(coef * chars[index]) over
    the greedy independent prefix of ``chars``, or None when t lies outside
    their span.

    That prefix is read off one ``IntEchelon``.  With t appended, the
    prefix's null space is one line when t is in their span and zero
    otherwise; the line's primitive vector is the pivot solution of
    ``coordinates_in_span`` (the other characters at 0) scaled by the least
    n0 > 0 that makes it integral.
    """
    echelon = IntEchelon(len(t))
    basis = []
    for j, v in enumerate(chars):
        if len(basis) == len(t):
            break
        if echelon.add(v):
            basis.append(j)
    cols = [chars[j] for j in basis] + [t]
    null = _null_rows([v[i] for i in range(len(t)) for v in cols], len(t), len(cols))
    if not null:
        return None
    *coefs, last = null[0]
    sign = -1 if last > 0 else 1
    return -sign * last, tuple((sign * c, j) for c, j in zip(coefs, basis) if c)


def _multiple(x: Sequence[int], t: Sequence[int]) -> Optional[tuple[int, int]]:
    """(n0, c) with n0 t = c x and n0 > 0 least, or None when t is no
    multiple of x: q t = p x for p, q the entries of t and x at x's first
    nonzero coordinate, checked on every coordinate by cross-multiplying.
    A zero x gives (1, 0) for a zero t."""
    i = next((i for i, v in enumerate(x) if v), None)
    if i is None:
        return None if any(t) else (1, 0)
    p, q = t[i], x[i]
    if any(q * w != p * v for v, w in zip(x, t)):
        return None
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return q // g, p // g


def _pair_relation(t: Sequence[int], a: Sequence[int], b: Sequence[int], budget: int) -> Optional[tuple[int, int, int]]:
    """Small integer combination n0*t = ni*a + nj*b within the cost budget, as (n0, ni, nj).

    The first hit in the order n0, ni, nj ascending, with (ni, nj) != (0, 0),
    1 <= n0 <= budget - 2, |ni| < budget - n0 and |ni| + |nj| <= budget - n0.
    The vectors are integer numerators over one denominator.  For
    independent a and b the solutions are the integer multiples of one
    primitive vector, read off by Cramer's rule on a nonzero 2 x 2 minor:
    the first hit is that vector, if it is within the budget.  For parallel
    a and b, t off their line gives None at once, and on it the relation is
    one scalar equation (``_scalar_pair``).
    """
    p = next((i for i, x in enumerate(a) if x), None)
    if p is not None:
        ap, bp, tp = a[p], b[p], t[p]
        for q, (aq, bq, tq) in enumerate(zip(a, b, t)):
            n0 = ap * bq - aq * bp
            if n0:
                ni, nj = tp * bq - tq * bp, ap * tq - aq * tp
                g = math.gcd(n0, ni, nj) if n0 > 0 else -math.gcd(n0, ni, nj)
                n0, ni, nj = n0 // g, ni // g, nj // g
                rest = budget - n0
                if (ni or nj) and abs(ni) < rest and abs(ni) + abs(nj) <= rest and n0 <= budget - 2 and all(
                    n0 * z == ni * x + nj * y for z, x, y in zip(t, a, b)
                ):
                    return n0, ni, nj
                return None
        w = a
    else:
        p = next((i for i, x in enumerate(b) if x), None)
        w = b
    if p is None:
        # a = b = 0: any (ni, nj) != (0, 0) works for a zero t, the first at n0 = 1
        return (1, 2 - budget, -1) if budget >= 3 and not any(t) else None
    if any(z * w[p] != t[p] * x for z, x in zip(t, w)):
        return None
    return _scalar_pair(t[p], a[p], b[p], budget)


def _scalar_pair(tau: int, alpha: int, beta: int, budget: int) -> Optional[tuple[int, int, int]]:
    """``_pair_relation`` on one coordinate: the first (n0, ni, nj) with
    n0*tau = ni*alpha + nj*beta, not both of alpha and beta zero.

    With beta = 0 any nj in range works and the first is the least.  The
    n0 that leave an integer ni are the multiples of the least one, and
    n0 + |ni| grows with them, so only the least is tried.  Otherwise, for each n0, the ni that leave an
    integer nj form one residue class modulo |beta| / gcd(alpha, beta), and
    they are stepped in ascending order.
    """
    if beta == 0:
        n0 = abs(alpha) // math.gcd(alpha, tau)
        ni = n0 * tau // alpha
        rest = budget - n0
        return (n0, ni, abs(ni) - rest) if n0 <= budget - 2 and abs(ni) < rest else None
    g = math.gcd(alpha, beta)
    step = abs(beta) // g
    inverse = pow(alpha // g, -1, step) if step > 1 else 0
    for n0 in range(1, budget - 1):
        rest = budget - n0
        c = n0 * tau
        if c % g:
            continue
        ni = 1 - rest + (c // g * inverse + rest - 1) % step
        while ni < rest:
            nj = (c - ni * alpha) // beta
            if abs(ni) + abs(nj) <= rest and (ni or nj):
                return n0, ni, nj
            ni += step
    return None


def _best_relation(table: ChainTable, target: int, prev: Sequence[int], k_max: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Cheapest integer relation (n0, ((coef, position), ...)) of the
    character at position ``target`` over the positions ``prev``, found by
    exact solve plus small-support search.

    The exact solve gives the pivot solution over the first independent
    characters, which in low rank never balances coefficients across
    characters, so relations like "new = neighbor + neighbor" come from the
    multiple test and the pair search.  All of it runs on the table's
    numerators: scaling every vector by one common denominator leaves the
    primitive relation each step returns unchanged.  A candidate is kept
    only when it costs strictly less, so the first cheapest one wins.
    """
    t, chars = table.chars[target], [table.chars[j] for j in prev]
    found = _span_relation(t, chars)
    if found is None:
        raise NotInSpanError(table.character(target))
    n0, terms = found
    cost = n0 + sum(abs(c) for c, _ in terms)
    for j, x in enumerate(chars):
        m = _multiple(x, t)
        if m is not None and m[0] + abs(m[1]) < cost:
            n0, c = m
            cost, terms = n0 + abs(c), ((c, j),) if c else ()
    budget = min(k_max, cost - 1)
    if budget >= 3:
        for i, j in itertools.islice(itertools.combinations(range(len(chars)), 2), 300):
            hit = _pair_relation(t, chars[i], chars[j], budget)
            if hit is not None:
                # a hit costs at most budget < cost
                n0, ni, nj = hit
                cost, terms = n0 + abs(ni) + abs(nj), tuple((c, k) for c, k in ((ni, i), (nj, j)) if c)
                budget = cost - 1
                if budget < 3:
                    break
    if cost > k_max:
        raise KExceededError(
            f"no relation of cost <= {k_max} for {tuple(map(str, table.character(target)))}; best found {cost}"
        )
    return n0, tuple((c, prev[k]) for c, k in terms)


def regular_chain(levels: Sequence[Sequence[Character]], k_max: int = 64) -> ChainTable:
    """Attach verified small integer relations to every newly appearing character."""
    table = ChainTable.read(levels, (), 1)
    relations = []
    for prev, level in zip(table.levels, table.levels[1:]):
        before = set(prev)
        relations += [(t, *_best_relation(table, t, prev, k_max)) for t in level if t not in before]
    k = max((n0 + sum(abs(c) for c, _ in terms) for _, n0, terms in relations), default=1)
    chain = ChainTable(table.den, table.chars, table.index, table.spelled, table.levels, k, tuple(relations))
    # verify() re-checks every relation exactly, so a chain that fails is never returned
    if not chain.verify():
        raise SelfCheckError("the built chain fails its own relation check")
    return chain


# ------------------------------------------------------------ windows and metrics


class HomVector(Frozen):
    """Real-valued functional on Q^n, coordinates carried as balls."""

    __slots__ = ("coords",)

    @staticmethod
    def from_rationals(values: Sequence[RationalLike], precision: int = PRECISION_EXP) -> "HomVector":
        return HomVector(tuple(Ball.quantized(v, precision) for v in values))

    @staticmethod
    def from_exact(values: Sequence[RationalLike]) -> "HomVector":
        return HomVector(tuple(Ball.exact(v) for v in values))

    @staticmethod
    def zero(n: int) -> "HomVector":
        return HomVector(tuple(Ball.exact(0) for _ in range(n)))

    def __add__(self, other: "HomVector") -> "HomVector":
        return HomVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: RationalLike) -> "HomVector":
        return HomVector(tuple(b.scale(c) for b in self.coords))

    def pair(self, chi: Character) -> Ball:
        out = Ball.exact(0)
        for b, c in zip(self.coords, chi):
            out = out + b.scale(c)
        return out


class SolenoidWindow(Frozen):
    """A group element seen through finitely many characters, as angles."""

    __slots__ = ("values",)

    def angle(self, chi: Character) -> Ball:
        for c, b in self.values:
            if c == chi:
                return b
        raise MissingCharacterError(str(tuple(map(str, chi))))

    def to_json(self) -> list:
        return [{"character": [str(x) for x in c], **b.to_json()} for c, b in self.values]


def E_window(p: HomVector, chars: Sequence[Character]) -> SolenoidWindow:
    """Observe the canonical dense one-parameter image of p on the given characters."""
    return SolenoidWindow(tuple((chi, p.pair(chi).angle()) for chi in chars))


def d_A(x: SolenoidWindow, y: SolenoidWindow, chars: Sequence[Character]) -> Ball:
    """Sup over characters of the circle distance between the two observations."""
    gaps = [circle_gap(x.angle(chi) - y.angle(chi)) for chi in chars]
    return _ball_sup(gaps)


def d_star_A(p: HomVector, q: HomVector, chars: Sequence[Character]) -> Ball:
    """Sup over characters of |p(chi) - q(chi)|: the functional-side metric."""
    diffs = []
    for chi in chars:
        d = p.pair(chi) - q.pair(chi)
        diffs.append(Ball(abs(d.mid), d.rad))
    return _ball_sup(diffs)


# ------------------------------------------------------------ lifting


class ChainLift(Frozen):
    """Functional values on every chain character, with error radii."""

    __slots__ = ("values", "bound")

    def value(self, chi: Character) -> Ball:
        for c, b in self.values:
            if c == chi:
                return b
        raise MissingCharacterError(str(tuple(map(str, chi))))

    def to_json(self) -> list:
        return [{"character": [str(x) for x in c], **b.to_json()} for c, b in self.values]


def _base_level_plan(level: Sequence[Character]) -> tuple[list[int], list[tuple[int, Fraction, list[tuple[Fraction, int]]]]]:
    """Split the first level into a Q-basis and exact expansions of the rest.

    One ``IntEchelon`` of the matrix whose columns are the characters: the
    pivots are the first independent characters, and every other column of
    the reduced rows holds its coordinates over the pivots before it.  A
    dependent's n0 clears their denominators.
    """
    echelon = _echelon(zip(*level), len(level))
    pivots, red = echelon.pivots, echelon.reduced()
    dependents: list[tuple[int, Fraction, list[tuple[Fraction, int]]]] = []
    for i in range(len(level)):
        if i not in pivots:
            terms = [(row[i], j) for row, j in zip(red, pivots) if row[i] != 0]
            dependents.append((i, Fraction(math.lcm(*(c.denominator for c, _ in terms))), terms))
    return list(pivots), dependents


def _check_below(value: Ball, bound: Fraction, what: str) -> None:
    if value.surely_at_least(bound):
        raise LiftOutOfRangeError(f"{what} has magnitude >= {bound}")
    if not value.surely_below(bound):
        raise PrecisionExhaustedError(f"{what} cannot be placed against the bound {bound}")


def lift(window: SolenoidWindow, chain: ChainTable, C: RationalLike) -> ChainLift:
    """Reconstruct the functional behind a window of circle angles.

    Base level: unwrap angles on a Q-basis into (-1/2, 1/2] and extend
    linearly, checking every dependent character against its own angle.
    Induction: a relation n0*a = sum(c_j * a_j) forces n0*alpha minus the
    already-lifted sum to be an integer smaller than (cost)*C < 1 in
    magnitude, hence zero; division by n0 then pins the new value.
    """
    bound = to_fraction(C)
    if not (0 < bound < Fraction(1, chain.k)):
        raise ValueError(f"the bound must lie in (0, 1/k) with k = {chain.k}")
    base = chain.levels[0]
    # on numerators: scaling every character by one denominator leaves each
    # dependent's coordinates over the basis unchanged
    basis_idx, dependents = _base_level_plan([chain.chars[i] for i in base])
    base_costs = [
        int(n0) + sum(abs(int(c * n0)) for c, _ in terms) for _, n0, terms in dependents
    ]
    eps = min(bound, Fraction(1, 2 * max(base_costs, default=1)))

    values: dict[int, Ball] = {}  # position -> lifted value
    for i in basis_idx:
        alpha = window.angle(chain.character(base[i])).centered()
        _check_below(Ball(abs(alpha.mid), alpha.rad), eps, f"base angle of character {i}")
        values[base[i]] = alpha
    for i, n0, terms in dependents:
        chi = base[i]
        s = Ball.exact(0)
        for c, j in terms:
            s = s + values[base[j]].scale(c)
        alpha = window.angle(chain.character(chi)).centered()
        t = (s - alpha).unique_integer()
        if t is None:
            raise LiftOutOfRangeError(
                f"base character {i} is not consistent with any unwrapping"
            )
        forced = Ball(alpha.mid + t, alpha.rad)
        if s.rad < forced.rad:
            forced = Ball(s.mid, s.rad)
        _check_below(Ball(abs(forced.mid), forced.rad), bound, f"base value of character {i}")
        values[chi] = forced

    by_target = {t: (n0, terms) for t, n0, terms in chain.relations}
    for level_index in range(1, len(chain.levels)):
        prev = set(chain.levels[level_index - 1])
        for chi in chain.levels[level_index]:
            if chi in prev:
                continue
            if chi not in by_target:
                raise ValueError(
                    f"character {tuple(map(str, chain.character(chi)))} at level {level_index} has no relation in the chain"
                )
            n0, terms = by_target[chi]
            s = Ball.exact(0)
            for coef, a in terms:
                s = s + values[a].scale(coef)
            alpha = window.angle(chain.character(chi)).centered()
            t = (s - Ball(alpha.mid, alpha.rad).scale(n0)).unique_integer()
            if t is None:
                raise LiftOutOfRangeError(
                    f"no consistent value for character at level {level_index}"
                )
            if t != 0:
                raise LiftOutOfRangeError(
                    f"forced value at level {level_index} falls outside the bound"
                )
            forced = alpha
            divided = s.scale(Fraction(1, n0))
            if divided.rad < forced.rad:
                forced = divided
            _check_below(Ball(abs(forced.mid), forced.rad), bound, f"lifted value at level {level_index}")
            values[chi] = forced

    ordered = tuple((chain.character(i), values[i]) for i in chain.levels[-1])
    return ChainLift(ordered, bound)


# ------------------------------------------------------------ expansiveness


def span_restriction(dm: DualModuleAction) -> tuple[list[Character], SemigroupAction]:
    """Restrict the action to the rational span of the whole module.

    The span of all word images of the module generators is the smallest
    invariant subspace containing them; the functional space of the
    solenoid is its real dual, on which matrices act by transposes.  One
    ``IntEchelon`` holds the span for the whole walk, and its ``add`` is the
    membership test: it takes the first independent module generators, then
    each image that leaves the span.
    """
    span = IntEchelon(dm.n)
    basis = [f for f in dm.module_generators if span.add(primitive_integer(f))]
    queue = list(basis)
    while queue:
        v = queue.pop()
        for g in dm.action.mats:
            img = g.apply(v)
            if span.add(primitive_integer(img)):
                basis.append(img)
                queue.append(img)
    r = restrict_action(dm.action, basis)
    return basis, SemigroupAction(r.dim, r.names, tuple(m.transpose() for m in r.mats), r.mode, r.origins)


def solenoid_expansive(dm: DualModuleAction, depth: int = 10) -> ExpansivenessVerdict:
    """Expansiveness of the solenoid dual to the presented module.

    Finite generation holds by presentation; what remains is whether
    every nonzero functional has an unbounded adjoint orbit, which is
    the orbit engine's question verbatim.
    """
    from .orbits import ExpansivenessVerdict, expansiveness_check

    basis, adjoint = span_restriction(dm)
    verdict = expansiveness_check(adjoint, depth)
    evidence = {**verdict.evidence, "finitely_generated": "by presentation", "span_dim": len(basis)}
    return ExpansivenessVerdict(verdict.status, verdict.witness, verdict.certificate, evidence, verdict.search_depth)
