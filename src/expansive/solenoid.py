"""Solenoids presented through their dual modules, and the lifting map.

A finitely generated invariant subgroup H of Q^n is the dual of a
solenoid; group elements are observed only through finitely many
characters at a time, as circle angles with explicit error radii.  The
central algorithm reconstructs a real-valued functional from such a
window: once the character set is organized into a chain where each new
character satisfies a small integer relation over the previous level,
the relation forces each lifted value through an integer-rounding step
whose slack comes from the strict bound (relation cost) * C < 1.
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
    ParseError,
    QMatrix,
    RationalLike,
    SelfCheckError,
    coordinates_in_span,
    rref,
    to_fraction,
    _set,
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

    def __init__(self, mid: Fraction, rad: Fraction) -> None:
        _set(self, "mid", mid)
        _set(self, "rad", rad)

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

    def abs_upper(self) -> Fraction:
        return abs(self.mid) + self.rad

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

    def __init__(self, n: int, module_generators: tuple[Character, ...], action: SemigroupAction) -> None:
        _set(self, "n", n)
        _set(self, "module_generators", module_generators)
        _set(self, "action", action)

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


class Relation(Frozen):
    """Integer dependency n0 * target = sum(coef * char) over the previous level."""

    __slots__ = ("target", "n0", "terms", "level")

    def __init__(self, target: Character, n0: int, terms: tuple[tuple[int, Character], ...], level: int) -> None:
        _set(self, "target", target)
        _set(self, "n0", n0)
        _set(self, "terms", terms)
        _set(self, "level", level)  # index of the level that introduced the target (0-based)

    @property
    def cost(self) -> int:
        return abs(self.n0) + sum(abs(c) for c, _ in self.terms)

    def holds(self) -> bool:
        dim = len(self.target)
        lhs = tuple(self.n0 * x for x in self.target)
        rhs = [Fraction(0)] * dim
        for coef, char in self.terms:
            for i in range(dim):
                rhs[i] += coef * char[i]
        return lhs == tuple(rhs)

    def to_json(self) -> dict:
        return {
            "target": [str(x) for x in self.target],
            "n0": self.n0,
            "terms": [{"coef": c, "character": [str(x) for x in a]} for c, a in self.terms],
        }


class RhoBasisChain(Frozen):
    __slots__ = ("levels", "k", "relations")

    def __init__(self, levels: tuple[tuple[Character, ...], ...], k: int, relations: tuple[Relation, ...]) -> None:
        _set(self, "levels", levels)
        _set(self, "k", k)
        _set(self, "relations", relations)

    def verify(self) -> bool:
        for i in range(1, len(self.levels)):
            if not set(self.levels[i - 1]) <= set(self.levels[i]):
                return False
        by_target = {r.target: r for r in self.relations}
        for i in range(1, len(self.levels)):
            prev = set(self.levels[i - 1])
            for chi in self.levels[i]:
                if chi in prev:
                    continue
                rel = by_target.get(chi)
                if rel is None or not rel.holds() or rel.cost > self.k:
                    return False
                if any(a not in prev for _, a in rel.terms):
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "levels": [[[str(x) for x in chi] for chi in level] for level in self.levels],
            "k": self.k,
            "relations": [r.to_json() for r in self.relations],
        }

    @staticmethod
    def from_json(data: dict) -> "RhoBasisChain":
        """The chain ``to_json`` wrote; a ParseError naming the field on any other shape."""
        levels = _json_field(data, "levels", list, "the chain")
        if not all(isinstance(lvl, list) for lvl in levels):
            raise ParseError("each of the chain's levels must be a list of characters")
        levels = tuple(tuple(map(character, lvl)) for lvl in levels)
        first_level: dict[Character, int] = {}
        for i, lvl in enumerate(levels):
            for chi in lvl:
                first_level.setdefault(chi, i)
        rels = []
        for r in _json_field(data, "relations", list, "the chain"):
            target = character(_json_field(r, "target", list, "a relation"))
            terms = tuple(
                (_json_field(t, "coef", int, "a term"), character(_json_field(t, "character", list, "a term")))
                for t in _json_field(r, "terms", list, "a relation")
            )
            rels.append(Relation(target, _json_field(r, "n0", int, "a relation"), terms, first_level.get(target, 0)))
        return RhoBasisChain(levels, _json_field(data, "k", int, "the chain"), tuple(rels))


def _json_field(obj, key: str, kind: type, where: str):
    """``obj[key]``, a JSON value of type ``kind`` (a bool is no int); a ParseError naming the field otherwise."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where} must be an object whose field {key!r} is of type {kind.__name__}")
    return value


def _integer_relation(target: Character, coeffs: Sequence[Fraction], chars: Sequence[Character], level: int) -> Relation:
    n0 = math.lcm(*(c.denominator for c in coeffs))
    terms = tuple(
        (int(c * n0), chars[j]) for j, c in enumerate(coeffs) if c != 0
    )
    return Relation(target, n0, terms, level)


def _pair_relation(target: Character, a: Character, b: Character, level: int, budget: int) -> Optional[Relation]:
    """Small integer combination n0*target = ni*a + nj*b within the cost budget.

    The first hit in the order n0, ni, nj ascending, with |ni| < budget - n0
    and |ni| + |nj| <= budget - n0.  For each (n0, ni), nj is solved for on
    a coordinate where b is non-zero, in integers after clearing the
    denominators, so the cost grows with budget**2 rather than budget**3.
    """
    den = math.lcm(*(x.denominator for x in (*target, *a, *b)))
    t, va, vb = ([x.numerator * (den // x.denominator) for x in v] for v in (target, a, b))
    pivot = next((d for d, x in enumerate(vb) if x), None)
    for n0 in range(1, budget - 1):
        rest = budget - n0
        for ni in range(-rest + 1, rest):
            span = rest - abs(ni)
            r = [n0 * x - ni * y for x, y in zip(t, va)]  # must equal nj * b
            if pivot is None:
                # b = 0: any nj in range works, and the first is -span, never (0, 0) as span >= 2 when ni = 0
                if any(r):
                    continue
                nj = -span
            else:
                nj, rem = divmod(r[pivot], vb[pivot])
                if rem or abs(nj) > span or (ni == 0 and nj == 0) or any(x != nj * y for x, y in zip(r, vb)):
                    continue
            terms = tuple((c, chi) for c, chi in ((ni, a), (nj, b)) if c != 0)
            return Relation(target, n0, terms, level)
    return None


def _best_relation(target: Character, prev: Sequence[Character], level: int, k_max: int) -> Relation:
    """Cheapest integer relation found by exact solve plus small-support search.

    The generic solver returns one pivot solution, which in low rank
    never balances coefficients across characters, so relations like
    "new = neighbor + neighbor" come from the bounded enumeration.
    """
    coords = coordinates_in_span(list(prev), target)
    if coords is None:
        raise NotInSpanError(target)
    best = _integer_relation(target, coords, prev, level)
    for chi in prev:
        c = coordinates_in_span([chi], target)
        if c is not None:
            cand = _integer_relation(target, c, [chi], level)
            if cand.cost < best.cost:
                best = cand
    budget = min(k_max, best.cost - 1)
    if budget >= 3:
        for i, j in itertools.islice(itertools.combinations(range(len(prev)), 2), 300):
            cand = _pair_relation(target, prev[i], prev[j], level, budget)
            if cand is not None and cand.cost < best.cost:
                best = cand
                budget = min(budget, best.cost - 1)
    if best.cost > k_max:
        raise KExceededError(
            f"no relation of cost <= {k_max} for {tuple(map(str, target))}; best found {best.cost}"
        )
    return best


def regular_chain(levels: Sequence[Sequence[Character]], k_max: int = 64) -> RhoBasisChain:
    """Attach verified small integer relations to every newly appearing character."""
    relations = []
    for i in range(1, len(levels)):
        prev = list(levels[i - 1])
        prev_set = set(prev)
        for chi in levels[i]:
            if chi in prev_set:
                continue
            relations.append(_best_relation(chi, prev, i, k_max))
    k = max((r.cost for r in relations), default=1)
    chain = RhoBasisChain(tuple(tuple(level) for level in levels), k, tuple(relations))
    # verify() re-checks every relation exactly, so a chain that fails is never returned
    if not chain.verify():
        raise SelfCheckError("the built chain fails its own relation check")
    return chain


# ------------------------------------------------------------ windows and metrics


class HomVector(Frozen):
    """Real-valued functional on Q^n, coordinates carried as balls."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Ball, ...]) -> None:
        _set(self, "coords", coords)

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

    def pullback(self, m: QMatrix) -> "HomVector":
        """The functional chi -> self(m chi), i.e. the adjoint action."""
        out = []
        for i in range(m.cols):
            acc = Ball.exact(0)
            for j in range(m.rows):
                acc = acc + self.coords[j].scale(m[j, i])
            out.append(acc)
        return HomVector(tuple(out))


class SolenoidWindow(Frozen):
    """A group element seen through finitely many characters, as angles."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[tuple[Character, Ball], ...]) -> None:
        _set(self, "values", values)

    def angle(self, chi: Character) -> Ball:
        for c, b in self.values:
            if c == chi:
                return b
        raise MissingCharacterError(str(tuple(map(str, chi))))

    def characters(self) -> tuple[Character, ...]:
        return tuple(c for c, _ in self.values)

    def combine(self, other: "SolenoidWindow") -> "SolenoidWindow":
        # pointwise product of group elements = angle sum on every character
        return SolenoidWindow(
            tuple((c, (b + other.angle(c)).angle()) for c, b in self.values)
        )

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

    def __init__(self, values: tuple[tuple[Character, Ball], ...], bound: Fraction) -> None:
        _set(self, "values", values)
        _set(self, "bound", bound)

    def value(self, chi: Character) -> Ball:
        for c, b in self.values:
            if c == chi:
                return b
        raise MissingCharacterError(str(tuple(map(str, chi))))

    def to_json(self) -> list:
        return [{"character": [str(x) for x in c], **b.to_json()} for c, b in self.values]


def _base_level_plan(level: Sequence[Character]) -> tuple[list[int], list[tuple[int, Fraction, list[tuple[Fraction, int]]]]]:
    """Split the first level into a Q-basis and exact expansions of the rest.

    One ``rref`` of the characters as columns: the pivots are the first
    independent characters, and every other column holds its coordinates
    over the pivots before it.  A dependent's n0 clears their denominators.
    """
    red, pivots = rref(QMatrix.from_columns(level))
    dependents: list[tuple[int, Fraction, list[tuple[Fraction, int]]]] = []
    for i in range(len(level)):
        if i not in pivots:
            terms = [(red[r, i], j) for r, j in enumerate(pivots) if red[r, i] != 0]
            dependents.append((i, Fraction(math.lcm(*(c.denominator for c, _ in terms))), terms))
    return list(pivots), dependents


def _check_below(value: Ball, bound: Fraction, what: str) -> None:
    if value.surely_at_least(bound):
        raise LiftOutOfRangeError(f"{what} has magnitude >= {bound}")
    if not value.surely_below(bound):
        raise PrecisionExhaustedError(f"{what} cannot be placed against the bound {bound}")


def lift(window: SolenoidWindow, chain: RhoBasisChain, C: RationalLike) -> ChainLift:
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
    basis_idx, dependents = _base_level_plan(base)
    base_costs = [
        int(n0) + sum(abs(int(c * n0)) for c, _ in terms) for _, n0, terms in dependents
    ]
    eps = min(bound, Fraction(1, 2 * max(base_costs, default=1)))

    values: dict[Character, Ball] = {}
    for i in basis_idx:
        alpha = window.angle(base[i]).centered()
        _check_below(Ball(abs(alpha.mid), alpha.rad), eps, f"base angle of character {i}")
        values[base[i]] = alpha
    for i, n0, terms in dependents:
        chi = base[i]
        s = Ball.exact(0)
        for c, j in terms:
            s = s + values[base[j]].scale(c)
        alpha = window.angle(chi).centered()
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

    by_target = {r.target: r for r in chain.relations}
    for level_index in range(1, len(chain.levels)):
        prev = set(chain.levels[level_index - 1])
        for chi in chain.levels[level_index]:
            if chi in prev:
                continue
            rel = by_target.get(chi)
            if rel is None:
                raise ValueError(f"character {tuple(map(str, chi))} at level {level_index} has no relation in the chain")
            s = Ball.exact(0)
            for coef, a in rel.terms:
                s = s + values[a].scale(coef)
            alpha = window.angle(chi).centered()
            t = (s - Ball(alpha.mid, alpha.rad).scale(rel.n0)).unique_integer()
            if t is None:
                raise LiftOutOfRangeError(
                    f"no consistent value for character at level {level_index}"
                )
            if t != 0:
                raise LiftOutOfRangeError(
                    f"forced value at level {level_index} falls outside the bound"
                )
            forced = alpha
            divided = s.scale(Fraction(1, rel.n0))
            if divided.rad < forced.rad:
                forced = divided
            _check_below(Ball(abs(forced.mid), forced.rad), bound, f"lifted value at level {level_index}")
            values[chi] = forced

    ordered = tuple((chi, values[chi]) for chi in chain.levels[-1])
    return ChainLift(ordered, bound)


# ------------------------------------------------------------ expansiveness


def span_restriction(dm: DualModuleAction) -> tuple[list[Character], SemigroupAction]:
    """Restrict the action to the rational span of the whole module.

    The span of all word images of the module generators is the smallest
    invariant subspace containing them; the functional space of the
    solenoid is its real dual, on which matrices act by transposes.  The
    closure starts from the first independent module generators, the pivot
    columns of one ``rref`` of F.
    """
    F = dm.module_generators
    basis = [F[c] for c in rref(QMatrix.from_columns(F))[1]]
    queue = list(basis)
    while queue:
        v = queue.pop()
        for g in dm.action.mats:
            img = g.apply(v)
            if coordinates_in_span(basis, img) is None:
                basis.append(img)
                queue.append(img)
    if not basis:
        return [], SemigroupAction(0, dm.action.names, tuple(QMatrix.identity(0) for _ in dm.action.mats), dm.action.mode)
    restricted = restrict_action(dm.action, basis).mats
    adjoint = SemigroupAction(len(basis), dm.action.names, tuple(m.transpose() for m in restricted), dm.action.mode)
    return basis, adjoint


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
