"""Expansiveness of integer matrix actions on the n-torus.

An integer semigroup action on R^n induces one on T^n = R^n/Z^n, and
the torus action is expansive exactly when every nonzero vector of the
covering space has an unbounded orbit.  Two routes are implemented: a
fast sufficient test (infinite semigroup acting irreducibly) and the
general reduction to the linear orbit engine.  A brute-force oracle on
rational grid points gives desk-scale ground truth for small cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .actions import INVERSE_SUFFIX, SemigroupAction
from .exact import CapExceededError, Frozen, QMatrix, RationalLike, Subspace, _set, coordinates_in_span, to_fraction
from .orbits import ExpansivenessVerdict, _proper_invariant_subspaces, expansiveness_check, iter_words
from .spectral import EXPANSIVE, GROUP, has_unbounded_powers

GRID_STATE_CAP = 10**7


class NonIntegerEntriesError(ValueError):
    pass


class NotUnimodularError(ValueError):
    pass


class GridTooLargeError(CapExceededError, ValueError):
    pass


class TorusPoint(Frozen):
    """Point of T^n with exact rational coordinates reduced into [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        _set(self, "coords", coords)

    @staticmethod
    def from_coords(coords: Sequence[RationalLike]) -> "TorusPoint":
        return TorusPoint(tuple(to_fraction(c) % 1 for c in coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def distance_to_zero(self) -> Fraction:
        # sup metric on the torus: each coordinate sees min(t, 1 - t)
        return max((min(c, 1 - c) for c in self.coords), default=Fraction(0))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


def _check_integer_generators(action: SemigroupAction) -> None:
    for name, g in zip(action.names, action.mats):
        if name.endswith(INVERSE_SUFFIX):
            continue
        if not g.is_integer():
            raise NonIntegerEntriesError(f"generator {name!r} has non-integer entries")


def _check_unimodular(action: SemigroupAction) -> None:
    for name, g in zip(action.names, action.mats):
        if name.endswith(INVERSE_SUFFIX):
            continue
        if abs(g.det()) != 1:
            raise NotUnimodularError(f"generator {name!r} has determinant {g.det()}")


class IrreducibilityReport(Frozen):
    __slots__ = ("algebra_dim", "absolutely_irreducible", "rational_invariant_subspace", "conclusion")

    def __init__(
        self,
        algebra_dim: int,
        absolutely_irreducible: bool,
        rational_invariant_subspace: Optional[Subspace],
        conclusion: str,  # "Irreducible" | "Reducible" | "Unknown"
    ) -> None:
        _set(self, "algebra_dim", algebra_dim)
        _set(self, "absolutely_irreducible", absolutely_irreducible)
        _set(self, "rational_invariant_subspace", rational_invariant_subspace)
        _set(self, "conclusion", conclusion)

    def to_json(self) -> dict:
        return {
            "algebra_dim": self.algebra_dim,
            "absolutely_irreducible": self.absolutely_irreducible,
            "rational_invariant_subspace": (
                None
                if self.rational_invariant_subspace is None
                else self.rational_invariant_subspace.to_json()
            ),
            "conclusion": self.conclusion,
        }


def _algebra_basis(action: SemigroupAction) -> list[tuple[str, ...]]:
    """Words whose matrices form a basis of the unital algebra spanned by all
    word matrices, the empty word (the identity) first.

    Closure under right multiplication by generators, starting from the
    identity, reaches the span of every word; linearity makes checking
    products of basis elements sufficient.
    """
    n = action.dim
    vectors: list[tuple[Fraction, ...]] = []
    words: list[tuple[str, ...]] = []
    stack: list[tuple[tuple[str, ...], QMatrix]] = []
    candidates = [((), QMatrix.identity(n))]
    while True:
        for word, m in candidates:
            if coordinates_in_span(vectors, m.entries) is None:
                vectors.append(m.entries)
                words.append(word)
                stack.append((word, m))
        if not stack or len(words) == n * n:
            return words
        word, m = stack.pop()
        candidates = [(word + (name,), m @ g) for name, g in zip(action.names, action.mats)]


def algebra_dimension(action: SemigroupAction) -> int:
    """Dimension of the unital algebra spanned by all word matrices."""
    return len(_algebra_basis(action))


def irreducibility_check(action: SemigroupAction) -> IrreducibilityReport:
    """Decide irreducibility of the linear span where cheap tests suffice.

    A full matrix algebra leaves no invariant subspace over any field
    extension; below that threshold only the engine's exact rational
    invariant subspaces are sought, so an R-irreducible action with a small
    algebra stays Unknown.
    """
    _check_integer_generators(action)
    n = action.dim
    dim = algebra_dimension(action)
    if dim == n * n:
        return IrreducibilityReport(dim, True, None, "Irreducible")
    spaces = _proper_invariant_subspaces(action)
    if spaces:
        return IrreducibilityReport(dim, False, spaces[0], "Reducible")
    return IrreducibilityReport(dim, False, None, "Unknown")


def certified_infinite_word(action: SemigroupAction):
    """A word of infinite order among the first 200 words of length at most
    3, or None when no cheap certificate exists.  Integer matrices have
    infinite order exactly when their powers are unbounded."""
    for word, m in iter_words(action, 3, 200):
        if has_unbounded_powers(m):
            return word
    return None


def torus_expansive(action: SemigroupAction, depth: int = 10) -> ExpansivenessVerdict:
    """Expansiveness of the induced torus action.

    Fast path: an infinite semigroup acting irreducibly on R^n is
    expansive on T^n.  Its certificate stores a word of infinite order and
    the n^2 - 1 words whose matrices span M_n(Q) with the identity, so a
    checker confirms both without a search.  Anything else falls back to
    the linear orbit engine, since torus expansiveness is equivalent to
    every nonzero covering-space vector escaping.
    """
    _check_integer_generators(action)
    if action.mode == GROUP:
        _check_unimodular(action)
    infinite_word = certified_infinite_word(action)
    if infinite_word is not None:
        words = _algebra_basis(action)
        if len(words) == action.dim**2:
            return ExpansivenessVerdict(
                status=EXPANSIVE,
                witness=None,
                certificate={
                    "kind": "irreducible_fast_path",
                    "algebra_dim": len(words),
                    "infinite_order_word": list(infinite_word),
                    "words": [list(w) for w in words[1:]],
                },
                evidence={"route": "irreducible-fast-path"},
                search_depth=depth,
            )
    return expansiveness_check(action, depth)


def _reduce_mod_1(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c % 1 for c in vec)


def _orbit_walk(action: SemigroupAction, point: TorusPoint, cap: int):
    """Depth-first walk of the torus points reachable from the given one,
    each yielded once before its images are visited; GridTooLargeError
    once more than ``cap`` points are found."""
    seen = {point.coords}
    stack = [point.coords]
    while stack:
        coords = stack.pop()
        yield coords
        for g in action.mats:
            nxt = _reduce_mod_1(g.apply(coords))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise GridTooLargeError(f"orbit closure exceeded {cap} states")
                seen.add(nxt)
                stack.append(nxt)


def orbit_closure(action: SemigroupAction, point: TorusPoint, cap: int = GRID_STATE_CAP) -> set:
    """All torus points reachable from the given one, exact and finite.

    Integer matrices keep denominators bounded, so the orbit of a
    rational point lies on a fixed finite grid.
    """
    return set(_orbit_walk(action, point, cap))


def orbit_spread(action: SemigroupAction, point: TorusPoint, cap: int = GRID_STATE_CAP) -> Fraction:
    """Largest torus distance from zero attained along the orbit."""
    closure = orbit_closure(action, point, cap)
    return max(TorusPoint(c).distance_to_zero() for c in closure)


class OracleResult(Frozen):
    __slots__ = ("separated", "failing_point", "q", "epsilon", "states")

    def __init__(
        self, separated: bool, failing_point: Optional[TorusPoint], q: int, epsilon: Fraction, states: int
    ) -> None:
        _set(self, "separated", separated)
        _set(self, "failing_point", failing_point)
        _set(self, "q", q)
        _set(self, "epsilon", epsilon)
        _set(self, "states", states)

    def to_json(self) -> dict:
        return {
            "separated": self.separated,
            "failing_point": None if self.failing_point is None else self.failing_point.to_json(),
            "q": self.q,
            "epsilon": str(self.epsilon),
            "states": self.states,
        }


def rational_orbit_oracle(
    action: SemigroupAction,
    q: int,
    epsilon: RationalLike,
    cap: int = GRID_STATE_CAP,
) -> OracleResult:
    """Exhaustive expansiveness check on the (1/q)-grid of the torus.

    Every nonzero grid point must reach torus distance >= epsilon from
    zero somewhere along its orbit; grid orbits are a subset of all
    orbits, so a failing point refutes epsilon-expansiveness while
    separation only supports it.
    """
    _check_integer_generators(action)
    eps = to_fraction(epsilon)
    if q < 2:
        raise ValueError("grid parameter q must be at least 2")
    if not (0 < eps <= Fraction(1, 2)):
        raise ValueError("epsilon must lie in (0, 1/2]")
    n = action.dim
    if q**n > cap:
        raise GridTooLargeError(f"{q}^{n} grid states exceed the cap of {cap}")
    states = q**n - 1
    for ks in itertools.product(range(q), repeat=n):
        if all(k == 0 for k in ks):
            continue
        point = TorusPoint(tuple(Fraction(k, q) for k in ks))
        if _point_separates(action, point, eps, cap):
            continue
        return OracleResult(False, point, q, eps, states)
    return OracleResult(True, None, q, eps, states)


def _point_separates(action: SemigroupAction, point: TorusPoint, eps: Fraction, cap: int) -> bool:
    """Whether the orbit reaches torus distance eps from zero; the walk stops at the first such point."""
    return any(TorusPoint(c).distance_to_zero() >= eps for c in _orbit_walk(action, point, cap))
