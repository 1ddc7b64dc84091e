"""Exact weight decomposition for commuting rational matrix families.

A commuting family splits the space into joint primary blocks; on each
block the expansiveness question reduces to the moduli of the (possibly
irrational) eigenvalues, which are compared to 1 only through the exact
circle-root test.  Certified rational brackets around the moduli are
computed on request, when ``GeneratorWeightData.modulus_interval`` is read;
no verdict reads them.  Blocks may keep several conjugate eigenvalue
families together; that is sound here because every criterion below
depends only on moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .actions import EXPANSIVE, NOT_EXPANSIVE, UNKNOWN, SemigroupAction, restrict_action
from .exact import (
    QMatrix,
    QPoly,
    SelfCheckError,
    Subspace,
    char_poly,
    intersect,
    kernel,
    mat_power,
    minimal_poly,
    poly_of_matrix,
    rational_roots,
    root_multiplicity,
    squarefree_part,
)
from .orbits import find_expansive_word, iter_words
from .spectral import GROUP, SEMIGROUP, check_mode, circle_root_count, single_expansive, unit_disk_profile


class NotCommutingError(ValueError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"generators {pair[0]!r} and {pair[1]!r} do not commute")
        self.pair = pair


class NotGroupModeError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorWeightData:
    """Eigenvalue summary of one generator's restriction to one block.

    ``modulus_interval`` and ``modulus_is_one`` are computed from
    ``eigen_poly`` each time they are read, so a decomposition that no one
    inspects costs no bracket.
    """

    minimal_poly: QPoly
    eigen_poly: QPoly  # squarefree part; its roots are the eigenvalues

    @property
    def modulus_interval(self) -> tuple[Fraction, Fraction]:
        """Certified rational bracket [lo, hi] around every eigenvalue modulus."""
        return _modulus_interval(self.eigen_poly)

    @property
    def modulus_is_one(self) -> str:
        """One of "yes", "no" or "mixed": all, none or some eigenvalues lie on the unit circle."""
        return _modulus_flag(self.eigen_poly)

    def to_json(self) -> dict:
        return {
            "minimal_poly": [str(c) for c in self.minimal_poly.coeffs],
            "modulus_interval": [str(self.modulus_interval[0]), str(self.modulus_interval[1])],
            "modulus_is_one": self.modulus_is_one,
        }


@dataclass(frozen=True)
class WeightBlock:
    space: Subspace
    per_generator: dict[str, GeneratorWeightData]
    restriction: SemigroupAction  # the action on the block, in the basis of ``space``

    @property
    def dim(self) -> int:
        return self.space.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "space": self.space.to_json(),
            "per_generator": {name: d.to_json() for name, d in self.per_generator.items()},
        }


@dataclass(frozen=True)
class WeightDecomposition:
    action: SemigroupAction
    blocks: tuple[WeightBlock, ...]

    def to_json(self) -> dict:
        return {"blocks": [b.to_json() for b in self.blocks]}


def _check_commuting(action: SemigroupAction) -> None:
    for i in range(len(action.mats)):
        for j in range(i + 1, len(action.mats)):
            if action.mats[i] @ action.mats[j] != action.mats[j] @ action.mats[i]:
                raise NotCommutingError((action.names[i], action.names[j]))


def _coprime_root_factors(p: QPoly) -> list[QPoly]:
    """Pairwise coprime polynomials covering p's roots, rational roots split off."""
    s = squarefree_part(p)
    out: list[QPoly] = []
    for lam in rational_roots(s):
        out.append(QPoly.from_coeffs([-lam, Fraction(1)]))
        _, s = root_multiplicity(s, lam)
    if s.degree > 0:
        out.append(s.monic())
    return out


def _modulus_flag(eigen_poly: QPoly) -> str:
    zeros, stripped = root_multiplicity(eigen_poly, Fraction(0))
    if stripped.degree == 0:
        return "no"
    on = circle_root_count(stripped)
    if on == 0:
        return "no"
    if on == stripped.degree and zeros == 0:
        return "yes"
    return "mixed"


def _count_below(eigen_poly: QPoly, r: Fraction) -> tuple[int, int]:
    """(#roots with modulus < r, #roots with modulus = r), exactly."""
    prof = unit_disk_profile(eigen_poly.shift_scale_arg(r))
    return prof.at_zero + prof.inside, prof.on_circle


def _modulus_interval(eigen_poly: QPoly) -> tuple[Fraction, Fraction]:
    """Certified rational bracket [lo, hi] around every root modulus, by 16
    bisection steps on each side."""
    deg = eigen_poly.degree
    roots = rational_roots(eigen_poly)
    if len(roots) == deg:
        mods = [abs(r) for r in roots]
        return min(mods), max(mods)
    if _modulus_flag(eigen_poly) == "yes":
        return Fraction(1), Fraction(1)
    mono = eigen_poly.monic()
    bound = Fraction(1) + max(abs(c) for c in mono.coeffs[:-1])
    zeros, _ = root_multiplicity(eigen_poly, Fraction(0))
    if zeros > 0:
        lo = Fraction(0)
    else:
        a, b = Fraction(0), bound
        for _ in range(16):
            mid = (a + b) / 2
            below, _on = _count_below(eigen_poly, mid)
            if below == 0:
                a = mid
            else:
                b = mid
        lo = a
    a, b = Fraction(0), bound
    for _ in range(16):
        mid = (a + b) / 2
        below, on = _count_below(eigen_poly, mid)
        if below + on == deg:
            b = mid
        else:
            a = mid
    hi = b
    return lo, hi


def _check_direct_sum(blocks: list[Subspace], n: int) -> None:
    """Raise SelfCheckError unless the blocks split Q^n into a direct sum:
    their dimensions add up to n and their bases together span Q^n."""
    if sum(b.dim for b in blocks) != n or Subspace.from_vectors(n, [v for b in blocks for v in b.basis]).dim != n:
        raise SelfCheckError("the primary blocks must split the space into a direct sum")


def weight_decomposition(action: SemigroupAction) -> WeightDecomposition:
    """Joint primary decomposition of a commuting family.

    Blocks are intersections over generators of kernels f(g)^n for the
    pairwise coprime root factors f of each characteristic polynomial;
    commutativity makes every kernel invariant under the whole family.
    """
    _check_commuting(action)
    n = action.dim
    blocks = [Subspace.full(n)]
    for g in action.mats:
        factors = _coprime_root_factors(char_poly(g))
        primaries = [kernel(mat_power(poly_of_matrix(f, g), n)) for f in factors]
        refined = []
        for b in blocks:
            for prim in primaries:
                piece = intersect(b, prim)
                if piece.dim > 0:
                    refined.append(piece)
        blocks = refined
    _check_direct_sum(blocks, n)
    out_blocks = []
    for b in blocks:
        restriction = restrict_action(action, list(b.basis))
        per_gen = {}
        for name, r in zip(action.names, restriction.mats):
            mp = minimal_poly(r)
            per_gen[name] = GeneratorWeightData(minimal_poly=mp, eigen_poly=squarefree_part(mp))
        out_blocks.append(WeightBlock(space=b, per_generator=per_gen, restriction=restriction))
    return WeightDecomposition(action=action, blocks=tuple(out_blocks))


@dataclass(frozen=True)
class WeightsVerdict:
    status: str
    block_reports: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"status": self.status, "blocks": list(self.block_reports)}


def _block_is_stuck(block: WeightBlock, mode: str) -> bool:
    """Exact certificate that every weight on the block stays bounded."""
    if mode == SEMIGROUP:
        # all eigenvalues of every generator inside or on the unit circle
        return all(
            unit_disk_profile(d.eigen_poly).outside == 0 for d in block.per_generator.values()
        )
    return all(d.modulus_is_one == "yes" for d in block.per_generator.values())


def expansive_by_weights(decomp: WeightDecomposition, mode: str) -> WeightsVerdict:
    """Three-valued expansiveness test on a weight decomposition.

    A block passes when one word drives every weight off the bounded
    region at once (moduli all > 1 in semigroup mode, all different from
    1 in group mode); it fails when no generator can move any weight.
    Blocks with mixed moduli and no covering word stay undecided.
    """
    check_mode(mode)
    reports = []
    overall = EXPANSIVE
    for block in decomp.blocks:
        r = replace(block.restriction, mode=mode)
        found = find_expansive_word(r, iter_words(r, 3, 80))
        if found is not None:
            reports.append({"dim": block.dim, "status": "escapes", "word": list(found[0])})
            continue
        if _block_is_stuck(block, mode):
            reports.append({"dim": block.dim, "status": "stuck"})
            overall = NOT_EXPANSIVE
        else:
            reports.append({"dim": block.dim, "status": "undecided"})
            if overall == EXPANSIVE:
                overall = UNKNOWN
    return WeightsVerdict(status=overall, block_reports=tuple(reports))


def find_expansive_element(action: SemigroupAction, word_cap: int = 64) -> Optional[dict]:
    """Constructive search for a single expansive element of a commuting group.

    Greedy repair: start from the generator clearing the most blocks off
    the unit circle; while some block still touches the circle, append a
    block-clearing word, raising the power of the current word (doubling,
    capped at 2^40) until every previously cleared block stays cleared.
    The cleared-block count strictly increases, so the loop ends.  The
    result is re-verified by the exact single-matrix test.
    """
    if action.mode != GROUP:
        raise NotGroupModeError("expansive-element search applies to group actions")
    decomp = weight_decomposition(action)
    verdict = expansive_by_weights(decomp, GROUP)
    if verdict.status != EXPANSIVE:
        return None

    restrictions = [b.restriction for b in decomp.blocks]
    escape_words = [tuple(rep["word"]) for rep in verdict.block_reports]

    def off_circle(r: QMatrix) -> bool:
        return unit_disk_profile(char_poly(r)).on_circle == 0

    def cleared(word: tuple[str, ...]) -> list[bool]:
        return [off_circle(r.word_matrix(word)) for r in restrictions]

    best: tuple[str, ...] = (action.names[0],)
    flags = cleared(best)
    for name in action.names[1:]:
        c = cleared((name,))
        if sum(c) > sum(flags):
            best, flags = (name,), c

    while not all(flags):
        target = flags.index(False)
        repair = escape_words[target]
        m = 1
        while True:
            if m * len(best) + len(repair) > word_cap or m > 2**40:
                return None
            new_flags = [
                off_circle(mat_power(r.word_matrix(best), m) @ r.word_matrix(repair)) for r in restrictions
            ]
            if all(nf for nf, old in zip(new_flags, flags) if old) and new_flags[target]:
                # new_flags are the flags of the new word: its matrix is W(best)^m W(repair)
                best, flags = best * m + repair, new_flags
                break
            m *= 2

    matrix = action.word_matrix(best)
    if not single_expansive(matrix, GROUP).expansive:
        raise SelfCheckError(f"the word {best} must be expansive on the whole space")
    return {"word": list(best), "matrix": matrix}
