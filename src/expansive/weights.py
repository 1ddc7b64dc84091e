"""Exact weight decomposition for commuting rational matrix families.

A commuting family splits the space into joint primary blocks; on each
block the expansiveness question reduces to where the (possibly
irrational) eigenvalues lie relative to the unit circle.  A block escapes
by a word found by the engine's word search, and is stuck when the disk
profile (``spectral.unit_disk_profile``) of every generator's restriction
keeps every eigenvalue bounded; no modulus is approximated.  Blocks may
keep several conjugate eigenvalue families together; that is sound here
because every criterion below depends only on moduli.

The decomposition reads each generator once (``SemigroupAction.generators``),
not every letter: any other letter equals a generator g or inverts it (a
group action's ``g^-1``).  Such a letter commutes with whatever g commutes
with, has g's primary components, and on each block has eigenvalues on
the unit circle exactly when g does, so no block, error or word changes.
Given generators that invert each other both stay, for the same reason.
"""

from __future__ import annotations

from typing import Optional

from .actions import SemigroupAction, restrict_action
from .exact import (
    Frozen,
    QMatrix,
    QPoly,
    SelfCheckError,
    Subspace,
    char_poly,
    intersect,
    kernel,
    mat_power,
    poly_of_matrix,
    rational_roots,
    _int_derivative,
    _int_exact_quo,
    _int_gcd,
    _int_prim,
    _int_scaled,
)
from .orbits import find_expansive_word, iter_words
from .spectral import (
    EXPANSIVE,
    GROUP,
    NOT_EXPANSIVE,
    SEMIGROUP,
    UNKNOWN,
    check_mode,
    single_expansive,
    unit_disk_profile,
)


class NotCommutingError(ValueError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"generators {pair[0]!r} and {pair[1]!r} do not commute")
        self.pair = pair


class NotGroupModeError(ValueError):
    pass


class WeightBlock(Frozen):
    """``restriction`` is the action on the block, in the basis of ``space``."""

    __slots__ = ("space", "restriction")

    @property
    def dim(self) -> int:
        return self.space.dim


class WeightDecomposition(Frozen):
    __slots__ = ("action", "blocks")


def _check_commuting(action: SemigroupAction) -> None:
    """Raise on the first pair of generators that do not commute.  Any other
    letter commutes with what its generator commutes with, so the first
    failing pair of all letters is a pair of generators."""
    for a, i in enumerate(action.generators):
        for j in action.generators[a + 1 :]:
            if action.mats[i] @ action.mats[j] != action.mats[j] @ action.mats[i]:
                raise NotCommutingError((action.names[i], action.names[j]))


def _coprime_root_factors(p: QPoly) -> list[QPoly]:
    """Pairwise coprime primitive integer polynomials covering p's roots: the
    square-free part of p's integer form, each rational root divided out once
    as its own linear factor.  A nonzero multiple of a factor f has the same
    kernels of f(g)^n, so the blocks do not depend on the scaling."""
    f = _int_prim(_int_scaled(p))
    s = _int_exact_quo(f, _int_gcd(f, _int_derivative(f)))
    out: list[QPoly] = []
    for lam in rational_roots(QPoly.from_coeffs(s)):
        line = (-lam.numerator, lam.denominator)
        out.append(QPoly.from_coeffs(line))
        s = _int_exact_quo(s, line)
    if len(s) > 1:
        out.append(QPoly.from_coeffs(s))
    return out


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
    Only the generators are factored: ker f(g^-1)^n is a primary component
    of g, so each block of g would meet exactly one of them, in itself, and
    the blocks and their order stay the same.
    """
    _check_commuting(action)
    n = action.dim
    blocks = [Subspace.full(n)]
    for g in (action.mats[i] for i in action.generators):
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
    out_blocks = tuple(WeightBlock(space=b, restriction=restrict_action(action, list(b.basis))) for b in blocks)
    return WeightDecomposition(action=action, blocks=out_blocks)


class WeightsVerdict(Frozen):
    __slots__ = ("status", "block_reports")


def _block_is_stuck(block: WeightBlock, mode: str) -> bool:
    """Exact certificate that every weight on the block stays bounded: every
    eigenvalue of every generator lies in the closed unit disk (semigroup
    mode) or on the unit circle (group mode)."""
    profiles = (unit_disk_profile(char_poly(g)) for g in block.restriction.mats)
    if mode == SEMIGROUP:
        return all(p.outside == 0 for p in profiles)
    return all(p.on_circle == p.degree for p in profiles)


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
        b = block.restriction
        r = SemigroupAction(b.dim, b.names, b.mats, mode, b.generators)
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
    """Constructive search for a single expansive element of a commuting group:
    ``{"word", "matrix", "profile"}``, the word's matrix and its ``DiskProfile``,
    or None.

    Greedy repair: start from the generator clearing the most blocks off
    the unit circle; while some block still touches the circle, append a
    block-clearing word, raising the power of the current word (doubling,
    capped at 2^40) until every previously cleared block stays cleared.
    The cleared-block count strictly increases, so the loop ends.  The
    result is re-verified by the exact single-matrix test.  The start reads
    the generators only: any other letter clears the blocks its generator
    clears, and only a strictly larger count replaces the start.
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
    for name in (action.names[i] for i in action.generators[1:]):
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
    single = single_expansive(matrix, GROUP)
    if not single.expansive:
        raise SelfCheckError(f"the word {best} must be expansive on the whole space")
    return {"word": list(best), "matrix": matrix, "profile": single.profile}
