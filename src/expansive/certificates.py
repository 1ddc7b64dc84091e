"""Exact checks of the certificates that decisive reports carry.

Each certificate kind proves one status, named in ``CHECKS`` beside the
check that re-derives the proof in rational arithmetic.  A certificate
offered for the other status is refused, so a flipped report cannot
verify, and ``split`` and ``affine_obstruction`` ask their
sub-certificates for ``Expansive`` proofs the same way.  No check
searches: each re-derives its claim from the words, spaces and forms the
certificate stores; ``CLAIMS`` checks, per command, the other top-level
result fields of a decisive report.  The checker imports only ``actions``,
``exact`` and ``spectral``, never the search in ``orbits`` nor the torus
module, and the solenoid module loads only inside the checks that read it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .actions import (
    WORD_BUDGET,
    SemigroupAction,
    adapted_blocks,
    generated_by,
    gram_nonincreasing,
    invariant_line,
    keeps_bounded,
    restrict_action,
)
from .exact import (
    CapExceededError,
    IntEchelon,
    ParseError,
    QMatrix,
    char_poly,
    is_positive_definite,
    primitive_integer,
    to_fraction,
)
from .spectral import EXPANSIVE, GROUP, NOT_EXPANSIVE, has_unbounded_powers, unit_disk_profile

if TYPE_CHECKING:
    from .solenoid import DualModuleAction, RhoBasisChain

Witness = Optional[tuple[Fraction, ...]]

ENTRY_DIGITS = 1000  # longest entry of a report that verify reads, in characters
_ENTRY_BOUND = 10**ENTRY_DIGITS

# a decimal with an exponent, which writes a number that many digits longer
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)[\d_]*\.?[\d_]*[eE][-+]?(\d[\d_]*)\s*")


def check_entry_sizes(rep) -> None:
    """Raise CapExceededError on an entry of the report longer than the cap
    ``ENTRY_DIGITS``: a string of more characters, a JSON integer of more
    digits, or a decimal whose exponent writes more digits than that, so
    that no check parses or multiplies a number of millions of digits."""
    stack = [rep]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, str):
            length = len(x)
            if length <= ENTRY_DIGITS and ("e" in x or "E" in x):
                exponent = _EXPONENT.fullmatch(x)
                if exponent:
                    length += int(exponent[1].replace("_", ""))
            if length > ENTRY_DIGITS:
                raise CapExceededError(
                    f"a report entry of {length} characters, an exponent counted as the digits it writes,"
                    f" is past the cap ENTRY_DIGITS = {ENTRY_DIGITS}"
                )
        elif isinstance(x, int) and abs(x) >= _ENTRY_BOUND:
            raise CapExceededError(f"a report integer of more than {ENTRY_DIGITS} digits is past the cap ENTRY_DIGITS")


def _rows(rows) -> list[tuple[Fraction, ...]]:
    return [tuple(to_fraction(x) for x in row) for row in rows]


def _word_matrices(action: SemigroupAction, words: list) -> list[QMatrix]:
    """The products of words of a report, none of which an honest report
    makes longer than ``WORD_BUDGET`` letters: a longer one is refused before
    any product is formed, so the cost of a check stays bounded."""
    longest = max(map(len, words))
    if longest > WORD_BUDGET:
        raise CapExceededError(f"a certificate word has {longest} letters, past the cap WORD_BUDGET = {WORD_BUDGET}")
    return [action.word_matrix(word) for word in words]


def _word_spectrum(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """A word whose spectrum escapes the unit circle (and disk, for a semigroup)."""
    (m,) = _word_matrices(action, [cert["word"]])
    profile = unit_disk_profile(char_poly(m))
    return profile.to_json() == cert["profile"] and profile.escapes(action.mode)


def _spectral_obstruction(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """A word that generates the whole action, with a spectrum that does not
    escape; a witness is an eigenvector of an eigenvalue that keeps it bounded."""
    (m,) = _word_matrices(action, [cert["word"]])
    profile = unit_disk_profile(char_poly(m))
    if profile.to_json() != cert["profile"] or profile.escapes(action.mode) or not generated_by(action, m):
        return False
    if witness is None:
        return True
    lam = to_fraction(cert["witness_eigenvalue"])
    return keeps_bounded(lam, action.mode) and any(witness) and m.apply(witness) == tuple(lam * x for x in witness)


def _invariant_norm(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """A positive definite form on a nonzero invariant subspace that no generator increases."""
    rows = _rows(cert["space"])
    gram = QMatrix.from_json(cert["gram"])
    # one echelon of the rows is the independence test and then the witness's span test
    span = IntEchelon(action.dim)
    if not rows or gram.rows != len(rows) or not all(span.add(primitive_integer(row)) for row in rows):
        return False
    if not is_positive_definite(gram) or not gram_nonincreasing(restrict_action(action, rows).mats, gram):
        return False
    return witness is None or (any(witness) and not span.add(primitive_integer(witness)))


def _proved_subspace(cert: dict, action: SemigroupAction) -> tuple[int, list]:
    """The dimension k of the certificate's invariant subspace and every
    generator's adapted blocks; ValueError unless [space | complement] is a
    basis, the space is invariant and the restriction is proved expansive."""
    rows = _rows(cert["space"])
    _, blocks = adapted_blocks(action, rows, _rows(cert["complement"]))
    restriction = SemigroupAction(len(rows), action.names, tuple(a for a, _, _ in blocks), action.mode)
    if not check_certificate(cert["restriction"], restriction, EXPANSIVE):
        raise ValueError("the restriction is not proved expansive")
    return len(rows), blocks


def _split(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """Expansive on an invariant subspace and on the quotient by it."""
    k, blocks = _proved_subspace(cert, action)
    quotient = SemigroupAction(action.dim - k, action.names, tuple(d for _, _, d in blocks), action.mode)
    return check_certificate(cert["quotient"], quotient, EXPANSIVE)


def _affine_obstruction(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """Expansive on an invariant hyperplane, and no invariant line off it: a
    vector off it with a bounded orbit would span one."""
    k, blocks = _proved_subspace(cert, action)
    scalars = cert["scalars"]
    if k != action.dim - 1 or any(to_fraction(scalars[nm]) != d[0, 0] for nm, (_, _, d) in zip(action.names, blocks)):
        return False
    return invariant_line(blocks, k) is None


def _irreducible_fast_path(cert: dict, action: SemigroupAction, witness: Witness) -> bool:
    """An infinite integer action that is irreducible is expansive on the torus.
    The identity and the n^2 - 1 ``words`` span M_n(Q), so no proper subspace
    is invariant over any field; one word has unbounded powers, which for an
    integer matrix is infinite order."""
    n, words = action.dim, cert["words"]
    if cert["algebra_dim"] != n * n or len(words) != n * n - 1 or not all(g.is_integer() for g in action.mats):
        return False
    *mats, infinite = _word_matrices(action, [*words, cert["infinite_order_word"]])
    span = IntEchelon(n * n)
    for m in [QMatrix.identity(n), *mats]:
        span.add(m.num)
    return len(span) == n * n and has_unbounded_powers(infinite)


# kind -> (the status it proves, its check)
CHECKS = {
    "empty_space": (EXPANSIVE, lambda cert, action, witness: action.dim == 0),
    "word_spectrum": (EXPANSIVE, _word_spectrum),
    "split": (EXPANSIVE, _split),
    "affine_obstruction": (EXPANSIVE, _affine_obstruction),
    "irreducible_fast_path": (EXPANSIVE, _irreducible_fast_path),
    "spectral_obstruction": (NOT_EXPANSIVE, _spectral_obstruction),
    "InvariantNormFound": (NOT_EXPANSIVE, _invariant_norm),
}


def check_certificate(cert, action: SemigroupAction, status: str, witness=None) -> bool:
    """Whether ``cert`` proves ``status`` for ``action``, re-derived exactly.

    ``witness``, a vector of rationals when given, must be nonzero and have
    an orbit the certificate bounds.  A certificate whose data does not
    parse, or does not fit the action, proves nothing; a word past the cap
    ``WORD_BUDGET`` raises ``CapExceededError``.
    """
    try:
        proves, check = CHECKS[cert["kind"]]
        vector = None if witness is None else tuple(to_fraction(x) for x in witness)
        return proves == status and check(cert, action, vector)
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return False


def _analyze_matrix_claims(rep: dict, case: dict, action: SemigroupAction) -> bool:
    """A case of one generator; ``expansive`` says what the status says, and
    ``profile`` is the certificate's, which the certificate check re-derives."""
    return (
        len(case["generators"]) == 1
        and rep["expansive"] is (rep["status"] == EXPANSIVE)
        and rep["profile"] == rep["certificate"]["profile"]
    )


def _find_expansive_claims(rep: dict, case: dict, action: SemigroupAction) -> bool:
    """A commuting group action; ``word`` is the certificate's word, and ``matrix`` its product."""
    return (
        rep["found"] is True
        and action.mode == GROUP
        and all(a @ b == b @ a for a, b in combinations(action.mats, 2))
        and rep["word"] == rep["certificate"]["word"]
        and QMatrix.from_json(rep["matrix"]) == _word_matrices(action, [rep["word"]])[0]
    )


def _torus_check_claims(rep: dict, case: dict, action: SemigroupAction) -> bool:
    """An action on the torus: integer generators, of determinant +-1 in group
    mode (so that their inverses, which the action holds, are integer too)."""
    return all(g.is_integer() for g in action.mats) and (
        action.mode != GROUP or all(abs(g.det()) == 1 for g in action.mats)
    )


# command -> the check of the top-level result fields of its decisive reports
CLAIMS = {
    "analyze-matrix": _analyze_matrix_claims,
    "find-expansive": _find_expansive_claims,
    "torus-check": _torus_check_claims,
}


def check_claims(rep: dict, case: dict, action: SemigroupAction) -> bool:
    """Whether the top-level result fields of a decisive report hold for its
    case and ``action`` (the case's, in the report's mode), as ``CLAIMS``
    checks them; a command with no entry claims nothing beyond its
    certificate, and fields that are missing or do not parse prove nothing."""
    claims = CLAIMS.get(rep.get("command"))
    try:
        return claims is None or claims(rep, case, action)
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return False


def _module_chain(data: dict, module: DualModuleAction) -> Optional[RhoBasisChain]:
    """The chain, if its relations hold within its cost bound and its
    characters are the module's: the first level holds every module
    generator, and each character of a level is a module generator or the
    image of a character of the level before (for the first level, of a
    module generator) under one of the action's matrices."""
    from .solenoid import RhoBasisChain

    chain = RhoBasisChain.from_json(data)
    generators = set(module.module_generators)
    if not chain.levels or not generators <= set(chain.levels[0]) or not chain.verify():
        return None
    previous = generators
    for level in chain.levels:
        reached = generators | {g.apply(chi) for chi in previous for g in module.action.mats}
        if not reached.issuperset(level):
            return None
        previous = level
    return chain


def check_chain(data: dict, module: DualModuleAction, k: Optional[int] = None) -> bool:
    """Whether the chain is one of ``module`` and its relations hold within
    its cost bound (and, given, that bound is ``k``)."""
    chain = _module_chain(data, module)
    return chain is not None and (k is None or chain.k == k)


def check_lifts(data: dict, lifts: list, module: DualModuleAction) -> bool:
    """Whether the chain checks as in ``check_chain`` and each lift gives every chain
    character a value, a ball of nonnegative radius, below its bound, itself below 1/k,
    that satisfies every chain relation.
    Lifts that are not lift objects are a ParseError naming the field."""
    from .solenoid import Ball, character

    if not isinstance(lifts, list) or not all(isinstance(entry, dict) for entry in lifts):
        raise ParseError("the field 'lifts' must be a list of objects")
    lifted = [entry for entry in lifts if entry.get("lifted")]
    for entry in lifted:
        items = entry.get("values")
        if "bound" not in entry or not isinstance(items, list) or not all(
            isinstance(item, dict) and {"character", "mid", "rad"} <= item.keys() for item in items
        ):
            raise ParseError("a lift needs the field 'bound' and a field 'values' of {character, mid, rad} objects")
    chain = _module_chain(data, module)
    if chain is None:
        return False
    chars = [chi for level in chain.levels for chi in level]
    for entry in lifted:
        bound = to_fraction(entry["bound"])
        values = {
            character(item["character"]): Ball(to_fraction(item["mid"]), to_fraction(item["rad"]))
            for item in entry["values"]
        }
        if not 0 < bound * chain.k < 1 or any(chi not in values for chi in chars):
            return False
        if any(v.rad < 0 or v.abs_upper() >= bound for v in values.values()):
            return False
        for rel in chain.relations:
            ball = values[rel.target].scale(rel.n0)
            for coef, a in rel.terms:
                ball = ball - values[a].scale(coef)
            # a true functional satisfies the relation exactly
            if abs(ball.mid) > ball.rad:
                return False
    return True
