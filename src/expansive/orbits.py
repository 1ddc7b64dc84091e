"""Semi-decision engine for expansiveness of finitely generated linear actions.

The action is expansive exactly when every nonzero vector has an unbounded
orbit, so the engine hunts for one of two kinds of exact evidence:

* an element of the semigroup whose spectrum certifies escape of every
  vector (single-word route), possibly after splitting the space along an
  exactly invariant subspace and certifying restriction and quotient
  separately;
* a nonzero invariant subspace carrying an exactly verified invariant
  norm, which bounds every orbit inside it (NotExpansive witness).

The action type and the exact facts the certificate checker shares
(restrictions, adapted blocks, nonincreasing forms) live in
``expansive.actions``, and the verdict names in ``expansive.spectral``; this
module is the search alone.

The stages run in the order of what they can prove.  One breadth-first walk
of distinct words feeds the word search (stage 1, Expansive only).  Its first
``EARLY_WORDS`` words come first; then the cyclic obstruction (stage 2) and
the bounded subspace (stage 3), which prove only NotExpansive, and the split
(stage 4), which proves either.  A NotExpansive split returns at once; an
Expansive one is held while the same walk resumes to its budget, and the
first expansive word still wins, so every verdict and certificate is the one
the walk-first order gives.  ``EARLY_WORDS`` exists because a NotExpansive
action has no expansive word at all: without the cut its walk would drain
the whole budget before stages 2-4 could decide it, while the winning word
of an Expansive action almost always sits among the first few dozen.  The
walk does not resume when no word can win it: when a held split's
affine obstruction traps every word (each word's eigenvalue on that one
dimensional quotient keeps an orbit bounded), the held split is the answer.
In semigroup mode generators with |det| <= 1 allow no expansive word, so
there the walk does not start at all.

Floating point only proposes: stage 3's bounded-direction screen guesses a
subspace from a float Gram form, and ``certify_bounded`` proves a bound on it
exactly or drops it.  The word search screens each word exactly, by its
characteristic polynomial, so no float can veto an expansive word.  Floats
also give the orbit norm bound a NotExpansive report carries as evidence;
numpy is imported only inside those functions and ``jsr_bounds``, and every
verdict-bearing claim is derived in rational arithmetic.  Unknown is an
honest third answer.  ``jsr_bounds``, the joint spectral radius bracket, is
float evidence that no verdict uses, so the engine never calls it; the
``jsr`` subcommand computes it on request.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional

from .actions import (
    SemigroupAction,
    _complete_basis,
    adapted_blocks,
    generated_by,
    gram_nonincreasing,
    invariant_line,
    keeps_bounded,
    restrict_action,
)
from .exact import (
    DimensionMismatchError,
    Frozen,
    IntEchelon,
    QMatrix,
    QPoly,
    Subspace,
    char_poly,
    intersect,
    is_positive_definite,
    kernel,
    primitive_integer,
    rational_roots,
    solve_exact,
)
from .spectral import (
    EXPANSIVE,
    NOT_EXPANSIVE,
    SEMIGROUP,
    UNKNOWN,
    DiskProfile,
    single_expansive,
    unit_disk_profile,
)

if TYPE_CHECKING:
    import numpy as np

# search limits of the engine
WORD_BUDGET = 4000  # distinct words the word search walks
EARLY_WORDS = 64  # of those, the words walked before stages 2-4
CLOSURE_CAP = 400  # elements of a finite product closure
GRAM_DEPTH = 12  # longest word length of the float Gram form
EXACT_GRAM_DEPTH = 4  # word length of the exact Gram partial sum
BOUND_CAP = 2.0  # Gram eigenvalues at most this flag bounded directions
SNAP_DENOMINATOR = 10**6  # largest denominator of a snapped direction
MAX_SUBSPACES = 8  # invariant subspaces the split tries
METRIC_TRIES = 6  # extra combinations tried for an invariant metric


class ExpansivenessVerdict(Frozen):
    __slots__ = ("status", "witness", "certificate", "evidence", "search_depth")


# ------------------------------------------------------------ word search


def _float_mats(action: SemigroupAction) -> list[np.ndarray]:
    import numpy as np

    return [np.array(m.to_floats(), dtype=float) for m in action.mats]


def iter_words(action: SemigroupAction, max_len: int, budget: int):
    """Breadth-first distinct word matrices, as (word, matrix) pairs.

    Words whose matrix was already seen are neither yielded nor extended;
    for the searches below only the semigroup element matters.
    """
    seen = {QMatrix.identity(action.dim)}
    frontier: list[tuple[tuple[str, ...], QMatrix]] = [((), QMatrix.identity(action.dim))]
    emitted = 0
    for _ in range(max_len):
        nxt: list[tuple[tuple[str, ...], QMatrix]] = []
        for word, m in frontier:
            for name, g in zip(action.names, action.mats):
                wm = m @ g
                if wm in seen:
                    continue
                seen.add(wm)
                yield word + (name,), wm
                emitted += 1
                if emitted >= budget:
                    return
                nxt.append((word + (name,), wm))
        if not nxt:
            return
        frontier = nxt


def _word_prescreen(p: QPoly, mode: str) -> bool:
    """Exact screen on a word's characteristic polynomial ``p``: False when a
    root at 0 or +-1 already refutes the word, or, in semigroup mode, when
    |p(0)| = |det| <= 1 puts a root in the closed unit disk."""
    cs = p.coeffs
    # p(0), p(1) and p(-1) are the constant, the sum and the alternating sum
    if p.constant == 0 or sum(cs) == 0 or sum(cs[::2]) == sum(cs[1::2]):
        return False
    return mode != SEMIGROUP or abs(p.constant) > 1


class ExpansiveWord(tuple):
    """The pair (word, matrix) of an expansive word; ``profile`` is the
    matrix's unit disk profile, so callers need not recompute it."""

    def __new__(cls, word: tuple[str, ...], matrix: QMatrix, profile: DiskProfile) -> "ExpansiveWord":
        hit = super().__new__(cls, (word, matrix))
        hit.profile = profile
        return hit


def find_expansive_word(
    action: SemigroupAction, walk: Iterable[tuple[tuple[str, ...], QMatrix]]
) -> Optional[ExpansiveWord]:
    """First word of ``walk``, (word, matrix) pairs as ``iter_words`` yields
    them, whose single matrix is expansive in the action's mode.

    Every word's characteristic polynomial goes through the exact
    ``_word_prescreen`` before the full spectral test; the screen drops only
    words that test would refute, so no expansive word is skipped."""
    for word, m in walk:
        p = char_poly(m)
        if not _word_prescreen(p, action.mode):
            continue
        verdict = single_expansive(m, action.mode, p)
        if verdict.expansive:
            return ExpansiveWord(word, m, verdict.profile)
    return None


# ------------------------------------------------- joint spectral radius


def jsr_bounds(action: SemigroupAction, depth: int, tol: float) -> dict:
    """Joint spectral radius bracket: averaged spectral radii from below,
    Gripenberg branch-and-bound on norm products from above.

    The lower bound makes one stacked eigenvalue call over all words, the
    upper bound one stacked product and one stacked SVD call per level; the
    roots, mins and maxima stay per word in Python floats, so both bounds
    equal those of a word-by-word loop bit for bit.
    """
    import numpy as np

    n = action.dim
    budget = 2000
    stack = np.empty((budget, n, n))
    lengths: list[int] = []
    for word, m in iter_words(action, depth, budget):
        stack[len(lengths)] = m.to_floats()
        lengths.append(len(word))
    lower = 0.0
    if lengths:
        radii = np.abs(np.linalg.eigvals(stack[: len(lengths)])).max(axis=1).tolist()
        for length, sr in zip(lengths, radii):
            lower = max(lower, sr ** (1.0 / length))
    # beta is the min over the branch's prefixes of the averaged norm; the
    # true JSR never exceeds max(lower, all betas at or past the cut)
    k = len(action.mats)
    gens = np.array(_float_mats(action)).reshape(k, n, n)
    prods = gens
    betas = np.linalg.norm(gens, 2, axis=(1, 2)).tolist()
    upper_candidates: list[float] = []
    for length in range(1, depth + 1):
        cut = [length == depth or beta <= lower + tol for beta in betas]
        upper_candidates.extend(beta for beta, c in zip(betas, cut) if c)
        live = [i for i, c in enumerate(cut) if not c]
        if not live:
            break
        # every live branch times every generator, branch-major
        prods = np.matmul(prods[live][:, None], gens).reshape(len(live) * k, n, n)
        norms = np.linalg.norm(prods, 2, axis=(1, 2)).tolist()
        root = 1.0 / (length + 1)
        parents = [betas[i] for i in live for _ in range(k)]
        betas = [min(beta, norm**root) for beta, norm in zip(parents, norms)]
    upper = max(upper_candidates) if upper_candidates else lower
    return {"lower": lower, "upper": max(lower, upper)}


# -------------------------------------------- bounded-subspace machinery


def snap_vector(v: np.ndarray, max_den: int) -> Optional[tuple[Fraction, ...]]:
    import numpy as np

    big = float(np.max(np.abs(v)))
    if big == 0 or not math.isfinite(big):
        return None
    scaled = v / v[int(np.argmax(np.abs(v)))]
    return tuple(Fraction(float(x)).limit_denominator(max_den) for x in scaled)


def invariant_closure(action: SemigroupAction, vectors: Iterable[Iterable[Fraction]]) -> Subspace:
    """Smallest exactly invariant subspace containing the given vectors.

    A worklist over integer vectors: each vector, scaled to integers, goes
    into one ``IntEchelon``, and every vector it accepts sends its images
    under the generators' integer numerators back to the list (a span does
    not depend on the common denominator).  The accepted vectors span the
    closure, whose canonical basis is built once at the end.
    """
    n = action.dim
    todo = [primitive_integer(v) for v in vectors]
    if any(len(v) != n for v in todo):
        raise DimensionMismatchError("vector length mismatch")
    gens = [g.num for g in action.mats]
    echelon = IntEchelon(n)
    while todo and len(echelon) < n:
        v = todo.pop()
        if echelon.add(v):
            todo.extend([sum(map(mul, g[i * n : (i + 1) * n], v)) for i in range(n)] for g in gens)
    return Subspace.from_vectors(n, echelon.rows)


def _growth_normalized_gram(action: SemigroupAction, depth: int) -> np.ndarray:
    """Average over word lengths of (1/m^l) sum over |w|=l of rho(w)' rho(w).

    Equals B_l' B_l / m^l for the stacked length-l word matrix B_l, so its
    small eigenvalues flag directions every length-l word keeps small.
    """
    import numpy as np

    n = action.dim
    mats = _float_mats(action)
    m = max(len(mats), 1)
    g = np.eye(n)
    s = np.eye(n)
    levels = 1
    for _ in range(depth):
        g = sum((a.T @ g @ a) for a in mats) / m
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) > 1e14:
            break
        s = s + g
        levels += 1
    return s / levels


def _bounded_directions(action: SemigroupAction, depth: int) -> Subspace:
    """Numeric guess at the bounded-orbit subspace, exactly invariant.

    Directions are filtered by the growth-normalized word Gram form (the
    normalization keeps isometric directions near 1 at any depth, so the
    cut is scale-free); survivors are rationalized and closed under the
    action.  Nothing here is certified: ``certify_bounded`` does that.
    """
    import numpy as np

    s = _growth_normalized_gram(action, depth)
    eigvals, eigvecs = np.linalg.eigh((s + s.T) / 2)
    snapped = []
    for i in range(len(eigvals)):
        if eigvals[i] <= BOUND_CAP:
            sv = snap_vector(eigvecs[:, i], SNAP_DENOMINATOR)
            if sv is not None:
                snapped.append(sv)
    if not snapped:
        return Subspace.zero(action.dim)
    return invariant_closure(action, snapped)


# ------------------------------------------------ boundedness certificates


def certify_bounded(action: SemigroupAction, space: Subspace) -> Optional[dict]:
    """Exact invariant-norm certificate for the restriction to a space.

    Tries, in order: the restriction being trivial, the Euclidean norm, a
    finite product closure (whose summed Gram matrix is invariant when every
    generator is invertible), an exact word-Gram partial sum, and an exactly
    solved invariant metric.  Every candidate is validated by exact positive
    semidefiniteness of Q - g'Qg per generator with Q positive definite, so
    a returned certificate bounds every orbit in the space.
    """
    if space.dim == 0:
        return None
    res = restrict_action(action, list(space.basis))
    k = res.dim
    ident = QMatrix.identity(k)
    if all(m == ident for m in res.mats):
        return {"gram": ident, "method": "identity"}
    if gram_nonincreasing(res.mats, ident):
        return {"gram": ident, "method": "euclidean"}
    closure = _finite_closure(res)
    if closure is not None:
        # sum s's over the closure plus the identity, each element once.  With
        # every generator invertible the closure is a finite group, s -> sg
        # permutes it and the form is invariant; a singular g can send two
        # elements to one, so the form can grow, and the exact check below
        # is what keeps the certificate sound
        q = ident
        for s in closure:
            q = q + (s.transpose() @ s)
        if gram_nonincreasing(res.mats, q):
            return {"gram": q, "method": "finite_closure"}
    q = _exact_gram_sum(res)
    if gram_nonincreasing(res.mats, q):
        return {"gram": q, "method": "word_gram"}
    solved = _solve_invariant_metric(res)
    if solved is not None:
        return {"gram": solved, "method": "isometry_metric"}
    return None


def _finite_closure(action: SemigroupAction) -> Optional[list[QMatrix]]:
    """Every element of the product semigroup but the identity, or None when
    it has more than CLOSURE_CAP elements."""
    out = [m for _, m in iter_words(action, CLOSURE_CAP + 1, CLOSURE_CAP + 1)]
    # a finite closure holds the identity exactly when some generator is invertible
    has_identity = any(g.det() != 0 for g in action.mats)
    return None if len(out) + has_identity > CLOSURE_CAP else out


def _exact_gram_sum(action: SemigroupAction) -> QMatrix:
    g = QMatrix.identity(action.dim)
    total = QMatrix.identity(action.dim)
    for _ in range(EXACT_GRAM_DEPTH):
        terms = [(a.transpose() @ g @ a) for a in action.mats]
        g = terms[0]
        for t in terms[1:]:
            g = g + t
        total = total + g
    return total


def _solve_invariant_metric(action: SemigroupAction) -> Optional[QMatrix]:
    """Exact positive definite Q with g'Qg = Q for every generator, or None."""
    n = action.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    var_index = {p: t for t, p in enumerate(pairs)}

    def sym_from(vals: Iterable[Fraction]) -> QMatrix:
        vals = list(vals)
        ent = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), t in var_index.items():
            ent[i][j] = vals[t]
            ent[j][i] = vals[t]
        return QMatrix.from_rows(ent)

    rows = []
    for g in action.mats:
        for a, b in pairs:
            row = [Fraction(0)] * len(pairs)
            # coefficient of the variable Q_{ij} in (g'Qg - Q)_{ab}
            for (i, j), t in var_index.items():
                coef = g[i, a] * g[j, b]
                if i != j:
                    coef += g[j, a] * g[i, b]
                if (i, j) == (a, b):
                    coef -= 1
                row[t] = coef
            rows.append(row)
    null = kernel(QMatrix.from_rows(rows))
    if null.dim == 0:
        return None
    basis = [sym_from(v) for v in null.basis]
    combos: list[list[int]] = [[1] * len(basis), [-1] * len(basis)]
    for s in range(len(basis)):
        combos.append([1 if t == s else 0 for t in range(len(basis))])
        combos.append([-1 if t == s else 0 for t in range(len(basis))])
    for s in range(METRIC_TRIES):
        combos.append([(s + 1) ** t % 7 + 1 for t in range(len(basis))])
    for combo in combos:
        if not any(combo):
            continue
        q = basis[0].scale(Fraction(combo[0]))
        for b, c in zip(basis[1:], combo[1:]):
            q = q + b.scale(Fraction(c))
        if is_positive_definite(q):
            return q
    return None


# --------------------------------------------- invariant subspace search


def _eigenvector_seeds(action: SemigroupAction) -> list[tuple[Fraction, ...]]:
    out: list[tuple[Fraction, ...]] = []
    mats = list(dict.fromkeys(action.mats))
    for _, m in iter_words(action, 2, 40):
        if m not in mats:
            mats.append(m)
    for m in mats:
        for lam in rational_roots(char_poly(m)):
            out.extend(kernel(m - QMatrix.identity(action.dim).scale(lam)).basis)
        if action.mode == SEMIGROUP:
            out.extend(kernel(m).basis)
    return out


def _proper_invariant_subspaces(action: SemigroupAction) -> list[Subspace]:
    """Proper invariant subspaces for the split, smallest first: the
    closures of the exact eigenvectors of the generators and short words,
    and the pairwise intersections of those closures, which are invariant
    as intersections of invariant subspaces."""
    n = action.dim
    seeds = _eigenvector_seeds(action)
    spaces: list[Subspace] = []
    seen = set()
    for v in seeds:
        sp = invariant_closure(action, [v])
        if 0 < sp.dim < n and sp.basis not in seen:
            seen.add(sp.basis)
            spaces.append(sp)
    # pairwise intersections occasionally expose smaller invariant spaces
    for a in list(spaces):
        for b in list(spaces):
            c = intersect(a, b)
            if 0 < c.dim < n and c.basis not in seen:
                seen.add(c.basis)
                spaces.append(c)
    spaces.sort(key=lambda sp: (sp.dim, sp.basis))
    return spaces[:MAX_SUBSPACES]


# ------------------------------------------------------------- the engine


def _norm_cert(basis_rows: list[tuple[Fraction, ...]], gram: QMatrix, method: str) -> dict:
    return {
        "kind": "InvariantNormFound",
        "space": [[str(x) for x in b] for b in basis_rows],
        "gram": gram.to_json(),
        "slack": "0",
        "method": method,
    }


def _embed(space: Subspace, local: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * space.ambient_dim
    for c, b in zip(local, space.basis):
        for i in range(space.ambient_dim):
            out[i] += c * b[i]
    return tuple(out)


def _norm_bound_from_cert(cert: dict, witness: tuple[Fraction, ...]) -> float:
    """Float upper bound on the witness orbit's Euclidean norm.

    x'Qx never increases along the orbit, so every orbit point y obeys
    lam_min(Q) |y|^2 <= x'Qx <= lam_max(Q) |x|^2 over the certified space.
    """
    import numpy as np

    gram = np.array([[float(Fraction(x)) for x in row] for row in cert["gram"]], dtype=float)
    eig = np.linalg.eigvalsh(gram)
    wnorm = math.sqrt(sum(float(x) * float(x) for x in witness))
    lo, hi = float(eig[0]), float(eig[-1])
    if lo <= 0:
        lo = min((abs(float(x)) for x in eig if x != 0), default=1.0)
    return math.sqrt(hi / lo) * wnorm * (1 + 1e-9)


def _spectral_witness(m: QMatrix, mode: str) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
    for lam in rational_roots(char_poly(m)):
        if not keeps_bounded(lam, mode):
            continue
        eig = kernel(m - QMatrix.identity(m.rows).scale(lam))
        if eig.dim > 0:
            return eig.basis[0], lam
    return None


def expansiveness_check(action: SemigroupAction, depth: int = 10) -> ExpansivenessVerdict:
    """Three-valued expansiveness test with machine-checkable certificates.

    Expansive and NotExpansive come with certificates that re-verify in
    exact arithmetic; Unknown carries only search evidence.
    """
    res = _analyze(action, depth, {})
    evidence = dict(res.evidence)
    if res.status == NOT_EXPANSIVE and res.witness is not None and res.certificate is not None:
        if res.certificate.get("kind") == "InvariantNormFound":
            evidence["norm_bound"] = _norm_bound_from_cert(res.certificate, res.witness)
        else:
            evidence["norm_bound"] = math.sqrt(sum(float(x) ** 2 for x in res.witness))
    return ExpansivenessVerdict(res.status, res.witness, res.certificate, evidence, res.search_depth)


def _analyze(action: SemigroupAction, depth: int, memo: dict) -> ExpansivenessVerdict:
    key = (action.mats, action.mode, depth)
    if key in memo:
        return memo[key]
    out = _analyze_uncached(action, depth, memo)
    memo[key] = out
    return out


def _analyze_uncached(action: SemigroupAction, depth: int, memo: dict) -> ExpansivenessVerdict:
    n = action.dim
    if n == 0:
        return ExpansivenessVerdict(EXPANSIVE, None, {"kind": "empty_space"}, {"route": "empty"}, 0)

    # 1. single-element spectral certificate, over the first EARLY_WORDS words,
    # unless the determinants already rule out every word
    walk = None if _determinants_trap_every_word(action) else iter_words(action, depth, WORD_BUDGET)
    if walk is not None:
        found = find_expansive_word(action, islice(walk, EARLY_WORDS))
        if found is not None:
            return _word_verdict(found, depth)

    # 2. cyclic actions are decided outright by one spectrum
    held: Optional[ExpansivenessVerdict] = None
    cyclic = _cyclic_generator(action)
    if cyclic is not None:
        name, m = cyclic
        if action.mode == SEMIGROUP or m.det() != 0:
            verdict = single_expansive(m, action.mode)
            if not verdict.expansive:
                cert = {"kind": "spectral_obstruction", "word": [name], "profile": verdict.profile.to_json()}
                wit = _spectral_witness(m, action.mode)
                if wit is not None:
                    cert["witness_eigenvalue"] = str(wit[1])
                held = ExpansivenessVerdict(
                    NOT_EXPANSIVE, wit[0] if wit else None, cert, {"route": "single-spectrum"}, depth
                )
                if wit is not None:
                    return held

    # 3. bounded invariant subspace, numerically guessed then exactly certified
    candidate = _bounded_directions(action, min(depth + 2, GRAM_DEPTH))
    bounded = _bounded_verdict(action, candidate, "bounded-subspace", depth) if candidate.dim else None
    if bounded is not None:
        return bounded

    # 4. split along proper invariant subspaces; an Expansive split waits for the walk
    split: Optional[ExpansivenessVerdict] = None
    for space in _proper_invariant_subspaces(action):
        resolved = _split_analysis(action, space, depth, memo)
        if resolved is not None and resolved.status != UNKNOWN:
            if resolved.status == NOT_EXPANSIVE:
                return resolved
            split = resolved
            break

    # 1, resumed: the rest of the same walk, unless no word can win it
    if walk is not None and (split is None or not _traps_every_word(split.certificate, action.mode)):
        found = find_expansive_word(action, walk)
        if found is not None:
            return _word_verdict(found, depth)
    if split is not None:
        return split
    if held is not None:
        return held
    return ExpansivenessVerdict(UNKNOWN, None, None, {"route": "inconclusive"}, depth)


def _determinants_trap_every_word(action: SemigroupAction) -> bool:
    """Whether, in semigroup mode, every generator has |det| <= 1: every
    word then has |det| <= 1, hence an eigenvalue in the closed unit disk,
    so no word is expansive and the word search would return None."""
    return action.mode == SEMIGROUP and all(abs(g.det()) <= 1 for g in action.mats)


def _traps_every_word(cert: Optional[dict], mode: str) -> bool:
    """Whether the Expansive certificate tree ``cert`` (the node, or any node
    under ``restriction`` or ``quotient``) holds an ``affine_obstruction``
    whose quotient scalars all keep an orbit bounded in ``mode``.

    A word's eigenvalues include those of its restriction and quotient
    blocks, and on that one dimensional quotient its eigenvalue is the
    product of its letters' scalars, so every word has an eigenvalue that
    refutes it and the word search cannot succeed.
    """
    if not cert:
        return False
    if cert.get("kind") == "affine_obstruction" and all(
        keeps_bounded(Fraction(mu), mode) for mu in cert["scalars"].values()
    ):
        return True
    return any(_traps_every_word(cert.get(key), mode) for key in ("restriction", "quotient"))


def _word_verdict(found: ExpansiveWord, depth: int) -> ExpansivenessVerdict:
    word = found[0]
    cert = {"kind": "word_spectrum", "word": list(word), "profile": found.profile.to_json()}
    ev = {"escape_words": [list(word)], "route": "word-spectrum"}
    return ExpansivenessVerdict(EXPANSIVE, None, cert, ev, depth)


def _cyclic_generator(action: SemigroupAction) -> Optional[tuple[str, QMatrix]]:
    """The generating matrix when the action is generated by one element."""
    ident = QMatrix.identity(action.dim)
    first = next(((nm, m) for nm, m in zip(action.names, action.mats) if m != ident), (action.names[0], ident))
    return first if generated_by(action, first[1]) else None


def _bounded_verdict(
    action: SemigroupAction, space: Subspace, route: str, depth: int, witness: Optional[tuple[Fraction, ...]] = None
) -> Optional[ExpansivenessVerdict]:
    """NotExpansive by an invariant norm on ``space``, if one is certified;
    the witness defaults to the space's first basis vector."""
    bound = certify_bounded(action, space)
    if bound is None:
        return None
    cert = _norm_cert(list(space.basis), bound["gram"], bound["method"])
    return ExpansivenessVerdict(
        NOT_EXPANSIVE, space.basis[0] if witness is None else witness, cert, {"route": route}, depth
    )


def _extension(
    kind: str,
    space: Subspace,
    comp: list[tuple[Fraction, ...]],
    res: ExpansivenessVerdict,
    words: list,
    depth: int,
    **fields,
) -> ExpansivenessVerdict:
    """Expansive by a ``split`` or ``affine_obstruction`` over the expansive
    restriction ``res``; ``words`` are escape words beyond the restriction's."""
    cert = {
        "kind": kind,
        "space": [[str(x) for x in b] for b in space.basis],
        "complement": [[str(x) for x in b] for b in comp],
        "restriction": res.certificate,
        **fields,
    }
    ev = {"escape_words": (res.evidence.get("escape_words") or []) + words, "route": kind.replace("_", "-")}
    return ExpansivenessVerdict(EXPANSIVE, None, cert, ev, depth)


def _split_analysis(
    action: SemigroupAction, space: Subspace, depth: int, memo: dict
) -> Optional[ExpansivenessVerdict]:
    comp = _complete_basis(space)
    p, blocks = adapted_blocks(action, list(space.basis), comp)
    restriction = SemigroupAction(space.dim, action.names, tuple(a for a, _, _ in blocks), action.mode)
    res = _analyze(restriction, depth, memo)

    if res.status == NOT_EXPANSIVE:
        return _lift_restriction_obstruction(action, space, res, depth)

    if res.status != EXPANSIVE:
        return None

    quo = SemigroupAction(action.dim - space.dim, action.names, tuple(d for _, _, d in blocks), action.mode)
    qres = _analyze(quo, depth, memo)

    if qres.status == EXPANSIVE:
        words = qres.evidence.get("escape_words") or []
        return _extension("split", space, comp, res, words, depth, quotient=qres.certificate)

    if qres.status == NOT_EXPANSIVE and quo.dim == 1:
        return _one_dim_quotient_analysis(action, space, comp, p, blocks, res, depth)

    if qres.status == NOT_EXPANSIVE and quo.dim > 1:
        return _graph_lift(action, space, p, blocks, quo, qres, depth)
    return None


def _lift_restriction_obstruction(
    action: SemigroupAction, space: Subspace, res: ExpansivenessVerdict, depth: int
) -> Optional[ExpansivenessVerdict]:
    """Bounded orbits inside an invariant subspace are bounded orbits, full stop."""
    cert = res.certificate or {}
    if cert.get("kind") == "InvariantNormFound":
        rows = [_embed(space, [Fraction(x) for x in row]) for row in cert["space"]]
        gram = QMatrix.from_json(cert["gram"])
        # the restriction matrices over these ambient rows coincide entry for
        # entry with the ones the gram was certified against
        out = _norm_cert(rows, gram, cert.get("method", "inherited"))
        witness = _embed(space, res.witness) if res.witness is not None else rows[0]
        return ExpansivenessVerdict(NOT_EXPANSIVE, witness, out, {"route": "bounded-subspace"}, depth)
    if res.witness is not None:
        ambient = _embed(space, res.witness)
        line = invariant_closure(action, [ambient])
        bounded = _bounded_verdict(action, line, "bounded-subspace", depth, ambient)
        if bounded is not None:
            return bounded
    return _bounded_verdict(action, space, "bounded-subspace", depth)


def _one_dim_quotient_analysis(
    action: SemigroupAction,
    space: Subspace,
    comp: list[tuple[Fraction, ...]],
    p: QMatrix,
    blocks: list[tuple[QMatrix, QMatrix, QMatrix]],
    res: ExpansivenessVerdict,
    depth: int,
) -> Optional[ExpansivenessVerdict]:
    """Decide the extension when the quotient is a one dimensional action.

    With the restriction expansive, the bounded subspace meets the
    invariant subspace in 0, so it is at most a line mapping onto the
    quotient; such a line exists iff the joint system
    (A_g - mu_g I) u = -B_g over all generators is solvable.  Insolvable
    means no bounded vector anywhere; solvable hands over an explicit
    bounded line.
    """
    scalars = [d[0, 0] for _, _, d in blocks]

    big = next((i for i, mu in enumerate(scalars) if mu * mu > 1), None)
    if big is not None:
        # the quotient escapes by that generator alone, so the extension splits
        quo_prof = unit_disk_profile(char_poly(QMatrix.from_rows([[scalars[big]]])))
        name = action.names[big]
        quotient = {"kind": "word_spectrum", "word": [name], "profile": quo_prof.to_json()}
        return _extension("split", space, comp, res, [[name]], depth, quotient=quotient)

    sol = invariant_line(blocks, space.dim)
    if sol is None:
        scalars_json = {name: str(mu) for name, mu in zip(action.names, scalars)}
        return _extension("affine_obstruction", space, comp, res, [], depth, scalars=scalars_json)

    line = Subspace.from_vectors(action.dim, [p.apply(tuple(list(sol) + [Fraction(1)]))])
    return _bounded_verdict(action, line, "invariant-line", depth)


def _graph_lift(
    action: SemigroupAction,
    space: Subspace,
    p: QMatrix,
    blocks: list[tuple[QMatrix, QMatrix, QMatrix]],
    quo: SemigroupAction,
    qres: ExpansivenessVerdict,
    depth: int,
) -> Optional[ExpansivenessVerdict]:
    """Lift a certified bounded quotient subspace to a bounded graph space.

    A bounded subspace meeting the invariant space in 0 projects into the
    quotient's bounded subspace, so it is the graph of some linear map L
    over part of it; solving the intertwining system for L over all of it
    is a sufficient (not a necessary) probe, hence None on failure.
    """
    cert = qres.certificate or {}
    if cert.get("kind") != "InvariantNormFound":
        return None
    vq_rows = [tuple(Fraction(x) for x in row) for row in cert["space"]]
    q2 = len(vq_rows)
    k = space.dim
    basis_mat = QMatrix.from_columns(vq_rows)
    # the quotient's certificate was checked on an invariant space of quo
    dprime = restrict_action(quo, vq_rows).mats
    nvars = k * q2
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for (a, b, _), dp in zip(blocks, dprime):
        bp = b @ basis_mat
        for i in range(k):
            for j in range(q2):
                row = [Fraction(0)] * nvars
                for t in range(k):
                    row[t * q2 + j] += a[i, t]
                for t in range(q2):
                    row[i * q2 + t] -= dp[t, j]
                rows.append(row)
                rhs.append(-bp[i, j])
    sol = solve_exact(QMatrix.from_rows(rows), rhs)
    if sol is None:
        return None
    vectors = []
    for j in range(q2):
        top = [sol[i * q2 + j] for i in range(k)]
        bottom = list(vq_rows[j])
        vectors.append(p.apply(tuple(top + bottom)))
    return _bounded_verdict(action, Subspace.from_vectors(action.dim, vectors), "graph-lift", depth)
