"""Finitely generated rational matrix actions and the exact facts about them
that the engine and the certificate checker share; nothing here searches.

A split along an invariant subspace W reads the restriction to W and the
quotient by it off the diagonal blocks of one conjugation P^-1 g P per
generator, P = [basis of W | complement] (``adapted_blocks``), in the engine
and in the certificate checker alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .exact import Frozen, IntEchelon, NotInvertibleError, QMatrix, Subspace, is_positive_semidefinite, primitive_integer
from .spectral import GROUP, SEMIGROUP, check_mode

INVERSE_SUFFIX = "^-1"
# distinct words the engine's word search walks.  A walked word's prefixes
# were all walked before it, so no word of a report is longer, and the
# checker refuses a longer certificate word before forming any product.
WORD_BUDGET = 4000


class NotInvertibleGeneratorError(ValueError):
    pass


class SemigroupAction(Frozen):
    """A finite list of named square rational matrices plus the action mode.

    In group mode the generator list already contains the exact inverses,
    named with an ``^-1`` suffix; use ``from_generators`` to build one.
    """

    __slots__ = ("dim", "names", "mats", "mode")

    @staticmethod
    def from_generators(named: Iterable[tuple[str, QMatrix]], mode: str) -> "SemigroupAction":
        check_mode(mode)
        names: list[str] = []
        mats: list[QMatrix] = []
        dim: Optional[int] = None
        for name, m in named:
            if not m.is_square:
                raise ValueError(f"generator {name!r} is not square")
            if dim is None:
                dim = m.rows
            elif m.rows != dim:
                raise ValueError(f"generator {name!r} has mismatched dimension")
            names.append(name)
            mats.append(m)
        if dim is None:
            raise ValueError("at least one generator is required")
        if mode == GROUP:
            for name, m in list(zip(names, mats)):
                try:
                    inv = m.inverse()
                except NotInvertibleError as exc:
                    raise NotInvertibleGeneratorError(
                        f"group mode requires invertible generators; {name!r} is singular"
                    ) from exc
                if inv not in mats:
                    names.append(name + INVERSE_SUFFIX)
                    mats.append(inv)
        # a word names its letters, so one name must never stand for two matrices
        clash = sorted({name for name in names if names.count(name) > 1})
        if clash:
            raise ValueError(f"generator names must differ; {', '.join(map(repr, clash))} names more than one matrix")
        return SemigroupAction(dim, tuple(names), tuple(mats), mode)

    def matrix_for(self, name: str) -> QMatrix:
        """The matrix of one of the action's own generator names."""
        if name not in self.names:
            raise ValueError(f"{name!r} names no generator of this action")
        return self.mats[self.names.index(name)]

    def word_matrix(self, word: Iterable[str]) -> QMatrix:
        """The product of a nonempty word of generator names (so no inverse in semigroup mode)."""
        mats = [self.matrix_for(name) for name in word]
        if not mats:
            raise ValueError("the empty word names no element of the action")
        out = mats[0]
        for m in mats[1:]:
            out = out @ m
        return out


def _echelon(rows, width: int) -> IntEchelon:
    """One ``IntEchelon`` of the rational rows, each scaled to integers: its
    pivots are the pivot columns of the matrix of the rows, and its reduced
    rows that matrix's reduced row echelon form, zero rows dropped."""
    echelon = IntEchelon(width)
    for row in rows:
        echelon.add(primitive_integer(row))
    return echelon


def restrict_action(action: SemigroupAction, basis: list[tuple[Fraction, ...]]) -> SemigroupAction:
    """The action on the span of the independent ``basis``, in its coordinates.

    One ``IntEchelon`` of the rows of [basis | every generator's image of
    every basis vector]: the span is invariant exactly when the pivots are
    the k basis columns, and then each image's coordinates are its column
    in the k reduced rows.  Raises ValueError when some generator maps a
    basis vector out of the span (or the basis is dependent).
    """
    k = len(basis)
    columns = [*basis, *(g.apply(b) for g in action.mats for b in basis)]
    echelon = _echelon(zip(*columns), len(columns))
    if echelon.pivots != tuple(range(k)):
        raise ValueError("space must be invariant, with an independent basis")
    red = echelon.reduced()
    mats = tuple(
        QMatrix.from_rows([row[k * (t + 1) : k * (t + 2)] for row in red]) for t in range(len(action.mats))
    )
    return SemigroupAction(k, action.names, mats, action.mode)


def _complete_basis(space: Subspace) -> list[tuple[Fraction, ...]]:
    """The unit vectors e_i that extend the space's basis to one of Q^n, each
    taken when it leaves the span of the basis and the e_j before it: the
    pivots past the first k of one ``IntEchelon`` of the rows of
    [basis | e_1 ... e_n]."""
    n, k = space.ambient_dim, space.dim
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    pivots = _echelon([(*(b[i] for b in space.basis), *units[i]) for i in range(n)], k + n).pivots
    if pivots[:k] != tuple(range(k)):
        raise ValueError("basis does not extend to the ambient space")
    return [units[c - k] for c in pivots[k:]]


def adapted_blocks(
    action: SemigroupAction, rows: list[tuple[Fraction, ...]], comp: list[tuple[Fraction, ...]]
) -> tuple[QMatrix, list[tuple[QMatrix, QMatrix, QMatrix]]]:
    """P = [rows | comp] and, per generator, the blocks of P^-1 g P = [[A, B], [0, D]].

    The A blocks (k x k, k = len(rows)) act on the span of ``rows`` in its
    basis, as ``restrict_action`` does, and the D blocks on the quotient by
    it in the basis of ``comp``.  Raises ValueError unless P is an
    invertible square matrix and the span is invariant.
    """
    n, k = action.dim, len(rows)
    p = QMatrix.from_rows(list(rows) + list(comp)).transpose()
    pinv = p.inverse()
    blocks = []
    for g in action.mats:
        t = pinv @ g @ p
        if any(t[i, j] != 0 for i in range(k, n) for j in range(k)):
            raise ValueError("space must be invariant")
        a = QMatrix.from_rows([[t[i, j] for j in range(k)] for i in range(k)])
        b = QMatrix.from_rows([[t[i, j] for j in range(k, n)] for i in range(k)])
        d = QMatrix.from_rows([[t[i, j] for j in range(k, n)] for i in range(k, n)])
        blocks.append((a, b, d))
    return p, blocks


def gram_nonincreasing(mats: Iterable[QMatrix], q: QMatrix) -> bool:
    """Whether no matrix of ``mats`` increases the form ``q``: every q - g'qg is PSD."""
    return all(is_positive_semidefinite(q - (g.transpose() @ q @ g)) for g in mats)


def keeps_bounded(lam: Fraction, mode: str) -> bool:
    """Whether eigenvalue ``lam`` bounds its eigenvector's orbit: |lam| <= 1, in group mode |lam| = 1."""
    return lam * lam <= 1 if mode == SEMIGROUP else lam * lam == 1


def generated_by(action: SemigroupAction, m: QMatrix) -> bool:
    """Whether every generator is ``m``, its inverse (group mode only) or the identity."""
    ident = QMatrix.identity(action.dim)
    return all(g in (m, ident) or (action.mode == GROUP and g @ m == ident) for g in action.mats)


def invariant_line(blocks, k: int) -> Optional[tuple[Fraction, ...]]:
    """A solution u of (A_g - mu_g I) u = -B_g over every generator's adapted
    blocks, D_g = (mu_g) on a one dimensional quotient, or None; exactly then
    u + e spans an invariant line, e the completion vector.  One
    ``IntEchelon`` of the system's rows [A_g - mu_g I | -B_g]: it has a
    solution unless the last column is a pivot, and the one returned sets
    the free unknowns to 0 and reads the others off the reduced rows."""
    rows = []
    for a, b, d in blocks:
        shifted = a - QMatrix.identity(k).scale(d[0, 0])
        rows += [(*shifted.row(i), -b[i, 0]) for i in range(k)]
    echelon = _echelon(rows, k + 1)
    if k in echelon.pivots:
        return None
    u = [Fraction(0)] * k
    for c, row in zip(echelon.pivots, echelon.reduced()):
        u[c] = row[k]
    return tuple(u)
