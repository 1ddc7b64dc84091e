"""Exact spectral location tests against the unit circle and unit disk.

The boundary question (is a root of modulus exactly one?) is never
answered with floating point.  Circle roots are counted through the
reciprocal-closed factor and the substitution w = z + 1/z, which turns
conjugate circle pairs into real roots in (-2, 2) countable by Sturm
sequences.  Open-disk counts run the Schur-Cohn reduction; its rare
singular steps fall back to an exact half-plane count after a Cayley
transform.  Unbounded powers are read off the same counts and the
minimal polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    NotInvertibleError,
    QMatrix,
    QPoly,
    SelfCheckError,
    ZeroConstantTermError,
    ZeroPolynomialError,
    cauchy_index,
    char_poly,
    minimal_poly,
    poly_gcd,
    reciprocal_split,
    root_multiplicity,
    sturm_root_count,
    _int_prim,
    _int_scaled,
)

SEMIGROUP = "semigroup"
GROUP = "group"


class InvalidModeError(ValueError):
    pass


def check_mode(mode: str) -> str:
    if mode not in (SEMIGROUP, GROUP):
        raise InvalidModeError(f"mode must be {SEMIGROUP!r} or {GROUP!r}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class DiskProfile:
    """Partition of a polynomial's roots relative to the unit circle.

    Counts are with multiplicity and always sum to the degree.
    """

    at_zero: int
    inside: int
    on_circle: int
    outside: int

    def __post_init__(self) -> None:
        if min(self.at_zero, self.inside, self.on_circle, self.outside) < 0:
            raise ValueError("profile counts must be nonnegative")

    @property
    def degree(self) -> int:
        return self.at_zero + self.inside + self.on_circle + self.outside

    def escapes(self, mode: str) -> bool:
        """Whether a matrix with this profile is expansive on its own: no root
        at zero or on the circle, and in semigroup mode none inside either."""
        if self.at_zero or self.on_circle:
            return False
        return mode == GROUP or self.inside == 0

    def to_json(self) -> dict[str, int]:
        return {
            "at_zero": self.at_zero,
            "inside": self.inside,
            "on_circle": self.on_circle,
            "outside": self.outside,
        }


@dataclass(frozen=True)
class SingleVerdict:
    mode: str
    expansive: bool
    profile: DiskProfile

    def to_json(self) -> dict:
        return {"mode": self.mode, "expansive": self.expansive, "profile": self.profile.to_json()}


def _strip_origin(p: QPoly) -> tuple[int, QPoly]:
    k = 0
    cs = list(p.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    return k, QPoly(tuple(cs))


def _chebyshev_like(j: int) -> QPoly:
    """P_j with P_j(z + 1/z) = z^j + z^-j: P_0 = 2, P_1 = w, P_{j+1} = w P_j - P_{j-1}."""
    a, b = QPoly.from_coeffs([2]), QPoly.x()
    if j == 0:
        return a
    w = QPoly.x()
    for _ in range(j - 1):
        a, b = b, w * b - a
    return b


def _w_transform(h: QPoly) -> QPoly:
    """H with h(z) = z^m H(z + 1/z), for palindromic h of even degree 2m."""
    d = h.degree
    if d % 2 != 0:
        raise ValueError("w-transform needs even degree")
    m = d // 2
    if any(h.coeffs[i] != h.coeffs[d - i] for i in range(d + 1)):
        raise ValueError("w-transform needs a palindromic polynomial")
    out = QPoly.from_coeffs([h.coeffs[m]])
    for j in range(1, m + 1):
        out = out + _chebyshev_like(j).scale(h.coeffs[m + j])
    return out


def _circle_count_of_closed_factor(g: QPoly) -> int:
    """Circle roots (with multiplicity) of a monic reciprocal-closed factor."""
    a, g1 = root_multiplicity(g, 1)
    b, h = root_multiplicity(g1, -1)
    if h.degree <= 0:
        return a + b
    pairs = 0
    cur = _w_transform(h)
    while cur.degree >= 1:
        # H(2), H(-2) are h(1), +-h(-1), both nonzero, so (-2, 2] is the open count
        pairs += sturm_root_count(cur, -2, 2)
        cur = poly_gcd(cur, cur.derivative())
    return a + b + 2 * pairs


def circle_root_count(p: QPoly) -> int:
    """Number of roots of p with |z| = 1, counted with multiplicity, exactly.

    Requires p(0) != 0 (raises ZeroConstantTermError otherwise).
    """
    if p.is_zero:
        raise ZeroPolynomialError("circle root count of zero polynomial")
    if p.constant == 0:
        raise ZeroConstantTermError("circle root count requires a nonzero constant term")
    if p.degree == 0:
        return 0
    g, _ = reciprocal_split(p)
    return _circle_count_of_closed_factor(g)


class _SingularStep(Exception):
    pass


def _schur_cohn_inside(q: QPoly) -> int:
    """Open-disk root count of q, which must have no roots on the circle.

    Raises _SingularStep when a reduction step loses the modulus comparison
    (constant term and leading coefficient equal in absolute value).
    """
    n = q.degree
    if n <= 0:
        return 0
    a0, an = q.constant, q.leading
    delta = a0 * a0 - an * an
    if delta == 0:
        raise _SingularStep
    r = q.scale(a0) - q.reverse().scale(an)
    # r(0) = delta != 0, so r is nonzero with deg <= n - 1; rescaling is free
    r = QPoly.from_coeffs(_int_prim(_int_scaled(r)))
    sub = _schur_cohn_inside(r)
    return sub if delta > 0 else n - sub


def _inside_by_half_plane(q: QPoly) -> int:
    """Exact open-disk count via the Cayley transform and Cauchy indices.

    Valid when q has no circle roots and no reciprocal root pairs; both
    hold for the non-reciprocal factor of the split, which is the only
    caller.  The disk maps to the left half plane, where the root count
    comes from the Cauchy index of the real/imaginary split along the
    imaginary axis.
    """
    m = q.degree
    if m <= 0:
        return 0
    one_plus = QPoly.from_coeffs([1, 1])
    one_minus = QPoly.from_coeffs([1, -1])
    f = QPoly.zero()
    up = QPoly.one()
    downs = [QPoly.one()]
    for _ in range(m):
        downs.append(downs[-1] * one_minus)
    for k, c in enumerate(q.coeffs):
        if c:
            f = f + (up * downs[m - k]).scale(c)
        up = up * one_plus
    if f.degree != m:
        raise SelfCheckError("the Cayley image must keep full degree")
    even = [Fraction(0)] * (m + 1)
    odd = [Fraction(0)] * (m + 1)
    for j, c in enumerate(f.coeffs):
        if j % 2 == 0:
            even[j] = c if j % 4 == 0 else -c
        else:
            odd[j] = c if j % 4 == 1 else -c
    real = QPoly.from_coeffs(even)
    imag = QPoly.from_coeffs(odd)
    if poly_gcd(real, imag).degree != 0:
        raise SelfCheckError("the half-plane split must be coprime")
    if m % 2 == 0:
        return (m - cauchy_index(imag, real)) // 2
    return (m + cauchy_index(real, imag)) // 2


def unit_disk_profile(p: QPoly) -> DiskProfile:
    """Exact partition of the roots of p by position relative to the unit disk."""
    if p.is_zero:
        raise ZeroPolynomialError("disk profile of zero polynomial")
    at_zero, pt = _strip_origin(p)
    if pt.degree == 0:
        return DiskProfile(at_zero, 0, 0, 0)
    g, q = reciprocal_split(pt)
    on_circle = _circle_count_of_closed_factor(g)
    # g's off-circle roots come in {w, 1/w} pairs with equal multiplicity,
    # so they split evenly across the circle
    inside = (g.degree - on_circle) // 2
    try:
        inside += _schur_cohn_inside(q)
    except _SingularStep:
        inside += _inside_by_half_plane(q)
    return DiskProfile(at_zero, inside, on_circle, pt.degree - on_circle - inside)


def single_expansive(m: QMatrix, mode: str, poly: Optional[QPoly] = None) -> SingleVerdict:
    """Expansiveness of the action generated by a single matrix.

    In semigroup mode the test is that no eigenvalue lies in the closed
    unit disk; in group mode (which requires invertibility) that no
    eigenvalue lies on the unit circle.  ``poly``, when given, must be
    ``char_poly(m)``; it saves computing that again.
    """
    check_mode(mode)
    p = char_poly(m) if poly is None else poly
    profile = unit_disk_profile(p)
    if mode == GROUP and profile.at_zero > 0:
        raise NotInvertibleError("group mode requires an invertible matrix")
    return SingleVerdict(mode, profile.escapes(mode), profile)


def has_unbounded_powers(m: QMatrix) -> bool:
    """Whether the powers of m are unbounded: a root lies outside the unit
    circle, or a root on the circle is repeated in the minimal polynomial,
    which is a Jordan block of size two or more.  By Kronecker's theorem an
    integer matrix with bounded powers has finitely many of them, so on
    integer matrices this is the test for infinite order."""
    profile = unit_disk_profile(char_poly(m))
    if profile.outside:
        return True
    if not profile.on_circle:
        return False
    mu = minimal_poly(m)
    # roots at zero are divided out: a nilpotent part leaves the powers bounded
    _, repeated = _strip_origin(poly_gcd(mu, mu.derivative()))
    return circle_root_count(repeated) > 0
