"""Exact spectral location tests against the unit circle and unit disk.

The boundary question (is a root of modulus exactly one?) is never
answered with floating point.  Circle roots are counted through the
reciprocal-closed factor and the substitution w = z + 1/z, which turns
conjugate circle pairs into real roots in (-2, 2) countable by Sturm
sequences.  Open-disk counts run the Schur-Cohn reduction; its
singular steps fall back to an exact half-plane count after a Cayley
transform.  Unbounded powers are read off the same counts and the
minimal polynomial.  Every count runs on the primitive integer multiple
of the polynomial, which has the same roots.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact import (
    Frozen,
    NotInvertibleError,
    QMatrix,
    QPoly,
    SelfCheckError,
    ZeroConstantTermError,
    ZeroPolynomialError,
    char_poly,
    minimal_poly,
    _chain_signs_at_inf,
    _int_derivative,
    _int_exact_quo,
    _int_gcd,
    _int_prim,
    _int_scaled,
    _int_sturm,
    _int_value,
    _remainder_chain,
    _set,
    _variations,
)

SEMIGROUP = "semigroup"
GROUP = "group"

# the three verdicts of every expansiveness question
EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"
UNKNOWN = "Unknown"


class InvalidModeError(ValueError):
    pass


def check_mode(mode: str) -> str:
    if mode not in (SEMIGROUP, GROUP):
        raise InvalidModeError(f"mode must be {SEMIGROUP!r} or {GROUP!r}, got {mode!r}")
    return mode


class DiskProfile(Frozen):
    """Partition of a polynomial's roots relative to the unit circle.

    Counts are with multiplicity and always sum to the degree.
    """

    __slots__ = ("at_zero", "inside", "on_circle", "outside")

    def __init__(self, at_zero: int, inside: int, on_circle: int, outside: int) -> None:
        if min(at_zero, inside, on_circle, outside) < 0:
            raise ValueError("profile counts must be nonnegative")
        _set(self, "at_zero", at_zero)
        _set(self, "inside", inside)
        _set(self, "on_circle", on_circle)
        _set(self, "outside", outside)

    def __eq__(self, other: object) -> bool:
        if type(other) is not DiskProfile:
            return NotImplemented
        return (self.at_zero, self.inside, self.on_circle, self.outside) == (
            other.at_zero, other.inside, other.on_circle, other.outside
        )

    def __hash__(self) -> int:
        return hash((self.at_zero, self.inside, self.on_circle, self.outside))

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


class SingleVerdict(Frozen):
    __slots__ = ("mode", "expansive", "profile")

    def to_json(self) -> dict:
        return {"mode": self.mode, "expansive": self.expansive, "profile": self.profile.to_json()}


def _strip_origin(f: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The multiplicity k of the root 0 of a nonzero integer polynomial f, and f / z^k."""
    k = next(i for i, c in enumerate(f) if c)
    return k, tuple(f[k:])


def _unit_root_multiplicity(f: Sequence[int], r: int) -> tuple[int, Sequence[int]]:
    """Multiplicity of the root r = +-1 of an integer polynomial f, and f / (z - r)^that."""
    mult = 0
    while len(f) > 1 and not _int_value(f, r, 1):
        f, mult = _int_exact_quo(f, (-r, 1)), mult + 1
    return mult, f


def _w_transform(h: Sequence[int]) -> list[int]:
    """H with h(z) = z^m H(z + 1/z), for a palindromic integer h of even
    degree 2m: H = sum_j h[m + j] P_j with P_j(z + 1/z) = z^j + z^-j, and
    P_0 = 2, P_1 = w, P_{j+1} = w P_j - P_{j-1} (the j = 0 term is h[m])."""
    if len(h) % 2 == 0 or list(h) != list(h[::-1]):
        raise ValueError("w-transform needs a palindromic polynomial of even degree")
    m = len(h) // 2
    out, before, cur = [h[m]] + [0] * m, [2], [0, 1]
    for c in h[m + 1 :]:
        out[: len(cur)] = [o + c * x for o, x in zip(out, cur)]
        before, cur = cur, [x - y for x, y in zip([0, *cur], [*before, 0, 0])]
    return out


def _circle_count_of_closed_factor(g: Sequence[int]) -> int:
    """Circle roots (with multiplicity) of a reciprocal-closed integer factor."""
    a, g = _unit_root_multiplicity(g, 1)
    b, h = _unit_root_multiplicity(g, -1)
    pairs = 0
    cur = _w_transform(h) if len(h) > 1 else []
    while len(cur) > 1:
        common = _int_gcd(cur, _int_derivative(cur))
        # H(2), H(-2) are h(1), +-h(-1), both nonzero, so (-2, 2] is the open count
        pairs += _int_sturm(_int_exact_quo(cur, common), -2, 2)
        cur = common
    return a + b + 2 * pairs


def circle_root_count(p: QPoly) -> int:
    """Number of roots of p with |z| = 1, counted with multiplicity, exactly.

    Requires p(0) != 0 (raises ZeroConstantTermError otherwise).
    """
    if p.is_zero:
        raise ZeroPolynomialError("circle root count of zero polynomial")
    if p.constant == 0:
        raise ZeroConstantTermError("circle root count requires a nonzero constant term")
    f = _int_prim(_int_scaled(p))
    return _circle_count_of_closed_factor(_int_gcd(f, f[::-1]))


class _SingularStep(Exception):
    pass


def _schur_cohn_inside(q: Sequence[int]) -> int:
    """Open-disk root count of an integer polynomial q with q(0) != 0 and no
    circle roots; _SingularStep when a reduction step loses the modulus
    comparison (constant term and leading coefficient equal in absolute value)."""
    n = len(q) - 1
    if n <= 0:
        return 0
    a0, an = q[0], q[-1]
    delta = a0 * a0 - an * an
    if delta == 0:
        raise _SingularStep
    # r(0) = delta != 0, so r is nonzero with deg <= n - 1; rescaling is free
    r = _int_prim([a0 * q[i] - an * q[n - i] for i in range(n)])
    sub = _schur_cohn_inside(r)
    return sub if delta > 0 else n - sub


def _inside_by_half_plane(q: Sequence[int]) -> int:
    """Exact open-disk count of an integer polynomial via the Cayley
    transform and Cauchy indices.

    Valid when q has no circle roots and no reciprocal root pairs; both
    hold for the non-reciprocal factor of the split, which is the only
    caller.  The disk maps to the left half plane, where the root count
    comes from the Cauchy index of the real/imaginary split along the
    imaginary axis.
    """
    m = len(q) - 1
    if m <= 0:
        return 0
    # f = (1 - s)^m q((1 + s)/(1 - s)) by Horner steps, with down = (1 - s)^j
    f, down = [q[-1]], [1]
    for c in reversed(q[:-1]):
        down = [x - y for x, y in zip([*down, 0], [0, *down])]
        f = [x + y + c * d for x, y, d in zip([*f, 0], [0, *f], down)]
    if not f[-1]:
        raise SelfCheckError("the Cayley image must keep full degree")
    # f(iy) = real(y) + i imag(y)
    signed = [c if j % 4 < 2 else -c for j, c in enumerate(f)]
    real = _int_prim([c if j % 2 == 0 else 0 for j, c in enumerate(signed)], keep_sign=True)
    imag = _int_prim([c if j % 2 else 0 for j, c in enumerate(signed)], keep_sign=True)
    den, num = (real, imag) if m % 2 == 0 else (imag, real)
    # the last remainder of the chain is the gcd of the split
    chain = _remainder_chain(den, num) if num else [den]
    if len(chain[-1]) != 1:
        raise SelfCheckError("the half-plane split must be coprime")
    index = _variations(_chain_signs_at_inf(chain, False)) - _variations(_chain_signs_at_inf(chain, True))
    return (m - index) // 2 if m % 2 == 0 else (m + index) // 2


def unit_disk_profile(p: QPoly) -> DiskProfile:
    """Exact partition of the roots of p by position relative to the unit disk."""
    if p.is_zero:
        raise ZeroPolynomialError("disk profile of zero polynomial")
    at_zero, f = _strip_origin(_int_prim(_int_scaled(p)))
    degree = len(f) - 1
    if degree == 0:
        return DiskProfile(at_zero, 0, 0, 0)
    g = _int_gcd(f, f[::-1])
    q = _int_exact_quo(f, g)
    on_circle = _circle_count_of_closed_factor(g)
    # g's off-circle roots come in {w, 1/w} pairs with equal multiplicity,
    # so they split evenly across the circle
    inside = (len(g) - 1 - on_circle) // 2
    try:
        inside += _schur_cohn_inside(q)
    except _SingularStep:
        inside += _inside_by_half_plane(q)
    return DiskProfile(at_zero, inside, on_circle, degree - on_circle - inside)


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
    mu = _int_prim(_int_scaled(minimal_poly(m)))
    # roots at zero are divided out: a nilpotent part leaves the powers bounded
    _, repeated = _strip_origin(_int_gcd(mu, _int_derivative(mu)))
    return _circle_count_of_closed_factor(_int_gcd(repeated, repeated[::-1])) > 0
