"""Independent root-location oracle used to freeze expected values in tests,
and the converters between the library's ``QPoly`` and sympy polynomials.

Deliberately avoids the library's arithmetic: it reads and builds ``QPoly``
only as a coefficient record.  Exact bookkeeping (squarefree
split, reciprocal-closed gcd) is done with sympy; root positions come from
mpmath at high precision.  Circle membership is certified, not guessed:
a numerical root r of the reciprocal-closed part with |r| within the error
bound of 1 must be exactly on the circle, because otherwise its reflection
1/conj(r) would be a second root closer to r than the certified root
separation allows.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import sympy as sp

from expansive.exact import QPoly

_Z = sp.Symbol("z")


class OracleError(RuntimeError):
    pass


def sympy_poly(coeffs) -> sp.Poly:
    """The polynomial over QQ in z whose coefficient of z^i is coeffs[i]."""
    cs = [sp.Rational(Fraction(c)) for c in coeffs]
    return sp.Poly(list(reversed(cs)), _Z, domain=sp.QQ)


def to_sympy(p: QPoly) -> sp.Poly:
    return sympy_poly(p.coeffs)


def from_sympy(p: sp.Poly) -> QPoly:
    return QPoly.from_coeffs([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def product(*polys: QPoly) -> QPoly:
    """The product of QPolys, multiplied in sympy."""
    out = sympy_poly([1])
    for p in polys:
        out *= to_sympy(p)
    return from_sympy(out)


def reverse(p: sp.Poly) -> sp.Poly:
    """z^deg p(1/z)."""
    return sympy_poly(p.all_coeffs())


def _roots_with_error(p: sp.Poly, dps: int):
    mp.mp.dps = dps
    cs = [mp.mpf(sp.Rational(c).p) / mp.mpf(sp.Rational(c).q) for c in p.all_coeffs()]
    roots, err = mp.polyroots(cs, maxsteps=200, extraprec=4 * dps, error=True)
    return list(roots), err


def _classify_squarefree(p: sp.Poly) -> tuple[int, int, int]:
    """(inside, on_circle, outside) for a squarefree p with p(0) != 0."""
    n = p.degree()
    if n == 0:
        return 0, 0, 0
    closed = sp.gcd(p, reverse(p))
    rest = sp.div(p, closed, _Z)[0]
    inside = on = outside = 0
    for part, may_touch in ((sp.Poly(closed, _Z, domain=sp.QQ), True), (sp.Poly(rest, _Z, domain=sp.QQ), False)):
        m = part.degree()
        if m == 0:
            continue
        for dps in (60, 120, 240):
            roots, err = _roots_with_error(part, dps)
            bound = max(mp.mpf(err), mp.mpf(10) ** (-2 * dps)) * 4
            sep = min(
                (abs(roots[i] - roots[j]) for i in range(m) for j in range(i + 1, m)),
                default=mp.mpf(1),
            )
            try:
                counts = [0, 0, 0]
                for r in roots:
                    d = abs(r) - 1
                    if abs(d) <= bound:
                        if not may_touch:
                            raise OracleError("precision")
                        # reflection 1/conj(r) is also a root of the closed
                        # part; certify it coincides with r
                        refl_gap = abs(1 - abs(r) ** 2) / abs(r)
                        if refl_gap + 2 * bound >= sep:
                            raise OracleError("precision")
                        counts[1] += 1
                    elif d < 0:
                        counts[0] += 1
                    else:
                        counts[2] += 1
                inside += counts[0]
                on += counts[1]
                outside += counts[2]
                break
            except OracleError:
                if dps == 240:
                    raise OracleError(f"cannot certify roots of {part} at dps={dps}")
                continue
    return inside, on, outside


def disk_profile_oracle(coeffs) -> dict[str, int]:
    """Root partition {at_zero, inside, on_circle, outside} with multiplicity."""
    p = sympy_poly(coeffs)
    if p.is_zero:
        raise ValueError("zero polynomial")
    at_zero = 0
    while p.eval(0) == 0:
        p = sp.Poly(sp.div(p, sp.Poly(_Z, _Z, domain=sp.QQ), _Z)[0], _Z, domain=sp.QQ)
        at_zero += 1
    inside = on = outside = 0
    for factor, mult in p.sqf_list()[1]:
        i, o, u = _classify_squarefree(sp.Poly(factor, _Z, domain=sp.QQ))
        inside += mult * i
        on += mult * o
        outside += mult * u
    return {"at_zero": at_zero, "inside": inside, "on_circle": on, "outside": outside}


def circle_count_oracle(coeffs) -> int:
    return disk_profile_oracle(coeffs)["on_circle"]


if __name__ == "__main__":
    import sys

    for arg in sys.argv[1:]:
        cs = [Fraction(t) for t in arg.split(",")]
        print(arg, "->", disk_profile_oracle(cs))
