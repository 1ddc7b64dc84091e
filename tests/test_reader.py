"""The rational reader ``exact.num_den`` against the plain ``Fraction(str)`` path.

Case files, reports and chains carry rationals as JSON ints or strings.
``num_den`` reads a plain "p/q" string straight into integers and hands
every other spelling to ``Fraction``; the oracle here is the reader it
replaced, which sent every string through ``Fraction``.  Each derandomized
string must give the same value or the same ParseError through
``to_fraction``, ``QMatrix.from_json`` and ``solenoid.character``.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from expansive.exact import ParseError, QMatrix, num_den, to_fraction
from expansive.solenoid import character

SEED = 20261020
COUNT = 2400


def oracle(x):
    """The reader before ``num_den``: every string through ``Fraction``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {x!r}") from exc
    if isinstance(x, float):
        raise ParseError(f"refusing float {x!r}; pass an exact rational")
    raise ParseError(f"not a rational: {x!r}")


def outcome(fn, *args):
    """``("value", result)`` or ``("error", type, message)``."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the comparison is of the exception itself
        return ("error", type(exc), str(exc))


DIGITS = "0123456789"
ODD_DIGITS = ["\u0663", "\uff13", "\u096d", "\u00b2", "\u00bd", "\u216b", "\U0001d7d1"]  # non-ASCII digits and numerals
SPACES = [" ", "\t", "\n", "\u00a0", "\u2003"]
SIGNS = ["", "", "", "-", "-", "+", "\u2212", "--", "+-"]
SEPARATORS = ["/", "/", "/", " /", "/ ", " / ", "//", "\\", "/-", "/+"]
SPECIALS = [
    "", " ", "-", "+", "/", "1/", "/1", "1/0", "-1/0", "0/0", "1/00", "3/-4", "-3/-4", "3/+4", "-0", "+0",
    "-0/5", "007", "-007/010", "1_000", "1__000", "_1", "1_", "1_0/2_0", "1.5", ".5", "5.", ".", "1e3", "1E-3",
    "1.5e+2", "1e", "e3", "nan", "inf", "-inf", "1/2/3", "1 2", " 3/4 ", "3 / 4", "\t-3/4\n", "0x10", "1j",
    "\u0663/\u0664", "\u00b2", "-\u0661\u0662", "1 /2", "\u22123", "1/2 ", " 1", "00/01",
]
LIMIT = 4300  # Python's default cap on the digits of an int read from a string


def numeral(rng):
    kind = rng.randrange(12)
    if kind == 0:
        return "".join(rng.choice(DIGITS) for _ in range(rng.choice([LIMIT - 1, LIMIT, LIMIT + 1, 5000])))
    text = "".join(rng.choice(DIGITS) for _ in range(rng.randint(0, 7)))
    if kind == 1 and text:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(["_", "__"]) + text[at:]
    elif kind == 2 and text:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(ODD_DIGITS) + text[at + 1 :]
    elif kind == 3:
        text = "0" * rng.randint(1, 3) + text
    return text


def exponent(rng):
    """Exponents that a Fraction raises 10 to at once: a few digits, or too
    many digits to read."""
    return rng.choice(["1", "12", "4301", "0_1", str(rng.randint(0, 999)), numeral(rng)[:3], "9" * (LIMIT + 1)])


def spelling(rng):
    form = rng.randrange(10)
    if form < 3:
        text = rng.choice(SIGNS) + numeral(rng)
    elif form < 7:
        text = rng.choice(SIGNS) + numeral(rng) + rng.choice(SEPARATORS) + numeral(rng)
    elif form < 9:
        text = rng.choice(SIGNS) + numeral(rng) + rng.choice([".", ".", ""]) + numeral(rng)
        if rng.random() < 0.6:
            text += rng.choice("eE") + rng.choice(["", "-", "+"]) + exponent(rng)
    else:
        text = rng.choice(SPECIALS)
    if rng.random() < 0.2:
        inner = rng.randrange(len(text) + 1)
        text = text[:inner] + rng.choice(SPACES) + text[inner:]
    if rng.random() < 0.2:
        text = rng.choice(SPACES) + text + rng.choice(SPACES + [""])
    return text


def spellings():
    rng = random.Random(SEED)
    return SPECIALS + [spelling(rng) for _ in range(COUNT)]


PLAIN = [7, -2, 0, Fraction(5, 6), "1/2", "-3", "10/4"]
OTHER_VALUES = [0, -5, 10**40, True, False, Fraction(-3, 4), 1.5, float("nan"), None, [1], {"p": 1}, b"1/2", 2j]


def test_the_spellings_cover_every_kind_the_reader_meets():
    texts = spellings()
    assert len(texts) >= 2000
    parsed = [outcome(oracle, t)[0] == "value" for t in texts]
    # both outcomes are common, and so is each feature
    assert 0.25 < sum(parsed) / len(texts) < 0.75
    for feature in ["-", "+", "_", ".", "e", "E", "/", " ", "\t", "\u00a0", *ODD_DIGITS[:3]]:
        assert sum(feature in t for t in texts) >= 20, feature
    assert sum(len(t) > LIMIT for t in texts) >= 20
    # the plain spellings that num_den reads without Fraction
    assert sum(re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", t) is not None for t in texts) >= 200
    assert {"1/0", "3/-4", ""} <= set(texts)


def test_to_fraction_and_num_den_agree_with_the_fraction_path():
    for x in spellings() + OTHER_VALUES:
        want = outcome(oracle, x)
        got = outcome(to_fraction, x)
        assert got == want, x
        if want[0] == "value":
            assert type(got[1]) is Fraction
            p, q = num_den(x)
            assert type(p) is int and type(q) is int and q > 0 and Fraction(p, q) == want[1], x
        else:
            assert outcome(num_den, x) == want, x


def test_matrices_and_characters_read_the_same_values_and_errors():
    rng = random.Random(SEED + 1)
    texts = spellings()
    rng.shuffle(texts)
    at = 0
    while at < len(texts):
        width, height = rng.randint(1, 3), rng.randint(1, 2)
        flat = texts[at : at + width * height]
        at += width * height
        if rng.random() < 0.5:
            # so that whole matrices parse too, not only their first error
            flat = [x if outcome(oracle, x)[0] == "value" else rng.choice(PLAIN) for x in flat]
        if len(flat) < width * height:
            width, height = len(flat), 1
        rows = [flat[i * width : (i + 1) * width] for i in range(height)]

        def oracle_matrix():
            return tuple(oracle(x) for x in flat)

        def matrix():
            m = QMatrix.from_json(rows)
            assert (m.rows, m.cols) == (len(rows), len(rows[0]))
            assert m.den > 0 and math.gcd(m.den, *m.num) == 1
            return m.entries

        want = outcome(oracle_matrix)
        assert outcome(matrix) == want, rows
        assert outcome(lambda: tuple(character(flat))) == want, flat


@pytest.mark.parametrize("text", ["1/0", "3/-4", "", "1" * (LIMIT + 1), "1/" + "2" * (LIMIT + 1), "\u00b2"])
def test_the_reader_refuses_what_fraction_refuses(text):
    with pytest.raises(ParseError, match="not a rational"):
        num_den(text)
    with pytest.raises(ParseError, match="not a rational"):
        QMatrix.from_json([["1", text]])


def test_a_plain_string_is_read_sign_and_all():
    assert num_den("-3/4") == (-3, 4)
    assert num_den("-0/5") == (0, 5)
    assert num_den("12") == (12, 1)
    assert to_fraction("-6/8") == Fraction(-3, 4)
    m = QMatrix.from_json([["-1/2", "2/4"], [3, "-6"]])
    assert (m.num, m.den) == ((-1, 1, 6, -12), 2)
