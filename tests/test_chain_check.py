"""The chain and lift checks on integer numerators against the Fraction
checks they replaced.

``check_chain`` and ``check_lifts`` read a chain once into a
``ChainTable``: each distinct character as integer numerators over one
denominator, levels and relations as positions in it.  The Fraction bodies
they replaced are kept below as the oracle.  On the honest chains and lifts
of every fixture module and of the dual-module cases of perfbench seed 1,
and on mutations of them, both checks must answer alike, except on two
kinds of forgery that the Fraction check accepted or crashed on: a
relation with n0 < 1, and a relation that is not the one relation of a
character new at its level.
"""

import copy
import json
import random
from fractions import Fraction as F
from pathlib import Path

from expansive.certificates import check_chain, check_lifts
from expansive.cli import parse_dual_module, parse_window
from expansive.solenoid import Ball, E_window, HomVector, _json_field, character, enumerate_basis, lift, regular_chain
from test_orbits import perfbench_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------------------------------------------------------ the replaced Fraction checks


def fraction_chain(data: dict):
    """(levels, k, relations) of a chain's JSON: characters as tuples of
    Fractions, a relation as (target, n0, ((coef, character), ...))."""
    levels = _json_field(data, "levels", list, "the chain")
    levels = tuple(tuple(map(character, lvl)) for lvl in levels)
    relations = tuple(
        (
            character(_json_field(r, "target", list, "a relation")),
            _json_field(r, "n0", int, "a relation"),
            tuple(
                (_json_field(t, "coef", int, "a term"), character(_json_field(t, "character", list, "a term")))
                for t in _json_field(r, "terms", list, "a relation")
            ),
        )
        for r in _json_field(data, "relations", list, "the chain")
    )
    return levels, _json_field(data, "k", int, "the chain"), relations


def fraction_holds(target, n0, terms) -> bool:
    """n0 * target = sum(coef * char) in Fractions."""
    rhs = [F(0)] * len(target)
    for coef, char in terms:
        for i in range(len(target)):
            rhs[i] += coef * char[i]
    return tuple(n0 * x for x in target) == tuple(rhs)


def fraction_verify(levels, k, relations) -> bool:
    """The Fraction chain check: nested levels, and a relation of each new
    character that holds within the cost bound, over the level before."""
    for i in range(1, len(levels)):
        if not set(levels[i - 1]) <= set(levels[i]):
            return False
    by_target = {r[0]: r for r in relations}
    for i in range(1, len(levels)):
        prev = set(levels[i - 1])
        for chi in levels[i]:
            if chi in prev:
                continue
            rel = by_target.get(chi)
            if rel is None or not fraction_holds(*rel) or abs(rel[1]) + sum(abs(c) for c, _ in rel[2]) > k:
                return False
            if any(a not in prev for _, a in rel[2]):
                return False
    return True


def fraction_module_chain(data: dict, module):
    """``certificates._module_chain``: the chain, if it verifies and every
    character of a level is a module generator or an image of the level
    before (of a generator, for the first level)."""
    levels, k, relations = fraction_chain(data)
    generators = set(module.module_generators)
    if not levels or not generators <= set(levels[0]) or not fraction_verify(levels, k, relations):
        return None
    previous = generators
    for level in levels:
        reached = generators | {g.apply(chi) for chi in previous for g in module.action.mats}
        if not reached.issuperset(level):
            return None
        previous = level
    return levels, k, relations


def fraction_check_chain(data: dict, module, k=None) -> bool:
    chain = fraction_module_chain(data, module)
    return chain is not None and (k is None or chain[1] == k)


def fraction_check_lifts(data: dict, lifts: list, module) -> bool:
    """``check_lifts`` on Fraction balls (the shape checks left out)."""
    chain = fraction_module_chain(data, module)
    if chain is None:
        return False
    levels, k, relations = chain
    chars = [chi for level in levels for chi in level]
    for entry in [entry for entry in lifts if entry.get("lifted")]:
        bound = F(entry["bound"])
        values = {character(item["character"]): Ball(F(item["mid"]), F(item["rad"])) for item in entry["values"]}
        if not 0 < bound * k < 1 or any(chi not in values for chi in chars):
            return False
        if any(v.rad < 0 or abs(v.mid) + v.rad >= bound for v in values.values()):
            return False
        for target, n0, terms in relations:
            ball = values[target].scale(n0)
            for coef, a in terms:
                ball = ball - values[a].scale(coef)
            if abs(ball.mid) > ball.rad:
                return False
    return True


# ------------------------------------------------------------ honest chains and their mutations


def honest_reports():
    """(name, module, chain JSON, lifts) of every fixture module, at depth 3,
    and of every dual-module case of perfbench seed 1, at its depth; a
    fixture's window observes x -> x / 1000 on every coordinate."""
    sources = [(name, json.loads((FIXTURES / f"{name}.json").read_text()), 3, None)
               for name in ("cat_map", "doubling", "dyadic_solenoid", "sixth_solenoid")]
    sources += [(op["id"], op["case"], op["depth"], op["window"])
                for op in perfbench_cases().torus_solenoid_cases(1) if op["kind"] == "module"]
    for name, case, depth, window in sources:
        module = parse_dual_module(case)
        chain = regular_chain(enumerate_basis(module, depth))
        if window is None:
            seen = E_window(HomVector.from_exact([F(1, 1000)] * module.n), [chain.character(i) for i in chain.levels[-1]])
        else:
            seen = parse_window(window, 60)
        bound = F(1, 2 * chain.k)
        values = lift(seen, chain, bound).to_json()
        yield name, module, chain.to_json(), [{"lifted": True, "values": values, "bound": str(bound)}]


def respelled(x: str) -> str:
    """The same rational with numerator and denominator doubled."""
    q = F(x)
    return f"{2 * q.numerator}/{2 * q.denominator}"


def mutations(chain: dict, lifts: list, rng: random.Random):
    """(name, chain, lifts): one change each to copies of an honest chain and lift."""
    levels, relations, values = chain["levels"], chain["relations"], lifts[0]["values"]

    def edit(change):
        c, v = copy.deepcopy(chain), copy.deepcopy(lifts)
        change(c, v[0])
        return c, v

    i = rng.randrange(len(levels))
    j = rng.randrange(len(levels[i]))
    yield "an entry changed", *edit(lambda c, v: c["levels"][i][j].__setitem__(0, str(F(levels[i][j][0]) + 1)))
    value = rng.randrange(len(values))
    yield "a value missing", *edit(lambda c, v: v["values"].pop(value))
    yield "a value at the bound", *edit(lambda c, v: v["values"][value].__setitem__(
        "mid", str(F(v["bound"]) - F(values[value]["rad"]))))
    yield "a negative radius", *edit(lambda c, v: v["values"][value].__setitem__(
        "rad", str(-F(values[value]["rad"]) - F(1, 10**6))))
    yield "a value moved", *edit(lambda c, v: v["values"][value].__setitem__(
        "mid", str(F(values[value]["mid"]) + F(1, 10**4))))
    yield "the bound at 1/k", *edit(lambda c, v: v.__setitem__("bound", f"1/{chain['k']}"))
    yield "a value spelled two ways", *edit(lambda c, v: v["values"][value]["character"].__setitem__(
        0, respelled(values[value]["character"][0])))
    yield "a level character spelled two ways", *edit(lambda c, v: c["levels"][i][j].__setitem__(
        0, respelled(levels[i][j][0])))
    yield "the first level without a generator", *edit(lambda c, v: [lvl.pop(0) for lvl in c["levels"]])
    yield "k raised", *edit(lambda c, v: c.__setitem__("k", chain["k"] + 1))
    if len(levels) > 1:
        here = rng.randrange(1, len(levels))
        yield "levels not nested", *edit(lambda c, v: c["levels"][here].remove(levels[here - 1][0]))
        a, b = rng.sample(levels[-2], 2) if len(levels[-2]) > 1 else (levels[-2][0], levels[-2][0])
        new = [str(F(x) + F(y)) for x, y in zip(a, b)]
        if all(new != chi for lvl in levels for chi in lvl):

            def unreachable(c, v):
                c["levels"][-1].append(new)
                c["relations"].append({"target": new, "n0": 1, "terms": [{"coef": 1, "character": a},
                                                                         {"coef": 1, "character": b}]})
                find = {tuple(x["character"]): x for x in v["values"]}
                mid = F(find[tuple(a)]["mid"]) + F(find[tuple(b)]["mid"])
                rad = F(find[tuple(a)]["rad"]) + F(find[tuple(b)]["rad"])
                v["values"].append({"character": new, "mid": str(mid), "rad": str(rad)})

            yield "an unreachable character", *edit(unreachable)
    if relations:
        r = rng.randrange(len(relations))
        cost = max(rel["n0"] + sum(abs(t["coef"]) for t in rel["terms"]) for rel in relations)
        yield "a relation dropped", *edit(lambda c, v: c["relations"].pop(r))
        yield "n0 plus one", *edit(lambda c, v: c["relations"][r].__setitem__("n0", relations[r]["n0"] + 1))
        yield "n0 minus one", *edit(lambda c, v: c["relations"][r].__setitem__("n0", relations[r]["n0"] - 1))
        yield "cost above k", *edit(lambda c, v: c.__setitem__("k", cost - 1))
        yield "a relation target spelled two ways", *edit(lambda c, v: c["relations"][r]["target"].__setitem__(
            0, respelled(relations[r]["target"][0])))
        if relations[r]["terms"]:
            for step in (1, -1):
                yield f"a coefficient {step:+d}", *edit(lambda c, v: c["relations"][r]["terms"][0].__setitem__(
                    "coef", relations[r]["terms"][0]["coef"] + step))


def forgeries(chain: dict, lifts: list):
    """(name, chain, lifts): the changes the Fraction check accepted or crashed on."""
    n = len(chain["levels"][0][0])

    def edit(change):
        c, v = copy.deepcopy(chain), copy.deepcopy(lifts)
        change(c)
        return c, v

    def vacuous(c):
        for rel in c["relations"]:
            rel.update(n0=0, terms=[])
        c["k"] = 1

    old = chain["levels"][0][0]
    if chain["relations"]:
        yield "every relation vacuous, k = 1", *edit(vacuous)
        yield "one relation 0 * target = 0", *edit(lambda c: c["relations"][-1].update(n0=0, terms=[]))
        yield "a relation repeated", *edit(lambda c: c["relations"].append(c["relations"][0]))
    yield "a relation of no chain character", *edit(
        lambda c: c["relations"].append({"target": ["1000"] * n, "n0": 1, "terms": []}))
    yield "a relation of a first-level character", *edit(lambda c: c["relations"].append(
        {"target": old, "n0": 1, "terms": [{"coef": 1, "character": old}]}))


def outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # the Fraction check crashed on some forgeries
        return type(exc).__name__


def test_the_integer_checks_agree_with_the_fraction_checks():
    rng = random.Random(37)
    answers, forged = {}, set()
    for name, module, chain, lifts in honest_reports():
        for why, c, v in [("honest", chain, lifts), *mutations(chain, lifts, rng)]:
            new = (outcome(check_chain, c, module, c["k"]), outcome(check_lifts, c, v, module))
            old = (outcome(fraction_check_chain, c, module, c["k"]), outcome(fraction_check_lifts, c, v, module))
            assert new == old, (name, why, new, old)
            answers.setdefault(why, set()).add(new)
        for why, c, v in forgeries(chain, lifts):
            new = (outcome(check_chain, c, module, c["k"]), outcome(check_lifts, c, v, module))
            old = (outcome(fraction_check_chain, c, module, c["k"]), outcome(fraction_check_lifts, c, v, module))
            assert new == (False, False), (name, why, new)
            # the Fraction check accepted the chain, and accepted or crashed on the lift
            assert old[0] is True and old[1] is not False, (name, why, old)
            forged.add(why)
    assert len(forged) == 5
    expected = {
        "honest": {(True, True)},
        # respelling changes nothing
        "a value spelled two ways": {(True, True)},
        "a level character spelled two ways": {(True, True)},
        "a relation target spelled two ways": {(True, True)},
        # a change to a lift leaves its chain as it was
        "a value missing": {(True, False)},
        "a value at the bound": {(True, False)},
        "a negative radius": {(True, False)},
        "the bound at 1/k": {(True, False)},
    }
    for why, want in expected.items():
        assert answers[why] == want, why
    # a bound above every cost is still one; the lift's bound 1/2k may then
    # no longer lie below 1/k
    assert {chain_ok for chain_ok, _ in answers["k raised"]} == {True}
    # a broken chain is refused on some case (a changed entry may land on a
    # character the chain already holds, and then it still checks)
    for why in ("an entry changed", "the first level without a generator", "levels not nested",
                "an unreachable character", "a relation dropped", "n0 plus one", "n0 minus one", "cost above k",
                "a coefficient +1", "a coefficient -1", "a value moved"):
        assert (False, False) in answers[why] or why == "a value moved" and (True, False) in answers[why], why
