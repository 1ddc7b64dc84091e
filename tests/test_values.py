"""Value semantics of the library's record classes: equal fields compare and
hash equal, fields cannot be reassigned, copies and pickles compare equal,
and ``repr`` names every field."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from expansive.actions import SemigroupAction
from expansive.exact import QMatrix, QPoly, Subspace
from expansive.orbits import ExpansivenessVerdict
from expansive.solenoid import Ball, ChainLift, DualModuleAction, HomVector, Relation, RhoBasisChain, SolenoidWindow
from expansive.spectral import DiskProfile, SingleVerdict
from expansive.torus import IrreducibilityReport, OracleResult, TorusPoint
from expansive.weights import WeightBlock, WeightDecomposition, WeightsVerdict


def _action():
    return SemigroupAction.from_generators([("a", QMatrix.from_rows([[2, 1], [1, 1]]))], "group")


def _relation():
    return Relation((F(1, 4),), 2, ((1, (F(1, 2),)),), 1)


def _block():
    return WeightBlock(Subspace.full(2), _action())


# class -> (a factory of one value, its field names in order)
FROZEN = {
    Subspace: (lambda: Subspace.from_vectors(2, [[1, 2]]), ("ambient_dim", "basis")),
    QPoly: (lambda: QPoly.from_coeffs([1, -3, 1]), ("coeffs",)),
    DiskProfile: (lambda: DiskProfile(0, 1, 0, 1), ("at_zero", "inside", "on_circle", "outside")),
    SingleVerdict: (lambda: SingleVerdict("group", True, DiskProfile(0, 1, 0, 1)), ("mode", "expansive", "profile")),
    SemigroupAction: (_action, ("dim", "names", "mats", "mode")),
    TorusPoint: (lambda: TorusPoint.from_coords([F(1, 3), F(4, 3)]), ("coords",)),
    IrreducibilityReport: (
        lambda: IrreducibilityReport(4, True, None, "Irreducible"),
        ("algebra_dim", "absolutely_irreducible", "rational_invariant_subspace", "conclusion"),
    ),
    OracleResult: (
        lambda: OracleResult(False, TorusPoint((F(1, 2),)), 2, F(1, 5), 1),
        ("separated", "failing_point", "q", "epsilon", "states"),
    ),
    WeightBlock: (_block, ("space", "restriction")),
    WeightDecomposition: (lambda: WeightDecomposition(_action(), (_block(),)), ("action", "blocks")),
    WeightsVerdict: (lambda: WeightsVerdict("Expansive", ({"dim": 2},)), ("status", "block_reports")),
    Ball: (lambda: Ball(F(1, 3), F(1, 64)), ("mid", "rad")),
    DualModuleAction: (
        lambda: DualModuleAction.from_generators(2, [[1, 0]], [("a", QMatrix.from_rows([[2, 1], [1, 1]]))], "group"),
        ("n", "module_generators", "action"),
    ),
    Relation: (_relation, ("target", "n0", "terms", "level")),
    RhoBasisChain: (
        lambda: RhoBasisChain((((F(1, 2),),), ((F(1, 2),), (F(1, 4),))), 3, (_relation(),)),
        ("levels", "k", "relations"),
    ),
    HomVector: (lambda: HomVector.from_exact([F(1, 3), 2]), ("coords",)),
    SolenoidWindow: (lambda: SolenoidWindow((((F(1),), Ball(F(1, 8), F(0))),)), ("values",)),
    ChainLift: (lambda: ChainLift((((F(1),), Ball(F(1, 8), F(0))),), F(1, 4)), ("values", "bound")),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_equal_fields_compare_and_hash_equal(cls):
    make = FROZEN[cls][0]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is not WeightsVerdict:  # its block reports are dicts
        assert hash(a) == hash(b)
    assert a != object()
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_reassigned(cls):
    make, fields = FROZEN[cls]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", [*FROZEN, ExpansivenessVerdict], ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    if cls is ExpansivenessVerdict:
        value = ExpansivenessVerdict("Unknown", None, None, {"route": "inconclusive"}, 3)
        fields = ("status", "witness", "certificate", "evidence", "search_depth")
    else:
        make, fields = FROZEN[cls]
        value = make()
    text = repr(value)
    assert text.startswith(f"{cls.__name__}(")
    assert [f"{field}={getattr(value, field)!r}" in text for field in fields] == [True] * len(fields)


def test_values_with_different_fields_differ():
    assert Ball(F(1, 3), F(0)) != Ball(F(1, 3), F(1, 64))
    assert QPoly.from_coeffs([1, 1]) != QPoly.from_coeffs([1, 2])
    assert Subspace.from_vectors(2, [[1, 0]]) != Subspace.from_vectors(2, [[0, 1]])
    assert DiskProfile(0, 1, 0, 1) != DiskProfile(0, 0, 1, 1)
    assert len({Subspace.from_vectors(2, [[1, 2]]), Subspace.from_vectors(2, [[2, 4]])}) == 1


def test_verdicts_with_equal_fields_compare_equal():
    make = lambda: ExpansivenessVerdict("Expansive", None, {"kind": "empty_space"}, {"route": "empty"}, 0)  # noqa: E731
    assert make() == make()
    assert make() != ExpansivenessVerdict("Unknown", None, None, {"route": "empty"}, 0)


@pytest.mark.parametrize("counts", [(-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 0, -1)])
def test_disk_profile_refuses_a_negative_count(counts):
    with pytest.raises(ValueError, match="nonnegative"):
        DiskProfile(*counts)
