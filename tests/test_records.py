"""The package's immutable records behave as values.

Each case builds one record, names its fields in constructor order and
pins its repr; every record of the package has a case.  Equality and
hash go by the field tuple and only within one class; `_new` builds the
same value from exactly its fields; fields cannot be assigned or
deleted; copy, deepcopy and pickle give an equal record of the same
class.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import sectorforms
from sectorforms.cohomology import complex_report, partition_basis
from sectorforms.fincard import (Classification, FinMap, Generator, GenWord, RelationReport,
                                 _Record)
from sectorforms.poly import Poly, PolyMap
from sectorforms.sector import SectorForm
from sectorforms.tangent import TangentCoords

CASES = {
    "FinMap": (lambda: FinMap(3, 2, (1, 2, 2)), ("dom", "cod", "table"),
               "FinMap(3->2, [1, 2, 2])"),
    "Generator": (lambda: Generator("epsilon", 1, 1), ("kind", "n", "i"), "epsilon(1,1)"),
    "GenWord": (lambda: GenWord(2, 1, (Generator("epsilon", 1, 1),)), ("dom", "cod", "gens"),
                "GenWord(dom=2, cod=1, gens=(epsilon(1,1),))"),
    "Classification": (lambda: Classification(True, False, True),
                       ("surjective", "bijective", "order_preserving"),
                       "Classification(surjective=True, bijective=False, order_preserving=True)"),
    "RelationReport": (lambda: RelationReport("moore-braid", 3, 2),
                       ("family", "bound", "checked", "failures"),
                       "RelationReport(family='moore-braid', bound=3, checked=2, failures=())"),
    "PartitionBasis": (lambda: partition_basis(2, 1, 1), ("n", "m", "bases", "tails"),
                       "PartitionBasis(n=2, m=1, bases=((0,), (1,)), tails=((0, 0, 1), (1, 1, 0)))"),
    "ComplexReport": (
        lambda: complex_report(1, 1, 1),
        ("base_dim", "degree_bound", "levels", "dims", "kernel_dims", "boundary_ranks",
         "image_ranks_raised", "cohomology", "singular_dims", "singular_kernel_dims",
         "singular_boundary_ranks", "singular_image_ranks_raised", "singular_cohomology",
         "complex_verified"),
        "ComplexReport(base_dim=1, degree_bound=1, levels=1, dims=(2, 2), kernel_dims=(1, 2), "
        "boundary_ranks=(1, 0), image_ranks_raised=(2,), cohomology=(1, 0), "
        "singular_dims=(2, 2), singular_kernel_dims=(1, 2), singular_boundary_ranks=(1, 0), "
        "singular_image_ranks_raised=(2,), singular_cohomology=(1, 0), complex_verified=True)"),
    "SectorForm": (lambda: SectorForm(1, 1, 1, PolyMap(2, 1, [Poly(2, {(1, 1): 2})])),
                   ("n", "m", "k", "body"),
                   "SectorForm(n=1, m=1, k=1, body=PolyMap(2->1: [2*x0*x1]))"),
    "TangentCoords": (lambda: TangentCoords(2, 3), ("base_dim", "depth"),
                      "TangentCoords(base_dim=2, depth=3)"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, names, text = CASES[request.param]
    record = build()
    return record, names, tuple(getattr(record, name) for name in names), text


def test_repr_is_pinned(case):
    record, _, _, text = case
    assert repr(record) == text


def test_equality_and_hash_go_by_the_fields(case):
    record, names, fields, _ = case
    cls = type(record)
    twin = cls(*fields)
    assert twin == record and not twin != record
    assert cls(**dict(zip(names, fields))) == record
    assert hash(record) == hash(twin) == hash(fields)
    # another class with the same fields, and the bare field tuple, are not equal
    other = type(cls.__name__, (cls,), {"__slots__": ()})(*fields)
    for stranger in (other, fields):
        assert record.__eq__(stranger) is NotImplemented
        assert record != stranger and stranger != record


def test_every_record_has_a_case():
    # a record added to the package cannot skip the value tests above
    records = set()
    for info in pkgutil.iter_modules(sectorforms.__path__):
        module = importlib.import_module(f"sectorforms.{info.name}")
        records.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, _Record)
                       and obj is not _Record and obj.__module__ == module.__name__)
    assert records == set(CASES)


def test_new_builds_the_same_value(case):
    record, _, fields, _ = case
    cls = type(record)
    built = cls._new(*fields)
    assert type(built) is cls
    assert built == cls(*fields) == record and hash(built) == hash(record)
    assert built._fields(built) == fields
    for values in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match="fields"):
            cls._new(*values)


def test_fields_cannot_be_assigned_or_deleted(case):
    record, names, fields, _ = case
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert tuple(getattr(record, name) for name in names) == fields


def test_copy_deepcopy_and_pickle(case):
    record, names, fields, _ = case
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert tuple(getattr(clone, name) for name in names) == fields


def test_defaults():
    assert GenWord(2, 2) == GenWord(2, 2, ()) == GenWord(dom=2, cod=2)
    assert repr(GenWord(2, 2)) == "GenWord(dom=2, cod=2, gens=())"
    assert RelationReport("moore-braid", 3, 2).failures == ()
