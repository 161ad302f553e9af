"""The package's seven records keep the semantics of frozen dataclasses.

Each record takes its fields in a fixed order, by position or by name, refuses
assignment and deletion, equals another record only of its own class and with
equal fields, hashes as the tuple of its fields and, unless it defines its
own, has the dataclass repr; its copies and pickles equal it.  A weight's hash
stays that of ``(family, rank, coords2)``, so every set of weights iterates in
the order it did under the dataclass.
"""

import copy
import pickle

import pytest

from extalg.constructor import Certificate, construct
from extalg.exterior_oracle import GradedCharacter, graded_exterior_character
from extalg.gpartitions import GPartition
from extalg.recurrence import RecurrenceRow, chain_weight, minuscule_row
from extalg.rootdata import RootDatum, Weight, build_root_datum
from extalg.weyl_oracle import WeightMultMap, freudenthal

FIELDS = {
    Weight: ("family", "rank", "coords2"),
    RootDatum: ("family", "rank", "dim", "positive_roots", "simple_roots",
                "fundamental_weights", "rho", "rho_short", "theta", "theta_short",
                "exponents", "coxeter_number", "num_short_simple", "_coroots",
                "_coweights"),
    GPartition: ("family", "n", "flat"),
    Certificate: ("lam", "c2", "case_used", "pairing", "odd_set", "partition",
                  "associated_ok", "admissible_ok"),
    WeightMultMap: ("family", "rank", "highest", "mult"),
    GradedCharacter: ("family", "rank", "total_dim", "slot", "table"),
    RecurrenceRow: ("lam", "entries", "zero_points"),
}
OWN_REPR = {Weight, GPartition}


@pytest.fixture(scope="module")
def records():
    b3 = build_root_datum("B", 3)
    adjoint = freudenthal(b3, b3.theta)
    certificate = construct(b3, b3.theta)
    return {
        Weight: b3.rho,
        RootDatum: b3,
        GPartition: certificate.partition,
        Certificate: certificate,
        WeightMultMap: adjoint,
        GradedCharacter: graded_exterior_character(b3, adjoint.mult),
        RecurrenceRow: minuscule_row(b3, chain_weight(b3, 1)),
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_semantics(records, cls):
    record = records[cls]
    names = FIELDS[cls]
    values = tuple(getattr(record, name) for name in names)
    twin = cls(*values)
    assert twin == record and not twin != record and twin is not record
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    for bad_call in (lambda: cls(*values[:-1]), lambda: cls(*values, None),
                     lambda: cls(*values, extra=None),
                     lambda: cls(*values, **{names[0]: values[0]}),
                     lambda: cls(**dict(zip(names[1:], values[1:])))):
        with pytest.raises(TypeError):
            bad_call()

    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert tuple(getattr(record, name) for name in names) == values
    assert copy.copy(record) == copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record

    # equal fields within one class only: never its field tuple, nor a subclass
    assert record != values and values != record
    assert cls(*values[:-1], object()) != record
    sub = type("Sub", (cls,), {})(*values)
    assert sub != record and record != sub

    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)
    if cls not in OWN_REPR:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(record) == f"{cls.__name__}({fields})"


def test_weight_hash_and_equality():
    c = (5, 3, 1)
    w = Weight("B", 3, c)
    assert w == build_root_datum("B", 3).rho
    assert w != ("B", 3, c) and w != Weight("C", 3, c) and w != Weight("B", 3, (5, 3, -1))
    # the hash fixes the iteration order of every set of weights
    assert hash(w) == hash((w.family, w.rank, w.coords2))
    assert hash(w) == hash(("B", 3, c))
