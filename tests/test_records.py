"""The immutable record types: named tuples, each equal to the plain tuple of its fields."""
from __future__ import annotations

import pytest

from islsim.contracts import ChainStep
from islsim.depgraph import ProvenanceChain
from islsim.errors import Unauthorized
from islsim.kgstore import DatasetDescriptor, Literal, ModelRecord, Triple, task_iri
from islsim.ledger import AccountCreation, Receipt, Transaction
from islsim.mlsim import RoomProfile

A, B, ADDR = "a" * 40, "b" * 40, "c" * 64

RECORDS = [
    Transaction(3, A, "oracle", "register_node", (B,), 0),
    AccountCreation(A, 10, True),
    Receipt("tx-3", Unauthorized("caller is not a registered node"), None),
    Literal("0.5", "decimal"),
    Triple("isl://alice/model/m1", "isl://vocab/mae", Literal("0.5", "decimal")),
    DatasetDescriptor("isl://alice/dataset/d1", "alice", ("co2:ppm",), "blobs/" + ADDR, ADDR, "tx-4"),
    ModelRecord("isl://alice/model/m1", task_iri("occupancy_detection"), "isl://alice/dataset/d1",
                "blobs/" + ADDR, None, ("co2",), 0.5, 0.25, "alice"),
    ChainStep(ADDR, "isl://alice/model/m1", ADDR, "isl://alice/dataset/d1", "tx-5", A),
    ProvenanceChain((("isl://alice/model/m1", "isl://alice/dataset/d1"),)),
    RoomProfile(2.0, 1.0, 0.05),
]


@pytest.fixture(params=RECORDS, ids=lambda r: type(r).__name__)
def record(request):
    return request.param


def test_a_record_is_the_tuple_of_its_fields(record):
    fields = tuple(getattr(record, f) for f in record._fields)
    assert record == fields and hash(record) == hash(fields)
    assert {record: 1}[type(record)(*fields)] == 1


def test_a_record_refuses_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_replace_keeps_every_other_field(record):
    for field in record._fields:
        new = object()
        changed = record._replace(**{field: new})
        assert type(changed) is type(record) and getattr(changed, field) is new
        assert [getattr(changed, f) for f in record._fields if f != field] == [
            getattr(record, f) for f in record._fields if f != field
        ]


def test_defaults_are_kept():
    assert Literal("x") == ("x", "string")
    ds = DatasetDescriptor("isl://alice/dataset/d1", "alice", ("co2:ppm",), "blobs/x")
    assert (ds.content_address, ds.tx_id, ds.shared) == (None, None, False)
    assert ds._replace(content_address=ADDR, tx_id="tx-4").shared
