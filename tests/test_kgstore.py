"""Knowledge graph behaviour: registration rules, queries, serialization."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from islsim import kgstore
from islsim.errors import (
    AlreadyShared,
    DuplicateId,
    IslError,
    MalformedDescriptor,
    MalformedTriple,
    NotFound,
    UnresolvedDependency,
)
from islsim.kgstore import (
    DatasetDescriptor,
    KnowledgeGraph,
    Literal,
    ModelRecord,
    Triple,
    format_triple,
)

ADDR = "a" * 64
TASK = kgstore.task_iri("occupancy_detection")


def dataset(node="alice", local="d1", **over):
    fields = dict(
        iri=kgstore.dataset_iri(node, local),
        owner_node=node,
        feature_schema=("co2:ppm",),
        local_uri=f"blobs/{ADDR[:2]}/{ADDR}",
    )
    fields.update(over)
    return DatasetDescriptor(**fields)


def model(node="alice", local="m1", **over):
    fields = dict(
        iri=kgstore.model_iri(node, local),
        task=TASK,
        dataset=kgstore.dataset_iri(node, "d1"),
        model_uri=f"blobs/{ADDR[:2]}/{ADDR}",
        base_model=None,
        input_features=("co2",),
        mae=0.1,
        mse=0.02,
        owner_node=node,
    )
    fields.update(over)
    return ModelRecord(**fields)


@pytest.fixture
def kg():
    return KnowledgeGraph("alice")


class TestRegistration:
    def test_dataset_roundtrip(self, kg):
        d = dataset()
        kg.register_dataset(d)
        assert kg.dataset(d.iri) == d
        assert kg.datasets() == [d]
        assert not kg.dataset(d.iri).shared

    def test_duplicate_dataset(self, kg):
        kg.register_dataset(dataset())
        with pytest.raises(DuplicateId):
            kg.register_dataset(dataset())

    def test_registration_rejects_preshared(self, kg):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(content_address=ADDR, tx_id="tx-1"))

    def test_registration_rejects_half_shared(self, kg):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(content_address=ADDR))

    def test_foreign_owner_rejected(self, kg):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(node="bob"))

    @pytest.mark.parametrize(
        "schema", [(), ("co2",), ("co2:bad",), ("unknown:ppm",), ("temperature:ppm",)]
    )
    def test_bad_feature_schema(self, kg, schema):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(feature_schema=schema))

    def test_model_needs_known_dataset(self, kg):
        with pytest.raises(UnresolvedDependency):
            kg.register_model(model())

    def test_model_needs_known_base(self, kg):
        kg.register_dataset(dataset())
        with pytest.raises(UnresolvedDependency):
            kg.register_model(model(base_model=kgstore.model_iri("alice", "ghost")))

    def test_model_roundtrip(self, kg):
        kg.register_dataset(dataset())
        m = model()
        kg.register_model(m)
        assert kg.model(m.iri) == m

    def test_unknown_task(self, kg):
        kg.register_dataset(dataset())
        with pytest.raises(MalformedDescriptor):
            kg.register_model(model(task="isl://vocab/task/time_travel"))

    def test_bad_measures(self, kg):
        kg.register_dataset(dataset())
        with pytest.raises(MalformedDescriptor):
            kg.register_model(model(mse=-1.0))


class TestRemoteCache:
    def test_requires_shared(self, kg):
        with pytest.raises(MalformedDescriptor):
            kg.cache_remote_dataset(dataset(node="bob"))

    def test_rejects_own(self, kg):
        with pytest.raises(MalformedDescriptor):
            kg.cache_remote_dataset(dataset(content_address=ADDR, tx_id="tx-1"))

    def test_idempotent(self, kg):
        d = dataset(node="bob", content_address=ADDR, tx_id="tx-1")
        kg.cache_remote_dataset(d)
        kg.cache_remote_dataset(d)  # same metadata: fine
        assert kg.datasets() == [d]
        with pytest.raises(DuplicateId):
            kg.cache_remote_dataset(
                dataset(node="bob", content_address=ADDR, tx_id="tx-2")
            )

    def test_model_cache_skips_dependency_resolution(self, kg):
        # the acquirer may never learn the ancestor descriptors; that's fine
        m = model(node="bob", content_address=ADDR, tx_id="tx-9")
        kg.cache_remote_model(m)
        assert kg.model(m.iri).shared

    def test_missing_required_field_stores_nothing(self, kg):
        m = model(node="bob", dataset=None, content_address=ADDR, tx_id="tx-9")
        with pytest.raises(MalformedTriple):
            kg.cache_remote_model(m)
        assert kg.triples == set()


class TestViews:
    def test_fields_read_only_objects_of_their_kind(self, kg):
        kg.register_dataset(dataset())
        kg.register_model(model())
        kg.assert_triples([
            Triple(model().iri, kgstore.P_TASK, Literal("not an IRI")),
            Triple(model().iri, kgstore.P_OWNER, "isl://alice"),
        ])
        assert kg.model(model().iri) == model()

    def test_missing_required_field_is_malformed(self, kg):
        iri = dataset().iri
        kg.assert_triples([
            Triple(iri, kgstore.P_TYPE, kgstore.T_DATASET),
            Triple(iri, kgstore.P_OWNER, Literal("alice")),
        ])
        with pytest.raises(MalformedDescriptor, match="expected exactly one"):
            kg.dataset(iri)


class TestSharing:
    def test_mark_shared(self, kg):
        d = dataset()
        kg.register_dataset(d)
        updated = kg.mark_shared(d.iri, ADDR, "tx-3")
        assert updated.shared
        assert updated.content_address == ADDR
        assert kg.dataset(d.iri) == updated

    def test_mark_shared_twice(self, kg):
        kg.register_dataset(dataset())
        kg.mark_shared(dataset().iri, ADDR, "tx-3")
        with pytest.raises(AlreadyShared):
            kg.mark_shared(dataset().iri, "b" * 64, "tx-4")

    def test_record_read_before_mark_shared_is_not_stale(self, kg):
        kg.register_dataset(dataset())
        kg.register_model(model())
        # these reads fill the view cache
        assert not kg.dataset(dataset().iri).shared
        assert not kg.model(model().iri).shared
        assert kg.datasets()[0].tx_id is None and kg.models()[0].tx_id is None
        kg.mark_shared(dataset().iri, ADDR, "tx-3")
        kg.mark_shared(model().iri, "b" * 64, "tx-4")
        assert kg.dataset(dataset().iri).content_address == ADDR
        assert kg.model(model().iri).tx_id == "tx-4"
        assert [m.tx_id for m in kg.models()] == ["tx-4"]
        assert [d.tx_id for d in kg.datasets()] == ["tx-3"]

    def test_mark_shared_unknown(self, kg):
        with pytest.raises(NotFound):
            kg.mark_shared(kgstore.dataset_iri("alice", "nope"), ADDR, "tx-1")


class TestQueries:
    def test_models_by_task_sorted_by_iri(self, kg):
        kg.register_dataset(dataset())
        for local in ("zeta", "alpha", "mid"):
            kg.register_model(model(local=local))
        kg.register_model(
            model(local="other", task=kgstore.task_iri("energy_prediction"))
        )
        names = [m.iri for m in kg.models() if m.task == TASK]
        assert names == sorted(names)
        assert len(names) == 3

    def test_lookup_missing(self, kg):
        with pytest.raises(NotFound):
            kg.dataset("isl://alice/dataset/none")
        with pytest.raises(NotFound):
            kg.model("isl://alice/model/none")
        assert not kg.has_model("isl://alice/model/none")


class TestSerialization:
    def test_export_import_roundtrip(self, kg):
        kg.register_dataset(dataset())
        kg.register_model(model())
        kg.register_model(model(local="m2", base_model=model().iri))
        kg.mark_shared(dataset().iri, ADDR, "tx-1")
        lines = kg.export_bytes().decode().splitlines()
        assert lines == sorted(format_triple(t) for t in kg.triples)
        assert all(oracles.is_ntriples_line(line) for line in lines)
        m2 = model(local="m2").iri
        assert f"<{m2}> <{kgstore.P_BASE_MODEL}> <{model().iri}> ." in lines

    def test_export_is_sorted(self, kg):
        kg.register_dataset(dataset())
        lines = kg.export_bytes().decode().splitlines()
        assert lines == sorted(lines)



@given(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t"),
        max_size=60,
    )
)
def test_literal_escaping_roundtrips(text):
    line = format_triple(Triple("isl://alice/dataset/x", kgstore.P_OWNER, Literal(text)))
    assert oracles.is_ntriples_line(line)
    escaped = line[line.index('"') + 1 : line.rindex('"')]
    assert re.sub(r'\\([\\"])', r'\1', escaped) == text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_decimal_literals_roundtrip_exactly(value):
    literal = kgstore.decimal(value)
    assert literal.datatype == "decimal"
    assert float(literal.lexical) == value


def test_assert_triples_validates():
    kg = KnowledgeGraph("alice")
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("nope", kgstore.P_TYPE, kgstore.T_DATASET)])
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("isl://a", kgstore.P_OWNER, Literal("bad\nvalue"))])
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("isl://a", kgstore.P_MSE, Literal("xyz", "decimal"))])
    # an IRI the N-Triples writer could not write as a term
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("isl://a>b", kgstore.P_TYPE, kgstore.T_DATASET)])
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("isl://a", kgstore.P_BASE_MODEL, "isl://a b")])

    # a lexical that is not a string is malformed too, and stores nothing
    kg.register_dataset(dataset())
    before = set(kg.triples)
    remote = dataset(node="bob", local_uri=None, content_address=ADDR, tx_id="tx-9")
    with pytest.raises(MalformedTriple):
        kg.cache_remote_dataset(remote)
    with pytest.raises(MalformedTriple):
        kg.assert_triples([Triple("isl://a", kgstore.P_OWNER, Literal(["x"]))])
    assert kg.triples == before
    assert not kg.has_dataset(remote.iri)
    assert kg.datasets() == [dataset()]


def test_assert_triples_counts_new():
    kg = KnowledgeGraph("alice")
    t = Triple("isl://a/dataset/x", kgstore.P_OWNER, Literal("alice"))
    assert kg.assert_triples([t, t]) == 1
    assert kg.assert_triples([t]) == 0


# ------------------------------------------- index vs brute-force triple scan

LOCALS = ("a", "b")
ADDRS = (ADDR, "b" * 64)
TX_IDS = ("tx-1", "tx-2")
IRIS = tuple(
    make(node, local)
    for make in (kgstore.dataset_iri, kgstore.model_iri)
    for node in ("alice", "bob")
    for local in LOCALS
)

kg_op = st.one_of(
    st.tuples(st.just("register_dataset"), st.sampled_from(LOCALS)),
    st.tuples(
        st.just("register_model"),
        st.sampled_from(LOCALS),
        st.sampled_from(LOCALS),
        st.none() | st.sampled_from(LOCALS),
    ),
    st.tuples(
        st.sampled_from(("cache_remote_dataset", "cache_remote_model")),
        st.sampled_from(LOCALS),
        st.sampled_from(ADDRS),
        st.sampled_from(TX_IDS),
    ),
    st.tuples(
        st.just("mark_shared"), st.sampled_from(IRIS), st.sampled_from(ADDRS),
        st.sampled_from(TX_IDS),
    ),
    st.tuples(st.just("add_owner"), st.sampled_from(IRIS), st.sampled_from(("alice", "bob"))),
    st.tuples(st.just("export")),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IslError as exc:
        return type(exc)


def _expected_record(kg, iri, kind):
    fields = oracles.scan_record(kg.triples, iri, kind)
    if fields is None:
        return NotFound
    if fields == oracles.MALFORMED:
        return MalformedDescriptor
    return (DatasetDescriptor if kind == "Dataset" else ModelRecord)(**fields)


def _expected_listing(kg, kind):
    records = [_expected_record(kg, s, kind) for s in oracles.scan_subjects(kg.triples, kind)]
    return MalformedDescriptor if MalformedDescriptor in records else records


def _expected_duplicate(kg, record, kind):
    """Whether caching ``record`` into ``kg`` must raise DuplicateId."""
    existing = _expected_record(kg, record.iri, kind)
    if existing is not NotFound:
        return existing not in (record, MalformedDescriptor)
    return oracles.scan_has_subject(kg.triples, record.iri)


def _check_against_scan(kg):
    for iri in IRIS:
        for kind, read, has in (
            ("Dataset", kg.dataset, kg.has_dataset),
            ("Model", kg.model, kg.has_model),
        ):
            expected = _expected_record(kg, iri, kind)
            assert _outcome(read, iri) == expected
            if expected is MalformedDescriptor:
                assert _outcome(has, iri) is MalformedDescriptor
            else:
                assert has(iri) == (expected is not NotFound)
    assert _outcome(kg.datasets) == _expected_listing(kg, "Dataset")
    assert _outcome(kg.models) == _expected_listing(kg, "Model")


@settings(max_examples=200, deadline=None)
@given(st.lists(kg_op, max_size=25))
def test_index_agrees_with_a_triple_scan(ops):
    kg = KnowledgeGraph("alice")
    for op, *args in ops:
        if op == "register_dataset":
            d = dataset(local=args[0])
            duplicate = oracles.scan_has_subject(kg.triples, d.iri)
            assert (_outcome(kg.register_dataset, d) is DuplicateId) == duplicate
        elif op == "register_model":
            local, ds_local, base_local = args
            m = model(
                local=local,
                dataset=kgstore.dataset_iri("alice", ds_local),
                base_model=base_local and kgstore.model_iri("alice", base_local),
            )
            duplicate = oracles.scan_has_subject(kg.triples, m.iri)
            assert (_outcome(kg.register_model, m) is DuplicateId) == duplicate
        elif op.startswith("cache_remote"):
            local, addr, tx_id = args
            make, kind = (dataset, "Dataset") if op == "cache_remote_dataset" else (model, "Model")
            record = make(node="bob", local=local, content_address=addr, tx_id=tx_id)
            duplicate = _expected_duplicate(kg, record, kind)
            assert (_outcome(getattr(kg, op), record) is DuplicateId) == duplicate
        elif op == "mark_shared":
            _outcome(kg.mark_shared, *args)
        elif op == "add_owner":
            iri, owner = args
            kg.assert_triples([Triple(iri, kgstore.P_OWNER, Literal(owner))])
        else:
            lines = kg.export_bytes().decode().splitlines()
            assert all(oracles.is_ntriples_line(line) for line in lines)
        _check_against_scan(kg)
