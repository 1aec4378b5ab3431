"""Knowledge graph behaviour: registration rules, queries, serialization."""

import gc
import math
import re
import tracemalloc

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
        local_uri=f"blobs/{ADDR[:2]}/{ADDR}",
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
        "schema",
        [(), ("co2",), ("co2:bad",), ("unknown:ppm",), ("temperature:ppm",),
         (1,), (None,), (["co2:ppm"],), ("co2:ppm", 1)],
    )
    def test_bad_feature_schema(self, kg, schema):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(feature_schema=schema))
        assert kg.triples == set() and kg.datasets() == []

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

    @pytest.mark.parametrize("features", [(["co2"],), (1, "x"), ("co2", None)])
    def test_input_features_that_are_not_strings(self, kg, features):
        kg.register_dataset(dataset())
        before = set(kg.triples)
        with pytest.raises(MalformedDescriptor):
            kg.register_model(model(input_features=features))
        assert kg.triples == before and kg.models() == []

    def test_bad_measures(self, kg):
        kg.register_dataset(dataset())
        before = kg.export_bytes()
        # 10**400 passes ``< math.inf`` but overflows float(); a bool is not a number here
        for bad in ({"mse": -1.0}, {"mse": math.inf}, {"mse": math.nan}, {"mae": True},
                    {"mae": 10**400}, {"mae": "0.1"}):
            with pytest.raises(MalformedDescriptor):
                kg.register_model(model(**bad))
            assert not kg.has_model(model().iri)
            assert kg.export_bytes() == before
        kg.register_model(model(mae=0, mse=1.7976931348623157e308))  # the largest float is finite

    def test_int_measures_read_back_as_floats(self, kg):
        kg.register_dataset(dataset())
        kg.register_model(model(mae=0, mse=2))
        stored = kg.model(model().iri)
        assert (repr(stored.mae), repr(stored.mse)) == ("0.0", "2.0")
        kg.mark_shared(model().iri, ADDR, "tx-1")
        assert repr(kg.model(model().iri).mae) == "0.0"

    def test_discard_undoes_a_registration(self, kg):
        kg.register_dataset(dataset())
        before = kg.export_bytes()
        m = model()
        kg.register_model(m)
        assert kg.model(m.iri) == m  # caches the view
        kg.discard(m.iri)
        assert not kg.has_model(m.iri)
        assert kg.models() == []
        assert kg.export_bytes() == before
        kg.register_model(m)  # the IRI is free again
        assert kg.model(m.iri) == m


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

    @pytest.mark.parametrize("kind", ["Dataset", "Model"])
    def test_mark_shared_adds_only_the_two_sharing_triples(self, kg, kind):
        kg.register_dataset(dataset())
        kg.register_model(model())
        iri = (dataset() if kind == "Dataset" else model()).iri
        before = set(kg.triples)
        shared = kg.mark_shared(iri, ADDR, "tx-3")
        assert kg.triples - before == {
            Triple(iri, kgstore.P_CONTENT_ADDRESS, Literal(ADDR)),
            Triple(iri, kgstore.P_TX_ID, Literal("tx-3")),
        }
        assert before <= kg.triples
        assert _expected_record(kg, iri, kind) == shared
        read = kg.dataset if kind == "Dataset" else kg.model
        assert read(iri) == shared

    @pytest.mark.parametrize("addr, tx_id", [(7, "tx-1"), (ADDR, 7), (ADDR.encode(), "tx-1"),
                                             (ADDR, ("tx-1",))])
    def test_a_share_refused_for_a_non_string_changes_nothing(self, kg, addr, tx_id):
        kg.register_dataset(dataset())
        kg.register_model(model())
        before = set(kg.triples)
        views = (kg.datasets(), kg.models())
        for iri in (dataset().iri, model().iri):
            with pytest.raises(MalformedTriple):
                kg.mark_shared(iri, addr, tx_id)
        assert kg.triples == before
        assert (kg.datasets(), kg.models()) == views
        assert not kg.dataset(dataset().iri).shared and not kg.model(model().iri).shared


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
        assert lines == sorted(oracles.format_triple(t) for t in kg.triples)
        assert all(oracles.is_ntriples_line(line) for line in lines)
        m2 = model(local="m2").iri
        assert f"<{m2}> <{kgstore.P_BASE_MODEL}> <{model().iri}> ." in lines

    def test_export_is_sorted(self, kg):
        kg.register_dataset(dataset())
        lines = kg.export_bytes().decode().splitlines()
        assert lines == sorted(lines)

    def test_the_triple_set_is_a_copy(self, kg):
        kg.register_dataset(dataset())
        kg.register_model(model())
        views, export, triples = (kg.datasets(), kg.models()), kg.export_bytes(), set(kg.triples)
        kg.triples.clear()
        assert kg.triples == triples
        kg.triples.add(Triple(model().iri, kgstore.P_TX_ID, Literal("tx-9")))
        kg.triples.add(Triple(model(local="m2").iri, kgstore.P_TYPE, kgstore.T_MODEL))
        assert kg.triples == triples
        assert (kg.datasets(), kg.models()) == views
        assert kg.export_bytes() == export


def test_a_shared_record_retains_under_1200_bytes():
    """tracemalloc bytes the graph keeps per model record, registered then shared."""
    n = 400
    kg = KnowledgeGraph("alice")
    kg.register_dataset(dataset())
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            kg.register_model(model(local=f"m{i}", local_uri=f"blobs/{i:064x}", mae=0.5 + i))
            kg.mark_shared(model(local=f"m{i}").iri, f"{n + i:064x}", f"tx-{i}")
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - start) / n
    finally:
        tracemalloc.stop()
    assert retained < 1200, f"{retained:.0f} bytes retained per record"


@given(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t"),
        max_size=60,
    )
)
def test_literal_escaping_roundtrips(text):
    kg = KnowledgeGraph("alice")
    kg.register_dataset(dataset(local_uri=text))
    # split at "\n" only: the text may hold other line breaks (str.splitlines would cut there)
    lines = kg.export_bytes().decode("utf-8").split("\n")[:-1]
    [line] = [line for line in lines if f"<{kgstore.P_LOCAL_URI}>" in line]
    assert oracles.is_ntriples_line(line)
    escaped = line[line.index('"') + 1 : line.rindex('"')]
    assert re.sub(r'\\([\\"])', r'\1', escaped) == text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_decimal_literals_roundtrip_exactly(value):
    literal = kgstore.decimal(value)
    assert literal.datatype == "decimal"
    assert float(literal.lexical) == value


def test_records_the_export_could_not_write_store_nothing(kg):
    kg.register_dataset(dataset())
    before = set(kg.triples)
    refused = [
        # a literal that is not a string
        (kg.register_dataset, dataset(local="d2", local_uri=None)),
        (kg.cache_remote_dataset,
         dataset(node="bob", local_uri=None, content_address=ADDR, tx_id="tx-9")),
        # a control character in a literal
        (kg.register_dataset, dataset(local="d3", local_uri="blobs/a\nb")),
        (kg.cache_remote_dataset, dataset(node="bob", content_address=ADDR, tx_id="tx\t9")),
        # a lone surrogate in a literal: UTF-8 could not encode the export
        (kg.register_dataset, dataset(local="d4", local_uri="blobs/\udcff")),
        # an IRI object the N-Triples writer could not write as a term
        (kg.cache_remote_model,
         model(node="bob", base_model="isl://a b", content_address=ADDR, tx_id="tx-9")),
        (kg.cache_remote_model,
         model(node="bob", dataset="isl://a>b", content_address=ADDR, tx_id="tx-9")),
        (kg.cache_remote_model,
         model(node="bob", dataset="isl://d\ud800", content_address=ADDR, tx_id="tx-9")),
    ]
    for write, record in refused:
        with pytest.raises(MalformedTriple):
            write(record)
    for addr, tx_id in ((ADDR, "tx\r1"), (None, "tx-1"), (ADDR, None), ("\ud800" * 64, "tx-1")):
        with pytest.raises(MalformedTriple):
            kg.mark_shared(dataset().iri, addr, tx_id)
    assert kg.triples == before
    assert kg.datasets() == [dataset()] and kg.models() == []
    kg.export_bytes()
    # an identifier that is not a writable IRI term is refused before any object
    for local in ("a>b", "d\ud800"):
        with pytest.raises(MalformedDescriptor):
            kg.register_dataset(dataset(local=local))
    assert kg.triples == before


OTHER_CLASS = {  # each writer, and a record of the other class
    "register_dataset": model(),
    "register_model": dataset(),
    "cache_remote_dataset": model(node="bob", content_address=ADDR, tx_id="tx-9"),
    "cache_remote_model": dataset(node="bob", content_address=ADDR, tx_id="tx-9"),
}


@pytest.mark.parametrize("write", OTHER_CLASS)
def test_a_record_of_the_other_class_is_refused_before_any_check(kg, write):
    kg.register_dataset(dataset())
    before = kg.export_bytes()
    record = OTHER_CLASS[write]
    wanted = DatasetDescriptor if isinstance(record, ModelRecord) else ModelRecord
    with pytest.raises(TypeError, match=f"^expected a {wanted.__name__}, got a {type(record).__name__}$"):
        getattr(kg, write)(record)
    assert kg.export_bytes() == before


# ------------------------------------------- views vs brute-force triple scan

LOCALS = ("a", "a-1", "b")  # "-" sorts before ">", so <…/a-1> exports before <…/a>
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
    st.tuples(st.just("discard"), st.sampled_from(IRIS)),
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
    assert fields != oracles.MALFORMED, f"{iri} has triples no {kind} record decodes from"
    return (DatasetDescriptor if kind == "Dataset" else ModelRecord)(**fields)


def _expected_duplicate(kg, record, kind):
    """Whether caching ``record`` into ``kg`` must raise DuplicateId."""
    existing = _expected_record(kg, record.iri, kind)
    if existing is not NotFound:
        return existing != record
    return oracles.scan_has_subject(kg.triples, record.iri)


def _check_against_scan(kg):
    """Every view equals the record its triples decode to, and every triple has a view."""
    for iri in IRIS:
        for kind, read, has in (
            ("Dataset", kg.dataset, kg.has_dataset),
            ("Model", kg.model, kg.has_model),
        ):
            expected = _expected_record(kg, iri, kind)
            assert _outcome(read, iri) == expected
            assert has(iri) == (expected is not NotFound)
    for kind, listing in (("Dataset", kg.datasets()), ("Model", kg.models())):
        subjects = oracles.scan_subjects(kg.triples, kind)
        assert listing == [_expected_record(kg, s, kind) for s in subjects]
    assert {t.subject for t in kg.triples} == {r.iri for r in kg.datasets() + kg.models()}


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
        elif op == "discard":
            kg.discard(*args)
        else:
            lines = kg.export_bytes().decode().splitlines()
            assert all(oracles.is_ntriples_line(line) for line in lines)
            assert lines == sorted(oracles.format_triple(t) for t in kg.triples)
        _check_against_scan(kg)


# ------------------------------------------------ the view _encode keeps

local_id = st.text(alphabet="abc-_1", min_size=1, max_size=5)
literal_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t"),
                       max_size=20)
sharing = st.none() | st.tuples(literal_text, literal_text)
decimal_value = st.integers(0, 10**20) | st.floats(0, 1e300) | st.just(-0.0)


def some_of(names):
    """1-4 of ``names``, as a list or a tuple."""
    return st.lists(st.sampled_from(names), min_size=1, max_size=4).flatmap(
        lambda xs: st.sampled_from([xs, tuple(xs)]))


@st.composite
def valid_record(draw):
    node = draw(st.sampled_from(("alice", "bob")))
    shared = draw(sharing) or (None, None)
    common = dict(local_uri=draw(literal_text), owner_node=draw(literal_text),
                  content_address=shared[0], tx_id=shared[1])
    if draw(st.booleans()):
        schema = some_of([f"{name}:{unit}" for name, unit in kgstore.FEATURE_UNITS.items()])
        return DatasetDescriptor(iri=kgstore.dataset_iri(node, draw(local_id)),
                                 feature_schema=draw(schema), **common)
    return ModelRecord(
        iri=kgstore.model_iri(node, draw(local_id)), task=draw(st.sampled_from(kgstore.TASK_IRIS)),
        dataset=kgstore.dataset_iri(node, draw(local_id)),
        base_model=draw(st.none() | local_id.map(lambda local: kgstore.model_iri(node, local))),
        input_features=draw(some_of(list(kgstore.FEATURE_UNITS))),
        mae=draw(decimal_value), mse=draw(decimal_value), **common)


@given(valid_record())
def test_the_view_kept_equals_the_record_its_objects_decoded_to(record):
    kind = "Dataset" if isinstance(record, DatasetDescriptor) else "Model"
    kgstore.RECORDS[type(record)].check(record)  # valid: the graph would store it
    view = kgstore._encode(record)
    assert type(view) is type(record)
    for field, expected in oracles.ref_view(record, kind).items():
        kept = getattr(view, field)
        assert (type(kept), repr(kept)) == (type(expected), repr(expected)), field
