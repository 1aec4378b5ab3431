"""Embedded triple store: one knowledge graph per node.

The graph is a set of subject/predicate/object triples, held as one
record per subject. One field table, ``RECORDS``, defines how each
record class maps to triples: its type IRI, and per field its predicate,
its object kind (literal, IRI, decimal or comma-joined list) and whether
it is required. ``_store`` writes a new record: it runs each field through
its object kind's encoder as a check only, refusing a value the export
could not write as an N-Triples term (``MalformedTriple``), so a bad
record stores nothing, and keeps as its view the record itself (a decimal
as a ``float``, a list as a tuple). ``mark_shared`` runs the two sharing fields
through the literal kind and keeps the view with them set; ``discard``
drops a view. The one record reader, ``get(cls, iri)``, is one dict read
of a view. The triples are derived from the views on demand
(``triples``, ``export_bytes``); no triple is kept.

Everything a node knows about its own assets and any remote shared
assets it has cached lives here, so the N-Triples export of the graph
(``export_bytes``, persisted as ``kg.nt``) is a complete record of the
node's metadata. The export is written, never read back.

Identifier discipline: all entity identifiers are IRIs under the
``isl://`` scheme. ``record_iri`` forms ``isl://<node>/<noun>/<local-id>``
from a record class and its ``RECORDS`` noun. Controlled vocabulary
terms (tasks, feature names, units) live under ``isl://vocab/``.

A note on ordering: feature lists are meaningful in order (they define
the column layout of datasets and the weight layout of models), but a
triple set is unordered. Ordered lists are therefore stored as a single
comma-joined literal instead of one triple per element.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Any, Callable, Iterator, NamedTuple

from .errors import (
    AlreadyShared,
    DuplicateId,
    MalformedDescriptor,
    MalformedTriple,
    NotFound,
    UnresolvedDependency,
)

VOCAB = "isl://vocab/"

# predicates
P_TYPE = VOCAB + "type"
P_OWNER = VOCAB + "ownerNode"
P_FEATURE_SCHEMA = VOCAB + "featureSchema"
P_LOCAL_URI = VOCAB + "localUri"
P_CONTENT_ADDRESS = VOCAB + "contentAddress"
P_TX_ID = VOCAB + "txId"
P_TASK = VOCAB + "task"
P_TRAINED_ON = VOCAB + "trainedOn"
P_BASE_MODEL = VOCAB + "baseModel"
P_INPUT_FEATURES = VOCAB + "inputFeatures"
P_MAE = VOCAB + "mae"
P_MSE = VOCAB + "mse"

# entity types
T_DATASET = VOCAB + "Dataset"
T_MODEL = VOCAB + "Model"

DECIMAL_TYPE = VOCAB + "decimal"

TASKS = ("occupancy_detection", "energy_prediction")
FEATURE_UNITS = {
    "co2": "ppm",
    "temperature": "celsius",
    "humidity": "percent",
    "power": "watt",
}


def _require_str(value: str, what: str) -> str:
    if isinstance(value, str):  # an int id or task would read back as a str one
        return value
    raise TypeError(f"{what} must be a str, not {type(value).__name__}")


def task_iri(name: str) -> str:
    return f"{VOCAB}task/{_require_str(name, 'task')}"


TASK_IRIS = tuple(task_iri(t) for t in TASKS)


class Literal(NamedTuple):
    """Typed literal object. datatype is 'string' or 'decimal'."""

    lexical: str
    datatype: str = "string"


def decimal(value: float) -> Literal:
    return Literal(repr(float(value)), "decimal")


class Triple(NamedTuple):
    subject: str
    predicate: str
    obj: str | Literal


class DatasetDescriptor(NamedTuple):
    iri: str
    owner_node: str
    feature_schema: tuple[str, ...]  # entries "name:unit"
    local_uri: str
    content_address: str | None = None
    tx_id: str | None = None

    @property
    def shared(self) -> bool:
        return self.content_address is not None and self.tx_id is not None


class ModelRecord(NamedTuple):
    iri: str
    task: str
    dataset: str
    local_uri: str
    base_model: str | None
    input_features: tuple[str, ...]
    mae: float
    mse: float
    owner_node: str
    content_address: str | None = None
    tx_id: str | None = None

    @property
    def shared(self) -> bool:
        return self.content_address is not None and self.tx_id is not None


# ``isl://`` and at least one character an N-Triples IRIREF may hold unescaped and UTF-8 encodes
_IRI = re.compile(r'isl://[^\x00-\x20<>"{}|^`\\\ud800-\udfff]+')


def _is_iri(value: object) -> bool:
    return isinstance(value, str) and _IRI.fullmatch(value) is not None


_UNWRITABLE = re.compile(r"[\n\r\t\ud800-\udfff]")  # a line break or tab, or a lone surrogate


def _literal(value: object) -> Literal:
    if not isinstance(value, str):
        raise MalformedTriple(f"literal is not a string: {value!r}")
    if _UNWRITABLE.search(value):
        raise MalformedTriple("literal contains a control character or a lone surrogate")
    return Literal(value)


def _iri_object(value: object) -> str:
    if not _is_iri(value):
        raise MalformedTriple(f"object is not an isl:// IRI: {value!r}")
    return value  # type: ignore[return-value]


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Object kinds: (value -> object, refusing what kg.nt could not write; value -> the
# value a view keeps; kept value -> its N-Triples term).
LITERAL = (_literal, str, _quoted)
IRI = (_iri_object, str, lambda v: f"<{v}>")
DECIMAL = (decimal, float, lambda v: f'"{v!r}"^^<{DECIMAL_TYPE}>')
LIST = (lambda v: _literal(",".join(v)), tuple, lambda v: _quoted(",".join(v)))


def _check_dataset(d: DatasetDescriptor) -> None:
    if not d.feature_schema:
        raise MalformedDescriptor("feature schema is empty")
    for entry in d.feature_schema:
        if not isinstance(entry, str) or entry.partition(":")[::2] not in FEATURE_UNITS.items():
            raise MalformedDescriptor(f"bad feature schema entry {entry!r}")


def _check_model(m: ModelRecord) -> None:
    if m.task not in TASK_IRIS:
        raise MalformedDescriptor(f"unknown task {m.task!r}")
    if not m.input_features:
        raise MalformedDescriptor("model has no input features")
    unknown = {repr(f) for f in m.input_features if not isinstance(f, str) or f not in FEATURE_UNITS}
    if unknown:
        raise MalformedDescriptor(f"unknown input features {', '.join(sorted(unknown))}")
    for key, value in (("MAE", m.mae), ("MSE", m.mse)):
        # compared, not converted: float() of an int beyond the largest float overflows
        if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
            raise MalformedDescriptor(f"{key} must be a finite non-negative number, not {value!r}")


class _RecordType(NamedTuple):
    type_iri: str
    noun: str
    check: Callable[[Any], None]  # raises MalformedDescriptor for values it may not store
    fields: tuple[tuple[str, str, tuple, bool], ...]  # (field, predicate, kind, required)


# How each record type maps to triples. ``_encode`` runs the fields in
# this order, so the first bad field decides the MalformedTriple raised.
RECORDS: dict[type, _RecordType] = {
    DatasetDescriptor: _RecordType(T_DATASET, "dataset", _check_dataset, (
        ("feature_schema", P_FEATURE_SCHEMA, LIST, True),
        ("owner_node", P_OWNER, LITERAL, True),
        ("local_uri", P_LOCAL_URI, LITERAL, True),
        ("content_address", P_CONTENT_ADDRESS, LITERAL, False),
        ("tx_id", P_TX_ID, LITERAL, False),
    )),
    ModelRecord: _RecordType(T_MODEL, "model", _check_model, (
        ("input_features", P_INPUT_FEATURES, LIST, True),
        ("task", P_TASK, IRI, True),
        ("dataset", P_TRAINED_ON, IRI, True),
        ("local_uri", P_LOCAL_URI, LITERAL, True),
        ("base_model", P_BASE_MODEL, IRI, False),
        ("mae", P_MAE, DECIMAL, True),
        ("mse", P_MSE, DECIMAL, True),
        ("owner_node", P_OWNER, LITERAL, True),
        ("content_address", P_CONTENT_ADDRESS, LITERAL, False),
        ("tx_id", P_TX_ID, LITERAL, False),
    )),
}


def record_iri(cls: type, node_id: str, local_id: str) -> str:
    """The IRI ``isl://<node>/<noun>/<local-id>`` of a ``cls`` record, with its ``RECORDS`` noun."""
    return f"isl://{node_id}/{RECORDS[cls].noun}/{_require_str(local_id, 'local id')}"


dataset_iri = functools.partial(record_iri, DatasetDescriptor)
model_iri = functools.partial(record_iri, ModelRecord)


def _encode(record: Any) -> Any:
    """The view of ``record``: itself, with a decimal as a ``float`` and a list as a tuple.

    A field with an object (an optional one that is None has none) is encoded as a
    check only, so a value the export could not write raises ``MalformedTriple``."""
    kept: dict[str, Any] = {}
    for field, _, (encode, keep, _write), required in RECORDS[type(record)].fields:
        value = getattr(record, field)
        if required or value is not None:
            encode(value)  # the object is dropped
            if (view := keep(value)) is not value:
                kept[field] = view
    return record._replace(**kept) if kept else record


def _record_type(cls: type, record: object) -> _RecordType:
    """The record type of ``cls``; a ``record`` of another class is refused with TypeError."""
    if type(record) is not cls:
        raise TypeError(f"expected a {cls.__name__}, got a {type(record).__name__}")
    return RECORDS[cls]


# Per record class: (predicate, field, kind) of each triple in the order of
# "<predicate>", the type triple's field being None. The export takes subjects
# in the order of "<iri>"; as an IRI holds no ">" or space, its lines then
# come out sorted.
_TRIPLES = {
    cls: sorted([(P_TYPE, None, IRI)] + [(p, f, k) for f, p, k, _ in rt.fields],
                key=lambda e: e[0] + ">")
    for cls, rt in RECORDS.items()
}


def _values(view: Any) -> Iterator[tuple[str, tuple, Any]]:
    """(predicate, kind, value) of each triple of ``view``, in the order of ``_TRIPLES``."""
    type_iri = RECORDS[type(view)].type_iri
    for pred, field, kind in _TRIPLES[type(view)]:
        value = type_iri if field is None else getattr(view, field)
        if value is not None:
            yield pred, kind, value


class KnowledgeGraph:
    def __init__(self, node_id: str):
        self.node_id = node_id
        self._views: dict[str, DatasetDescriptor | ModelRecord] = {}

    @property
    def triples(self) -> set[Triple]:
        """A new set of the graph's triples, derived from the views; writing to it changes nothing."""
        return {Triple(iri, p, kind[0](value))
                for iri, view in self._views.items() for p, kind, value in _values(view)}

    def _store(self, record: Any) -> None:
        """Keep the view of a new record (see ``_encode``)."""
        view = _encode(record)
        self._views[view.iri] = view

    # ------------------------------------------------------------ registration

    def register_dataset(self, d: DatasetDescriptor) -> str:
        self._check_local(DatasetDescriptor, d)
        self._store(d)
        return d.iri

    def register_model(self, m: ModelRecord) -> str:
        self._check_local(ModelRecord, m)
        if not self.has_dataset(m.dataset):
            raise UnresolvedDependency(f"dataset {m.dataset} is not known to this graph")
        if m.base_model is not None and not self.has_model(m.base_model):
            raise UnresolvedDependency(
                f"base model {m.base_model} is not known to this graph"
            )
        self._store(m)
        return m.iri

    def discard(self, iri: str) -> None:
        """Drop the record of ``iri``, undoing a registration made just now.

        Records that refer to ``iri`` are not looked for, so this is only
        for a record nothing has referred to yet.
        """
        self._views.pop(iri, None)

    def cache_remote_dataset(self, d: DatasetDescriptor) -> str:
        """Cache a shared dataset owned by another node, keeping its own IRI."""
        return self._cache_remote(DatasetDescriptor, d)

    def cache_remote_model(self, m: ModelRecord) -> str:
        """Cache a shared model owned by another node.

        Dependency references are not resolved here: the owner's graph
        validated them at registration, and an acquirer may know the
        model without knowing its ancestors' metadata.
        """
        return self._cache_remote(ModelRecord, m)

    def _check_local(self, cls: type, res: DatasetDescriptor | ModelRecord) -> None:
        """Refuse a record this node may not register as its own, new and unshared."""
        record_type = _record_type(cls, res)
        self._check_fresh(res.iri)
        if res.content_address is not None or res.tx_id is not None:
            if not res.shared:
                raise MalformedDescriptor(
                    f"{res.iri}: content_address and tx_id must be set together"
                )
            raise MalformedDescriptor(
                f"{res.iri}: registration requires an unshared descriptor; "
                f"sharing happens through the node workflow"
            )
        if res.owner_node != self.node_id:
            raise MalformedDescriptor(
                f"{record_type.noun} {res.iri} is owned by {res.owner_node!r}; "
                f"use cache_remote_{record_type.noun} for foreign assets"
            )
        record_type.check(res)

    def _cache_remote(self, cls: type, res: DatasetDescriptor | ModelRecord) -> str:
        record_type = _record_type(cls, res)
        if not res.shared:
            raise MalformedDescriptor(f"remote {record_type.noun} {res.iri} must be shared")
        if res.owner_node == self.node_id:
            raise MalformedDescriptor(f"{res.iri} is local; register it instead")
        existing = self.get(cls, res.iri)
        if existing is not None:
            if existing != res:
                raise DuplicateId(f"{res.iri} already cached with different metadata")
            return res.iri
        self._check_fresh(res.iri)
        record_type.check(res)
        self._store(res)
        return res.iri

    def _check_fresh(self, iri: str) -> None:
        if not _is_iri(iri):
            raise MalformedDescriptor(f"identifier is not an isl:// IRI: {iri!r}")
        if iri in self._views:
            raise DuplicateId(f"{iri} is already registered")

    # ----------------------------------------------------------------- sharing

    def mark_shared(self, iri: str, addr: str, tx_id: str) -> DatasetDescriptor | ModelRecord:
        existing = self._views.get(iri)
        if existing is None:
            raise NotFound(f"no resource {iri} in this graph")
        if existing.shared:
            raise AlreadyShared(f"{iri} was already shared as {existing.content_address}")
        view = existing._replace(content_address=_literal(addr).lexical,
                                 tx_id=_literal(tx_id).lexical)
        self._views[iri] = view
        return view

    # ----------------------------------------------------------------- queries

    def datasets(self) -> list[DatasetDescriptor]:
        return [v for _, v in sorted(self._views.items()) if isinstance(v, DatasetDescriptor)]

    def models(self) -> list[ModelRecord]:
        return [v for _, v in sorted(self._views.items()) if isinstance(v, ModelRecord)]

    def dataset(self, iri: str) -> DatasetDescriptor:
        d = self.get(DatasetDescriptor, iri)
        if d is None:
            raise NotFound(f"no dataset {iri} in this graph")
        return d

    def model(self, iri: str) -> ModelRecord:
        m = self.get(ModelRecord, iri)
        if m is None:
            raise NotFound(f"no model {iri} in this graph")
        return m

    def has_dataset(self, iri: str) -> bool:
        return self.get(DatasetDescriptor, iri) is not None

    def has_model(self, iri: str) -> bool:
        return self.get(ModelRecord, iri) is not None

    def get(self, cls: type, iri: str) -> Any:
        """The record of ``iri`` if it is a ``cls``; None if it has no record of that class."""
        view = self._views.get(iri)
        return view if isinstance(view, cls) else None

    # ------------------------------------------------------------ serialization

    def export_bytes(self) -> bytes:
        lines = [
            f"<{iri}> <{pred}> {kind[2](value)} .\n"
            for iri in sorted(self._views, key=lambda iri: iri + ">")
            for pred, kind, value in _values(self._views[iri])
        ]
        return "".join(lines).encode("utf-8")
