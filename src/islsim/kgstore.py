"""Embedded triple store: one knowledge graph per node.

The graph is a set of subject/predicate/object triples, and the triples
are the source of truth. One field table, ``RECORDS``, defines how each
record type maps to triples: per field its predicate, its object kind
(literal, IRI, decimal or comma-joined list) and whether it is required.
``_encode`` writes a record's triples from that table and
``_materialize`` reads its view back from it. Apart from
``mark_shared``, which adds the two sharing triples, no other code
knows the record format.

``assert_triples`` is the only writer. Beside the set it keeps two
indexes: subject -> that subject's triples, and type -> the subjects of
that type. A lookup reads one subject's triples and never scans the
set. Dataset descriptors and model records are views materialized on
first read and cached per (type, subject); both are frozen, so the
cached object is handed out as is. Every new triple drops the cached
views of its subject, which keeps reads after ``mark_shared`` fresh.

Everything a node knows about its own assets and any remote shared
assets it has cached lives here, so the N-Triples export of the graph
(``export_bytes``, persisted as ``kg.nt``) is a complete record of the
node's metadata. The export is written, never read back; so that every
line of it is well formed, ``assert_triples`` refuses any IRI that is
not a valid N-Triples IRI term.

Identifier discipline: all entity identifiers are IRIs under the
``isl://`` scheme, ``isl://<node>/<kind>/<local-id>``. Controlled
vocabulary terms (tasks, feature names, units) live under
``isl://vocab/``.

A note on ordering: feature lists are meaningful in order (they define
the column layout of datasets and the weight layout of models), but a
triple set is unordered. Ordered lists are therefore stored as a single
comma-joined literal instead of one triple per element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

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


def task_iri(name: str) -> str:
    return f"{VOCAB}task/{name}"


TASK_IRIS = tuple(task_iri(t) for t in TASKS)


def dataset_iri(node_id: str, local_id: str) -> str:
    return f"isl://{node_id}/dataset/{local_id}"


def model_iri(node_id: str, local_id: str) -> str:
    return f"isl://{node_id}/model/{local_id}"


@dataclass(frozen=True, slots=True)
class Literal:
    """Typed literal object. datatype is 'string' or 'decimal'."""

    lexical: str
    datatype: str = "string"


def decimal(value: float) -> Literal:
    return Literal(repr(float(value)), "decimal")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    obj: str | Literal


@dataclass(frozen=True, slots=True)
class DatasetDescriptor:
    iri: str
    owner_node: str
    feature_schema: tuple[str, ...]  # entries "name:unit"
    local_uri: str
    content_address: str | None = None
    tx_id: str | None = None

    @property
    def shared(self) -> bool:
        return self.content_address is not None and self.tx_id is not None


@dataclass(frozen=True, slots=True)
class ModelRecord:
    iri: str
    task: str
    dataset: str
    model_uri: str
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


# ``isl://`` and at least one character an N-Triples IRIREF may hold unescaped
_IRI = re.compile(r'isl://[^\x00-\x20<>"{}|^`\\]+')


def _is_iri(value: object) -> bool:
    return isinstance(value, str) and _IRI.fullmatch(value) is not None


def _split(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


# Object kinds: (class of the objects a view reads, value -> object, object -> value).
LITERAL = (Literal, Literal, lambda o: o.lexical)
IRI = (str, lambda v: v, lambda o: o)
DECIMAL = (Literal, decimal, lambda o: float(o.lexical))
LIST = (Literal, lambda v: Literal(",".join(v)), lambda o: _split(o.lexical))


def _check_dataset(d: DatasetDescriptor) -> None:
    if not d.feature_schema:
        raise MalformedDescriptor("feature schema is empty")
    for entry in d.feature_schema:
        name, sep, unit = entry.partition(":")
        if not sep or name not in FEATURE_UNITS or unit != FEATURE_UNITS[name]:
            raise MalformedDescriptor(f"bad feature schema entry {entry!r}")


def _check_model(m: ModelRecord) -> None:
    if m.task not in TASK_IRIS:
        raise MalformedDescriptor(f"unknown task {m.task!r}")
    if not m.input_features:
        raise MalformedDescriptor("model has no input features")
    unknown = set(m.input_features) - set(FEATURE_UNITS)
    if unknown:
        raise MalformedDescriptor(f"unknown input features {sorted(unknown)}")
    for key, value in (("MAE", m.mae), ("MSE", m.mse)):
        if not (isinstance(value, (int, float)) and value >= 0):
            raise MalformedDescriptor(f"{key} must be a non-negative number")


class _RecordType(NamedTuple):
    cls: type
    noun: str
    check: Callable[[Any], None]  # raises MalformedDescriptor for values it may not store
    fields: tuple[tuple[str, str, tuple, bool], ...]  # (field, predicate, kind, required)


# How each record type maps to triples. A view checks the fields in this
# order, so the first bad field decides the MalformedDescriptor raised.
RECORDS: dict[str, _RecordType] = {
    T_DATASET: _RecordType(DatasetDescriptor, "dataset", _check_dataset, (
        ("feature_schema", P_FEATURE_SCHEMA, LIST, True),
        ("owner_node", P_OWNER, LITERAL, True),
        ("local_uri", P_LOCAL_URI, LITERAL, True),
        ("content_address", P_CONTENT_ADDRESS, LITERAL, False),
        ("tx_id", P_TX_ID, LITERAL, False),
    )),
    T_MODEL: _RecordType(ModelRecord, "model", _check_model, (
        ("input_features", P_INPUT_FEATURES, LIST, True),
        ("task", P_TASK, IRI, True),
        ("dataset", P_TRAINED_ON, IRI, True),
        ("model_uri", P_LOCAL_URI, LITERAL, True),
        ("base_model", P_BASE_MODEL, IRI, False),
        ("mae", P_MAE, DECIMAL, True),
        ("mse", P_MSE, DECIMAL, True),
        ("owner_node", P_OWNER, LITERAL, True),
        ("content_address", P_CONTENT_ADDRESS, LITERAL, False),
        ("tx_id", P_TX_ID, LITERAL, False),
    )),
}


def _encode(type_iri: str, record: Any) -> list[Triple]:
    """The triples of ``record``; an optional field that is None has none.

    A required field is encoded as given, so a bad value fails
    ``_check_triple`` and nothing of the record is stored.
    """
    triples = [Triple(record.iri, P_TYPE, type_iri)]
    for field, pred, (_, encode, _), required in RECORDS[type_iri].fields:
        value = getattr(record, field)
        if required or value is not None:
            triples.append(Triple(record.iri, pred, encode(value)))
    return triples


class KnowledgeGraph:
    def __init__(self, node_id: str):
        self.node_id = node_id
        self.triples: set[Triple] = set()
        self._by_subject: dict[str, list[Triple]] = {}
        self._by_type: dict[str | Literal, set[str]] = {}
        self._views: dict[tuple[str, str], DatasetDescriptor | ModelRecord] = {}

    # ---------------------------------------------------------------- triples

    def assert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples, returning how many were new (set semantics)."""
        batch = list(triples)
        for t in batch:
            self._check_triple(t)
        added = 0
        for t in batch:
            if t in self.triples:
                continue
            self.triples.add(t)
            self._by_subject.setdefault(t.subject, []).append(t)
            if t.predicate == P_TYPE:
                self._by_type.setdefault(t.obj, set()).add(t.subject)
            for type_iri in RECORDS:
                self._views.pop((type_iri, t.subject), None)
            added += 1
        return added

    @staticmethod
    def _check_triple(t: Triple) -> None:
        if not isinstance(t, Triple):
            raise MalformedTriple(f"not a triple: {t!r}")
        if not _is_iri(t.subject):
            raise MalformedTriple(f"subject is not an isl:// IRI: {t.subject!r}")
        if not _is_iri(t.predicate):
            raise MalformedTriple(f"predicate is not an isl:// IRI: {t.predicate!r}")
        if isinstance(t.obj, Literal):
            if not isinstance(t.obj.lexical, str):
                raise MalformedTriple(f"literal is not a string: {t.obj.lexical!r}")
            if t.obj.datatype not in ("string", "decimal"):
                raise MalformedTriple(f"unknown literal type {t.obj.datatype!r}")
            if any(ch in t.obj.lexical for ch in "\n\r\t"):
                raise MalformedTriple("literal contains control characters")
            if t.obj.datatype == "decimal":
                try:
                    float(t.obj.lexical)
                except ValueError:
                    raise MalformedTriple(
                        f"bad decimal literal {t.obj.lexical!r}"
                    ) from None
        elif not _is_iri(t.obj):
            raise MalformedTriple(f"object is neither IRI nor literal: {t.obj!r}")

    def _props(self, subject: str) -> dict[str, list[str | Literal]]:
        out: dict[str, list[str | Literal]] = {}
        for t in self._by_subject.get(subject, ()):
            out.setdefault(t.predicate, []).append(t.obj)
        return out

    def _subjects_of_type(self, type_iri: str) -> list[str]:
        return sorted(self._by_type.get(type_iri, ()))

    # ------------------------------------------------------------ registration

    def register_dataset(self, d: DatasetDescriptor) -> str:
        self._check_local(T_DATASET, d)
        self.assert_triples(_encode(T_DATASET, d))
        return d.iri

    def register_model(self, m: ModelRecord) -> str:
        self._check_local(T_MODEL, m)
        if not self.has_dataset(m.dataset):
            raise UnresolvedDependency(f"dataset {m.dataset} is not known to this graph")
        if m.base_model is not None and not self.has_model(m.base_model):
            raise UnresolvedDependency(
                f"base model {m.base_model} is not known to this graph"
            )
        self.assert_triples(_encode(T_MODEL, m))
        return m.iri

    def discard(self, iri: str) -> None:
        """Drop every triple about ``iri``, undoing a registration made just now.

        Records that refer to ``iri`` are not looked for, so this is only
        for a record nothing has referred to yet.
        """
        for t in self._by_subject.pop(iri, ()):
            self.triples.discard(t)
            if t.predicate == P_TYPE:
                self._by_type[t.obj].discard(iri)
        for type_iri in RECORDS:
            self._views.pop((type_iri, iri), None)

    def cache_remote_dataset(self, d: DatasetDescriptor) -> str:
        """Cache a shared dataset owned by another node, keeping its own IRI."""
        return self._cache_remote(T_DATASET, d)

    def cache_remote_model(self, m: ModelRecord) -> str:
        """Cache a shared model owned by another node.

        Dependency references are not resolved here: the owner's graph
        validated them at registration, and an acquirer may know the
        model without knowing its ancestors' metadata.
        """
        return self._cache_remote(T_MODEL, m)

    def _check_local(self, type_iri: str, res: DatasetDescriptor | ModelRecord) -> None:
        """Refuse a record this node may not register as its own, new and unshared."""
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
        record_type = RECORDS[type_iri]
        if res.owner_node != self.node_id:
            raise MalformedDescriptor(
                f"{record_type.noun} {res.iri} is owned by {res.owner_node!r}; "
                f"use cache_remote_{record_type.noun} for foreign assets"
            )
        record_type.check(res)

    def _cache_remote(self, type_iri: str, res: DatasetDescriptor | ModelRecord) -> str:
        record_type = RECORDS[type_iri]
        if not res.shared:
            raise MalformedDescriptor(f"remote {record_type.noun} {res.iri} must be shared")
        if res.owner_node == self.node_id:
            raise MalformedDescriptor(f"{res.iri} is local; register it instead")
        existing = self._view(type_iri, res.iri)
        if existing is not None:
            if existing != res:
                raise DuplicateId(f"{res.iri} already cached with different metadata")
            return res.iri
        self._check_fresh(res.iri)
        record_type.check(res)
        self.assert_triples(_encode(type_iri, res))
        return res.iri

    def _check_fresh(self, iri: str) -> None:
        if not _is_iri(iri):
            raise MalformedDescriptor(f"identifier is not an isl:// IRI: {iri!r}")
        if iri in self._by_subject:
            raise DuplicateId(f"{iri} is already registered")

    # ----------------------------------------------------------------- sharing

    def mark_shared(self, iri: str, addr: str, tx_id: str) -> DatasetDescriptor | ModelRecord:
        existing = self._view(T_DATASET, iri) or self._view(T_MODEL, iri)
        if existing is None:
            raise NotFound(f"no resource {iri} in this graph")
        if existing.shared:
            raise AlreadyShared(f"{iri} was already shared as {existing.content_address}")
        self.assert_triples(
            [
                Triple(iri, P_CONTENT_ADDRESS, Literal(addr)),
                Triple(iri, P_TX_ID, Literal(tx_id)),
            ]
        )
        refreshed = self._view(T_DATASET, iri) or self._view(T_MODEL, iri)
        assert refreshed is not None
        return refreshed

    # ----------------------------------------------------------------- queries

    def datasets(self) -> list[DatasetDescriptor]:
        return [self._view(T_DATASET, s) for s in self._subjects_of_type(T_DATASET)]

    def models(self) -> list[ModelRecord]:
        return [self._view(T_MODEL, s) for s in self._subjects_of_type(T_MODEL)]

    def dataset(self, iri: str) -> DatasetDescriptor:
        d = self._view(T_DATASET, iri)
        if d is None:
            raise NotFound(f"no dataset {iri} in this graph")
        return d

    def model(self, iri: str) -> ModelRecord:
        m = self._view(T_MODEL, iri)
        if m is None:
            raise NotFound(f"no model {iri} in this graph")
        return m

    def has_dataset(self, iri: str) -> bool:
        return self._view(T_DATASET, iri) is not None

    def has_model(self, iri: str) -> bool:
        return self._view(T_MODEL, iri) is not None

    def shared_record(self, type_iri: str, iri: str, addr: str) -> Any:
        """The ``type_iri`` record of ``iri`` if this graph records it shared as ``addr``, else None."""
        view = self._view(type_iri, iri)
        return view if view is not None and view.content_address == addr else None

    def _view(self, type_iri: str, iri: str) -> Any:
        """The cached record of ``iri`` as a ``type_iri``; None if it lacks that type."""
        key = (type_iri, iri)
        view = self._views.get(key)
        if view is None and iri in self._by_type.get(type_iri, ()):
            view = self._views[key] = self._materialize(type_iri, iri)
        return view

    def _materialize(self, type_iri: str, iri: str) -> DatasetDescriptor | ModelRecord:
        record_type = RECORDS[type_iri]
        props = self._props(iri)
        values: dict[str, Any] = {"iri": iri}
        for field, pred, (cls, _, decode), required in record_type.fields:
            objs = [o for o in props.get(pred, ()) if isinstance(o, cls)]
            if required and len(objs) != 1:
                raise MalformedDescriptor(f"{iri}: expected exactly one {pred}, found {len(objs)}")
            if len(objs) > 1:
                raise MalformedDescriptor(f"{iri}: multiple values for {pred}")
            values[field] = decode(objs[0]) if objs else None
        return record_type.cls(**values)

    # ------------------------------------------------------------ serialization

    def export_bytes(self) -> bytes:
        lines = sorted(format_triple(t) for t in self.triples)
        return ("".join(line + "\n" for line in lines)).encode("utf-8")


def _escape(lexical: str) -> str:
    return lexical.replace("\\", "\\\\").replace('"', '\\"')


def format_triple(t: Triple) -> str:
    if isinstance(t.obj, Literal):
        body = f'"{_escape(t.obj.lexical)}"'
        if t.obj.datatype == "decimal":
            body += f"^^<{DECIMAL_TYPE}>"
    else:
        body = f"<{t.obj}>"
    return f"<{t.subject}> <{t.predicate}> {body} ."
