"""Network wiring and the participant node facade.

A :class:`Network` owns the simulated ledger, the two governance
contracts, and a directory tree with one subdirectory per node. Each
:class:`IslNode` keeps its assets (dataset and model files) in a private
content-addressed blob store, describes them in a private knowledge
graph, and interacts with other nodes only through ledger transactions
plus direct blob transfer. On-chain state never holds asset bytes or
metadata beyond content addresses and provenance edges. A node reads
another's metadata straight from that node's graph, and its bytes through
``serve_blob``; both stand in for the off-chain request channel between
nodes.
"""

from __future__ import annotations

import bisect
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import kgstore, mlsim
from .cas import BlobStore, content_address, is_address, write_atomic
from .contracts import IslContract, OracleContract, walk_provenance
from .depgraph import DependencyGraph
from .errors import (
    AlreadyShared,
    IntegrityFailure,
    IslError,
    NotFound,
    ParseError,
    TokenRejected,
    UnknownResource,
)
from .kgstore import RECORDS, DatasetDescriptor, KnowledgeGraph, ModelRecord, record_iri
from .ledger import Ledger, Receipt, canonical_json, log_lines

IRI_PREFIX = "isl://"
LEDGER_FILE = "ledger.log"
CHAINSTATE_FILE = "chainstate.json"
ACCOUNT_FILE = "account.txt"  # in each node's directory

Record = DatasetDescriptor | ModelRecord


class Ref(NamedTuple):
    """A resolved resource reference.

    ``kind`` is the record class, ``ModelRecord`` or ``DatasetDescriptor``; it and
    ``iri`` are None for a bare content address. ``addr`` is None while the record
    is unshared, and whenever the caller named the kind (then no graph is read).
    """

    kind: type | None
    iri: str | None
    addr: str | None


class RankedModel(NamedTuple):
    """One row of a marketplace query result; equal to the plain tuple of its fields."""

    address: str
    task: str
    input_features: tuple[str, ...]
    mse: float
    mae: float
    owner_node: str
    price: int


_RANK = itemgetter(3, 0)  # a RankedModel's (mse, address)


def chainstate_frame(state: dict) -> tuple[bytes, bytes]:
    """The bytes of ``chainstate.json`` before and after the ``meta`` value it holds beside
    a ledger's ``state_dict()``, which replay must reproduce; its keys are sorted."""
    head = canonical_json({**{k: v for k, v in state.items() if k < "meta"}, "meta": 0})
    tail = canonical_json({"meta": 0, **{k: v for k, v in state.items() if k > "meta"}})
    return head[:-len(b"0}")], tail[len(b'{"meta":0'):] + b"\n"


def is_node_name(name: str) -> bool:
    """Whether ``name`` may name a node: non-empty, alphanumeric with ``-`` or ``_``."""
    return bool(name) and all(c.isalnum() or c in "-_" for c in name)


def _addr_of(local_uri: str) -> str:
    addr = local_uri.rsplit("/", 1)[-1]
    if not is_address(addr):
        raise NotFound(f"local uri {local_uri!r} does not name a stored blob")
    return addr


class Network:
    """A complete simulated deployment rooted at one directory."""

    def __init__(self, root: Path, ledger: Ledger) -> None:
        self.root = Path(root)
        self.ledger = ledger
        self._nodes: dict[str, IslNode] = {}
        self._valid: dict[str, tuple[IslNode, Record]] = {}  # addr -> (registrant, its record)
        # task -> features -> (rows sorted by _RANK, their addresses, the prices they show)
        self._listed: dict[str, dict[tuple, tuple[list[RankedModel], list[str], list[int]]]] = {}

    @classmethod
    def create(cls, root: str | Path, owner_balance: int) -> "Network":
        """A new network in ``root``, which must be missing or an empty directory."""
        if Path(root).is_dir() and any(Path(root).iterdir()):
            raise IslError(f"workspace {root} is not empty")
        ledger = Ledger()
        for contract in cls.contract_factory():
            ledger.register_contract(contract)
        ledger.create_account(owner_balance, owner=True)
        net = cls(Path(root), ledger)
        try:
            net.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise IslError(f"workspace {root} is not a directory") from None
        (net.root / "nodes").mkdir(exist_ok=True)
        return net

    @staticmethod
    def contract_factory() -> list:
        """Fresh contract instances for a new network or for replaying a transaction log."""
        oracle = OracleContract()
        return [oracle, IslContract(oracle)]

    @property
    def oracle(self) -> OracleContract:
        return self.ledger.contract("oracle")  # type: ignore[return-value]

    @property
    def isl(self) -> IslContract:
        return self.ledger.contract("isl")  # type: ignore[return-value]

    @property
    def owner_account(self) -> str | None:
        return self.oracle.state["owner"]

    # ------------------------------------------------------------------ nodes

    def add_node(self, name: str, balance: int) -> "IslNode":
        if name in self._nodes:
            raise IslError(f"node {name!r} already exists")
        if not is_node_name(name):
            raise IslError(f"node name {name!r} must be alphanumeric with - or _")
        account = self.ledger.create_account(balance)
        node_dir = self.root / "nodes" / name
        node_dir.mkdir(parents=True, exist_ok=True)
        node = IslNode(self, name, account.address, node_dir)
        self._nodes[name] = node
        return node

    def register_node(self, name: str) -> Receipt:
        node = self.node(name)
        return self.submit(self.owner_account, "oracle", "register_node", (node.account,))

    def node(self, name: str) -> "IslNode":
        try:
            return self._nodes[name]
        except KeyError:
            raise NotFound(f"no node named {name!r}") from None

    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def mark_valid(self, node: "IslNode", addr: str, row: dict, record: Record) -> None:
        """Record ``row``, the registry row of ``addr``, valid: ``node`` registered it and
        records it shared as ``addr``. A model row is also listed, at price 0 until a
        query reads it, under the row's task and its input features, sorted by ``_RANK``.
        A second call changes nothing, so a row is never listed twice.

        A row ``(addr, owner, iri)`` is valid when the node of account
        ``owner`` records ``iri`` shared as ``addr`` in its own graph.
        That turns true in one place, ``IslNode._share_tx``, the only
        caller of ``mark_shared`` and of this method, which runs once the
        row exists (its own transaction or an adopted row) and records
        the row if it is the node's own; a cached remote record is shared
        under its source's row. It never turns false: a committed row
        never changes, and a graph never replaces or drops a record it
        holds as shared (``mark_shared`` refuses one already shared,
        ``_cache_remote`` a different record under a held IRI, and
        ``discard`` only runs on a record just registered and still
        unshared). So ``record`` stays the registrant's record of the row.
        A share cut short after ``mark_shared`` leaves the row not yet
        valid; the next share of that record calls this (``IslNode._pending``).
        """
        if isinstance(record, ModelRecord):
            listed = self._listed.setdefault(row["task"], {})
            rows, addrs, shown = listed.setdefault(record.input_features, ([], [], []))
            at = bisect.bisect_left(rows, (record.mse, addr), key=_RANK)
            if at == len(rows) or rows[at].address != addr:
                rows.insert(at, RankedModel(addr, row["task"], record.input_features, record.mse,
                                            record.mae, node.name, 0))
                addrs.insert(at, addr)
                shown.insert(at, 0)
        self._valid[addr] = (node, record)  # last: a row recorded valid is listed

    def valid_row(self, addr: str) -> tuple[IslNode, Record] | None:
        """The registering node and its shared record of ``addr``'s row, if the row is valid."""
        return self._valid.get(addr)

    def listed_models(self, task: str, sensors: set[str]) -> list[RankedModel]:
        """A new list of the valid model rows of ``task`` (see ``mark_valid``) whose inputs
        ``sensors`` cover, sorted by ``_RANK``; only a row whose posted price moved is rebuilt,
        and one covered feature set is already sorted."""
        covered, prices = [], self.isl.state["prices"]
        for features, (rows, addrs, shown) in self._listed.get(task, {}).items():
            if sensors.issuperset(features):
                posted = list(map(prices.get, addrs, repeat(0)))
                if posted != shown:
                    rows[:] = [r if p == q else r._replace(price=p)
                               for r, p, q in zip(rows, posted, shown)]
                    shown[:] = posted
                covered.append(rows)
        if len(covered) == 1:
            return covered[0][:]
        return sorted(chain.from_iterable(covered), key=_RANK)

    # ------------------------------------------------------------- references

    def resolve(self, ref: str, actor: str | None = None, kind: type | None = None) -> Ref:
        """Read a resource reference; the one parser of its four forms.

        - a 64-hex content address is taken as given;
        - ``isl://<node>/<model|dataset>/<id>`` names its node and kind;
        - ``node/id`` splits at the first ``/``;
        - a bare id names a resource of ``actor``.

        With ``kind`` (a record class, as ``Ref.kind``) given, only the IRI is
        formed. Otherwise the kind and the shared address come from one
        ``KnowledgeGraph.get`` per candidate class in the named node's graph,
        never from the registry, where any registered node may claim any IRI.
        """
        noun = "model or dataset" if kind is None else RECORDS[kind].noun
        if is_address(ref):
            if kind is not None:
                raise ParseError(f"{ref!r} is a content address; name the {noun} by id or IRI")
            return Ref(None, None, ref)
        if ref.startswith(IRI_PREFIX):
            owner, _, rest = ref[len(IRI_PREFIX):].partition("/")
            named, sep, local = rest.partition("/")
            kinds = [cls for cls, rt in RECORDS.items() if sep and rt.noun == named]
            if not kinds or kind not in (None, *kinds):
                raise ParseError(f"{ref!r} is not a {noun} IRI")
        else:
            owner, sep, local = ref.partition("/")
            if not sep:
                if actor is None:
                    raise ParseError(f"{ref!r} names no node; use node/id")
                owner, local = actor, ref
            kinds = [ModelRecord, DatasetDescriptor]
        if kind is not None:
            return Ref(kind, record_iri(kind, owner, local), None)
        try:
            graph = self.node(owner).graph
        except NotFound:
            raise ParseError(f"{ref!r} names unknown node {owner!r}") from None
        hits = [r for r in (graph.get(k, record_iri(k, owner, local)) for k in kinds) if r is not None]
        if len(hits) > 1:
            raise ParseError(f"{ref!r} matches both a model and a dataset; use a full IRI")
        if not hits:
            raise NotFound(f"{owner} has no resource {local!r}")
        return Ref(type(hits[0]), hits[0].iri, hits[0].content_address)

    def shared_address(self, ref: str, actor: str | None = None) -> str:
        """The content address ``ref`` names; an unshared record has none."""
        found = self.resolve(ref, actor)
        if found.addr is None:
            raise UnknownResource(f"{found.iri} is not shared")
        return found.addr

    # ------------------------------------------------------------------ chain

    def submit(
        self,
        sender: str,
        contract: str,
        method: str,
        args: tuple = (),
        value: int = 0,
    ) -> Receipt:
        """Run one transaction; a revert raises the error the contract refused it with."""
        receipt = self.ledger.submit(sender, contract, method, args=args, value=value)
        if receipt.error is not None:
            try:
                raise receipt.error
            finally:
                del receipt  # the error's traceback holds this frame; no cycle back to it
        return receipt

    def persist(self) -> None:
        """Write the whole workspace: each node's files, ``ledger.log``, then ``chainstate.json``.

        ``chainstate.json`` comes last, so a persist into a fresh directory
        that stops part way leaves none, and ``replay`` and ``inspect``
        report ``UnknownWorkspace`` rather than read a partial workspace.
        """
        for node in self._nodes.values():
            node.persist()
        log = "".join(line + "\n" for line in log_lines(self.ledger))
        write_atomic(self.root / LEDGER_FILE, log.encode("ascii"))
        meta = {"owner": self.owner_account,
                "nodes": {name: self._nodes[name].account for name in self.node_names()}}
        head, tail = chainstate_frame(self.ledger.state_dict())
        write_atomic(self.root / CHAINSTATE_FILE, head + canonical_json(meta) + tail)


class IslNode:
    """One participant: an account, a blob store, and a knowledge graph."""

    def __init__(self, network: Network, name: str, account: str, node_dir: Path) -> None:
        self.network = network
        self.name = name
        self.account = account
        self.root = node_dir
        self.store = BlobStore(node_dir)
        self.graph = KnowledgeGraph(name)
        self.depgraph = DependencyGraph(self.graph, lambda addr: [
            (s.model_iri, s.dataset_iri) for s in walk_provenance(network.oracle, addr)])
        self._built: tuple[str, mlsim.TabularDataset | None] = ("", None)  # the last generated

    @property
    def balance(self) -> int:
        return self.network.ledger.balance_of(self.account)

    # ------------------------------------------------------------ local assets

    def create_local_dataset(
        self,
        local_id: str,
        seed: int,
        profile: mlsim.RoomProfile,
        n_rows: int,
    ) -> DatasetDescriptor:
        """Generate a synthetic sensor dataset and record it locally."""
        data = mlsim.make_synthetic_room(seed, profile, n_rows)
        blob = data.to_csv_bytes()
        addr = content_address(blob)
        schema = tuple(
            f"{name}:{kgstore.FEATURE_UNITS[name]}" for name in data.feature_names
        )
        descriptor = DatasetDescriptor(
            iri=kgstore.dataset_iri(self.name, local_id),
            owner_node=self.name,
            feature_schema=schema,
            local_uri=self.store.relative_uri(addr),
        )
        self.graph.register_dataset(descriptor)
        self._put_registered(descriptor.iri, blob)
        self._built = (addr, data)
        return descriptor

    def load_dataset(self, ref: str) -> mlsim.TabularDataset:
        """The dataset ``ref`` names, whose stored bytes must hash to its address; the one
        this node generated last comes back unparsed (its values are quantized at birth)."""
        addr, data = self._verified_blob(self.graph.dataset(self._iri(ref, DatasetDescriptor)))
        built_addr, built = self._built
        return built if addr == built_addr else mlsim.TabularDataset.from_csv_bytes(data)

    def load_model(self, ref: str) -> mlsim.LinearModel:
        _, data = self._verified_blob(self.graph.model(self._iri(ref, ModelRecord)))
        return mlsim.LinearModel.from_bytes(data)

    def _verified_blob(self, record: Record) -> tuple[str, bytes]:
        """The address in ``record``'s URI and the stored bytes, which must hash to it."""
        addr = _addr_of(record.local_uri)
        data = self.store.get(addr)
        if content_address(data) != addr:
            raise IntegrityFailure(f"stored bytes of {record.iri} do not hash to {addr}")
        return addr, data

    def train_model(self, local_id: str, dataset_ref: str, task: str) -> ModelRecord:
        """Fit a linear model from scratch on a local dataset."""
        task = self._task_ref(task)
        ds_iri = self._iri(dataset_ref, DatasetDescriptor)
        data = self.load_dataset(ds_iri)
        model = mlsim.train(data)
        return self._record_model(local_id, model, data, ds_iri, task, base_iri=None)

    def fine_tune_model(
        self,
        local_id: str,
        base_ref: str,
        dataset_ref: str,
        steps: int,
        learning_rate: float,
    ) -> ModelRecord:
        """Adapt a locally available model (own or acquired) to a local dataset."""
        mlsim.require_schedule(steps, learning_rate)
        base_iri = self._iri(base_ref, ModelRecord)
        base = self.load_model(base_iri)
        ds_iri = self._iri(dataset_ref, DatasetDescriptor)
        data = self.load_dataset(ds_iri)
        tuned = mlsim.fine_tune(base, data, steps, learning_rate)
        return self._record_model(
            local_id, tuned, data, ds_iri, self.graph.model(base_iri).task, base_iri=base_iri
        )

    def _record_model(
        self,
        local_id: str,
        model: mlsim.LinearModel,
        data: mlsim.TabularDataset,
        ds_iri: str,
        task: str,
        base_iri: str | None,
    ) -> ModelRecord:
        measures = mlsim.evaluate(model, data)  # goodness of fit on the training rows
        blob = model.to_bytes()
        addr = content_address(blob)
        record = ModelRecord(
            iri=kgstore.model_iri(self.name, local_id),
            task=task,
            dataset=ds_iri,
            local_uri=self.store.relative_uri(addr),
            base_model=base_iri,
            input_features=model.input_features,
            mae=measures["MAE"],
            mse=measures["MSE"],
            owner_node=self.name,
        )
        self.graph.register_model(record)
        self._put_registered(record.iri, blob)
        return record

    def _put_registered(self, iri: str, blob: bytes) -> None:
        """Store the blob of a record the graph has just accepted.

        The put comes after the registration so that a refused record
        leaves no blob; if the put fails, the record is dropped again so
        that no record points at a missing blob.
        """
        try:
            self.store.put(blob)
        except BaseException:
            self.graph.discard(iri)
            raise

    # ----------------------------------------------------------------- sharing

    def share_dataset(self, ref: str) -> DatasetDescriptor:
        iri = self._iri(ref, DatasetDescriptor)
        descriptor = self.graph.dataset(iri)
        if not self._pending(descriptor):
            raise AlreadyShared(f"{iri} is already shared")
        return self._share([descriptor])  # type: ignore[return-value]

    def share_model(self, ref: str) -> ModelRecord:
        """Publish a model and, first, any of its own unshared ancestry.

        Every record it shares is this node's own: a cached remote record
        is always shared, so the ancestry of an acquired model is on chain.
        """
        iri = self._iri(ref, ModelRecord)
        if not self._pending(self.graph.model(iri)):
            raise AlreadyShared(f"{iri} is already shared")
        return self._share(self._share_plan(iri))  # type: ignore[return-value]

    def _pending(self, record: Record) -> bool:
        """Whether ``record`` is still to share: unshared, or shared under its own
        registry row that a share cut short has not yet recorded valid."""
        if not record.shared:
            return True
        addr = record.content_address
        if self.network.valid_row(addr) is not None:
            return False
        row = self._row(record, addr)
        return (row["owner"], row["iri"]) == (self.account, record.iri)

    def _row(self, record: Record, addr: str) -> dict | None:
        """The registry row of ``addr`` among the rows of ``record``'s class, if any."""
        oracle = self.network.oracle
        return (oracle.model_entry if isinstance(record, ModelRecord) else oracle.dataset_entry)(addr)

    def _share_plan(self, target_iri: str) -> list[Record]:
        """The pending records of the chain to share, root first, each once.

        The walk goes tip first and stops at the first model shared for
        good (not ``_pending``): the oracle's chain rule admitted it only
        after its dataset and base, so its whole ancestry is already on
        chain. Every step before it is a record of this node's own graph
        (a trace leaves the graph only past a cached remote model, which
        is shared under a valid row), and a pending one is this node's own.
        """
        kg = self.graph
        tip_first: list[Record] = []
        for model_iri, ds_iri in reversed(self.depgraph.trace(target_iri).steps):
            model = kg.model(model_iri)
            if not self._pending(model):
                break
            tip_first += [r for r in (model, kg.dataset(ds_iri)) if self._pending(r)]
        return list(dict.fromkeys(reversed(tip_first)))

    def _share(self, plan: list[Record]) -> Record:
        """Share the planned records in order; the last one comes back shared.

        Before the first transaction every step's blob must still hash to
        the address in its record's URI, so a tampered store shares
        nothing, and the address each step submits is its record's own.
        """
        addrs = [self._verified_blob(record)[0] for record in plan]
        for record, addr in zip(plan, addrs):
            shared = self._share_tx(record, addr)
        return shared

    def _share_tx(self, record: Record, addr: str) -> Record:
        """Register one pending record whose dataset and base this node already records as shared."""
        row = self._row(record, addr)
        if row is None:  # else identical content is already on chain; adopt its registration
            args: tuple = (record.iri, addr)
            if isinstance(record, ModelRecord):
                base = record.base_model
                base_addr = None if base is None else self.graph.model(base).content_address
                args += (record.task, self.graph.dataset(record.dataset).content_address, base_addr)
            self.network.submit(self.account, "oracle", "share_" + RECORDS[type(record)].noun, args)
            row = self._row(record, addr)
        shared = record if record.shared else self.graph.mark_shared(record.iri, addr, row["tx_id"])
        if (row["owner"], row["iri"]) == (self.account, shared.iri):
            self.network.mark_valid(self, addr, row, shared)
        return shared

    # ------------------------------------------------------------- marketplace

    def query_models(self, task: str, sensors: set[str] | frozenset[str]) -> list[RankedModel]:
        """Shared models for a task whose inputs this space can feed.

        A registry entry is listed only when the node that registered it
        records, in its own graph, that model shared under that address;
        an entry whose IRI the registering node does not hold as shared
        there (a squatted or foreign IRI) is skipped. The share path
        lists an entry once, when its registering node marks it shared,
        under its task and input features, so a query reads no registry
        row, no graph record and no listed row its sensors cannot feed
        (``Network.listed_models``); prices are read at query time.

        Results come back best first: ascending mean squared error, ties
        broken by content address so the order is total.
        """
        if isinstance(sensors, str):
            raise TypeError(f"sensors must be a set of feature names, not the string {sensors!r}")
        task = self._task_ref(task)
        sensors = set(sensors)
        if not all(isinstance(sensor, str) for sensor in sensors):
            raise TypeError(f"sensors must be feature names, not {sorted(map(repr, sensors))}")
        return self.network.listed_models(task, sensors)

    def set_price(self, ref: str, price: int) -> str:
        addr = self.network.shared_address(ref, self.name)
        self.network.submit(self.account, "isl", "set_price", (addr, price))
        return addr

    def acquire_model(self, addr: str, payment: int) -> ModelRecord | DatasetDescriptor:
        """Pay for a shared resource, fetch its bytes, verify, and cache it.

        Unless the share path recorded ``addr``'s row valid (see
        ``Network.mark_valid``), nothing is paid or logged. Payment settles on
        chain, and the transfer that follows is verified against the
        content address before anything is written locally, so a
        corrupt or malicious serve leaves no local trace.
        """
        valid = self.network.valid_row(addr)
        if valid is None:
            oracle = self.network.oracle
            entry = oracle.model_entry(addr) or oracle.dataset_entry(addr)
            if entry is not None:
                raise NotFound(f"the registering node records no {entry['iri']} shared as {addr}")

        # an address with no registry entry reverts here, so valid is set below
        receipt = self.network.submit(self.account, "isl", "acquire", (addr,), value=payment)
        owner_node, remote = valid  # type: ignore[misc]
        grant = receipt.return_value
        data = owner_node.serve_blob(str(grant["resource_location"]), str(grant["token"]), self.account)
        if content_address(data) != addr:
            raise IntegrityFailure(f"served bytes do not hash to {addr}")

        if owner_node is self:
            return remote

        self.store.put(data)
        cached = remote._replace(local_uri=self.store.relative_uri(addr))
        if isinstance(cached, DatasetDescriptor):
            self.graph.cache_remote_dataset(cached)
        else:
            self.graph.cache_remote_model(cached)
        return cached

    def serve_blob(self, addr: str, token: str, caller: str) -> bytes:
        """Hand out stored bytes against a valid acquisition token."""
        if not self.network.isl.validate_token(token, addr, caller):
            raise TokenRejected(f"token not valid for {addr}")
        return self.store.get(addr)

    # --------------------------------------------------------------- reference

    def _iri(self, ref: str, kind: type) -> str:
        return self.network.resolve(ref, self.name, kind).iri  # type: ignore[return-value]

    @staticmethod
    def _task_ref(ref: str) -> str:
        return ref if isinstance(ref, str) and ref.startswith(kgstore.VOCAB) else kgstore.task_iri(ref)

    # -------------------------------------------------------------- filesystem

    def persist(self) -> None:
        """Write the node's knowledge graph and account marker to disk."""
        write_atomic(self.root / "kg.nt", self.graph.export_bytes())
        write_atomic(self.root / ACCOUNT_FILE, (self.account + "\n").encode("ascii"))
