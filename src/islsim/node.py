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

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import kgstore, mlsim
from .cas import BlobStore, content_address, is_address, write_atomic
from .contracts import IslContract, OracleContract
from .depgraph import DependencyGraph
from .errors import (
    AlreadyShared,
    IncompleteChain,
    IntegrityFailure,
    IslError,
    NotFound,
    ParseError,
    TokenRejected,
    UnknownResource,
    from_reason,
)
from .kgstore import DatasetDescriptor, KnowledgeGraph, ModelRecord
from .ledger import Ledger, Receipt

IRI_PREFIX = "isl://"
_IRI_OF = {"model": kgstore.model_iri, "dataset": kgstore.dataset_iri}

Record = DatasetDescriptor | ModelRecord


class Ref(NamedTuple):
    """A resolved resource reference.

    ``kind`` is "model" or "dataset"; both it and ``iri`` are None for a
    bare content address. ``addr`` is None while the record is unshared,
    and whenever the caller named the kind (then no graph is read).
    """

    kind: str | None
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


@dataclass(frozen=True)
class ChainStep:
    """One link of an on-chain provenance chain, root first."""

    model_addr: str
    model_iri: str
    dataset_addr: str
    dataset_iri: str
    tx_id: str
    owner: str


def walk_provenance(oracle: OracleContract, addr: str) -> list[ChainStep]:
    """Reconstruct a shared model's full ancestry from contract state alone."""
    if oracle.model_entry(addr) is None:
        raise UnknownResource(f"{addr} is not a shared model")
    lineage = []
    seen = set()
    cur: str | None = addr
    while cur is not None:
        if cur in seen:
            raise IslError(f"provenance cycle through {cur}")
        seen.add(cur)
        entry = oracle.model_entry(cur)
        if entry is None:
            raise IncompleteChain(f"base model {cur} is not shared")
        lineage.append((cur, entry))
        cur = entry["base_model_addr"]
    lineage.reverse()
    steps = []
    for model_addr, entry in lineage:
        ds = oracle.dataset_entry(entry["dataset_addr"])
        if ds is None:
            raise IncompleteChain(f"training dataset {entry['dataset_addr']} is not shared")
        steps.append(
            ChainStep(
                model_addr=model_addr,
                model_iri=entry["iri"],
                dataset_addr=entry["dataset_addr"],
                dataset_iri=ds["iri"],
                tx_id=entry["tx_id"],
                owner=entry["owner"],
            )
        )
    return steps


def _addr_of(local_uri: str) -> str:
    addr = local_uri.rsplit("/", 1)[-1]
    if not is_address(addr):
        raise NotFound(f"local uri {local_uri!r} does not name a stored blob")
    return addr


class Network:
    """A complete simulated deployment rooted at one directory."""

    def __init__(self, root: Path, ledger: Ledger, owner_account: str) -> None:
        self.root = Path(root)
        self.ledger = ledger
        self.owner_account = owner_account
        self._nodes: dict[str, IslNode] = {}
        self._names_by_account: dict[str, str] = {}

    @classmethod
    def create(cls, root: str | Path, owner_balance: int) -> "Network":
        ledger = Ledger()
        for contract in cls.contract_factory():
            ledger.register_contract(contract)
        owner = ledger.create_account(owner_balance, owner=True)
        net = cls(Path(root), ledger, owner.address)
        net.root.mkdir(parents=True, exist_ok=True)
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

    # ------------------------------------------------------------------ nodes

    def add_node(self, name: str, balance: int) -> "IslNode":
        if name in self._nodes:
            raise IslError(f"node {name!r} already exists")
        if not name or not all(c.isalnum() or c in "-_" for c in name):
            raise IslError(f"node name {name!r} must be alphanumeric with - or _")
        account = self.ledger.create_account(balance)
        node_dir = self.root / "nodes" / name
        node_dir.mkdir(parents=True, exist_ok=True)
        node = IslNode(self, name, account.address, node_dir)
        self._nodes[name] = node
        self._names_by_account[account.address] = name
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

    def node_name_of(self, account: str) -> str | None:
        return self._names_by_account.get(account)

    # ------------------------------------------------------------- references

    def resolve(self, ref: str, actor: str | None = None, kind: str | None = None) -> Ref:
        """Read a resource reference; the one parser of its four forms.

        - a 64-hex content address is taken as given;
        - ``isl://<node>/<model|dataset>/<id>`` names its node and kind;
        - ``node/id`` splits at the first ``/``;
        - a bare id names a resource of ``actor``.

        With ``kind`` given, only the IRI is formed and no graph is read.
        Otherwise the kind and the shared address come from the graph of
        the node the reference names, never from the registry, where any
        registered node may claim any IRI.
        """
        if is_address(ref):
            if kind is not None:
                raise ParseError(f"{ref!r} is a content address; name the {kind} by id or IRI")
            return Ref(None, None, ref)
        if ref.startswith(IRI_PREFIX):
            owner, _, rest = ref[len(IRI_PREFIX):].partition("/")
            named, sep, local = rest.partition("/")
            if not sep or named not in _IRI_OF or kind not in (None, named):
                raise ParseError(f"{ref!r} is not a {kind or 'model or dataset'} IRI")
            kinds = [named]
        else:
            owner, sep, local = ref.partition("/")
            if not sep:
                if actor is None:
                    raise ParseError(f"{ref!r} names no node; use node/id")
                owner, local = actor, ref
            kinds = ["model", "dataset"]
        if kind is not None:
            return Ref(kind, _IRI_OF[kind](owner, local), None)
        try:
            graph = self.node(owner).graph
        except NotFound:
            raise ParseError(f"{ref!r} names unknown node {owner!r}") from None
        hits = [k for k in kinds
                if (graph.has_model if k == "model" else graph.has_dataset)(_IRI_OF[k](owner, local))]
        if len(hits) > 1:
            raise ParseError(f"{ref!r} matches both a model and a dataset; use a full IRI")
        if not hits:
            raise NotFound(f"{owner} has no resource {local!r}")
        iri = _IRI_OF[hits[0]](owner, local)
        record = graph.model(iri) if hits[0] == "model" else graph.dataset(iri)
        return Ref(hits[0], iri, record.content_address)

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
        """Run one transaction; a revert surfaces as its typed error."""
        receipt = self.ledger.submit(sender, contract, method, args=args, value=value)
        if receipt.status != "ok":
            raise from_reason(receipt.revert_reason or "IslError: reverted")
        return receipt

    def persist(self) -> None:
        for node in self._nodes.values():
            node.persist()


class IslNode:
    """One participant: an account, a blob store, and a knowledge graph."""

    def __init__(self, network: Network, name: str, account: str, node_dir: Path) -> None:
        self.network = network
        self.name = name
        self.account = account
        self.root = node_dir
        self.store = BlobStore(node_dir)
        self.graph = KnowledgeGraph(name)
        self.depgraph = DependencyGraph()

    def __repr__(self) -> str:
        return f"IslNode({self.name!r}, account={self.account[:8]}...)"

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
        return descriptor

    def load_dataset(self, ref: str) -> mlsim.TabularDataset:
        descriptor = self.graph.dataset(self._iri(ref, "dataset"))
        data = self.store.get(_addr_of(descriptor.local_uri))
        return mlsim.TabularDataset.from_csv_bytes(data)

    def load_model(self, ref: str) -> mlsim.LinearModel:
        record = self.graph.model(self._iri(ref, "model"))
        data = self.store.get(_addr_of(record.model_uri))
        return mlsim.LinearModel.from_bytes(data)

    def train_model(self, local_id: str, dataset_ref: str, task: str) -> ModelRecord:
        """Fit a linear model from scratch on a local dataset."""
        ds_iri = self._iri(dataset_ref, "dataset")
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
        base_iri = self._iri(base_ref, "model")
        base = self.load_model(base_iri)
        ds_iri = self._iri(dataset_ref, "dataset")
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
            task=self._task_ref(task),
            dataset=ds_iri,
            model_uri=self.store.relative_uri(addr),
            base_model=base_iri,
            input_features=model.input_features,
            mae=measures["MAE"],
            mse=measures["MSE"],
            owner_node=self.name,
        )
        self.graph.register_model(record)
        self._put_registered(record.iri, blob)
        self.depgraph.add_model(record.iri, base_iri, ds_iri)
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
        iri = self._iri(ref, "dataset")
        descriptor = self.graph.dataset(iri)
        if descriptor.shared:
            raise AlreadyShared(f"{iri} is already shared")
        if descriptor.owner_node != self.name:
            raise IncompleteChain(f"{iri} belongs to {descriptor.owner_node}")
        return self._share([("dataset", descriptor)])  # type: ignore[return-value]

    def share_model(self, ref: str) -> ModelRecord:
        """Publish a model and, first, any of its own unshared ancestry.

        The whole dependency chain is checked before the first
        transaction: an ancestor owned by another node that is not yet
        on chain aborts the operation with no on-chain effect at all.
        """
        iri = self._iri(ref, "model")
        if self.graph.model(iri).shared:
            raise AlreadyShared(f"{iri} is already shared")
        return self._share(self._share_plan(iri))  # type: ignore[return-value]

    def _share_plan(self, target_iri: str) -> list[tuple[str, Record]]:
        """The unshared records of the chain to share, root first, each once.

        Only this node's own records are read. The walk goes tip first
        and stops at the first model recorded as shared: the oracle's
        chain rule admitted it only after its dataset and base, so its
        whole ancestry is already on chain.
        """
        kg = self.graph
        tip_first: list[tuple[str, Record]] = []
        for model_iri, ds_iri in reversed(self.depgraph.trace(target_iri).steps):
            model = kg.model(model_iri) if kg.has_model(model_iri) else None
            if model is not None and model.shared:
                break
            ds = kg.dataset(ds_iri) if kg.has_dataset(ds_iri) else None
            for kind, step_iri, local in (("model", model_iri, model), ("dataset", ds_iri, ds)):
                if local is not None and local.shared:
                    continue
                if local is None or local.owner_node != self.name:
                    raise IncompleteChain(
                        f"{kind} {step_iri} in the dependency chain is not shared"
                    )
                tip_first.append((kind, local))
        return list(dict.fromkeys(reversed(tip_first)))

    def _share(self, plan: list[tuple[str, Record]]) -> Record:
        """Share the planned records in order; the last one comes back shared.

        Before the first transaction every step's blob must still hash to
        the address in its record's URI, so a tampered store shares
        nothing, and the address each step submits is its record's own.
        """
        addrs = []
        for _, record in plan:
            addr = _addr_of(record.model_uri if isinstance(record, ModelRecord) else record.local_uri)
            if content_address(self.store.get(addr)) != addr:
                raise IntegrityFailure(f"stored bytes of {record.iri} do not hash to {addr}")
            addrs.append(addr)
        for (kind, record), addr in zip(plan, addrs):
            shared = self._share_tx(kind, record, addr)
        return shared

    def _share_tx(self, kind: str, record: Record, addr: str) -> Record:
        """Register one record whose dataset and base this node already records as shared."""
        oracle = self.network.oracle
        existing = oracle.model_entry(addr) if kind == "model" else oracle.dataset_entry(addr)
        if existing is not None:
            # identical content already on chain; adopt its registration
            return self.graph.mark_shared(record.iri, addr, existing["tx_id"])
        args: tuple = (record.iri, addr)
        if isinstance(record, ModelRecord):
            base = record.base_model
            base_addr = None if base is None else self.graph.model(base).content_address
            args += (record.task, self.graph.dataset(record.dataset).content_address, base_addr)
        receipt = self.network.submit(self.account, "oracle", "share_" + kind, args)
        return self.graph.mark_shared(record.iri, addr, str(receipt.return_value))

    # ------------------------------------------------------------- marketplace

    def query_models(self, task: str, sensors: set[str] | frozenset[str]) -> list[RankedModel]:
        """Shared models for a task whose inputs this space can feed.

        A registry entry is listed only when the node that registered it
        records, in its own graph, that model shared under that address;
        an entry whose IRI the registering node does not hold as shared
        there (a squatted or foreign IRI) is skipped.

        Results come back best first: ascending mean squared error, ties
        broken by content address so the order is total.
        """
        task = self._task_ref(task)
        network = self.network
        price_of = network.isl.price_of
        sensors = set(sensors)
        owners: dict[str, IslNode | None] = {}
        matches = []
        for addr, owner, iri in network.oracle.query_task(task):
            if owner not in owners:
                name = network.node_name_of(owner)
                owners[owner] = None if name is None else network.node(name)
            node = owners[owner]
            record = None if node is None else node.graph.shared_record(kgstore.T_MODEL, iri, addr)
            if record is None or not sensors.issuperset(record.input_features):
                continue
            matches.append(RankedModel(addr, task, record.input_features, record.mse,
                                       record.mae, node.name, price_of(addr)))
        matches.sort(key=lambda m: (m.mse, m.address))
        return matches

    def set_price(self, ref: str, price: int) -> str:
        addr = self.network.shared_address(ref, self.name)
        self.network.submit(self.account, "isl", "set_price", (addr, price))
        return addr

    def acquire_model(self, addr: str, payment: int) -> ModelRecord | DatasetDescriptor:
        """Pay for a shared resource, fetch its bytes, verify, and cache it.

        Unless the registering node records the resource shared under
        ``addr``, nothing is paid or logged. Payment then settles on
        chain, and the transfer that follows is verified against the
        content address before anything is written locally, so a
        corrupt or malicious serve leaves no local trace.
        """
        oracle = self.network.oracle
        model_entry = oracle.model_entry(addr)
        entry = model_entry or oracle.dataset_entry(addr)
        if entry is not None:
            owner_name = self.network.node_name_of(entry["owner"])
            if owner_name is None:
                raise NotFound(f"no node serves account {entry['owner']}")
            owner_node = self.network.node(owner_name)
            kind = kgstore.T_MODEL if model_entry else kgstore.T_DATASET
            remote = owner_node.graph.shared_record(kind, entry["iri"], addr)
            if remote is None:
                raise NotFound(f"{owner_name} records no {entry['iri']} shared as {addr}")

        # an address with no registry entry reverts here, so owner_node is bound below
        receipt = self.network.submit(self.account, "isl", "acquire", (addr,), value=payment)
        grant = receipt.return_value
        data = owner_node.serve_blob(str(grant["resource_location"]), str(grant["token"]), self.account)
        if content_address(data) != addr:
            raise IntegrityFailure(f"served bytes do not hash to {addr}")

        if owner_name == self.name:
            return remote

        self.store.put(data)
        if model_entry is None:
            cached_ds = dataclasses.replace(remote, local_uri=self.store.relative_uri(addr))
            self.graph.cache_remote_dataset(cached_ds)
            return cached_ds

        cached = dataclasses.replace(remote, model_uri=self.store.relative_uri(addr))
        self.graph.cache_remote_model(cached)
        self._import_provenance(addr)
        return cached

    def _import_provenance(self, addr: str) -> None:
        prev: str | None = None
        for step in walk_provenance(self.network.oracle, addr):
            if step.model_iri not in self.depgraph:
                self.depgraph.add_model(step.model_iri, prev, step.dataset_iri)
            prev = step.model_iri

    def serve_blob(self, addr: str, token: str, caller: str) -> bytes:
        """Hand out stored bytes against a valid acquisition token."""
        if not self.network.isl.validate_token(token, addr, caller):
            raise TokenRejected(f"token not valid for {addr}")
        return self.store.get(addr)

    # --------------------------------------------------------------- reference

    def _iri(self, ref: str, kind: str) -> str:
        return self.network.resolve(ref, self.name, kind).iri  # type: ignore[return-value]

    @staticmethod
    def _task_ref(ref: str) -> str:
        return ref if ref.startswith(kgstore.VOCAB) else kgstore.task_iri(ref)

    # -------------------------------------------------------------- filesystem

    def persist(self) -> None:
        """Write the node's knowledge graph and account marker to disk."""
        write_atomic(self.root / "kg.nt", self.graph.export_bytes())
        write_atomic(self.root / "account.txt", (self.account + "\n").encode("ascii"))
