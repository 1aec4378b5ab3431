"""The two on-ledger state machines.

The oracle contract is the governed registry: the network owner admits
nodes, and admitted nodes register the metadata of assets they share.
Its core rule is the chain rule: a model can only be registered after
its training dataset and (if it has one) its base model are already in
the registries. Because every earlier registration obeyed the same
rule, checking just those two links keeps the *entire* ancestor closure
of every registered model on-chain by induction.

The exchange contract handles money and access: owners post prices,
buyers pay exactly the posted price, and each successful acquisition
mints a token that authorizes that one buyer to fetch that one asset.

Only ``ledger.submit`` may invoke the ``op_*`` methods, and they write
state only through ``ctx.put`` so a failed transaction is undone. The
plain read-only methods are free to call from anywhere.

A contract's ``ARGS`` gives each method's exact argument types (a
``bool`` is not an ``int``); ``call`` reverts ``UnknownMethod`` or
``MalformedArgs`` before any op runs, so op bodies check only values.
"""

from __future__ import annotations

import hashlib

from .cas import is_address
from .errors import CorruptLog
from .ledger import CallContext, Revert

STR, INT, STR_OR_NONE = frozenset({str}), frozenset({int}), frozenset({str, type(None)})


class Contract:
    name = "contract"
    ARGS: dict[str, tuple[frozenset[type], ...]] = {}  # method -> type set per argument

    def __init__(self) -> None:
        self.state: dict = {}

    def call(self, ctx: CallContext, method: str, args: tuple) -> object:
        kinds = self.ARGS.get(method)
        if kinds is None:
            raise Revert(f"UnknownMethod: {self.name} has no method {method!r}")
        if len(args) != len(kinds) or not all(map(frozenset.__contains__, kinds, map(type, args))):
            raise Revert(f"MalformedArgs: {self.name}.{method} does not take {args!r}")
        return getattr(self, "op_" + method)(ctx, *args)

    def state_dict(self) -> dict:
        raise NotImplementedError


class OracleContract(Contract):
    name = "oracle"
    ARGS = {"register_node": (STR,), "share_dataset": (STR, STR),
            "share_model": (STR, STR, STR, STR, STR_OR_NONE)}

    def __init__(self) -> None:
        super().__init__()
        self.state = {
            "owner": None,
            "trusted": {},  # addr -> True
            "shared_datasets": {},  # addr -> {owner, iri, tx_id}
            "shared_models": {},  # addr -> {owner, iri, tx_id, task, dataset_addr, base_model_addr}
            "task_index": {},  # task iri -> {addr: True, ...} in share order
        }

    # Owner binding happens at account creation, not through a transaction:
    # the network owner exists before any transaction can run.
    def on_owner_account(self, address: str) -> None:
        current = self.state["owner"]
        if current is not None and current != address:
            raise CorruptLog(f"second owner account {address}; owner is {current}")
        self.state["owner"] = address

    # ------------------------------------------------------------ tx methods

    def op_register_node(self, ctx: CallContext, node_addr: str) -> None:
        if ctx.sender != self.state["owner"]:
            raise Revert("Unauthorized: only the network owner may register nodes")
        if node_addr in self.state["trusted"]:
            raise Revert(f"AlreadyRegistered: {node_addr} is already trusted")
        ctx.put(self.state["trusted"], node_addr, True)

    def op_share_dataset(self, ctx: CallContext, iri: str, addr: str) -> str:
        self.require_trusted(ctx.sender)
        self._require_fresh(addr)
        ctx.put(self.state["shared_datasets"], addr, {
            "owner": ctx.sender,
            "iri": iri,
            "tx_id": ctx.tx_id,
        })
        return ctx.tx_id

    def op_share_model(
        self,
        ctx: CallContext,
        iri: str,
        addr: str,
        task: str,
        dataset_addr: str,
        base_model_addr: str | None,
    ) -> str:
        self.require_trusted(ctx.sender)
        self._require_fresh(addr)
        if dataset_addr not in self.state["shared_datasets"]:
            raise Revert(f"IncompleteChain: training dataset {dataset_addr} is not shared")
        if base_model_addr is not None and base_model_addr not in self.state["shared_models"]:
            raise Revert(f"IncompleteChain: base model {base_model_addr} is not shared")
        ctx.put(self.state["shared_models"], addr, {
            "owner": ctx.sender,
            "iri": iri,
            "tx_id": ctx.tx_id,
            "task": task,
            "dataset_addr": dataset_addr,
            "base_model_addr": base_model_addr,
        })
        index = self.state["task_index"]
        if task not in index:
            ctx.put(index, task, {})
        ctx.put(index[task], addr, True)
        return ctx.tx_id

    def require_trusted(self, sender: str) -> None:
        if sender not in self.state["trusted"]:
            raise Revert("Unauthorized: caller is not a registered node")

    def _require_fresh(self, addr: str) -> None:
        if not is_address(addr):
            raise Revert(f"MalformedArgs: {addr!r} is not a content address")
        if addr in self.state["shared_datasets"] or addr in self.state["shared_models"]:
            raise Revert(f"AlreadyShared: {addr} is already registered")

    # ------------------------------------------------------------- read-only

    def query_task(self, task: str) -> list[tuple[str, str, str]]:
        """``(addr, owner account, iri)`` of each model registered for ``task``, in share order."""
        models = self.state["shared_models"]
        return [(a, (e := models[a])["owner"], e["iri"]) for a in self.state["task_index"].get(task, ())]

    def dataset_entry(self, addr: str) -> dict | None:
        entry = self.state["shared_datasets"].get(addr)
        return dict(entry) if entry else None

    def model_entry(self, addr: str) -> dict | None:
        entry = self.state["shared_models"].get(addr)
        return dict(entry) if entry else None

    def owner_of_resource(self, addr: str) -> str | None:
        entry = self.state["shared_datasets"].get(addr) or self.state["shared_models"].get(addr)
        return entry["owner"] if entry else None

    # No product code calls these IRI scans (references resolve through the
    # named node's own graph, see ``Network.resolve``); they stay only
    # because the benchmark's span tracer wraps them by name.
    def find_model_by_iri(self, iri: str) -> str | None:
        """Content address of the registered model with this iri, if any."""
        for addr in sorted(self.state["shared_models"]):
            if self.state["shared_models"][addr]["iri"] == iri:
                return addr
        return None

    def find_dataset_by_iri(self, iri: str) -> str | None:
        for addr in sorted(self.state["shared_datasets"]):
            if self.state["shared_datasets"][addr]["iri"] == iri:
                return addr
        return None

    def check_closure(self) -> str | None:
        """Verify the chain rule over the whole registry. None means intact."""
        datasets = self.state["shared_datasets"]
        models = self.state["shared_models"]
        for addr in sorted(models):
            seen: set[str] = set()
            cur_addr = addr
            while True:
                if cur_addr in seen:
                    return f"cycle through {cur_addr}"
                seen.add(cur_addr)
                entry = models[cur_addr]
                if entry["dataset_addr"] not in datasets:
                    return f"model {cur_addr} references unshared dataset {entry['dataset_addr']}"
                base = entry["base_model_addr"]
                if base is None:
                    break
                if base not in models:
                    return f"model {cur_addr} references unshared base {base}"
                cur_addr = base
        for task, addrs in self.state["task_index"].items():
            for addr in addrs:
                if addr not in models or models[addr]["task"] != task:
                    return f"task index entry {task} -> {addr} is inconsistent"
        for addr, entry in models.items():
            if addr not in self.state["task_index"].get(entry["task"], {}):
                return f"model {addr} is not listed under {entry['task']}"
        overlap = set(datasets) & set(models)
        if overlap:
            return f"addresses registered in both roles: {sorted(overlap)}"
        return None

    def state_dict(self) -> dict:
        return {
            "owner": self.state["owner"],
            "trusted": sorted(self.state["trusted"]),
            "shared_datasets": {a: dict(e) for a, e in sorted(self.state["shared_datasets"].items())},
            "shared_models": {a: dict(e) for a, e in sorted(self.state["shared_models"].items())},
            "task_index": {t: list(a) for t, a in sorted(self.state["task_index"].items())},
        }


class IslContract(Contract):
    """Pricing, payment, and access tokens.

    Holds a reference to the oracle for trust/ownership checks but never
    mutates it; the reference is wiring, not state, so ``state_dict`` leaves
    it out.
    """

    name = "isl"
    ARGS = {"set_price": (STR, INT), "acquire": (STR,)}

    def __init__(self, oracle: OracleContract) -> None:
        super().__init__()
        self.oracle = oracle
        self.state = {
            "prices": {},  # addr -> posted price
            "acquisitions": {},  # token -> {buyer, resource, granted_at_seq}
            "tokens": {},  # token -> True
        }

    # ------------------------------------------------------------ tx methods

    def op_set_price(self, ctx: CallContext, addr: str, price: int) -> None:
        if price < 0:
            raise Revert(f"MalformedArgs: price must be a non-negative integer, got {price!r}")
        owner = self.oracle.owner_of_resource(addr)
        if owner is None:
            raise Revert(f"UnknownResource: {addr} is not registered")
        if owner != ctx.sender:
            raise Revert("Unauthorized: only the resource owner may set its price")
        ctx.put(self.state["prices"], addr, price)

    def op_acquire(self, ctx: CallContext, addr: str) -> dict:
        self.oracle.require_trusted(ctx.sender)
        owner = self.oracle.owner_of_resource(addr)
        if owner is None:
            raise Revert(f"UnknownResource: {addr} is not registered")
        price = self.state["prices"].get(addr, 0)
        if ctx.value != price:
            raise Revert(f"WrongPayment: posted price is {price}, payment was {ctx.value}")
        ctx.pay_out(owner, ctx.value)
        token = hashlib.sha256(f"{ctx.seq}:{addr}:{ctx.sender}".encode()).hexdigest()
        ctx.put(self.state["acquisitions"], token, {
            "buyer": ctx.sender,
            "resource": addr,
            "granted_at_seq": ctx.seq,
        })
        ctx.put(self.state["tokens"], token, True)
        return {"token": token, "resource_location": addr}

    # ------------------------------------------------------------- read-only

    def price_of(self, addr: str) -> int:
        return self.state["prices"].get(addr, 0)

    def validate_token(self, token: str, addr: str, caller: str) -> bool:
        record = self.state["acquisitions"].get(token)
        return bool(
            record
            and record["buyer"] == caller
            and record["resource"] == addr
            and self.state["tokens"].get(token)
        )

    def state_dict(self) -> dict:
        return {
            "prices": dict(sorted(self.state["prices"].items())),
            "acquisitions": {t: dict(e) for t, e in sorted(self.state["acquisitions"].items())},
            "tokens": dict(sorted(self.state["tokens"].items())),
        }
