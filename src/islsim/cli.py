"""Command line front end: scenario runner, workspace inspector, replayer.

Exit codes: 0 success, 1 workflow failure (an operation was refused or
could not complete), 2 malformed input (bad scenario text or bad
arguments). Errors go to stderr as ``ErrorName: detail``.

A scenario is a text file of whitespace-separated commands, one per
line, ``#`` starting a comment::

    create-network OWNER_BALANCE
    add-node NAME BALANCE
    register-node NAME
    gen-data NAME DSID SEED SLOPE INTERCEPT NOISE ROWS
    train NAME MODELID DSID TASK
    fine-tune NAME MODELID BASEREF DSID STEPS LR
    share NAME RESID
    set-price NAME RESID PRICE
    query NAME TASK SENSOR [SENSOR ...]
    acquire NAME REF PRICE
    trace REF

A number outside what the chain or the models take (a negative
balance or payment, an amount beyond 2**256 - 1, fewer than one row,
negative STEPS, an LR that is not positive) is malformed input.

A resource reference (DSID, BASEREF, RESID, REF) has one grammar, read
by ``Network.resolve``: a 64-hex content address is taken as given (in
``set-price``, ``acquire`` and ``trace``, which need no IRI);
``isl://<node>/<model|dataset>/<id>`` names its node and kind;
``node/id`` splits at the first ``/``; and a bare id names a resource
of NAME (``trace`` has no NAME, so it needs one of the other forms).
Where the command does not fix the kind, the kind and the shared
address come from the named node's own graph, never from the registry;
an unknown node or an id that is both a model and a dataset there is
malformed input.

The workspace is written once, via temp file plus rename, when the
scenario ends or stops at its first failing command, so on failure it
holds the state up to and including that command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cas import is_address, write_atomic
from .contracts import OracleContract
from .errors import CorruptLog, IslError, ParseError, UnknownWorkspace
from .ledger import WORD, Ledger, canonical_json, log_lines, parse_log_line, replay
from .mlsim import RoomProfile
from .node import ChainStep, IslNode, Network, walk_provenance

LEDGER_FILE = "ledger.log"
CHAINSTATE_FILE = "chainstate.json"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except IslError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="islsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file into a workspace")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument("--workspace", required=True, help="directory to (re)build")
    run.set_defaults(func=_cmd_run)

    inspect = sub.add_parser("inspect", help="read a persisted workspace")
    inspect.add_argument("workspace")
    inspect.add_argument(
        "what", choices=("registry", "balances", "provenance", "graph")
    )
    inspect.add_argument("arg", nargs="?", help="address for provenance, node for graph")
    inspect.set_defaults(func=_cmd_inspect)

    rep = sub.add_parser("replay", help="re-execute a workspace's transaction log")
    rep.add_argument("workspace")
    rep.set_defaults(func=_cmd_replay)
    return parser


# ---------------------------------------------------------------------- run

def _cmd_run(ns: argparse.Namespace) -> int:
    path = Path(ns.scenario)
    if not path.is_file():
        raise ParseError(f"no scenario file {path}")
    commands = _parse_scenario(path.read_text(encoding="utf-8"))
    runner = ScenarioRunner(Path(ns.workspace))
    return runner.run(commands)


def _parse_scenario(text: str) -> list[list[str]]:
    commands = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        commands.append([f"{lineno}"] + line.split())
    return commands


def _int(token: str, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``token`` as an int in [lo, hi]; a bound that is None is open."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}") from None
    if lo is not None and value < lo:
        raise ParseError(f"{what} must be at least {lo}, got {token!r}")
    if hi is not None and value > hi:
        raise ParseError(f"{what} must be at most {hi}, got {token!r}")
    return value


def _float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {token!r}") from None


class ScenarioRunner:
    """Executes parsed scenario commands against one workspace directory."""

    HANDLERS = {
        "create-network": ("_do_create_network", 1, 1),
        "add-node": ("_do_add_node", 2, 2),
        "register-node": ("_do_register_node", 1, 1),
        "gen-data": ("_do_gen_data", 7, 7),
        "train": ("_do_train", 4, 4),
        "fine-tune": ("_do_fine_tune", 6, 6),
        "share": ("_do_share", 2, 2),
        "set-price": ("_do_set_price", 3, 3),
        "query": ("_do_query", 3, None),
        "acquire": ("_do_acquire", 3, 3),
        "trace": ("_do_trace", 1, 1),
    }

    def __init__(self, workspace: Path) -> None:
        self.workspace = workspace
        self.network: Network | None = None

    def run(self, commands: list[list[str]]) -> int:
        self.workspace.mkdir(parents=True, exist_ok=True)
        try:
            for lineno, name, *args in commands:
                self._dispatch(lineno, name, args)
        finally:
            self._persist()
        return 0

    def _dispatch(self, lineno: str, name: str, args: list[str]) -> None:
        entry = self.HANDLERS.get(name)
        if entry is None:
            raise ParseError(f"line {lineno}: unknown command {name!r}")
        handler, lo, hi = entry
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ParseError(f"line {lineno}: {name} takes {lo} arguments, got {len(args)}")
        if name == "create-network":
            if self.network is not None:
                raise ParseError(f"line {lineno}: create-network given twice")
        elif self.network is None:
            raise ParseError(f"line {lineno}: create-network must come first")
        getattr(self, handler)(*args)

    def _persist(self) -> None:
        net = self.network
        if net is None:
            # an empty scenario still leaves a well-formed genesis workspace
            ledger = Ledger()
            for contract in Network.contract_factory():
                ledger.register_contract(contract)
            meta = {"owner": None, "nodes": {}}
        else:
            ledger = net.ledger
            meta = {
                "owner": net.owner_account,
                "nodes": {name: net.node(name).account for name in net.node_names()},
            }
        lines = log_lines(ledger)
        text = "\n".join(lines) + ("\n" if lines else "")
        write_atomic(self.workspace / LEDGER_FILE, text.encode("ascii"))
        payload = ledger.state_dict()  # what replay must reproduce
        payload["meta"] = meta
        write_atomic(self.workspace / CHAINSTATE_FILE, canonical_json(payload) + b"\n")
        if net is not None:
            net.persist()

    def _net(self) -> Network:
        assert self.network is not None
        return self.network

    def _node(self, name: str) -> IslNode:
        return self._net().node(name)

    # ---------------------------------------------------------------- commands

    def _do_create_network(self, balance: str) -> None:
        self.network = Network.create(self.workspace, _int(balance, "OWNER_BALANCE", 0, WORD))
        net = self.network
        print(f"network owner={net.owner_account} balance={net.ledger.balance_of(net.owner_account)}")

    def _do_add_node(self, name: str, balance: str) -> None:
        node = self._net().add_node(name, _int(balance, "BALANCE", 0, WORD))
        print(f"node {name} account={node.account} balance={node.balance}")

    def _do_register_node(self, name: str) -> None:
        receipt = self._net().register_node(name)
        print(f"registered {name} tx={receipt.tx_id}")

    def _do_gen_data(
        self, name: str, dsid: str, seed: str, slope: str, intercept: str, noise: str, rows: str
    ) -> None:
        profile = RoomProfile(
            _float(slope, "SLOPE"), _float(intercept, "INTERCEPT"), _float(noise, "NOISE")
        )
        descriptor = self._node(name).create_local_dataset(
            dsid, _int(seed, "SEED"), profile, _int(rows, "ROWS", 1)
        )
        print(f"dataset {descriptor.iri} rows={_int(rows, 'ROWS')} uri={descriptor.local_uri}")

    def _do_train(self, name: str, model_id: str, dsid: str, task: str) -> None:
        record = self._node(name).train_model(model_id, dsid, task)
        print(f"model {record.iri} mse={record.mse!r} mae={record.mae!r}")

    def _do_fine_tune(
        self, name: str, model_id: str, base: str, dsid: str, steps: str, lr: str
    ) -> None:
        node = self._node(name)
        n_steps = _int(steps, "STEPS", 0)
        learning_rate = _float(lr, "LR")
        if not learning_rate > 0:
            raise ParseError(f"LR must be positive, got {lr!r}")
        record = node.fine_tune_model(model_id, base, dsid, n_steps, learning_rate)
        print(f"model {record.iri} mse={record.mse!r} mae={record.mae!r}")

    def _do_share(self, name: str, resid: str) -> None:
        node = self._node(name)
        ref = self._net().resolve(resid, name)
        if ref.kind is None:
            raise ParseError(f"share takes a resource id or IRI, not the address {resid!r}")
        shared = node.share_model(ref.iri) if ref.kind == "model" else node.share_dataset(ref.iri)
        print(f"shared {shared.iri} addr={shared.content_address} tx={shared.tx_id}")

    def _do_set_price(self, name: str, resid: str, price: str) -> None:
        node = self._node(name)
        # a negative price is left to the contract, which reverts MalformedArgs
        addr = node.set_price(resid, _int(price, "PRICE", -WORD, WORD))
        print(f"price addr={addr} value={_int(price, 'PRICE')}")

    def _do_query(self, name: str, task: str, *sensors: str) -> None:
        matches = self._node(name).query_models(task, set(sensors))
        for rank, m in enumerate(matches, start=1):
            print(
                f"match rank={rank} addr={m.address} mse={m.mse!r} "
                f"price={m.price} owner={m.owner_node}"
            )

    def _do_acquire(self, name: str, ref: str, price: str) -> None:
        node = self._node(name)
        addr = self._net().shared_address(ref, name)
        record = node.acquire_model(addr, _int(price, "PRICE", 0, WORD))
        print(f"acquired {addr} price={_int(price, 'PRICE')} from={record.owner_node}")

    def _do_trace(self, ref: str) -> None:
        net = self._net()
        for line in _format_chain(walk_provenance(net.oracle, net.shared_address(ref))):
            print(line)


# ----------------------------------------------------------------- inspect

# the registry entry fields that ``inspect registry`` and ``inspect provenance`` read
_ENTRY_KEYS = {
    "shared_datasets": ("iri", "owner", "tx_id"),
    "shared_models": ("iri", "owner", "tx_id", "task", "dataset_addr", "base_model_addr"),
}


def _load_chainstate(workspace: Path) -> dict:
    path = workspace / CHAINSTATE_FILE
    if not path.is_file():
        raise UnknownWorkspace(f"{workspace} has no {CHAINSTATE_FILE}")
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or not UTF-8
        raise UnknownWorkspace(f"unreadable {CHAINSTATE_FILE}: {exc}") from None
    if not isinstance(state, dict):
        raise UnknownWorkspace(f"{CHAINSTATE_FILE} is not a JSON object")
    for key in ("balances", "contract_balances", "oracle", "isl"):
        if not isinstance(state.get(key), dict):
            raise UnknownWorkspace(f"{CHAINSTATE_FILE} has no {key!r} object")
    return state


def _check_registry(state: dict) -> None:
    """Refuse registry tables and entries that ``inspect`` could not read."""
    for table, keys in _ENTRY_KEYS.items():
        entries = state["oracle"].get(table)
        if not isinstance(entries, dict):
            raise UnknownWorkspace(f"{CHAINSTATE_FILE} has no oracle {table!r} object")
        for addr, entry in entries.items():
            if not _is_entry(entry, keys):
                raise UnknownWorkspace(f"{CHAINSTATE_FILE} has a malformed {table} entry {addr}")


def _is_entry(entry: object, keys: tuple[str, ...]) -> bool:
    """An object with every key; each value is a string, but a model's base may be null."""
    if not isinstance(entry, dict) or not all(k in entry for k in keys):
        return False
    return all(
        isinstance(entry[k], str) or (k == "base_model_addr" and entry[k] is None) for k in keys
    )


def _format_chain(steps: list[ChainStep]) -> list[str]:
    """One line per provenance step, root first."""
    return [
        f"step {i}: model={s.model_iri} addr={s.model_addr} "
        f"dataset={s.dataset_iri} tx={s.tx_id} owner={s.owner}"
        for i, s in enumerate(steps, start=1)
    ]


def _cmd_inspect(ns: argparse.Namespace) -> int:
    workspace = Path(ns.workspace)
    if not workspace.is_dir():
        raise UnknownWorkspace(f"no workspace directory {workspace}")
    if ns.what == "graph":
        if not ns.arg:
            raise ParseError("inspect graph needs a node name")
        kg_path = workspace / "nodes" / ns.arg / "kg.nt"
        if not kg_path.is_file():
            raise UnknownWorkspace(f"no persisted graph for node {ns.arg!r}")
        sys.stdout.write(kg_path.read_text(encoding="utf-8"))
        return 0

    state = _load_chainstate(workspace)
    _check_registry(state)
    if ns.what == "balances":
        for addr, bal in sorted(state["balances"].items()):
            print(f"{addr} {bal}")
        for name, bal in sorted(state["contract_balances"].items()):
            print(f"contract:{name} {bal}")
        return 0
    if ns.what == "registry":
        oracle = state["oracle"]
        for addr, e in sorted(oracle["shared_datasets"].items()):
            print(f"dataset {addr} iri={e['iri']} owner={e['owner']} tx={e['tx_id']}")
        for addr, e in sorted(oracle["shared_models"].items()):
            base = e["base_model_addr"] or "NULL"
            print(
                f"model {addr} iri={e['iri']} task={e['task']} "
                f"dataset={e['dataset_addr']} base={base} owner={e['owner']} tx={e['tx_id']}"
            )
        return 0
    if ns.what == "provenance":
        if not ns.arg or not is_address(ns.arg):
            raise ParseError("inspect provenance needs a content address")
        registry = OracleContract()
        for table in ("shared_datasets", "shared_models"):
            registry.state[table] = state["oracle"][table]
        for line in _format_chain(walk_provenance(registry, ns.arg)):
            print(line)
        return 0
    raise ParseError(f"unknown inspect target {ns.what!r}")


# ------------------------------------------------------------------ replay

def _cmd_replay(ns: argparse.Namespace) -> int:
    workspace = Path(ns.workspace)
    log_path = workspace / LEDGER_FILE
    if not log_path.is_file():
        raise UnknownWorkspace(f"{workspace} has no {LEDGER_FILE}")
    stored = _load_chainstate(workspace)
    try:
        text = log_path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise CorruptLog(f"{LEDGER_FILE} is not ASCII: {exc}") from None
    entries = [parse_log_line(line) for line in text.split("\n") if line]
    replica = replay(entries, Network.contract_factory)
    expected = {k: v for k, v in stored.items() if k != "meta"}
    if replica.canonical_state() == canonical_json(expected):
        print("MATCH")
        return 0
    # a file equal to the replayed state is well formed; only a mismatch is checked
    _check_registry(stored)
    print("MISMATCH")
    return 1


if __name__ == "__main__":
    sys.exit(main())
