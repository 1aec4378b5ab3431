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

Numbers are parsed for syntax only. Each bound is checked once, by the
layer that owns the value: the ledger (amounts), ``mlsim`` (ROWS, STEPS,
LR, SLOPE, INTERCEPT, NOISE) or the contract (a negative PRICE reverts).
Every ``raise ValueError`` in the package is such a check, made before
any write, so the runner reports it as malformed input (exit 2). A
``--workspace`` that is not a directory or not empty is malformed too.

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

The workspace is written once, by ``Network.persist`` (temp file plus
rename per file, ``chainstate.json`` last), when the scenario ends or
stops at its first failing command, so on failure it holds the state up
to and including that command. ``replay`` re-executes ``ledger.log`` and prints MATCH only if
the result serializes to the very bytes of ``chainstate.json`` and that
file's ``meta`` names the replayed owner and maps node names one to one
onto the non-owner accounts the log created, each the one in its node's
``account.txt``; a log line or file ending the writer would not write
is ``CorruptLog``. A missing file, or a ``chainstate.json`` that is not
a JSON object, is ``UnknownWorkspace``; any other is MISMATCH, and stderr
gets a reason line: the first key path, in sorted key order, where the
file differs from the replayed state plus its own ``meta`` (``meta`` if
only it is wrong), or that the bytes are not the writer's.

``inspect registry|balances|provenance`` prints only the replayed state
and refuses (``UnknownWorkspace``, with that reason) a workspace
``replay`` would not call MATCH; ``inspect graph`` prints a node's
``kg.nt`` byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from .cas import is_address
from .contracts import ChainStep, walk_provenance
from .errors import CorruptLog, IslError, ParseError, UnknownWorkspace
from .kgstore import ModelRecord
from .ledger import Ledger, canonical_json, parse_log_line, replay
from .mlsim import RoomProfile
from .node import (
    ACCOUNT_FILE, CHAINSTATE_FILE, LEDGER_FILE, IslNode, Network, chainstate_bytes, is_node_name,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except IslError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="islsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file into a workspace")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument("--workspace", required=True, help="new or empty directory to build")
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario {path} is not UTF-8: {exc}") from None
    commands = _parse_scenario(text)
    workspace = Path(ns.workspace)
    if workspace.is_dir() and any(workspace.iterdir()):
        raise ParseError(f"workspace {workspace} is not empty")
    runner = ScenarioRunner(workspace)
    return runner.run(commands)


def _parse_scenario(text: str) -> list[list[str]]:
    commands = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        commands.append([f"{lineno}"] + line.split())
    return commands


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}") from None


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
        try:
            self.workspace.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ParseError(f"workspace {self.workspace} is not a directory") from None
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
            least = "" if hi is not None else "at least "
            raise ParseError(f"line {lineno}: {name} takes {least}{lo} arguments, got {len(args)}")
        if name == "create-network":
            if self.network is not None:
                raise ParseError(f"line {lineno}: create-network given twice")
        elif self.network is None:
            raise ParseError(f"line {lineno}: create-network must come first")
        try:
            getattr(self, handler)(*args)
        except ValueError as exc:  # an owner's bound check; each runs before any write
            raise ParseError(f"line {lineno}: {exc}") from None

    def _persist(self) -> None:
        # an empty scenario still leaves a well-formed genesis workspace
        net = self.network or Network(self.workspace, replay((), Network.contract_factory))
        net.persist()

    def _net(self) -> Network:
        assert self.network is not None
        return self.network

    def _node(self, name: str) -> IslNode:
        return self._net().node(name)

    # ---------------------------------------------------------------- commands

    def _do_create_network(self, balance: str) -> None:
        self.network = Network.create(self.workspace, _int(balance, "OWNER_BALANCE"))
        net = self.network
        print(f"network owner={net.owner_account} balance={net.ledger.balance_of(net.owner_account)}")

    def _do_add_node(self, name: str, balance: str) -> None:
        node = self._net().add_node(name, _int(balance, "BALANCE"))
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
        node = self._node(name)
        seed_n, n_rows = _int(seed, "SEED"), _int(rows, "ROWS")
        descriptor = node.create_local_dataset(dsid, seed_n, profile, n_rows)
        print(f"dataset {descriptor.iri} rows={n_rows} uri={descriptor.local_uri}")

    def _do_train(self, name: str, model_id: str, dsid: str, task: str) -> None:
        record = self._node(name).train_model(model_id, dsid, task)
        print(f"model {record.iri} mse={record.mse!r} mae={record.mae!r}")

    def _do_fine_tune(
        self, name: str, model_id: str, base: str, dsid: str, steps: str, lr: str
    ) -> None:
        node = self._node(name)
        record = node.fine_tune_model(model_id, base, dsid, _int(steps, "STEPS"), _float(lr, "LR"))
        print(f"model {record.iri} mse={record.mse!r} mae={record.mae!r}")

    def _do_share(self, name: str, resid: str) -> None:
        node = self._node(name)
        ref = self._net().resolve(resid, name)
        if ref.kind is None:
            raise ParseError(f"share takes a resource id or IRI, not the address {resid!r}")
        shared = node.share_model(ref.iri) if ref.kind is ModelRecord else node.share_dataset(ref.iri)
        print(f"shared {shared.iri} addr={shared.content_address} tx={shared.tx_id}")

    def _do_set_price(self, name: str, resid: str, price: str) -> None:
        node = self._node(name)
        value = _int(price, "PRICE")
        addr = node.set_price(resid, value)
        print(f"price addr={addr} value={value}")

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
        payment = _int(price, "PRICE")
        record = node.acquire_model(addr, payment)
        print(f"acquired {addr} price={payment} from={record.owner_node}")

    def _do_trace(self, ref: str) -> None:
        net = self._net()
        for line in _format_chain(walk_provenance(net.oracle, net.shared_address(ref))):
            print(line)


# ----------------------------------------------------------------- inspect

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
        if not is_node_name(ns.arg or ""):
            raise ParseError(f"inspect graph needs a node name, got {ns.arg!r}")
        kg_path = workspace / "nodes" / ns.arg / "kg.nt"
        if not kg_path.is_file():
            raise UnknownWorkspace(f"no persisted graph for node {ns.arg!r}")
        sys.stdout.flush()
        sys.stdout.buffer.write(kg_path.read_bytes())
        return 0
    if ns.what == "provenance" and not (ns.arg and is_address(ns.arg)):
        raise ParseError("inspect provenance needs a content address")

    replica, reason = _replayed(workspace)
    if reason:
        raise UnknownWorkspace(f"{workspace} does not replay: its {CHAINSTATE_FILE} {reason}")
    if ns.what == "provenance":
        for line in _format_chain(walk_provenance(replica.contract("oracle"), ns.arg)):
            print(line)
        return 0
    state = replica.state_dict()
    if ns.what == "balances":
        for addr, bal in state["balances"].items():
            print(f"{addr} {bal}")
        for name, bal in state["contract_balances"].items():
            print(f"contract:{name} {bal}")
        return 0
    for addr, e in state["oracle"]["shared_datasets"].items():
        print(f"dataset {addr} iri={e['iri']} owner={e['owner']} tx={e['tx_id']}")
    for addr, e in state["oracle"]["shared_models"].items():
        base = e["base_model_addr"] or "NULL"
        print(
            f"model {addr} iri={e['iri']} task={e['task']} "
            f"dataset={e['dataset_addr']} base={base} owner={e['owner']} tx={e['tx_id']}"
        )
    return 0


# ------------------------------------------------------------------ replay

def _replayed(workspace: Path) -> tuple[Ledger, str]:
    """The replayed ledger, and why ``chainstate.json`` is not what the writer writes ("" if it is).

    Each log line is parsed as replay takes it, so ``CorruptLog`` names the
    first bad line in log order.
    """
    log_path = workspace / LEDGER_FILE
    if not log_path.is_file():
        raise UnknownWorkspace(f"{workspace} has no {LEDGER_FILE}")
    state_path = workspace / CHAINSTATE_FILE
    if not state_path.is_file():
        raise UnknownWorkspace(f"{workspace} has no {CHAINSTATE_FILE}")
    data = state_path.read_bytes()
    try:
        stored = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise UnknownWorkspace(f"unreadable {CHAINSTATE_FILE}: {exc}") from None
    if not isinstance(stored, dict):
        raise UnknownWorkspace(f"{CHAINSTATE_FILE} is not a JSON object")
    meta = stored.get("meta")
    del stored  # the replica rebuilds the state; only a mismatch parses the file again
    replica = _replay_log(log_path)
    state = replica.state_dict()
    if (holds := _meta_holds(meta, state, workspace)) and chainstate_bytes(state, meta) == data:
        return replica, ""
    path = next(_differences(json.loads(data), {**state, "meta": meta}), None if holds else ("meta",))
    if path is None:
        return replica, "holds the replayed state, but not in the bytes the writer writes"
    # escaped, so a planted key cannot break the reason's one line
    return replica, f"differs from the replay at {'.'.join(path).encode('unicode_escape').decode()}"


def _differences(found: object, want: object, path: tuple = ()) -> Iterator[tuple]:
    """Each key path, in sorted key order, where ``found`` differs from ``want``."""
    if isinstance(found, dict) and isinstance(want, dict):
        for key in sorted(found.keys() | want.keys()):
            if key in found and key in want:
                yield from _differences(found[key], want[key], path + (key,))
            else:
                yield path + (key,)
    # == first: it stops where the two stop being alike, so only shallow values are encoded
    elif not (found == want and canonical_json(found) == canonical_json(want)):
        yield path


def _meta_holds(meta: object, state: dict, workspace: Path) -> bool:
    """Whether ``meta`` is what ``Network.persist`` writes beside the replayed ``state``: its
    oracle's owner, and node names mapped one to one onto the non-owner accounts the log
    created. The log holds no names, so each account must be the one in its node's
    ``account.txt``; a renaming of the node directories as well still holds."""
    owner = state["oracle"]["owner"]
    if not (isinstance(meta, dict) and meta.keys() == {"owner", "nodes"} and meta["owner"] == owner
            and isinstance(meta["nodes"], dict) and all(map(is_node_name, meta["nodes"]))):
        return False
    nodes, accounts = workspace / "nodes", meta["nodes"]
    return sorted(accounts.values(), key=str) == sorted(state["balances"].keys() - {owner}) and all(
        _holds(nodes / name / ACCOUNT_FILE, f"{a}\n".encode()) for name, a in accounts.items())


def _holds(path: Path, data: bytes) -> bool:
    try:
        return path.read_bytes() == data
    except OSError:
        return False


def _replay_log(log_path: Path) -> Ledger:
    """The ledger ``log_path`` replays to; its text is gone once this returns.

    The bytes are split at ``\\n`` only, so a ``\\r`` stays in its line.
    """
    try:
        lines = log_path.read_bytes().decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise CorruptLog(f"{LEDGER_FILE} is not ASCII: {exc}") from None
    if lines.pop():
        raise CorruptLog(f"{LEDGER_FILE} does not end with a newline")
    return replay(map(parse_log_line, lines), Network.contract_factory)


def _cmd_replay(ns: argparse.Namespace) -> int:
    _, reason = _replayed(Path(ns.workspace))
    print("MISMATCH" if reason else "MATCH")
    if reason:
        print(f"MISMATCH: {CHAINSTATE_FILE} {reason}", file=sys.stderr)
    return 1 if reason else 0


if __name__ == "__main__":
    sys.exit(main())
