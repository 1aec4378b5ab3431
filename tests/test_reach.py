"""Product reach: every ``src/islsim`` function that no product path enters is named here.

The bundled scenarios (``run``, then ``replay`` and each ``inspect`` view)
and one fixed API workflow run under ``sys.setprofile``. Every function or
method defined in ``src/islsim`` that none of them enters must be in
``UNREACHED``, with the reason it stays; a function that leaves the list
(now reached, or deleted) must leave ``UNREACHED`` too. So a function only
tests reach fails here until it is deleted or its reason is written down.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from islsim import cli
from islsim.errors import Unauthorized, WrongPayment
from islsim.mlsim import RoomProfile
from islsim.node import Network

SRC = Path(cli.__file__).resolve().parent  # the package under test, wherever it is imported from
SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.isl"))

TRACER = "tracer target: perfbench/tracing.py wraps it by name and fails on a missing name"
ROWS = "criterion 8 builds a dataset from rows and reads rows"
UNREACHED = {
    "cas.BlobStore.contains": "criterion 6 checks that a tampered blob is not kept",
    "cas.BlobStore.path_for": "criterion 6 tampers with a stored blob at this path",
    "cli._differences": "refusal path: names where a chainstate.json that is not MATCH differs "
                        "(test_cli.py, test_a_planted_entry_is_named_as_the_first_difference)",
    "contracts.IslContract.price_of": TRACER,
    "contracts.OracleContract.check_closure": "criterion 1 checks the chain rule over the registry",
    "contracts.OracleContract.find_dataset_by_iri": TRACER,
    "contracts.OracleContract.find_model_by_iri": TRACER,
    "contracts.OracleContract.query_task": TRACER,
    "kgstore.KnowledgeGraph.datasets": TRACER,
    "kgstore.KnowledgeGraph.discard": "refusal path: drops a record whose blob put failed "
                                      "(test_node.py, test_failed_put_drops_the_record)",
    "kgstore.KnowledgeGraph.models": TRACER,
    "kgstore.KnowledgeGraph.triples": "perfbench reports its size as kgstore.triples",
    "ledger.Ledger.canonical_state": "criterion 4 compares states by it",
    "ledger.Ledger.total_supply": "criterion 5 checks conservation by it",
    "ledger.Receipt.revert_reason": "criteria 2 and 4 read a refusal's text from it",
    "ledger.Receipt.status": "criteria 1 to 5 read it, and perfbench counts reverts by it",
    "ledger._quote": "refusal path: bounds the log line a CorruptLog quotes "
                     "(test_ledger.py, test_a_huge_line_rejected_on_replay_is_quoted_in_part)",
    "mlsim.TabularDataset.__init__": ROWS,
    "mlsim.TabularDataset.rows": ROWS,
    "mlsim.mse_gradient": "criterion 8 checks it against finite differences",
}


def _functions() -> dict[str, tuple[str, str, range]]:
    """``module.qualname`` -> (file, name, the lines its code object may start on).

    A decorated function's code object starts on its first decorator on
    some Python versions and on its ``def`` line on others; both count.
    """
    found = {}

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[prefix + child.name] = (path, child.name, range(first, child.lineno + 1))
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", str(path))
    return found


def _api_workflow(root: Path) -> None:
    """A dataset share and acquire, a refused share and a wrong payment, through the API."""
    net = Network.create(root, owner_balance=1_000)
    for name in ("alice", "bob", "mallory"):
        net.add_node(name, 500)
    net.register_node("alice")
    net.register_node("bob")
    alice, bob, mallory = net.node("alice"), net.node("bob"), net.node("mallory")
    alice.create_local_dataset("d1", seed=11, profile=RoomProfile(2.0, 1.0, 0.05), n_rows=40)
    dataset = alice.share_dataset("d1")
    bob.acquire_model(dataset.content_address, payment=0)
    mallory.create_local_dataset("d1", seed=7, profile=RoomProfile(1.0, 0.0, 0.1), n_rows=20)
    with pytest.raises(Unauthorized):
        mallory.share_dataset("d1")
    alice.train_model("m1", "d1", "occupancy_detection")
    model = alice.share_model("m1")
    alice.set_price("m1", 10)
    with pytest.raises(WrongPayment):
        bob.acquire_model(model.content_address, payment=9)
    net.persist()


def _product_paths(tmp_path: Path) -> None:
    for scenario in SCENARIOS:
        ws = str(tmp_path / scenario.stem)
        cli.main(["run", str(scenario), "--workspace", ws])
        cli.main(["replay", ws])
        for view in ("registry", "balances"):
            cli.main(["inspect", ws, view])
        for node in sorted((tmp_path / scenario.stem / "nodes").iterdir()):
            cli.main(["inspect", ws, "graph", node.name])
    # the provenance view needs a shared model; the first scenario shares two
    ws = tmp_path / SCENARIOS[0].stem
    for addr in json.loads((ws / "chainstate.json").read_bytes())["oracle"]["shared_models"]:
        cli.main(["inspect", str(ws), "provenance", addr])
    _api_workflow(tmp_path / "api")


def test_every_function_no_product_path_enters_is_listed(tmp_path, capsys):
    entered: set[tuple[str, str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_name, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _product_paths(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    resolved = {path: str(Path(path).resolve()) for path, _, _ in entered}
    entered = {(resolved[path], name, line) for path, name, line in entered}
    unreached = sorted(
        qualname
        for qualname, (path, name, lines) in _functions().items()
        if not any((path, name, line) in entered for line in lines)
    )
    assert unreached == sorted(UNREACHED)
