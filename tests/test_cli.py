"""Scenario runner, inspector, and replayer behavior through the public CLI."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islsim import cli, errors, kgstore
from islsim.contracts import OracleContract
from islsim.ledger import canonical_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# `islsim run` output of each bundled scenario: stdout, exit code, and one
# "<relative path> <sha256>" line per file the run leaves in its workspace
GOLDEN = Path(__file__).resolve().parent / "golden"

TWO_NODE = SCENARIOS / "two_node_share_acquire.isl"
TRANSFER = SCENARIOS / "transfer_learning.isl"
UNAUTHORIZED = SCENARIOS / "unauthorized_share.isl"


def run(args: list[str]) -> int:
    return cli.main(args)


def chainstate_with_registry(datasets: object, models: object) -> str:
    """A chainstate.json text whose oracle holds only these two registry tables."""
    oracle = {"shared_datasets": datasets, "shared_models": models}
    return json.dumps({"balances": {}, "contract_balances": {}, "oracle": oracle, "isl": {}})


MODEL_ENTRY = {
    "iri": "isl://alice/model/m1", "owner": "a" * 40, "tx_id": "tx-2", "task": "t",
    "dataset_addr": "d" * 64, "base_model_addr": None,
}


def edit_chainstate(ws: Path, edit) -> None:
    """Rewrite ``ws``'s chainstate.json with ``edit`` applied to its parsed state, in the
    bytes the writer would write, so only the edit can make replay say MISMATCH."""
    path = ws / cli.CHAINSTATE_FILE
    state = json.loads(path.read_bytes())
    edit(state)
    path.write_bytes(canonical_json(state) + b"\n")


def forge_model_owners(state: dict) -> None:
    for entry in state["oracle"]["shared_models"].values():
        entry["owner"] = "f" * 40


def bump_a_balance(state: dict) -> None:
    state["balances"][min(state["balances"])] += 1


def inspect_lines(state: dict, what: str) -> str:
    """What ``inspect balances|registry`` prints for a parsed chainstate.json."""
    if what == "balances":
        lines = [f"{addr} {bal}" for addr, bal in sorted(state["balances"].items())]
        lines += [f"contract:{name} {bal}" for name, bal in sorted(state["contract_balances"].items())]
    else:
        oracle = state["oracle"]
        lines = [
            f"dataset {addr} iri={e['iri']} owner={e['owner']} tx={e['tx_id']}"
            for addr, e in sorted(oracle["shared_datasets"].items())
        ]
        lines += [
            f"model {addr} iri={e['iri']} task={e['task']} dataset={e['dataset_addr']} "
            f"base={e['base_model_addr'] or 'NULL'} owner={e['owner']} tx={e['tx_id']}"
            for addr, e in sorted(oracle["shared_models"].items())
        ]
    return "".join(f"{line}\n" for line in lines)


def files_of(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def scenario_file(tmp_path: Path, text: str) -> str:
    path = tmp_path / "scenario.isl"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestBundledScenarios:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.isl")), ids=lambda p: p.stem)
    def test_stdout_and_exit_code_match_the_golden_files(self, tmp_path, capsys, monkeypatch, scenario):
        def scan(self, iri):
            raise AssertionError(f"registry scanned for {iri}")

        # references resolve through the named node's graph, never a registry scan
        monkeypatch.setattr(OracleContract, "find_model_by_iri", scan)
        monkeypatch.setattr(OracleContract, "find_dataset_by_iri", scan)
        ws = tmp_path / "ws"
        code = run(["run", str(scenario), "--workspace", str(ws)])
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / f"{scenario.stem}.stdout").read_bytes()
        assert f"{code}\n" == (GOLDEN / f"{scenario.stem}.exit").read_text(encoding="ascii")
        files = "".join(
            f"{p.relative_to(ws).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
            for p in sorted(ws.rglob("*")) if p.is_file()
        )
        assert files == (GOLDEN / f"{scenario.stem}.files").read_text(encoding="ascii")

    def test_two_node_share_acquire(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        out = capsys.readouterr().out

        assert out.startswith("network owner=")
        assert re.search(r"^match rank=1 addr=[0-9a-f]{64} mse=0\.\d+ price=10 owner=alice$", out, re.M)
        assert re.search(r"^acquired [0-9a-f]{64} price=10 from=alice$", out, re.M)
        assert re.search(r"^step 1: model=isl://alice/model/m1 ", out, re.M)

        assert (ws / cli.LEDGER_FILE).is_file()
        assert (ws / cli.CHAINSTATE_FILE).is_file()
        for node in ("alice", "bob"):
            assert (ws / "nodes" / node / "kg.nt").is_file()
            assert (ws / "nodes" / node / "account.txt").is_file()

    def test_transfer_learning_balances(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(TRANSFER), "--workspace", str(ws)]) == 0
        capsys.readouterr()

        assert run(["inspect", str(ws), "balances"]) == 0
        balances = dict(
            line.split() for line in capsys.readouterr().out.strip().split("\n")
        )
        room2 = (ws / "nodes" / "room2" / "account.txt").read_text().strip()
        room3 = (ws / "nodes" / "room3" / "account.txt").read_text().strip()
        assert balances[room2] == "525"  # earned the posted price
        assert balances[room3] == "475"  # paid it
        assert balances["contract:isl"] == "0"

    def test_unauthorized_share_fails_cleanly(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(UNAUTHORIZED), "--workspace", str(ws)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Unauthorized: ")
        # the workspace still persisted everything up to the failure
        assert run(["replay", str(ws)]) == 0


class TestScenarioParsing:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("frobnicate 1\n", "unknown command 'frobnicate'"),
            ("create-network\n", "create-network takes 1 arguments, got 0"),
            ("create-network 100 extra\n", "create-network takes 1 arguments, got 2"),
            ("create-network 100\ncreate-network 100\n", "create-network given twice"),
            ("add-node a 5\n", "create-network must come first"),
            ("create-network abc\n", "OWNER_BALANCE must be an integer"),
            ("create-network 100\nadd-node a lots\n", "BALANCE must be an integer"),
            ("create-network 100\ngen-data a d 1 x 1.0 0.05 10\n", "SLOPE must be a number"),
            ("create-network 100\nadd-node a 5\nquery a occupancy_detection\n",
             "query takes at least 3 arguments, got 2"),
        ],
        ids=[
            "unknown-command",
            "too-few-args",
            "too-many-args",
            "double-create",
            "no-network",
            "bad-balance",
            "bad-node-balance",
            "bad-slope",
            "too-few-variadic-args",
        ],
    )
    def test_malformed_scenarios_exit_2(self, tmp_path, capsys, text, message):
        path = scenario_file(tmp_path, text)
        assert run(["run", path, "--workspace", str(tmp_path / "ws")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ") and message in err

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.isl"
        path.write_bytes(b"create-network 100\nadd-node \xff 5\n")
        assert run(["run", str(path), "--workspace", str(tmp_path / "ws")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ") and "Traceback" not in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.isl")
        assert run(["run", missing, "--workspace", str(tmp_path / "ws")]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_comments_and_blank_lines_ignored(self, tmp_path, capsys):
        path = scenario_file(
            tmp_path,
            "# a comment\n\ncreate-network 100  # trailing comment\n\n",
        )
        assert run(["run", path, "--workspace", str(tmp_path / "ws")]) == 0
        assert capsys.readouterr().out.startswith("network owner=")

    def test_empty_scenario_leaves_a_replayable_genesis(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        path = scenario_file(tmp_path, "# nothing happens\n")
        assert run(["run", path, "--workspace", str(ws)]) == 0
        assert (ws / cli.LEDGER_FILE).read_text() == ""
        assert run(["replay", str(ws)]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_ambiguous_bare_resource_id(self, tmp_path, capsys):
        # a node holding both a dataset and a model called "thing"
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a thing 1 2.0 1.0 0.05 20\n"
            "train a thing thing occupancy_detection\n"
            "share a thing\n",
        )
        assert run(["run", path, "--workspace", str(tmp_path / "ws")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ")
        assert "matches both" in err

    def test_workflow_error_surfaces_typed_name(self, tmp_path, capsys):
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a d1 1 2.0 1.0 0.05 20\n"
            "train a m1 d1 no_such_task\n",
        )
        assert run(["run", path, "--workspace", str(tmp_path / "ws")]) == 1
        assert capsys.readouterr().err.startswith("MalformedDescriptor: ")

    def test_iri_the_graph_cannot_write_is_refused(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node alice 100\n"
            "gen-data alice d>1 1 2.0 1.0 0.05 20\n",
        )
        assert run(["run", path, "--workspace", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("MalformedDescriptor: ")
        assert (ws / "nodes" / "alice" / "kg.nt").read_text() == ""

    @pytest.mark.parametrize(
        "refused, error",
        [
            ("gen-data alice d>1 2 2.0 1.0 0.05 20", "MalformedDescriptor"),
            ("gen-data alice d1 2 2.0 1.0 0.05 20", "DuplicateId"),
        ],
    )
    def test_refused_registration_leaves_no_blob(self, tmp_path, capsys, refused, error):
        prefix = "create-network 1000\nadd-node alice 100\ngen-data alice d1 1 2.0 1.0 0.05 20\n"

        def blobs(ws: Path) -> list[str]:
            return sorted(p.name for p in (ws / "nodes" / "alice" / "blobs").rglob("*") if p.is_file())

        assert run(["run", scenario_file(tmp_path, prefix), "--workspace", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        path = scenario_file(tmp_path, prefix + refused + "\n")
        assert run(["run", path, "--workspace", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err.startswith(f"{error}: ")
        assert blobs(tmp_path / "b") == blobs(tmp_path / "a") != []

    @pytest.mark.parametrize(
        "line",
        [
            "create-network -1",
            f"create-network {2**256}",
            "add-node b -5",
            f"add-node b {2**256}",
            "gen-data a d2 1 2.0 1.0 0.05 0",
            "gen-data a d2 1 nan 1.0 0.05 20",
            "gen-data a d2 1 2.0 inf 0.05 20",
            "gen-data a d2 1 2.0 1.0 -inf 20",
            "fine-tune a m2 m1 d1 -1 0.05",
            "fine-tune a m2 m1 d1 5 0",
            "fine-tune a m2 m1 d1 5 inf",
            f"set-price a m1 {2**256}",
            f"set-price a m1 -{2**256}",
            "acquire a a/m1 -1",
            f"acquire a a/m1 {2**256}",
        ],
        ids=[
            "owner-balance-negative",
            "owner-balance-beyond-word",
            "balance-negative",
            "balance-beyond-word",
            "zero-rows",
            "slope-nan",
            "intercept-inf",
            "noise-minus-inf",
            "negative-steps",
            "zero-learning-rate",
            "learning-rate-inf",
            "price-beyond-word",
            "price-below-minus-word",
            "payment-negative",
            "payment-beyond-word",
        ],
    )
    def test_out_of_range_numbers_are_parse_errors(self, tmp_path, capsys, line):
        ws = tmp_path / "ws"
        setup = "" if line.startswith("create-network") else (
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a d1 1 2.0 1.0 0.05 20\n"
            "train a m1 d1 occupancy_detection\n"
            "share a m1\n"
        )
        path = scenario_file(tmp_path, setup + line + "\n")
        assert run(["run", path, "--workspace", str(ws)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ")
        assert "Traceback" not in err
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_a_fine_tune_to_an_infinite_mse_is_refused(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a d1 11 2.0 1.0 0.05 40\n"
            "train a m1 d1 occupancy_detection\n"
            "fine-tune a m2 m1 d1 1 1e300\n"
            "share a m2\n",
        )
        assert run(["run", path, "--workspace", str(ws)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("MalformedDescriptor: MSE must be a finite non-negative number")
        assert "isl://a/model/m2" not in out
        assert "/m2" not in (ws / "nodes" / "a" / "kg.nt").read_text()
        assert len([p for p in (ws / "nodes" / "a" / "blobs").rglob("*") if p.is_file()]) == 2  # d1, m1
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_negative_price_reverts_as_malformed_args(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a d1 1 2.0 1.0 0.05 20\n"
            "train a m1 d1 occupancy_detection\n"
            "share a m1\n"
            "set-price a m1 -5\n",
        )
        assert run(["run", path, "--workspace", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("MalformedArgs: ")
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    @pytest.mark.parametrize(
        "line, code, error",
        [
            ("fine-tune a m2 nosuch d1 -1 0.05", 2, "ParseError"),
            (f"set-price a nosuch {2**256}", 1, "NotFound"),
            ("add-node a -5", 1, "IslError"),
        ],
        ids=["steps-before-the-base", "reference-before-the-price", "name-before-the-balance"],
    )
    def test_a_bound_is_checked_when_its_owner_reaches_it(self, tmp_path, capsys, line, code, error):
        # mlsim checks the schedule before the base is read; the chain checks a
        # price or balance only after the reference resolves or the name is free
        ws = tmp_path / "ws"
        path = scenario_file(
            tmp_path,
            "create-network 1000\n"
            "add-node a 100\n"
            "register-node a\n"
            "gen-data a d1 1 2.0 1.0 0.05 20\n"
            "train a m1 d1 occupancy_detection\n"
            "share a m1\n" + line + "\n",
        )
        assert run(["run", path, "--workspace", str(ws)]) == code
        assert capsys.readouterr().err.startswith(f"{error}: ")
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"


REF_SETUP = """
create-network 1000
add-node alice 500
add-node bob 500
add-node mallory 500
register-node alice
register-node bob
register-node mallory
gen-data alice d1 11 2.0 1.0 0.05 40
train alice m1 d1 occupancy_detection
share alice m1
gen-data alice d2 12 2.0 1.5 0.05 20
train alice m2 d2 occupancy_detection
gen-data alice thing 13 2.0 1.0 0.05 20
train alice thing thing occupancy_detection
"""

# (id, command line, expected): an error name, or the first line of stdout
# with {M1} and {D1} standing for the addresses of alice's shared m1 and d1
REFERENCE_TABLE = [
    ("fine-tune-bare", "fine-tune alice t m1 d2 5 0.05", "model isl://alice/model/t "),
    ("fine-tune-node-id", "fine-tune alice t alice/m1 alice/d2 5 0.05", "model isl://alice/model/t "),
    ("fine-tune-iri", "fine-tune alice t isl://alice/model/m1 d2 5 0.05", "model isl://alice/model/t "),
    ("fine-tune-address", "fine-tune alice t {M1} d2 5 0.05", "ParseError"),
    ("share-bare", "share alice m2", "shared isl://alice/model/m2 addr="),
    ("share-node-id", "share alice alice/m2", "shared isl://alice/model/m2 addr="),
    ("share-iri", "share alice isl://alice/dataset/d2", "shared isl://alice/dataset/d2 addr="),
    ("share-address", "share alice {M1}", "ParseError"),
    ("set-price-bare", "set-price alice d1 7", "price addr={D1} value=7"),
    ("set-price-node-id", "set-price alice alice/m1 7", "price addr={M1} value=7"),
    ("set-price-iri", "set-price alice isl://alice/model/m1 7", "price addr={M1} value=7"),
    ("set-price-address", "set-price alice {M1} 7", "price addr={M1} value=7"),
    ("set-price-foreign", "set-price bob alice/m1 7", "Unauthorized"),
    ("acquire-bare", "acquire alice m1 0", "acquired {M1} price=0 from=alice"),
    ("acquire-node-id", "acquire bob alice/d1 0", "acquired {D1} price=0 from=alice"),
    ("acquire-iri", "acquire bob isl://alice/model/m1 0", "acquired {M1} price=0 from=alice"),
    ("acquire-address", "acquire bob {M1} 0", "acquired {M1} price=0 from=alice"),
    ("trace-bare", "trace m1", "ParseError"),
    ("trace-node-id", "trace alice/m1", "step 1: model=isl://alice/model/m1 addr={M1} "),
    ("trace-iri", "trace isl://alice/model/m1", "step 1: model=isl://alice/model/m1 addr={M1} "),
    ("trace-address", "trace {M1}", "step 1: model=isl://alice/model/m1 addr={M1} "),
    ("acquire-unknown-node", "acquire bob carol/m1 0", "ParseError"),
    ("trace-unknown-node", "trace isl://carol/model/m1", "ParseError"),
    ("set-price-unknown-node", "set-price alice carol/m1 7", "ParseError"),
    ("acquire-unshared", "acquire bob alice/m2 0", "UnknownResource"),
    ("trace-unshared", "trace alice/m2", "UnknownResource"),
    ("set-price-unshared", "set-price alice m2 7", "UnknownResource"),
    ("acquire-ambiguous", "acquire bob alice/thing 0", "ParseError"),
    ("trace-ambiguous", "trace alice/thing", "ParseError"),
    ("set-price-ambiguous", "set-price alice thing 7", "ParseError"),
    ("share-ambiguous", "share alice alice/thing", "ParseError"),
    ("acquire-missing", "acquire bob alice/nothing 0", "NotFound"),
]


class TestReferences:
    @pytest.fixture
    def runner(self, tmp_path, capsys):
        runner = cli.ScenarioRunner(tmp_path / "ws")
        runner.run(cli._parse_scenario(REF_SETUP))
        capsys.readouterr()
        return runner

    @pytest.mark.parametrize("line, expected", [case[1:] for case in REFERENCE_TABLE],
                             ids=[case[0] for case in REFERENCE_TABLE])
    def test_reference_forms(self, runner, capsys, line, expected):
        graph = runner.network.node("alice").graph
        addrs = {
            "M1": graph.model(kgstore.model_iri("alice", "m1")).content_address,
            "D1": graph.dataset(kgstore.dataset_iri("alice", "d1")).content_address,
        }
        commands = cli._parse_scenario(line.format(**addrs))
        error = getattr(errors, expected, None)
        if error is not None:
            with pytest.raises(errors.IslError) as raised:
                runner.run(commands)
            assert type(raised.value) is error
        else:
            runner.run(commands)
            assert capsys.readouterr().out.startswith(expected.format(**addrs))

    def test_squatted_entry_does_not_redirect_acquire_or_trace(self, runner, capsys):
        net = runner.network
        m1 = net.node("alice").graph.model(kgstore.model_iri("alice", "m1"))
        squat_ds, squat_model = "0" * 63 + "1", "0" * 64  # both sort before any real address
        mallory = net.node("mallory").account
        for method, args in (
            ("share_dataset", ("isl://mallory/dataset/x", squat_ds)),
            ("share_model", (m1.iri, squat_model, m1.task, squat_ds, None)),
        ):
            assert net.ledger.submit(mallory, "oracle", method, args).status == "ok"
        assert net.oracle.find_model_by_iri(m1.iri) == squat_model  # a registry scan finds mallory

        runner.run(cli._parse_scenario("acquire bob alice/m1 0\ntrace alice/m1\n"))

        out = capsys.readouterr().out
        assert out == (
            f"acquired {m1.content_address} price=0 from=alice\n"
            f"step 1: model={m1.iri} addr={m1.content_address} dataset={m1.dataset} "
            f"tx={m1.tx_id} owner={net.node('alice').account}\n"
        )


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_run_without_workspace(self, capsys):
        assert run(["run", "x.isl"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("where", [(), ("sub", "ws")], ids=["a-file", "under-a-file"])
    def test_workspace_that_is_not_a_directory(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        path = scenario_file(tmp_path, "create-network 10\n")
        before = sorted(tmp_path.rglob("*"))
        assert run(["run", path, "--workspace", str(blocker.joinpath(*where))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "kept\n"

    def test_rerun_into_a_workspace_with_an_altered_blob_is_refused(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        out = capsys.readouterr().out
        addr = re.search(r"^shared isl://alice/model/m1 addr=([0-9a-f]{64})", out, re.M).group(1)
        with (ws / "nodes" / "alice" / "blobs" / addr[:2] / addr).open("ab") as blob:
            blob.write(b"x")
        before = files_of(ws)

        # a rebuild would keep the altered blob, since a put skips an existing path
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ParseError: ") and "Traceback" not in captured.err
        assert files_of(ws) == before

    def test_a_second_scenario_does_not_run_into_a_used_workspace(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(TRANSFER), "--workspace", str(ws)]) == 0
        before = files_of(ws)
        capsys.readouterr()

        # the earlier run's nodes would stay beside the new run's
        assert run(["run", str(UNAUTHORIZED), "--workspace", str(ws)]) == 2
        assert capsys.readouterr().err.startswith("ParseError: ")
        assert files_of(ws) == before
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out == "MATCH\n"

    def test_an_empty_workspace_directory_is_used(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        capsys.readouterr()
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out == "MATCH\n"

    @pytest.mark.parametrize("name", ["..", "../..", "alice/..", ".", "alice/../alice"])
    def test_inspect_graph_takes_only_a_node_name(self, tmp_path, capsys, name):
        ws = tmp_path / "ws"
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        (tmp_path / "kg.nt").write_text("<isl://outside> <isl://p> \"planted\" .\n")
        (ws / "kg.nt").write_text("<isl://inside> <isl://p> \"planted\" .\n")
        capsys.readouterr()
        assert run(["inspect", str(ws), "graph", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ParseError: ")

    def test_inspect_missing_workspace(self, tmp_path, capsys):
        assert run(["inspect", str(tmp_path / "void"), "balances"]) == 1
        assert capsys.readouterr().err.startswith("UnknownWorkspace: ")

    def test_inspect_provenance_needs_address(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        path = scenario_file(tmp_path, "create-network 10\n")
        run(["run", path, "--workspace", str(ws)])
        capsys.readouterr()
        assert run(["inspect", str(ws), "provenance", "not-an-address"]) == 2
        assert capsys.readouterr().err.startswith("ParseError: ")

    def test_inspect_checks_the_address_before_reading_the_workspace(self, tmp_path, capsys):
        assert run(["inspect", str(tmp_path), "provenance", "not-an-address"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ParseError: ")

    def test_replay_missing_workspace(self, tmp_path, capsys):
        assert run(["replay", str(tmp_path / "void")]) == 1
        assert capsys.readouterr().err.startswith("UnknownWorkspace: ")


class TestInspection:
    @pytest.fixture
    def workspace(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        out = capsys.readouterr().out
        return ws, out

    def test_registry_lists_both_kinds(self, workspace, capsys):
        ws, _ = workspace
        assert run(["inspect", str(ws), "registry"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        kinds = [line.split()[0] for line in lines]
        assert kinds.count("dataset") == 1
        assert kinds.count("model") == 1
        model_line = next(line for line in lines if line.startswith("model "))
        assert "base=NULL" in model_line
        assert "task=isl://vocab/task/occupancy_detection" in model_line

    @pytest.mark.parametrize(
        "scenario, traced, depth",
        [
            pytest.param(TWO_NODE, "isl://alice/model/m1", 1, id=TWO_NODE.stem),
            pytest.param(TRANSFER, "isl://room3/model/tuned", 2, id=TRANSFER.stem),
        ],
    )
    def test_trace_matches_inspect_provenance(self, tmp_path, capsys, scenario, traced, depth):
        ws = tmp_path / "ws"
        assert run(["run", str(scenario), "--workspace", str(ws)]) == 0
        out = capsys.readouterr().out
        shared = re.search(rf"^shared {traced} addr=([0-9a-f]{{64}})", out, re.M)
        assert shared is not None
        addr = shared.group(1)

        trace_lines = [line for line in out.split("\n") if line.startswith("step ")]
        assert len(trace_lines) == depth
        assert trace_lines[-1].startswith(f"step {depth}: model={traced} addr={addr} ")
        assert run(["inspect", str(ws), "provenance", addr]) == 0
        inspect_lines = capsys.readouterr().out.strip().split("\n")
        assert inspect_lines == trace_lines

    def test_provenance_of_unregistered_address(self, workspace, capsys):
        ws, _ = workspace
        assert run(["inspect", str(ws), "provenance", "f" * 64]) == 1
        assert capsys.readouterr().err.startswith("UnknownResource: ")

    # a hand-edited chain does not replay, so inspect refuses the workspace
    # before walking it; walk_provenance's own refusals are covered in
    # test_contracts.py through check_closure
    @pytest.mark.parametrize(
        "edit",
        [
            lambda oracle, addr: oracle.update(shared_datasets={}),
            lambda oracle, addr: oracle["shared_models"][addr].update(base_model_addr="e" * 64),
            lambda oracle, addr: oracle["shared_models"][addr].update(base_model_addr=addr),
        ],
        ids=["missing-dataset", "missing-base", "base-cycle"],
    )
    def test_provenance_refuses_a_broken_chain(self, workspace, capsys, edit):
        ws, out = workspace
        addr = re.search(r"^shared isl://alice/model/m1 addr=([0-9a-f]{64})", out, re.M).group(1)
        state_path = ws / cli.CHAINSTATE_FILE
        state = json.loads(state_path.read_text())
        edit(state["oracle"], addr)
        state_path.write_text(json.dumps(state))

        assert run(["inspect", str(ws), "provenance", addr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("UnknownWorkspace: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["balances", "registry", "provenance"])
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda ws: edit_chainstate(ws, forge_model_owners), id="model-owner-forged"),
            pytest.param(lambda ws: edit_chainstate(ws, bump_a_balance), id="balance-bumped"),
            pytest.param(lambda ws: (ws / cli.LEDGER_FILE).unlink(), id="no-ledger-log"),
        ],
    )
    def test_inspect_refuses_a_workspace_that_does_not_replay(self, workspace, capsys, edit, command):
        ws, out = workspace
        addr = re.search(r"^shared isl://alice/model/m1 addr=([0-9a-f]{64})", out, re.M).group(1)
        edit(ws)

        args = ["inspect", str(ws), command] + ([addr] if command == "provenance" else [])
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("UnknownWorkspace: ")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.isl")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("what", ["balances", "registry"])
    def test_inspect_prints_what_chainstate_holds(self, tmp_path, capsys, scenario, what):
        ws = tmp_path / "ws"
        run(["run", str(scenario), "--workspace", str(ws)])
        capsys.readouterr()
        state = json.loads((ws / cli.CHAINSTATE_FILE).read_text(encoding="utf-8"))

        assert run(["inspect", str(ws), what]) == 0
        assert capsys.readouterr().out == inspect_lines(state, what)

    def test_graph_dump_is_verbatim(self, workspace, capsys):
        ws, _ = workspace
        assert run(["inspect", str(ws), "graph", "alice"]) == 0
        out = capsys.readouterr().out
        assert out == (ws / "nodes" / "alice" / "kg.nt").read_text(encoding="utf-8")
        assert "isl://alice/model/m1" in out

    def test_graph_dump_of_a_non_utf8_graph_is_its_bytes(self, tmp_path, capsysbinary):
        ws = tmp_path / "ws"
        assert run(["run", str(TWO_NODE), "--workspace", str(ws)]) == 0
        capsysbinary.readouterr()
        kg_path = ws / "nodes" / "alice" / "kg.nt"
        kg_path.write_bytes(kg_path.read_bytes() + b"\xff\xfe")
        assert run(["inspect", str(ws), "graph", "alice"]) == 0
        assert capsysbinary.readouterr() == (kg_path.read_bytes(), b"")

    def test_graph_unknown_node(self, workspace, capsys):
        ws, _ = workspace
        assert run(["inspect", str(ws), "graph", "carol"]) == 1
        assert capsys.readouterr().err.startswith("UnknownWorkspace: ")


class TestReplay:
    def test_replay_matches(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TRANSFER), "--workspace", str(ws)])
        capsys.readouterr()
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    @pytest.mark.parametrize("scenario", [TWO_NODE, UNAUTHORIZED], ids=lambda p: p.stem)
    def test_persist_leaves_no_temp_files(self, tmp_path, capsys, scenario):
        ws = tmp_path / "ws"
        run(["run", str(scenario), "--workspace", str(ws)])
        capsys.readouterr()
        assert sorted(ws.rglob("*.tmp")) == []
        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_replay_flags_tampered_chainstate(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        state_path = ws / cli.CHAINSTATE_FILE
        state = json.loads(state_path.read_text())
        victim = next(iter(state["balances"]))
        state["balances"][victim] += 1
        state_path.write_text(json.dumps(state))

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr() == (
            "MISMATCH\n", f"MISMATCH: chainstate.json differs from the replay at balances.{victim}\n")

    def test_replay_rejects_corrupt_log(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        log_path.write_text(log_path.read_text() + "not a log line\n")

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("CorruptLog: ")

    @pytest.mark.parametrize("balance", [-5, 2**256], ids=["negative", "above-word"])
    def test_replay_rejects_a_bad_account_balance(self, tmp_path, capsys, balance):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        text, n = re.subn(r"^(account\t\S+\tbalance=)\d+", rf"\g<1>{balance}", log_path.read_text(),
                          count=1, flags=re.M)
        assert n == 1
        log_path.write_text(text)

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("CorruptLog: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\n\n", 1),
            lambda text: text + "\n",
            lambda text: text.rstrip("\n"),
            lambda text: text.replace("\tseq=1\t", "\tseq=01\t", 1),
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r\n", 1),
        ],
        ids=["blank-line", "blank-last-line", "no-final-newline", "padded-seq", "crlf",
             "cr-before-newline"],
    )
    def test_replay_rejects_a_log_the_ledger_would_not_write(self, tmp_path, capsys, edit):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        text = log_path.read_bytes().decode("ascii")
        assert edit(text) != text
        log_path.write_bytes(edit(text).encode("ascii"))

        assert run(["replay", str(ws)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("CorruptLog: ") and captured.out == ""

    # replay parses each line as it takes it, so the first bad line in log order is named
    @pytest.mark.parametrize("rejected_first", [True, False], ids=["rejected-first", "unparseable-first"])
    def test_replay_names_the_first_bad_line(self, tmp_path, capsys, rejected_first):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        lines = log_path.read_text().split("\n")[:-1]
        rejected = f"account\taddress={'0' * 40}\tbalance=-5\towner=0"  # parses; replay refuses it
        unparseable = "tx\tseq=nine"
        bad = [rejected, unparseable] if rejected_first else [unparseable, rejected]
        log_path.write_text("\n".join([lines[0], bad[0], *lines[1:], bad[1]]) + "\n")

        assert run(["replay", str(ws)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptLog: ")
        if rejected_first:
            assert "rejected on replay" in err and "balance=-5" in err
        else:
            assert "unparseable log line" in err and "seq=nine" in err

    @pytest.mark.parametrize("entry", [1, {**MODEL_ENTRY, "base_model_addr": []}], ids=["int", "base-list"])
    def test_a_planted_entry_is_named_as_the_first_difference(self, tmp_path, capsys, entry):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        edit_chainstate(ws, lambda state: state["oracle"]["shared_models"].update({"f" * 64: entry}))

        assert run(["replay", str(ws)]) == 1
        planted = f"oracle.shared_models.{'f' * 64}"
        assert capsys.readouterr() == (
            "MISMATCH\n", f"MISMATCH: chainstate.json differs from the replay at {planted}\n")

    def test_a_chainstate_nested_too_deep_to_parse_is_unknown_workspace(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        depth = 4 * sys.getrecursionlimit()
        (ws / cli.CHAINSTATE_FILE).write_text("{\"balances\":" + "[" * depth + "]" * depth + "}")

        assert run(["replay", str(ws)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("UnknownWorkspace: ")

    @pytest.mark.parametrize("command", [["replay"], ["inspect", "registry"]], ids=["replay", "inspect"])
    def test_log_args_nested_too_deep_to_parse_are_a_corrupt_log(self, tmp_path, capsys, command):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        log_path = ws / cli.LEDGER_FILE
        lines = log_path.read_text().split("\n")[:-1]
        last = max(i for i, line in enumerate(lines) if line.startswith("tx\t"))
        depth = 4 * sys.getrecursionlimit()
        lines[last] = lines[last].partition("\targs=")[0] + "\targs=" + "[" * depth + "]" * depth
        log_path.write_text("\n".join(lines) + "\n")

        assert run([command[0], str(ws), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("CorruptLog: ")

    def test_replay_compares_chainstate_bytes(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        # the same content in other bytes is not what the writer writes
        state_path = ws / cli.CHAINSTATE_FILE
        state_path.write_text(json.dumps(json.loads(state_path.read_text()), indent=2) + "\n")

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr() == ("MISMATCH\n", "MISMATCH: chainstate.json holds the replayed state, "
                                       "but not in the bytes the writer writes\n")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta, nodes: nodes.update(alice=nodes["bob"], bob=nodes["alice"]),
            lambda meta, nodes: nodes.update(zed=nodes["alice"]),
            lambda meta, nodes: meta.update(owner=nodes["bob"]),
            lambda meta, nodes: nodes.update(alice=meta["owner"]),
            lambda meta, nodes: nodes.update({"a b": nodes.pop("alice")}),
            lambda meta, nodes: nodes.update(alice=[nodes["alice"]]),
            lambda meta, nodes: nodes.update(carol="c" * 40),
            lambda meta, nodes: meta.update(extra=1),
            lambda meta, nodes: meta.clear(),
            lambda meta, nodes: nodes.pop("bob"),
        ],
        ids=["swap-accounts", "name-twice", "owner-is-a-node", "node-is-the-owner", "bad-name",
             "account-list", "account-not-created", "extra-key", "empty", "node-dropped"],
    )
    def test_replay_vouches_for_meta(self, tmp_path, capsys, edit):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        edit_chainstate(ws, lambda state: edit(state["meta"], state["meta"]["nodes"]))

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr() == (
            "MISMATCH\n", "MISMATCH: chainstate.json differs from the replay at meta\n")

    def test_a_renaming_of_meta_and_the_node_directories_still_matches(self, tmp_path, capsys):
        # the log holds no names: swapping two nodes everywhere is another honest run
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        edit_chainstate(ws, lambda state: state["meta"]["nodes"].update(
            alice=state["meta"]["nodes"]["bob"], bob=state["meta"]["nodes"]["alice"]))
        nodes = ws / "nodes"
        (nodes / "alice").rename(nodes / "tmp")
        (nodes / "bob").rename(nodes / "alice")
        (nodes / "tmp").rename(nodes / "bob")

        assert run(["replay", str(ws)]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_replay_rejects_non_ascii_log(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        with open(ws / cli.LEDGER_FILE, "ab") as log:
            log.write(b"tx\tseq=99\tsender=\xff\n")

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("CorruptLog: ")

    @pytest.mark.parametrize("command", ["replay", "balances", "registry", "provenance"])
    @pytest.mark.parametrize(
        "text",
        [
            "[1]",
            "{}",
            "null",
            '"state"',
            '{"balances": {}, "contract_balances": {}, "oracle": {}}',
            '{"balances": [], "contract_balances": {}, "oracle": {}, "isl": {}}',
            b"\xff{}",
            '{"balances": {}, "contract_balances": {}, "oracle": {}, "isl": {}}',
            chainstate_with_registry([], {}),
            chainstate_with_registry({}, {"f" * 64: 1}),
            chainstate_with_registry({"d" * 64: {"iri": "isl://alice/dataset/d1"}}, {}),
            chainstate_with_registry({}, {"f" * 64: {**MODEL_ENTRY, "base_model_addr": []}}),
        ],
        ids=[
            "list", "empty", "null", "string", "no-isl", "balances-list", "not-utf8",
            "no-registry", "datasets-list", "entry-int", "entry-missing-key", "base-list",
        ],
    )
    def test_malformed_chainstate_is_unknown_workspace(self, tmp_path, capsys, command, text):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()
        state_path = ws / cli.CHAINSTATE_FILE
        if isinstance(text, bytes):
            state_path.write_bytes(text)
        else:
            state_path.write_text(text)

        args = ["replay", str(ws)] if command == "replay" else ["inspect", str(ws), command]
        if command == "provenance":
            args.append("f" * 64)
        assert run(args) == 1
        captured = capsys.readouterr()
        # a JSON object the writer would not write is a MISMATCH; anything else is unknown
        if command == "replay" and isinstance(text, str) and text.startswith("{"):
            assert captured.out == "MISMATCH\n"
            assert captured.err.startswith("MISMATCH: chainstate.json differs from the replay at ")
        else:
            assert captured.out == ""
            assert captured.err.startswith("UnknownWorkspace: ")

    def test_replay_rejects_logged_list_argument(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        seq = log_path.read_text().count("\ntx\t") + 1
        alice = (ws / "nodes" / "alice" / "account.txt").read_text().strip()
        with open(log_path, "a", encoding="ascii") as log:
            log.write(
                f"tx\tseq={seq}\tsender={alice}\tcontract=oracle\tmethod=share_dataset"
                '\tvalue=0\targs=["isl://a/dataset/d",["b"]]\n'
            )

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("CorruptLog: ")

    def test_replay_rejects_forged_value(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        lines = log_path.read_text().strip().split("\n")
        forged = [line.replace("value=10", "value=999999") for line in lines]
        assert forged != lines
        log_path.write_text("\n".join(forged) + "\n")

        assert run(["replay", str(ws)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptLog: ") or "MISMATCH" in err


def key_paths(obj: object, path: tuple = ()) -> list[tuple[tuple, object]]:
    """Every (key path, value) in a parsed chainstate.json, the root included."""
    found = [(path, obj)]
    if isinstance(obj, dict):
        for key, value in obj.items():
            found += key_paths(value, path + (key,))
    return found


@pytest.fixture(scope="module")
def transfer_workspace(tmp_path_factory) -> Path:
    ws = tmp_path_factory.mktemp("transfer") / "ws"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["run", str(TRANSFER), "--workspace", str(ws)]) == 0
    return ws


def run_quietly(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_edit_to_chainstate_is_a_mismatch_named_by_its_path(transfer_workspace, data):
    """Change a leaf, add a key or drop a key anywhere in chainstate.json, rewritten in the
    writer's bytes: replay names the edited path or, for an edit under meta, meta."""
    ws = transfer_workspace
    state_path = ws / cli.CHAINSTATE_FILE
    original = state_path.read_bytes()
    assert run_quietly(["replay", str(ws)]) == (0, "MATCH\n", "")
    state = json.loads(original)
    paths = key_paths(state)
    kind = data.draw(st.sampled_from(["change", "add", "drop"]))
    if kind == "add":
        path, parent = data.draw(st.sampled_from([(p, v) for p, v in paths if isinstance(v, dict)]))
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in parent))
        parent[key] = data.draw(SCALARS)
        path += (key,)
    else:
        leaves = [p for p, v in paths[1:] if kind == "drop" or not isinstance(v, dict)]
        path = data.draw(st.sampled_from(leaves))
        parent = state
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            old = canonical_json(parent[path[-1]])
            parent[path[-1]] = data.draw(SCALARS.filter(lambda v: canonical_json(v) != old))
    state_path.write_bytes(canonical_json(state) + b"\n")
    try:
        code, out, err = run_quietly(["replay", str(ws)])
        inspected = run_quietly(["inspect", str(ws), "balances"])
    finally:
        state_path.write_bytes(original)

    assert (code, out) == (1, "MISMATCH\n")
    assert err.startswith("MISMATCH: chainstate.json ") and err.count("\n") == 1 and err.endswith("\n")
    reason = err.removeprefix("MISMATCH: chainstate.json ").rstrip("\n")
    assert reason.startswith("differs from the replay at ")
    reported = reason.removeprefix("differs from the replay at ")
    edited = ".".join(path).encode("unicode_escape").decode()
    if path[0] == "meta":  # the replay vouches for meta as a whole
        assert reported == "meta"
    else:
        assert edited == reported or edited.startswith(reported + ".")
    assert inspected[:2] == (1, "")
    assert inspected[2] == f"UnknownWorkspace: {ws} does not replay: its chainstate.json {reason}\n"
