"""Scenario runner, inspector, and replayer behavior through the public CLI."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from islsim import cli, errors, kgstore
from islsim.contracts import OracleContract

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"  # `islsim run` output of each bundled scenario

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
        code = run(["run", str(scenario), "--workspace", str(tmp_path / "ws")])
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / f"{scenario.stem}.stdout").read_bytes()
        assert f"{code}\n" == (GOLDEN / f"{scenario.stem}.exit").read_text(encoding="ascii")

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
        "text",
        [
            "frobnicate 1\n",
            "create-network\n",  # missing argument
            "create-network 100 extra\n",
            "create-network 100\ncreate-network 100\n",
            "add-node a 5\n",  # network must come first
            "create-network abc\n",
            "create-network 100\nadd-node a lots\n",
            "create-network 100\ngen-data a d 1 x 1.0 0.05 10\n",
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
        ],
    )
    def test_malformed_scenarios_exit_2(self, tmp_path, capsys, text):
        path = scenario_file(tmp_path, text)
        assert run(["run", path, "--workspace", str(tmp_path / "ws")]) == 2
        assert capsys.readouterr().err.startswith("ParseError: ")

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
            "fine-tune a m2 m1 d1 -1 0.05",
            "fine-tune a m2 m1 d1 5 0",
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
            "negative-steps",
            "zero-learning-rate",
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
        if expected in errors.BY_NAME:
            with pytest.raises(errors.IslError) as raised:
                runner.run(commands)
            assert type(raised.value).__name__ == expected
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

    def test_provenance_refuses_a_broken_chain(self, workspace, capsys):
        ws, out = workspace
        addr = re.search(r"^shared isl://alice/model/m1 addr=([0-9a-f]{64})", out, re.M).group(1)
        state_path = ws / cli.CHAINSTATE_FILE
        state = json.loads(state_path.read_text())
        state["oracle"]["shared_datasets"] = {}  # the model's training dataset is gone
        state_path.write_text(json.dumps(state))

        assert run(["inspect", str(ws), "provenance", addr]) == 1
        assert capsys.readouterr().err.startswith("IncompleteChain: ")

    def test_graph_dump_is_verbatim(self, workspace, capsys):
        ws, _ = workspace
        assert run(["inspect", str(ws), "graph", "alice"]) == 0
        out = capsys.readouterr().out
        assert out == (ws / "nodes" / "alice" / "kg.nt").read_text(encoding="utf-8")
        assert "isl://alice/model/m1" in out

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
        assert capsys.readouterr().out.strip() == "MISMATCH"

    def test_replay_rejects_corrupt_log(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        run(["run", str(TWO_NODE), "--workspace", str(ws)])
        capsys.readouterr()

        log_path = ws / cli.LEDGER_FILE
        log_path.write_text(log_path.read_text() + "not a log line\n")

        assert run(["replay", str(ws)]) == 1
        assert capsys.readouterr().err.startswith("CorruptLog: ")

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
        assert capsys.readouterr().err.startswith("UnknownWorkspace: ")

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
