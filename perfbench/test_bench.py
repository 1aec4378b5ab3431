"""Self-test of the benchmark at tiny scale.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload once untraced and once traced, checks that each
metric BENCHMARK.json names comes out with its unit, that a refusal
which does not happen as expected makes the run incorrect, and that a
flipped byte in a persisted workspace fails the output checks:
``islsim replay`` stops printing MATCH and the workspace digest no
longer equals that of the other episodes of the run.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import episode  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from islsim.errors import WrongPayment  # noqa: E402

TINY = 0.1


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_exist(declared):
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_named_metric(workload, declared):
    result = run.measure(workload, seed=3, seconds=0, trace=True, scale=TINY, min_episodes=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0, result["failures"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.final_line([result], trace)
        assert set(line["metrics"]) == {m["name"] for m in declared[section]}
        for metric in declared[section]:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], metric["name"]
            assert isinstance(got["value"], (int, float)), metric["name"]


def test_speed_factor_cancels_a_slower_machine():
    """The same episode on a machine twice as slow reports the same reference metrics."""
    fast = {"setup_s": 0.2, "timed_s": 1.0, "timed_user_s": 0.9, "timed_sys_s": 0.1,
            "replay_s": 0.5, "speed": 1.0, "ops": 500, "tx": 400, "peak_rss_kib": 1024,
            "failed": 0, "attempted": 500, "latencies": {}}
    slow = {**fast, "speed": 0.5}
    for key in ("setup_s", "timed_s", "timed_user_s", "timed_sys_s", "replay_s"):
        slow[key] = fast[key] * 2
    fast_metrics, _ = run.end_to_end([fast])
    slow_metrics, _ = run.end_to_end([slow])
    for name in run.END_TO_END:
        assert slow_metrics[name] == pytest.approx(fast_metrics[name]), name
    assert slow_metrics["wall.ops_per_s"] == pytest.approx(fast_metrics["wall.ops_per_s"] / 2)


def _register_rogue(monkeypatch):
    def setup(plan, ws, ep):
        return workloads._setup_network(ws, plan["nodes"] + [plan["rogue"]])

    monkeypatch.setitem(workloads.WORKLOADS, "share_chains", (setup, workloads._run_share_chains))


def _expect_wrong_error(monkeypatch):
    monkeypatch.setattr(workloads, "Unauthorized", WrongPayment)


@pytest.mark.parametrize("sabotage", [_register_rogue, _expect_wrong_error])
def test_refusal_that_does_not_happen_fails_the_run(sabotage, monkeypatch, tmp_path):
    """A share by the rogue node that succeeds, or raises another error, is incorrect."""
    assert any(step[0] == "rogue" for step in workloads.make_plan("share_chains", 1, TINY)["steps"])
    sabotage(monkeypatch)

    def in_process(workload, seed, scale, trace):
        start = time.monotonic()
        rec = episode.record(workload, seed, scale, trace, tmp_path / "ws", tmp_path / "spans.jsonl")
        return {**rec, "setup_s": rec["setup_end"] - start - rec["probe_s"]}

    monkeypatch.setattr(run, "run_child", in_process)
    result = run.measure("share_chains", seed=1, seconds=0, trace=False, scale=TINY, min_episodes=1)
    assert not result["correct"]
    assert any("should have raised" in p for p in result["problems"]), result["problems"]
    assert not run.final_line([result], False)["correct"]


def _flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    ws = tmp_path_factory.mktemp("ws") / "share_chains"
    ep, _ = workloads.run_episode("share_chains", 3, TINY, ws)
    assert not ep.problems and not ep.failures
    return ws


def test_clean_workspace_passes(workspace):
    assert workloads.replay_matches(workspace)


def test_flipped_byte_in_ledger_log_fails(workspace, tmp_path):
    reference = workloads.output_digests(workspace)
    copy = shutil.copytree(workspace, tmp_path / "ws")
    log = copy / "ledger.log"
    text = log.read_bytes()
    last = text.rindex(b"\ntx\t") + 1
    _flip(log, text.index(b"sender=", last) + len("sender="))  # the last sender's address
    assert not workloads.replay_matches(copy)
    assert workloads.output_digests(copy) != reference


def test_flipped_byte_in_chainstate_fails(workspace, tmp_path):
    reference = workloads.output_digests(workspace)
    copy = shutil.copytree(workspace, tmp_path / "ws")
    state = copy / "chainstate.json"
    text = state.read_bytes()
    _flip(state, text.index(b'":', text.index(b'"balances":{') + 12) + 2)  # first balance digit
    assert not workloads.replay_matches(copy)
    assert workloads.output_digests(copy) != reference
