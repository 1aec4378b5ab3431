"""Seeded workloads driven through islsim's public Python API.

Each workload is a closed loop with one client: one thread issues one
workflow call at a time (``Network``, ``IslNode``) and waits for it.
:func:`make_plan` turns ``(workload, seed, scale)`` into plain data
(names, dataset seeds, room profiles, prices, buyer choices and which
calls are expected refusals); the program sees only that data.
:func:`run_episode` executes a plan against a fresh network, persists
the workspace the way ``islsim run`` does, replays it the way
``islsim replay`` does, and checks the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from islsim import cli, kgstore
from islsim.errors import Unauthorized, WrongPayment
from islsim.ledger import Transaction
from islsim.mlsim import RoomProfile
from islsim.node import Network
from speed import Probe

TASKS = ("occupancy_detection", "energy_prediction")
WITH_CO2 = ({"co2"}, {"co2", "temperature"}, {"co2", "humidity", "power"})
WITHOUT_CO2 = ({"temperature"}, {"humidity", "power"})
LEARNING_RATE = 0.05
OWNER_BALANCE = 1_000_000
NODE_BALANCE = 1_000_000


def _profile(rng: random.Random) -> RoomProfile:
    return RoomProfile(
        slope=round(rng.uniform(0.5, 3.0), 3),
        intercept=round(rng.uniform(-1.0, 2.0), 3),
        noise_scale=round(rng.uniform(0.01, 0.2), 3),
    )


def _data(rng: random.Random) -> tuple[int, RoomProfile]:
    return rng.randrange(1, 2**31), _profile(rng)


def _scaled(base: int, scale: float, least: int) -> int:
    return max(least, round(base * scale))


# ------------------------------------------------------------------ plans
#
# A plan is a dict of plain values. "setup" work builds the network the
# timed phase starts from; "steps" are the timed workflow calls.

def _plan_share_chains(rng: random.Random, scale: float) -> dict:
    nodes = [f"n{i:02d}" for i in range(16)]
    rounds = _scaled(3, scale, 2)
    # Every seed makes the same number of rogue shares, ~1 in 20 of all shares.
    shares = rounds * len(nodes) + rounds // 2 * len(nodes)
    rogue = set(rng.sample(range(rounds * len(nodes)), max(1, round(shares / 19))))
    steps: list[tuple] = []
    for r in range(rounds):
        for i, name in enumerate(nodes):
            if r * len(nodes) + i in rogue:
                steps.append(("rogue", len(steps), _data(rng), rng.choice(TASKS)))
            tunes = [(_data(rng), rng.randrange(10, 31)) for _ in range(3)]
            steps.append(("chain", name, r, _data(rng), rng.choice(TASKS), tunes))
        if r % 2 == 1:
            for i, name in enumerate(nodes):
                steps.append(("cross", name, nodes[(i + 1) % len(nodes)], r, _data(rng),
                              rng.randrange(10, 31)))
    return {"nodes": nodes, "rogue": "rogue", "steps": steps}


def _plan_market(rng: random.Random, scale: float) -> dict:
    nodes = [f"m{i:02d}" for i in range(16)]
    per_node = _scaled(8, scale, 4)
    catalogue = []
    for i, name in enumerate(nodes):
        for j in range(per_node):
            task = TASKS[(i + j) % 2]
            base = j >= 2 and rng.random() < 0.5  # fine-tune from the node's base for this task
            catalogue.append((name, j, task, _data(rng), base, rng.randrange(0, 51)))
    # Every seed makes the same number of each kind of round, in a seeded order:
    # ~10% re-pricings, ~20% of queries without co2, ~5% of buys paying wrong.
    rounds = _scaled(200, scale, 20)
    reprices = round(rounds / 10)
    buys = rounds - reprices
    without_co2 = round(buys / 5)
    wrong = round(buys / 20)
    kinds = ["reprice"] * reprices + ["without_co2"] * without_co2 + ["wrong"] * wrong
    kinds += ["buy"] * (rounds - len(kinds))
    rng.shuffle(kinds)
    steps: list[tuple] = []
    for kind in kinds:
        if kind == "reprice":
            steps.append(("reprice", rng.choice(nodes), rng.randrange(per_node), rng.randrange(0, 51)))
            continue
        sensors = rng.choice(WITHOUT_CO2 if kind == "without_co2" else WITH_CO2)
        steps.append(("buy", rng.choice(nodes), rng.choice(TASKS), sorted(sensors),
                      rng.random(), kind == "wrong"))
    return {"nodes": nodes, "catalogue": catalogue, "steps": steps}


def _plan_ml_fit(rng: random.Random, scale: float) -> dict:
    nodes = [f"f{i}" for i in range(4)]
    big, small = _scaled(12_000, scale, 50), _scaled(1_000, scale, 20)
    # Every seed fine-tunes for the same total number of steps, in a seeded order.
    steps = list(range(40, 100, 5))
    rng.shuffle(steps)
    return {
        "nodes": nodes,
        "task": rng.choice(TASKS),
        "bases": [(name, _data(rng), big, rng.randrange(0, 51)) for name in nodes],
        "tunes": [(name, _data(rng), small,
                   {other: steps.pop() for other in nodes if other != name})
                  for name in nodes],
    }


PLANS = {"share_chains": _plan_share_chains, "market": _plan_market, "ml_fit": _plan_ml_fit}


def make_plan(workload: str, seed: int, scale: float) -> dict:
    return PLANS[workload](random.Random(f"{workload}:{seed}"), scale)


# ---------------------------------------------------------------- episode

@dataclass
class Episode:
    """Outcomes, latencies and check results of one execution of a plan."""

    timed: bool = False
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    latencies: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    queries: list[tuple] = field(default_factory=list)
    acquired: list[tuple] = field(default_factory=list)
    probe: Probe = field(default_factory=Probe)

    def call(self, kind: str, fn, *args, expect: type | None = None):
        """One workflow call: time it and compare its outcome with ``expect``.

        ``expect`` names the error an expected refusal must raise; any
        other outcome, including any other exception, counts as failed.
        A refusal that does not happen, or raises another error, also
        fails the output checks.
        """
        if self.timed:
            self.probe.sample_if_due()
        self.attempted += 1
        self.ops += self.timed
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # every unexpected outcome is counted, never fatal
            if expect is None or type(exc) is not expect:
                self._fail(kind, expect, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if expect is not None:
            self._fail(kind, expect, "call succeeded")
            return None
        if self.timed:
            self.latencies.setdefault(kind, []).append(elapsed)
        return result

    def _fail(self, kind: str, expect: type | None, outcome: str) -> None:
        self.failed += 1
        if expect is None:
            self.failures.append(f"{kind}: {outcome}")
        else:
            self.failures.append(f"{kind}: expected {expect.__name__}, {outcome}")
            self.check(False, f"{kind} should have raised {expect.__name__}, {outcome}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"check failed: {what}")


def _setup_network(ws: Path, names: list[str], unregistered: tuple[str, ...] = ()) -> Network:
    net = Network.create(ws, owner_balance=OWNER_BALANCE)
    for name in names + list(unregistered):
        net.add_node(name, NODE_BALANCE)
    for name in names:
        net.register_node(name)
    return net


def _setup_share_chains(plan: dict, ws: Path, ep: Episode) -> Network:
    return _setup_network(ws, plan["nodes"], (plan["rogue"],))


def _run_share_chains(plan: dict, net: Network, ep: Episode) -> None:
    tips: dict[tuple[str, int], str] = {}
    for step in plan["steps"]:
        if step[0] == "rogue":
            _, i, (seed, profile), task = step
            rogue = net.node(plan["rogue"])
            ep.call("dataset", rogue.create_local_dataset, f"s{i}-d", seed, profile, 40)
            ep.call("train", rogue.train_model, f"s{i}-m", f"s{i}-d", task)
            ep.call("share", rogue.share_model, f"s{i}-m", expect=Unauthorized)
        elif step[0] == "chain":
            _, name, r, (seed, profile), task, tunes = step
            node = net.node(name)
            ep.call("dataset", node.create_local_dataset, f"r{r}-d0", seed, profile, 40)
            ep.call("train", node.train_model, f"r{r}-m0", f"r{r}-d0", task)
            for k, ((seed, profile), steps) in enumerate(tunes, start=1):
                ep.call("dataset", node.create_local_dataset, f"r{r}-d{k}", seed, profile, 5)
                ep.call("fine_tune", node.fine_tune_model, f"r{r}-m{k}", f"r{r}-m{k - 1}",
                        f"r{r}-d{k}", steps, LEARNING_RATE)
            record = ep.call("share", node.share_model, f"r{r}-m{len(tunes)}")
            if record is not None:
                tips[name, r] = record.content_address
        else:
            _, name, neighbour, r, (seed, profile), steps = step
            node = net.node(name)
            addr = tips.get((neighbour, r))
            base = addr and ep.call("acquire", node.acquire_model, addr, 0)
            if not base:
                continue  # the failure that left no tip is already counted
            ep.acquired.append((name, addr))
            ep.call("dataset", node.create_local_dataset, f"r{r}-xd", seed, profile, 5)
            ep.call("fine_tune", node.fine_tune_model, f"r{r}-x", base.iri, f"r{r}-xd",
                    steps, LEARNING_RATE)
            ep.call("share", node.share_model, f"r{r}-x")


def _setup_market(plan: dict, ws: Path, ep: Episode) -> Network:
    net = _setup_network(ws, plan["nodes"])
    bases: dict[tuple[str, str], str] = {}
    for name, j, task, (seed, profile), tune, price in plan["catalogue"]:
        node = net.node(name)
        base = bases.get((name, task)) if tune else None
        ep.call("dataset", node.create_local_dataset, f"d{j}", seed, profile, 8 if base else 40)
        if base:
            ep.call("fine_tune", node.fine_tune_model, f"m{j}", base, f"d{j}", 20, LEARNING_RATE)
        else:
            ep.call("train", node.train_model, f"m{j}", f"d{j}", task)
            bases[name, task] = f"m{j}"
        ep.call("share", node.share_model, f"m{j}")
        ep.call("set_price", node.set_price, f"m{j}", price)
    return net


def _run_market(plan: dict, net: Network, ep: Episode) -> None:
    for step in plan["steps"]:
        if step[0] == "reprice":
            _, name, j, price = step
            node = net.node(name)
            ep.call("set_price", node.set_price, f"m{j}", price)
            continue
        _, name, task, sensors, pick, wrong = step
        buyer = net.node(name)
        hits = ep.call("query", buyer.query_models, task, set(sensors))
        if hits is None:
            continue
        ep.queries.append((task, frozenset(sensors), hits))
        offers = [h for h in hits if h.owner_node != name]
        if not offers:
            continue
        offer = offers[int(pick * len(offers))]
        if wrong:
            ep.call("acquire", buyer.acquire_model, offer.address, offer.price + 1,
                    expect=WrongPayment)
        elif ep.call("acquire", buyer.acquire_model, offer.address, offer.price):
            ep.acquired.append((name, offer.address))


def _setup_ml_fit(plan: dict, ws: Path, ep: Episode) -> Network:
    return _setup_network(ws, plan["nodes"])


def _run_ml_fit(plan: dict, net: Network, ep: Episode) -> None:
    task = plan["task"]
    bases: dict[str, str] = {}
    for name, (seed, profile), rows, price in plan["bases"]:
        node = net.node(name)
        ep.call("dataset", node.create_local_dataset, "big", seed, profile, rows)
        ep.call("train", node.train_model, "base", "big", task)
        record = ep.call("share", node.share_model, "base")
        if record is not None:
            bases[name] = record.content_address
        ep.call("set_price", node.set_price, "base", price)
    for name, (seed, profile), rows, steps in plan["tunes"]:
        node = net.node(name)
        ep.call("dataset", node.create_local_dataset, "small", seed, profile, rows)
        hits = ep.call("query", node.query_models, task, {"co2"})
        if hits is None:
            continue
        ep.queries.append((task, frozenset({"co2"}), hits))
        offers = {h.owner_node: h for h in hits if h.address == bases.get(h.owner_node)}
        for owner, n_steps in steps.items():
            offer = offers.get(owner)
            ep.check(offer is not None, f"{name} found no offer for the base of {owner}")
            acquired = offer and ep.call("acquire", node.acquire_model, offer.address, offer.price)
            if not acquired:
                continue
            ep.acquired.append((name, offer.address))
            ep.call("fine_tune", node.fine_tune_model, f"ft-{owner}", acquired.iri, "small",
                    n_steps, LEARNING_RATE)
            ep.call("share", node.share_model, f"ft-{owner}")


WORKLOADS = {
    "share_chains": (_setup_share_chains, _run_share_chains),
    "market": (_setup_market, _run_market),
    "ml_fit": (_setup_ml_fit, _run_ml_fit),
}


# ----------------------------------------------------------------- checks

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(ws: Path) -> dict[str, str]:
    """Digests of the persisted bytes that must stay identical across commits.

    ``state`` covers ``chainstate.json`` and every node's ``kg.nt``;
    ``log`` covers ``ledger.log``, whose format later work may change.
    """
    state = hashlib.sha256()
    for path in [ws / cli.CHAINSTATE_FILE] + sorted(ws.glob("nodes/*/kg.nt")):
        state.update(str(path.relative_to(ws)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"state": state.hexdigest(), "log": _sha((ws / cli.LEDGER_FILE).read_bytes())}


def replay_matches(ws: Path) -> bool:
    """``islsim replay WS`` exits 0 and prints MATCH."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["replay", str(ws)])
    return code == 0 and out.getvalue().strip() == "MATCH"


def _check_queries(ep: Episode) -> None:
    for task, sensors, hits in ep.queries:
        task_iri = kgstore.task_iri(task)
        ep.check(all(h.task == task_iri for h in hits), f"query hit with wrong task for {task}")
        ep.check(all(set(h.input_features) <= sensors for h in hits),
                 f"query hit needs sensors outside {sorted(sensors)}")
        keys = [(h.mse, h.address) for h in hits]
        ep.check(keys == sorted(keys), "query hits not sorted by (mse, address)")
        if "co2" not in sensors:
            ep.check(not hits, f"query without co2 returned {len(hits)} hits")


def _count_tx(net: Network) -> int:
    return sum(isinstance(entry, Transaction) for entry in net.ledger.log)


def run_episode(workload: str, seed: int, scale: float, ws: Path) -> tuple[Episode, dict]:
    """Set up, run, persist, replay and check one episode in ``ws``.

    Returns the episode record and a dict of timings and counts; the
    monotonic ``setup_end`` lets the parent process measure set-up from
    the moment it started this process, less ``probe_s`` spent probing
    before then. Timings are wall seconds, or user and kernel CPU
    seconds of the timed phase, without probing; ``speed`` converts them
    to reference seconds (see ``speed.py``).
    """
    setup, run = WORKLOADS[workload]
    plan = make_plan(workload, seed, scale)
    work_start = time.monotonic()
    ep = Episode()
    probe = ep.probe
    probe.sample(10)
    setup_probe_s = probe.spent_s
    net = setup(plan, ws, ep)
    setup_end = time.monotonic()
    supply = net.ledger.total_supply()
    tx_before = _count_tx(net)

    ep.timed = True
    probed = probe.spent_s
    cpu = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    run(plan, net, ep)
    runner = cli.ScenarioRunner(ws)
    runner.network = net
    persisted_code = runner.run([])
    timed_s = time.perf_counter() - start - (probe.spent_s - probed)
    cpu_end = resource.getrusage(resource.RUSAGE_SELF)
    timed_user_s = cpu_end.ru_utime - cpu.ru_utime - (probe.spent_s - probed)
    timed_sys_s = cpu_end.ru_stime - cpu.ru_stime
    ep.timed = False

    probe.sample(5)
    start = time.perf_counter()
    matched = replay_matches(ws)
    replay_s = time.perf_counter() - start
    probe.sample(5)
    work_s = time.monotonic() - work_start - probe.spent_s

    ep.check(persisted_code == 0, "persisting the workspace did not return 0")
    ep.check(matched, "islsim replay did not print MATCH")
    ep.check(net.oracle.check_closure() is None, "oracle.check_closure() is not None")
    ep.check(net.ledger.total_supply() == supply == OWNER_BALANCE + NODE_BALANCE * len(net.node_names()),
             "total supply differs from the sum of initial balances")
    _check_queries(ep)
    for name, addr in ep.acquired:
        path = net.node(name).store.path_for(addr)
        ep.check(path.is_file() and _sha(path.read_bytes()) == addr,
                 f"blob {addr[:12]} stored by {name} does not hash to its address")

    registry = net.oracle.state_dict()
    persisted = [ws / cli.LEDGER_FILE, ws / cli.CHAINSTATE_FILE] + list(ws.glob("nodes/*/kg.nt"))
    stats = {
        "setup_end": setup_end,
        "probe_s": setup_probe_s,
        "speed": probe.factor(),
        "work_s": work_s,
        "timed_s": timed_s,
        "timed_user_s": timed_user_s,
        "timed_sys_s": timed_sys_s,
        "replay_s": replay_s,
        "tx": _count_tx(net) - tx_before,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": output_digests(ws),
        "counts": {
            "kgstore.triples": sum(len(net.node(n).graph.triples) for n in net.node_names()),
            "contracts.registry.entries": len(registry["shared_datasets"])
            + len(registry["shared_models"]),
            "ledger.log.entries": len(net.ledger.log),
            "cli.persist.bytes": sum(p.stat().st_size for p in persisted),
        },
    }
    return ep, stats
