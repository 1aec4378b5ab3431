"""End-to-end node behavior on a fresh in-memory network.

Everything here exercises the full stack: blob store, knowledge graph,
dependency graph, and the two contracts behind a real ledger.
"""
from __future__ import annotations

import contextlib
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from islsim import kgstore
from islsim.cas import content_address
from islsim.errors import (
    AlreadyShared,
    DuplicateId,
    IncompleteChain,
    IntegrityFailure,
    IslError,
    MalformedDescriptor,
    NotFound,
    ParseError,
    TokenRejected,
    Unauthorized,
    UnknownResource,
    WrongPayment,
)
from islsim.mlsim import RoomProfile, TabularDataset
from islsim.node import IRI_PREFIX, Network, Ref, walk_provenance

PROFILE = RoomProfile(slope=2.0, intercept=1.0, noise_scale=0.05)
WARM = RoomProfile(slope=2.0, intercept=1.5, noise_scale=0.05)


@pytest.fixture
def net(tmp_path):
    network = Network.create(tmp_path / "net", owner_balance=1_000)
    network.add_node("alice", balance=500)
    network.add_node("bob", balance=500)
    network.register_node("alice")
    network.register_node("bob")
    return network


def shared_model(net, node_name="alice", local="m1", seed=11, n_rows=40):
    node = net.node(node_name)
    node.create_local_dataset("d1", seed=seed, profile=PROFILE, n_rows=n_rows)
    node.train_model(local, "d1", "occupancy_detection")
    return node.share_model(local)


class TestLocalWorkflow:
    def test_create_train_records_metadata(self, net):
        alice = net.node("alice")
        descriptor = alice.create_local_dataset("d1", seed=7, profile=PROFILE, n_rows=30)
        assert descriptor.iri == kgstore.dataset_iri("alice", "d1")
        assert descriptor.feature_schema == ("co2:ppm",)
        assert not descriptor.shared
        assert alice.store.contains(descriptor.local_uri.rsplit("/", 1)[-1])

        record = alice.train_model("m1", "d1", "occupancy_detection")
        assert record.dataset == descriptor.iri
        assert record.base_model is None
        assert record.task == kgstore.task_iri("occupancy_detection")
        assert record.mse >= 0.0
        # the stored bytes round-trip to the recorded metrics, up to the
        # 9-significant-digit quantization applied at serialization time
        from islsim.mlsim import evaluate

        measures = evaluate(alice.load_model("m1"), alice.load_dataset("d1"))
        assert measures["MAE"] == pytest.approx(record.mae, rel=1e-8)
        assert measures["MSE"] == pytest.approx(record.mse, rel=1e-8)

    @pytest.mark.parametrize("local_id, error", [("d>1", MalformedDescriptor), ("d1", DuplicateId)])
    def test_refused_dataset_leaves_no_blob(self, net, local_id, error):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=7, profile=PROFILE, n_rows=30)
        before = oracles.stored_addresses(alice.root)
        with pytest.raises(error):
            alice.create_local_dataset(local_id, seed=8, profile=PROFILE, n_rows=30)
        assert oracles.stored_addresses(alice.root) == before

    @pytest.mark.parametrize(
        "local_id, task, error",
        [
            ("m>1", "occupancy_detection", MalformedDescriptor),
            ("m1", "occupancy_detection", DuplicateId),
            ("m2", "no_such_task", MalformedDescriptor),
        ],
    )
    def test_refused_model_leaves_no_blob(self, net, local_id, task, error):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=7, profile=PROFILE, n_rows=30)
        alice.create_local_dataset("d2", seed=8, profile=PROFILE, n_rows=30)
        alice.train_model("m1", "d1", "occupancy_detection")
        before = oracles.stored_addresses(alice.root)
        with pytest.raises(error):
            alice.train_model(local_id, "d2", task)
        assert oracles.stored_addresses(alice.root) == before

    def test_failed_put_drops_the_record(self, net, monkeypatch):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=7, profile=PROFILE, n_rows=30)
        graph_before = alice.graph.export_bytes()
        blobs_before = oracles.stored_addresses(alice.root)
        put = alice.store.put

        def full_disk(data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(alice.store, "put", full_disk)
        with pytest.raises(OSError):
            alice.create_local_dataset("d2", seed=8, profile=PROFILE, n_rows=30)
        with pytest.raises(OSError):
            alice.train_model("m1", "d1", "occupancy_detection")
        assert alice.graph.export_bytes() == graph_before
        assert oracles.stored_addresses(alice.root) == blobs_before
        assert "m1" not in [r.iri.rsplit("/", 1)[-1] for r in alice.graph.models()]

        monkeypatch.setattr(alice.store, "put", put)  # the disk has room again
        alice.create_local_dataset("d2", seed=8, profile=PROFILE, n_rows=30)
        record = alice.train_model("m1", "d2", "occupancy_detection")
        assert alice.load_model("m1") is not None
        assert alice.store.contains(record.model_uri.rsplit("/", 1)[-1])

    def test_loaded_dataset_round_trips(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=3, profile=PROFILE, n_rows=12)
        data = alice.load_dataset("d1")
        assert data.n_rows == 12
        assert data.feature_names == ("co2",)

    def test_node_name_validation(self, net):
        with pytest.raises(IslError):
            net.add_node("no spaces", balance=10)
        with pytest.raises(IslError):
            net.add_node("alice", balance=10)  # duplicate
        with pytest.raises(NotFound):
            net.node("carol")


class TestSharing:
    def test_share_model_shares_dataset_first(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        alice.train_model("m1", "d1", "occupancy_detection")

        record = alice.share_model("m1")
        descriptor = alice.graph.dataset(kgstore.dataset_iri("alice", "d1"))
        assert record.shared and descriptor.shared
        # the dataset transaction landed before the model transaction
        assert int(descriptor.tx_id.split("-")[1]) < int(record.tx_id.split("-")[1])

        oracle = net.oracle
        assert oracle.find_model_by_iri(record.iri) == record.content_address
        assert oracle.find_dataset_by_iri(descriptor.iri) == descriptor.content_address
        assert oracle.check_closure() is None

    def test_share_twice_rejected(self, net):
        shared_model(net)
        with pytest.raises(AlreadyShared):
            net.node("alice").share_model("m1")

    def test_fine_tune_chain_shares_in_one_call(self, net):
        shared_model(net)
        alice = net.node("alice")
        alice.create_local_dataset("d2", seed=21, profile=WARM, n_rows=25)
        alice.fine_tune_model("m2", "m1", "d2", steps=20, learning_rate=0.05)

        record = alice.share_model("m2")
        assert record.shared
        chain = walk_provenance(net.oracle, record.content_address)
        assert [s.model_iri for s in chain] == [
            kgstore.model_iri("alice", "m1"),
            kgstore.model_iri("alice", "m2"),
        ]
        assert net.oracle.check_closure() is None

    def test_foreign_unshared_ancestor_aborts_cleanly(self, net):
        bob = net.node("bob")
        bob.create_local_dataset("d1", seed=31, profile=PROFILE, n_rows=20)
        bob.train_model("m1", "d1", "occupancy_detection")
        # claim a parent bob never had: a model alice never shared either
        ghost = kgstore.model_iri("alice", "never-shared")
        bob.depgraph._edges[kgstore.model_iri("bob", "m1")] = (
            ghost,
            kgstore.dataset_iri("bob", "d1"),
        )
        bob.depgraph._edges[ghost] = (None, kgstore.dataset_iri("bob", "d1"))

        before = net.ledger.canonical_state()
        with pytest.raises(IncompleteChain):
            bob.share_model("m1")
        # aborted before any transaction: nothing on chain moved at all
        assert net.ledger.canonical_state() == before
        assert not bob.graph.model(kgstore.model_iri("bob", "m1")).shared
        assert not bob.graph.dataset(kgstore.dataset_iri("bob", "d1")).shared

    def test_share_foreign_dataset_rejected(self, net):
        shared_model(net)
        bob = net.node("bob")
        with pytest.raises(NotFound):
            bob.share_dataset("d1")  # bob has no such dataset

    def test_identical_content_adopts_existing_registration(self, net):
        alice, bob = net.node("alice"), net.node("bob")
        alice.create_local_dataset("d1", seed=77, profile=PROFILE, n_rows=15)
        bob.create_local_dataset("mine", seed=77, profile=PROFILE, n_rows=15)

        first = alice.share_dataset("d1")
        log_len = len(net.ledger.log)
        second = bob.share_dataset("mine")

        assert second.content_address == first.content_address
        assert second.tx_id == first.tx_id
        assert len(net.ledger.log) == log_len  # no new transaction was needed
        entry = net.oracle.dataset_entry(first.content_address)
        assert entry["owner"] == alice.account

    def test_model_on_adopted_dataset_points_at_the_existing_registration(self, net):
        alice, bob = net.node("alice"), net.node("bob")
        alice.create_local_dataset("d1", seed=77, profile=PROFILE, n_rows=15)
        bob.create_local_dataset("mine", seed=77, profile=PROFILE, n_rows=15)
        bob.train_model("m1", "mine", "occupancy_detection")
        first = alice.share_dataset("d1")
        log_len = len(net.ledger.log)

        record = bob.share_model("m1")

        assert len(net.ledger.log) == log_len + 1  # the model only, no dataset tx
        # the registry knows the bytes under alice's IRI, not under bob's
        assert net.oracle.find_dataset_by_iri(kgstore.dataset_iri("bob", "mine")) is None
        entry = net.oracle.model_entry(record.content_address)
        assert entry["dataset_addr"] == first.content_address
        assert bob.graph.dataset(kgstore.dataset_iri("bob", "mine")).shared
        assert net.oracle.check_closure() is None

    def test_squatted_iri_does_not_redirect_provenance(self, net):
        alice, bob = net.node("alice"), net.node("bob")
        ds_iri = alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40).iri
        alice.train_model("m1", "d1", "occupancy_detection")
        # bob registers bytes nobody holds under alice's dataset IRI
        squat = net.ledger.submit(bob.account, "oracle", "share_dataset", (ds_iri, "ab" * 32))
        assert squat.status == "ok"

        record = alice.share_model("m1")

        descriptor = alice.graph.dataset(ds_iri)
        assert descriptor.shared
        entry = net.oracle.model_entry(record.content_address)
        assert entry["dataset_addr"] == descriptor.content_address
        assert net.oracle.check_closure() is None

    @pytest.mark.parametrize("tampered", ["dataset", "model"])
    def test_tampered_blob_shares_nothing(self, net, tampered):
        alice = net.node("alice")
        descriptor = alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        record = alice.train_model("m1", "d1", "occupancy_detection")
        uri = descriptor.local_uri if tampered == "dataset" else record.model_uri
        alice.store.path_for(uri.rsplit("/", 1)[-1]).write_bytes(b"tampered\n")
        log_len = len(net.ledger.log)
        blobs = oracles.stored_addresses(alice.root)
        triples = alice.graph.export_bytes()

        if tampered == "dataset":
            with pytest.raises(IntegrityFailure):
                alice.share_dataset("d1")
        # the tip's dataset is unshared, so every planned blob is checked before the first tx
        with pytest.raises(IntegrityFailure):
            alice.share_model("m1")

        assert len(net.ledger.log) == log_len
        assert oracles.stored_addresses(alice.root) == blobs
        assert alice.graph.export_bytes() == triples

    def test_reused_dataset_is_shared_before_its_first_model(self, net):
        # m3 goes back to m1's dataset; fine-tuning m1 on d1 directly would
        # not move the least-squares fit, so m2 on d2 sits in between
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        alice.create_local_dataset("d2", seed=21, profile=WARM, n_rows=25)
        alice.train_model("m1", "d1", "occupancy_detection")
        alice.fine_tune_model("m2", "m1", "d2", steps=20, learning_rate=0.05)
        alice.fine_tune_model("m3", "m2", "d1", steps=10, learning_rate=0.05)
        log_len = len(net.ledger.log)

        alice.share_model("m3")

        submitted = [(e.method, e.args[0]) for e in net.ledger.log[log_len:]]
        assert submitted == [
            ("share_dataset", kgstore.dataset_iri("alice", "d1")),
            ("share_model", kgstore.model_iri("alice", "m1")),
            ("share_dataset", kgstore.dataset_iri("alice", "d2")),
            ("share_model", kgstore.model_iri("alice", "m2")),
            ("share_model", kgstore.model_iri("alice", "m3")),
        ]
        assert net.oracle.check_closure() is None

    def test_shared_remote_base_stops_the_walk(self, net):
        shared_model(net)
        alice = net.node("alice")
        alice.create_local_dataset("d2", seed=91, profile=WARM, n_rows=20)
        alice.fine_tune_model("m2", "m1", "d2", steps=10, learning_rate=0.05)
        tuned = alice.share_model("m2")
        bob = net.node("bob")
        bob.acquire_model(tuned.content_address, payment=0)
        # bob's graph holds alice's m2 but none of its ancestors
        assert not bob.graph.has_model(kgstore.model_iri("alice", "m1"))
        bob.create_local_dataset("mine", seed=14, profile=WARM, n_rows=10)
        bob.fine_tune_model("refit", tuned.iri, "mine", steps=5, learning_rate=0.05)
        log_len = len(net.ledger.log)

        record = bob.share_model("refit")

        assert len(net.ledger.log) == log_len + 2  # bob's dataset, then his model
        chain = walk_provenance(net.oracle, record.content_address)
        assert [s.model_iri for s in chain] == [
            kgstore.model_iri("alice", "m1"),
            tuned.iri,
            record.iri,
        ]
        assert net.oracle.check_closure() is None


class TestMarketplace:
    def test_query_filters_and_ranks(self, net):
        record = shared_model(net)
        net.node("alice").set_price("m1", 10)

        bob = net.node("bob")
        ranked = bob.query_models("occupancy_detection", {"co2", "temperature"})
        assert len(ranked) == 1
        hit = ranked[0]
        assert hit.address == record.content_address
        assert hit.owner_node == "alice"
        assert hit.price == 10
        assert hit.mse == record.mse

        assert bob.query_models("occupancy_detection", {"temperature"}) == []
        assert bob.query_models("energy_prediction", {"co2"}) == []

    def test_query_orders_by_mse_then_address(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("noisy", seed=5, profile=RoomProfile(2.0, 1.0, 0.8), n_rows=60)
        alice.create_local_dataset("clean", seed=5, profile=RoomProfile(2.0, 1.0, 0.01), n_rows=60)
        alice.train_model("rough", "noisy", "occupancy_detection")
        alice.train_model("sharp", "clean", "occupancy_detection")
        alice.share_model("rough")
        alice.share_model("sharp")

        ranked = net.node("bob").query_models("occupancy_detection", {"co2"})
        assert [r.mse for r in ranked] == sorted(r.mse for r in ranked)
        assert ranked[0].owner_node == "alice"
        assert len(ranked) == 2

    @pytest.mark.parametrize("squat", ["unknown IRI", "foreign IRI", "acquired IRI", "own IRI"])
    def test_squatted_entry_is_not_listed(self, net, squat):
        record = shared_model(net)
        ds_addr = net.node("alice").graph.dataset(record.dataset).content_address
        bob = net.node("bob")
        iri = {"unknown IRI": "isl://nobody/model/x", "own IRI": kgstore.model_iri("bob", "m1")}
        if squat == "acquired IRI":
            bob.acquire_model(record.content_address, payment=0)  # bob caches alice's record
        if squat == "own IRI":
            own = shared_model(net, "bob", seed=12)  # listed once, under its real address
        # bob registers bytes nobody holds under an IRI he holds no record of at that address
        receipt = net.ledger.submit(bob.account, "oracle", "share_model", (
            iri.get(squat, record.iri), "ef" * 32, record.task, ds_addr, None))
        assert receipt.status == "ok"

        carol = net.add_node("carol", balance=0)
        ranked = carol.query_models("occupancy_detection", {"co2"})

        expected = [(record.content_address, "alice", record.mse)]
        if squat == "own IRI":
            expected = sorted(expected + [(own.content_address, "bob", own.mse)], key=lambda r: r[2])
        assert [(m.address, m.owner_node, m.mse) for m in ranked] == expected

    def test_acquire_refuses_a_squatted_entry(self, net):
        record = shared_model(net)
        bob = net.node("bob")
        bob.create_local_dataset("d1", seed=12, profile=WARM, n_rows=30)
        own = bob.train_model("m1", "d1", "occupancy_detection")
        ds_addr = bob.share_dataset("d1").content_address
        addr = own.model_uri.rsplit("/", 1)[-1]
        # bob's own bytes, registered under alice's model IRI
        squat = net.ledger.submit(
            bob.account, "oracle", "share_model", (record.iri, addr, record.task, ds_addr, None)
        )
        assert squat.status == "ok"
        bob.set_price(addr, 30)
        carol = net.add_node("carol", balance=100)
        net.register_node("carol")
        log_len = len(net.ledger.log)

        with pytest.raises(NotFound):
            carol.acquire_model(addr, payment=30)

        # refused before the acquire transaction: nothing paid, nothing logged
        assert carol.balance == 100
        assert len(net.ledger.log) == log_len
        assert oracles.stored_addresses(carol.root) == []
        assert not carol.graph.has_model(record.iri)

    def test_acquire_pays_and_caches(self, net):
        record = shared_model(net)
        alice, bob = net.node("alice"), net.node("bob")
        alice.set_price("m1", 40)

        got = bob.acquire_model(record.content_address, payment=40)
        assert got.iri == record.iri
        assert bob.balance == 460 and alice.balance == 540
        assert bob.store.contains(record.content_address)
        cached = bob.graph.model(record.iri)
        assert cached.shared and cached.owner_node == "alice"
        # bob can run the model straight from his own cache
        model = bob.load_model(record.iri)
        assert model.input_features == ("co2",)

    def test_acquire_wrong_payment_changes_nothing(self, net):
        record = shared_model(net)
        net.node("alice").set_price("m1", 40)
        bob = net.node("bob")
        before_state = net.ledger.canonical_state()
        before_blobs = oracles.stored_addresses(bob.root)

        with pytest.raises(WrongPayment):
            bob.acquire_model(record.content_address, payment=39)

        assert net.ledger.canonical_state() == before_state
        assert oracles.stored_addresses(bob.root) == before_blobs
        assert not bob.graph.has_model(record.iri)

    def test_acquire_imports_provenance(self, net):
        shared_model(net)
        alice = net.node("alice")
        alice.create_local_dataset("d2", seed=91, profile=WARM, n_rows=20)
        alice.fine_tune_model("m2", "m1", "d2", steps=10, learning_rate=0.05)
        tuned = alice.share_model("m2")

        bob = net.node("bob")
        bob.acquire_model(tuned.content_address, payment=0)
        trace = bob.depgraph.trace(tuned.iri)
        assert [s for s in trace.steps] == [
            (kgstore.model_iri("alice", "m1"), kgstore.dataset_iri("alice", "d1")),
            (kgstore.model_iri("alice", "m2"), kgstore.dataset_iri("alice", "d2")),
        ]
        # and bob can keep building on it locally
        bob.create_local_dataset("mine", seed=14, profile=WARM, n_rows=10)
        local = bob.fine_tune_model("refit", tuned.iri, "mine", steps=5, learning_rate=0.05)
        assert local.base_model == tuned.iri

    def test_acquire_own_resource_is_a_noop(self, net):
        record = shared_model(net)
        alice = net.node("alice")
        blobs = oracles.stored_addresses(alice.root)
        got = alice.acquire_model(record.content_address, payment=0)
        assert got == alice.graph.model(record.iri)
        assert oracles.stored_addresses(alice.root) == blobs

    def test_acquire_dataset(self, net):
        alice, bob = net.node("alice"), net.node("bob")
        descriptor = alice.create_local_dataset("d1", seed=8, profile=PROFILE, n_rows=16)
        alice.share_dataset("d1")
        shared = alice.graph.dataset(descriptor.iri)
        alice.set_price("d1", 5)

        got = bob.acquire_model(shared.content_address, payment=5)
        assert got.iri == descriptor.iri
        assert bob.load_dataset(descriptor.iri).n_rows == 16
        assert bob.balance == 495

    def test_provenance_matches_owner_trace(self, net):
        shared_model(net)
        alice = net.node("alice")
        alice.create_local_dataset("d2", seed=19, profile=WARM, n_rows=18)
        alice.fine_tune_model("m2", "m1", "d2", steps=15, learning_rate=0.05)
        tuned = alice.share_model("m2")

        chain = walk_provenance(net.oracle, tuned.content_address)
        owner_steps = alice.depgraph.trace(tuned.iri).steps
        assert [(s.model_iri, s.dataset_iri) for s in chain] == list(owner_steps)
        for step in chain:
            assert step.owner == alice.account
            assert step.tx_id.startswith("tx-")

    def test_provenance_requires_shared_model(self, net):
        with pytest.raises(UnknownResource):
            walk_provenance(net.oracle, "f" * 64)


FEATURES = tuple(sorted(kgstore.FEATURE_UNITS))


def honest_op(share):
    # (kind, node, task, input features, data seed, price, share it)
    return st.tuples(st.just("honest"), st.integers(0, 2), st.sampled_from(kgstore.TASKS),
                     st.sets(st.sampled_from(FEATURES), min_size=1, max_size=3),
                     st.integers(0, 2**16), st.sampled_from([0, 0, 7]), share)


registry_op = st.one_of(
    honest_op(st.booleans()),
    # (kind, buyer, pick among the registered models)
    st.tuples(st.just("acquire"), st.integers(0, 2), st.integers(0, 50)),
    # (kind, sender: a node or the network owner, IRI from the sender's own graph,
    #  IRI pick, task, register bytes the sender holds)
    st.tuples(st.just("raw"), st.integers(0, 3), st.booleans(), st.integers(0, 50),
              st.sampled_from(kgstore.TASKS), st.booleans()),
)
market_query = st.tuples(st.integers(0, 2), st.sampled_from(kgstore.TASKS),
                         st.one_of(st.just(set(FEATURES)), st.sets(st.sampled_from(FEATURES))))


def honest_model(node, i, task, feats, seed):
    rng = random.Random(seed)
    rows = tuple(
        (tuple(rng.uniform(-2.0, 2.0) for _ in feats), rng.uniform(-2.0, 2.0))
        for _ in range(len(feats) + 3)
    )
    addr = node.store.put(TabularDataset(feats, rows).to_csv_bytes())
    node.graph.register_dataset(kgstore.DatasetDescriptor(
        iri=kgstore.dataset_iri(node.name, f"d{i}"),
        owner_node=node.name,
        feature_schema=tuple(f"{f}:{kgstore.FEATURE_UNITS[f]}" for f in feats),
        local_uri=node.store.relative_uri(addr),
    ))
    return node.train_model(f"m{i}", f"d{i}", task)


def reference_query(net, task, sensors):
    """Registry entries whose owner's graph records that model shared there, by brute force."""
    nodes = {net.node(name).account: net.node(name) for name in net.node_names()}
    prices = net.isl.state_dict()["prices"]
    rows = []
    for addr, entry in net.oracle.state_dict()["shared_models"].items():
        node = nodes.get(entry["owner"])
        if entry["task"] != task or node is None:
            continue
        rec = oracles.scan_record(node.graph.triples, entry["iri"], "Model")
        if not isinstance(rec, dict) or rec["content_address"] != addr:
            continue
        if set(rec["input_features"]) <= sensors:
            rows.append((addr, task, rec["input_features"], rec["mse"], rec["mae"], node.name,
                         prices.get(addr, 0)))
    return sorted(rows, key=lambda r: (r[3], r[0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(honest_op(st.just(True)), min_size=1, max_size=4),
       st.lists(registry_op, min_size=1, max_size=8),
       st.lists(market_query, min_size=1, max_size=4))
def test_query_matches_a_brute_force_reference_over_squatted_registries(shared, ops, queries):
    """Criterion 10's ground-truth check, over registries that also hold raw entries."""
    with tempfile.TemporaryDirectory() as root:
        net = Network.create(Path(root), owner_balance=1_000)
        nodes = [net.add_node(name, balance=500) for name in ("n0", "n1", "n2")]
        for node in nodes:
            net.register_node(node.name)
        net.submit(net.owner_account, "oracle", "register_node", (net.owner_account,))
        senders = [node.account for node in nodes] + [net.owner_account]
        iris = ["isl://nobody/model/x"]
        for n, op in enumerate(shared + ops):
            models = sorted(net.oracle.state_dict()["shared_models"])
            if op[0] == "honest":
                _, who, task, feats, seed, price, share = op
                record = honest_model(nodes[who], n, task, tuple(sorted(feats)), seed)
                iris += [record.iri, record.dataset]
                # a raw entry may already hold these bytes, or refuse a squatted one
                with contextlib.suppress(IslError):
                    if share:
                        nodes[who].share_model(record.iri)
                        if price:
                            nodes[who].set_price(record.iri, price)
            elif op[0] == "acquire" and models:
                _, who, pick = op
                addr = models[pick % len(models)]
                with contextlib.suppress(IslError):
                    nodes[who].acquire_model(addr, payment=net.isl.price_of(addr))
            elif op[0] == "raw" and models:
                _, who, own, pick, task, held = op
                pool = [m.iri for m in nodes[who].graph.models()] if own and who < 3 else []
                pool = pool or iris
                blobs = oracles.stored_addresses(nodes[who].root) if held and who < 3 else []
                addr = blobs[-1] if blobs else content_address(f"squat {n}".encode())
                ds_addr = net.oracle.model_entry(models[0])["dataset_addr"]
                net.ledger.submit(senders[who], "oracle", "share_model",
                                  (pool[pick % len(pool)], addr, kgstore.task_iri(task), ds_addr, None))
        for who, task, sensors in queries:
            got = nodes[who].query_models(task, sensors)
            assert got == reference_query(net, kgstore.task_iri(task), sensors)


class TestTransferIntegrity:
    def test_serve_blob_rejects_bad_token(self, net):
        record = shared_model(net)
        alice, bob = net.node("alice"), net.node("bob")
        with pytest.raises(TokenRejected):
            alice.serve_blob(record.content_address, "not-a-token", bob.account)

    def test_tampered_blob_fails_before_any_local_write(self, net):
        record = shared_model(net)
        alice, bob = net.node("alice"), net.node("bob")
        alice.set_price("m1", 7)

        path = alice.store.path_for(record.content_address)
        original = path.read_bytes()
        path.write_bytes(original[:-1] + bytes([original[-1] ^ 0xFF]))
        try:
            with pytest.raises(IntegrityFailure):
                bob.acquire_model(record.content_address, payment=7)
        finally:
            path.write_bytes(original)

        # payment settled on chain before the transfer was attempted
        assert bob.balance == 493
        # but nothing corrupt reached bob's store or graph
        assert not bob.store.contains(record.content_address)
        assert not bob.graph.has_model(record.iri)

        got = bob.acquire_model(record.content_address, payment=7)
        assert content_address(bob.store.get(got.content_address)) == record.content_address


class TestPricing:
    def test_set_price_requires_shared_resource(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=2, profile=PROFILE, n_rows=10)
        with pytest.raises(UnknownResource):
            alice.set_price("d1", 3)
        with pytest.raises(NotFound):
            alice.set_price("nothing-here", 3)

    def test_set_price_returns_resolved_address(self, net):
        record = shared_model(net)
        addr = net.node("alice").set_price("m1", 12)
        assert addr == record.content_address
        assert net.isl.price_of(addr) == 12


class TestPersistence:
    def test_persist_writes_graph_and_account(self, net, tmp_path):
        record = shared_model(net)
        alice = net.node("alice")
        net.persist()

        kg_file = alice.root / "kg.nt"
        account_file = alice.root / "account.txt"
        assert account_file.read_text() == alice.account + "\n"

        assert kg_file.read_bytes() == alice.graph.export_bytes()
        lines = kg_file.read_text().splitlines()
        assert all(oracles.is_ntriples_line(line) for line in lines)
        address = f'<{record.iri}> <{kgstore.P_CONTENT_ADDRESS}> "{record.content_address}" .'
        assert address in lines


class TestReferenceResolution:
    def test_iri_refs_are_passed_through(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=4, profile=PROFILE, n_rows=10)
        iri = kgstore.dataset_iri("alice", "d1")
        assert iri.startswith(IRI_PREFIX)
        assert alice.load_dataset(iri).n_rows == 10

    def test_named_kind_forms_the_iri_without_reading_a_graph(self, net, monkeypatch):
        def no_read(self, iri):
            raise AssertionError(f"read {iri}")

        monkeypatch.setattr(kgstore.KnowledgeGraph, "has_model", no_read)
        monkeypatch.setattr(kgstore.KnowledgeGraph, "model", no_read)
        iri = kgstore.model_iri("carol", "m1")
        for ref in ("m1", "carol/m1", iri):
            assert net.resolve(ref, "carol", "model") == Ref("model", iri, None)
        with pytest.raises(ParseError):
            net.resolve("f" * 64, "carol", "model")
        with pytest.raises(ParseError):
            net.resolve(kgstore.dataset_iri("carol", "d1"), "carol", "model")

    def test_unnamed_kind_reads_the_named_node_graph(self, net):
        record = shared_model(net)
        ds = net.node("alice").graph.dataset(record.dataset)
        assert net.resolve("alice/m1") == Ref("model", record.iri, record.content_address)
        assert net.resolve("d1", "alice") == Ref("dataset", ds.iri, ds.content_address)
        assert net.resolve(record.iri, "bob") == Ref("model", record.iri, record.content_address)
        assert net.resolve("e" * 64) == Ref(None, None, "e" * 64)
        net.node("alice").train_model("m2", "d1", "occupancy_detection")
        assert net.resolve("alice/m2") == Ref("model", kgstore.model_iri("alice", "m2"), None)
        with pytest.raises(UnknownResource):
            net.shared_address("alice/m2")
        with pytest.raises(NotFound):
            net.resolve("bob/m1")  # bob's graph holds no m1
        with pytest.raises(ParseError):
            net.resolve("carol/m1")  # no such node
        with pytest.raises(ParseError):
            net.resolve("m1")  # a bare id with no actor names no node

    def test_node_id_with_a_slash_names_another_node(self, net):
        record = shared_model(net)
        bob = net.node("bob")
        with pytest.raises(NotFound):
            bob.load_model("alice/m1")  # bob holds no copy yet
        bob.acquire_model(record.content_address, payment=0)
        bob.create_local_dataset("mine", seed=14, profile=WARM, n_rows=10)
        tuned = bob.fine_tune_model("t", "alice/m1", "bob/mine", steps=5, learning_rate=0.05)
        assert tuned.base_model == record.iri
        assert tuned.dataset == kgstore.dataset_iri("bob", "mine")

    def test_set_price_reads_the_named_node_even_for_another_actor(self, net):
        record = shared_model(net)
        log_len = len(net.ledger.log)
        with pytest.raises(Unauthorized):
            net.node("bob").set_price("alice/m1", 5)
        assert len(net.ledger.log) == log_len + 1  # the refused call is logged as a revert
        assert net.ledger.log[-1].args == (record.content_address, 5)

    def test_byte_identical_fine_tune_resolves_to_its_base_address(self, net):
        record = shared_model(net)
        alice = net.node("alice")
        tuned = alice.fine_tune_model("m2", "m1", "d1", steps=0, learning_rate=0.05)
        assert tuned.model_uri == record.model_uri  # no step taken: the same bytes
        alice.share_model("m2")  # adopts m1's registration
        assert net.shared_address("alice/m2") == record.content_address
