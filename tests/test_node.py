"""End-to-end node behavior on a fresh in-memory network.

Everything here exercises the full stack: blob store, knowledge graph,
dependency graph, and the two contracts behind a real ledger.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from islsim import cli, kgstore
from islsim import node as node_module
from islsim.cas import content_address
from islsim.errors import (
    AlreadyShared,
    DuplicateId,
    IntegrityFailure,
    IslError,
    MalformedArgs,
    MalformedDescriptor,
    NotFound,
    ParseError,
    TokenRejected,
    Unauthorized,
    UnknownModel,
    UnknownResource,
    WrongPayment,
)
from islsim.kgstore import DatasetDescriptor, ModelRecord
from islsim.ledger import log_lines
from islsim.mlsim import RoomProfile, TabularDataset
from islsim.node import IRI_PREFIX, Network, Ref, walk_provenance

PROFILE = RoomProfile(slope=2.0, intercept=1.0, noise_scale=0.05)
WARM = RoomProfile(slope=2.0, intercept=1.5, noise_scale=0.05)


def two_node_network(root):
    network = Network.create(root, owner_balance=1_000)
    network.add_node("alice", balance=500)
    network.add_node("bob", balance=500)
    network.register_node("alice")
    network.register_node("bob")
    return network


@pytest.fixture
def net(tmp_path):
    return two_node_network(tmp_path / "net")


def squat_bob_ancestry(net):
    """mal registers its own d0 and m0 bytes under bob's IRIs ``dx`` and ``m9``, adopts both
    rows by sharing m0, then shares m1, fine-tuned from m0: m1's chain runs through bob's IRIs."""
    mal = net.add_node("mal", balance=100)
    net.register_node("mal")
    d0 = mal.create_local_dataset("d0", seed=5, profile=PROFILE, n_rows=30)
    m0 = mal.train_model("m0", "d0", "occupancy_detection")
    d0_addr, m0_addr = (r.local_uri.rsplit("/", 1)[-1] for r in (d0, m0))
    for method, args in (
        ("share_dataset", (kgstore.dataset_iri("bob", "dx"), d0_addr)),
        ("share_model", (kgstore.model_iri("bob", "m9"), m0_addr, m0.task, d0_addr, None)),
    ):
        assert net.ledger.submit(mal.account, "oracle", method, args).status == "ok"
    mal.share_model("m0")
    mal.create_local_dataset("d1", seed=6, profile=WARM, n_rows=20)
    mal.fine_tune_model("m1", "m0", "d1", steps=10, learning_rate=0.05)
    return mal.share_model("m1")


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

    @pytest.mark.parametrize("local_id, error", [
        ("d>1", MalformedDescriptor), ("d\ud800", MalformedDescriptor), ("d1", DuplicateId)])
    def test_refused_dataset_leaves_no_blob(self, net, local_id, error):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=7, profile=PROFILE, n_rows=30)
        before = oracles.stored_addresses(alice.root)
        with pytest.raises(error):
            alice.create_local_dataset(local_id, seed=8, profile=PROFILE, n_rows=30)
        assert oracles.stored_addresses(alice.root) == before
        net.persist()  # the graph holds nothing its export cannot write

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

    def test_a_fine_tune_to_an_infinite_mse_leaves_no_trace(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        alice.train_model("m1", "d1", "occupancy_detection")
        graph_before = alice.graph.export_bytes()
        blobs_before = oracles.stored_addresses(alice.root)
        with pytest.raises(MalformedDescriptor, match="MSE must be a finite"):
            alice.fine_tune_model("m2", "m1", "d1", steps=1, learning_rate=1e300)
        assert alice.graph.export_bytes() == graph_before
        assert oracles.stored_addresses(alice.root) == blobs_before
        with pytest.raises(UnknownModel):
            alice.depgraph.trace(kgstore.model_iri("alice", "m2"))

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
        assert alice.store.contains(record.local_uri.rsplit("/", 1)[-1])

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


def observables(net):
    """What a refused call must leave as it was: chain state, log, every graph and blob set."""
    nodes = [net.node(name) for name in net.node_names()]
    return (net.ledger.state_dict(), log_lines(net.ledger),
            {n.name: n.graph.triples for n in nodes},
            {n.name: oracles.stored_addresses(n.root) for n in nodes})


# (call(net, alice) after alice shared m1 trained on d1, error, message): each bound
# is checked by the layer that owns the value (ledger, mlsim, kgstore) before any write
API_REFUSALS = {
    "rows-bool": (lambda net, a: a.create_local_dataset("d2", 1, PROFILE, True),
                  TypeError, "seed and n_rows must be ints, got 1, True"),
    "rows-zero": (lambda net, a: a.create_local_dataset("d2", 1, PROFILE, 0),
                  ValueError, "n_rows must be at least 1 .*got 0,"),
    "seed-float": (lambda net, a: a.create_local_dataset("d2", 1.5, PROFILE, 10),
                   TypeError, "seed and n_rows must be ints, got 1.5, 10"),
    "profile-nan": (lambda net, a: a.create_local_dataset("d2", 1, RoomProfile(math.nan, 1.0, 0.1), 10),
                    ValueError, r"profile finite, got 10, RoomProfile\(slope=nan"),
    "dataset-id-int": (lambda net, a: a.create_local_dataset(5, 1, PROFILE, 10),
                       TypeError, "local id must be a str"),
    "model-id-int": (lambda net, a: a.train_model(5, "d1", "occupancy_detection"),
                     TypeError, "local id must be a str"),
    "steps-bool": (lambda net, a: a.fine_tune_model("m2", "m1", "d1", True, 0.05),
                   TypeError, "steps must be an int .*got True, 0.05"),
    "steps-negative": (lambda net, a: a.fine_tune_model("m2", "m1", "d1", -1, 0.05),
                       ValueError, "steps must be >= 0 .*got -1, 0.05"),
    "lr-bool": (lambda net, a: a.fine_tune_model("m2", "m1", "d1", 1, True),
                TypeError, "the rate a number, got 1, True"),
    "lr-zero": (lambda net, a: a.fine_tune_model("m2", "m1", "d1", 1, 0.0),
                ValueError, "the rate finite and > 0, got 1, 0.0"),
    "lr-inf": (lambda net, a: a.fine_tune_model("m2", "m1", "d1", 1, math.inf),
               ValueError, "the rate finite and > 0, got 1, inf"),
    "balance-negative": (lambda net, a: net.add_node("carol", -1), ValueError, "non-negative int"),
    "balance-bool": (lambda net, a: net.add_node("carol", True), TypeError, "must be an int, got True"),
    "payment-negative": (lambda net, a: net.node("bob").acquire_model(
        net.shared_address("alice/m1"), -1), ValueError, "non-negative int"),
    "payment-bool": (lambda net, a: net.node("bob").acquire_model(
        net.shared_address("alice/m1"), True), TypeError, "must be an int, got True"),
    "price-beyond-word": (lambda net, a: a.set_price("m1", 2**256), ValueError, r"2\*\*256"),
}


@pytest.mark.parametrize("call, error, message", API_REFUSALS.values(), ids=API_REFUSALS)
def test_an_api_argument_out_of_bounds_is_refused_before_any_write(net, call, error, message):
    shared_model(net)
    before = observables(net)
    with pytest.raises(error, match=message):
        call(net, net.node("alice"))
    assert observables(net) == before


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

    def test_a_byte_identical_fine_tune_shares_under_its_base_registration(self, net):
        # an allowed case: from a least-squares base, gradient steps on the base's own
        # dataset leave the bytes unchanged, so the share adopts the base's row
        base = shared_model(net)
        alice = net.node("alice")
        tuned = alice.fine_tune_model("m2", "m1", "d1", steps=10, learning_rate=0.05)
        log_len = len(net.ledger.log)

        shared = alice.share_model("m2")

        assert len(net.ledger.log) == log_len
        assert (shared.content_address, shared.tx_id) == (base.content_address, base.tx_id)
        assert tuned.iri not in {e["iri"] for e in net.oracle.state["shared_models"].values()}
        walk = walk_provenance(net.oracle, shared.content_address)
        assert [(s.model_iri, s.dataset_iri) for s in walk] == [(base.iri, base.dataset)]
        assert alice.depgraph.trace(tuned.iri).steps == ((base.iri, base.dataset),
                                                         (tuned.iri, base.dataset))

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
        uri = (descriptor if tampered == "dataset" else record).local_uri
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

    @pytest.mark.parametrize("tampered", ["dataset", "last built dataset", "model"])
    def test_tampered_blob_trains_nothing(self, net, tampered):
        alice = net.node("alice")
        d1 = alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        d2 = alice.create_local_dataset("d2", seed=21, profile=WARM, n_rows=40)
        m1 = alice.train_model("m1", "d1", "occupancy_detection")
        m2 = alice.train_model("m2", "d2", "occupancy_detection")
        alice.share_model("m1")
        # the stored blob of the victim now holds the donor's valid bytes; d2 is the
        # dataset alice generated last, which a load hands back unparsed once its bytes check
        victim, donor = {"dataset": (d1, d2), "last built dataset": (d2, d1), "model": (m1, m2)}[tampered]
        alice.store.path_for(victim.local_uri.rsplit("/", 1)[-1]).write_bytes(
            alice.store.path_for(donor.local_uri.rsplit("/", 1)[-1]).read_bytes())
        log_len = len(net.ledger.log)
        blobs = oracles.stored_addresses(alice.root)
        triples = alice.graph.export_bytes()

        with pytest.raises(IntegrityFailure):
            if tampered == "model":
                alice.fine_tune_model("m3", "m1", "d2", steps=5, learning_rate=0.05)
            else:
                alice.train_model("m3", victim.iri, "occupancy_detection")
        assert not alice.graph.has_model(kgstore.model_iri("alice", "m3"))
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

    # alice's share of m1 marks d1, then m1, shared in her graph and their rows valid
    @pytest.mark.parametrize("owner, method, call", [
        (kgstore.KnowledgeGraph, "mark_shared", 1), (Network, "mark_valid", 1),
        (kgstore.KnowledgeGraph, "mark_shared", 2), (Network, "mark_valid", 2),
    ])
    def test_a_share_interrupted_at_any_mark_is_completed_by_its_retry(
            self, net, monkeypatch, owner, method, call):
        alice, bob = net.node("alice"), net.node("bob")
        alice.create_local_dataset("d1", seed=11, profile=PROFILE, n_rows=40)
        alice.train_model("m1", "d1", "occupancy_detection")
        real, calls = getattr(owner, method), []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == call:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(owner, method, interrupted)
        with pytest.raises(KeyboardInterrupt):
            alice.share_model("m1")
        monkeypatch.setattr(owner, method, real)

        record = alice.share_model("m1")
        with pytest.raises(AlreadyShared):
            alice.share_model("m1")
        row = net.oracle.model_entry(record.content_address)
        net.mark_valid(alice, record.content_address, row, record)  # a repeat lists nothing twice
        hits = bob.query_models("occupancy_detection", {"co2"})
        assert [hit.address for hit in hits] == [record.content_address]
        assert bob.acquire_model(record.content_address, payment=0).iri == record.iri
        dataset = alice.graph.dataset(record.dataset)
        assert bob.acquire_model(dataset.content_address, payment=0).iri == dataset.iri
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

    def test_query_refuses_a_string_of_sensors(self, net):
        shared_model(net)
        bob = net.node("bob")
        # iterated, "co2" would be the sensor set {"c", "o", "2"} and match nothing
        with pytest.raises(TypeError, match="'co2'"):
            bob.query_models("occupancy_detection", "co2")
        assert len(bob.query_models("occupancy_detection", {"co2"})) == 1

    @pytest.mark.parametrize("task", [None, 3, b"occupancy_detection"])
    def test_a_task_that_is_not_a_str_is_refused_before_any_work(self, net, monkeypatch, task):
        shared_model(net)
        alice = net.node("alice")
        work = []  # listing reads, dataset loads and fits, none of which may run
        monkeypatch.setattr(Network, "listed_models", lambda *args: work.append(args))
        monkeypatch.setattr(node_module.IslNode, "load_dataset", lambda *args: work.append(args))
        monkeypatch.setattr(node_module.mlsim, "train", lambda *args: work.append(args))
        blobs = oracles.stored_addresses(alice.root)

        with pytest.raises(TypeError, match="task must be a str"):
            alice.query_models(task, {"co2"})
        with pytest.raises(TypeError, match="task must be a str"):
            alice.train_model("m2", "d1", task)

        assert work == []
        assert not alice.graph.has_model(kgstore.model_iri("alice", "m2"))
        assert oracles.stored_addresses(alice.root) == blobs

    @pytest.mark.parametrize("sensors", [{"co2", 5}, {None}, frozenset({("co2",)})])
    def test_a_sensor_that_is_not_a_str_is_refused_before_any_listing_read(
            self, net, monkeypatch, sensors):
        shared_model(net)
        reads = []
        monkeypatch.setattr(Network, "listed_models", lambda *args: reads.append(args))
        with pytest.raises(TypeError, match="sensors must be feature names"):
            net.node("bob").query_models("occupancy_detection", sensors)
        assert reads == []

    def test_a_query_shows_every_price_write(self, net):
        record = shared_model(net)
        alice, bob = net.node("alice"), net.node("bob")
        addr = record.content_address

        def prices():
            ranked = bob.query_models("occupancy_detection", {"co2"})
            assert ranked == reference_query(net, record.task, {"co2"})
            return [m.price for m in ranked]

        first = bob.query_models("occupancy_detection", {"co2"})
        assert [m.price for m in first] == [0]
        alice.set_price("m1", 10)
        assert prices() == [10]
        assert first[0].price == 0  # an earlier result is the caller's and does not move

        with pytest.raises(Unauthorized):
            bob.set_price(addr, 3)
        with pytest.raises(MalformedArgs):
            alice.set_price("m1", -1)
        assert prices() == [10]

        # a raw transaction, with no IslNode in between
        assert net.ledger.submit(alice.account, "isl", "set_price", (addr, 12)).status == "ok"
        assert prices() == [12]
        assert net.ledger.submit(bob.account, "isl", "set_price", (addr, 4)).status == "reverted"
        assert prices() == [12]

        got = bob.query_models("occupancy_detection", {"co2"})
        got.clear()
        assert prices() == [12]
        got = bob.query_models("occupancy_detection", {"co2"})
        got.append(got[0])
        assert prices() == [12]

    def test_a_query_does_no_work_per_listed_row(self, net, monkeypatch):
        alice = net.node("alice")
        for i, seed in enumerate((11, 12, 13)):
            alice.create_local_dataset(f"d{i}", seed=seed, profile=PROFILE, n_rows=30)
            alice.train_model(f"m{i}", f"d{i}", "occupancy_detection")
            alice.share_model(f"m{i}")
        bob = net.node("bob")
        task = kgstore.task_iri("occupancy_detection")

        gets: list[str] = []  # every posted price a query reads

        class CountingPrices(dict):
            def get(self, key, default=None):
                gets.append(key)
                return super().get(key, default)

        net.isl.state["prices"] = CountingPrices(net.isl.state["prices"])
        built: list[str] = []  # the address of every row a query rebuilds
        real = node_module.RankedModel._replace
        monkeypatch.setattr(node_module.RankedModel, "_replace",
                            lambda row, **fields: built.append(row.address) or real(row, **fields))

        def work_of_a_query(sensors):
            gets.clear()
            built.clear()
            ranked = bob.query_models("occupancy_detection", sensors)
            assert ranked == reference_query(net, task, sensors)
            return len(gets), list(built)

        assert work_of_a_query({"co2"}) == (3, [])  # every row was listed at the default 0
        assert work_of_a_query({"temperature"}) == (0, [])  # no listed feature set is covered
        assert work_of_a_query(set()) == (0, [])
        assert work_of_a_query({"co2", "temperature"}) == (3, [])
        assert work_of_a_query({"co2"}) == (3, [])  # no price moved

        addr = alice.set_price("m1", 9)
        assert work_of_a_query({"temperature"}) == (0, [])
        assert work_of_a_query({"co2"}) == (3, [addr])
        assert work_of_a_query({"co2"}) == (3, [])

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

    def test_model_shared_after_a_query_is_listed_by_the_next(self, net):
        first = shared_model(net)
        bob = net.node("bob")
        assert [m.address for m in bob.query_models("occupancy_detection", {"co2"})] == [
            first.content_address]

        alice = net.node("alice")
        alice.create_local_dataset("d2", seed=12, profile=WARM, n_rows=30)
        alice.train_model("m2", "d2", "occupancy_detection")
        second = alice.share_model("m2")

        ranked = bob.query_models("occupancy_detection", {"co2"})
        assert sorted(m.address for m in ranked) == sorted(
            [first.content_address, second.content_address])
        assert [(m.mse, m.address) for m in ranked] == sorted((m.mse, m.address) for m in ranked)

    @pytest.mark.parametrize("row_task", ["occupancy_detection", "energy_prediction"])
    def test_adopted_registration_is_listed_by_the_next_query(self, net, row_task):
        shared_model(net)
        bob = net.node("bob")
        bob.create_local_dataset("d1", seed=12, profile=WARM, n_rows=30)
        own = bob.train_model("m1", "d1", "occupancy_detection")
        ds_addr = bob.share_dataset("d1").content_address
        addr = own.local_uri.rsplit("/", 1)[-1]
        # bob registers his own model's real address while his graph holds it unshared,
        # under the model's task or another one
        receipt = net.ledger.submit(bob.account, "oracle", "share_model",
                                    (own.iri, addr, kgstore.task_iri(row_task), ds_addr, None))
        assert receipt.status == "ok"
        carol = net.add_node("carol", balance=0)
        assert addr not in [m.address for m in carol.query_models(row_task, {"co2"})]

        adopted = bob.share_model("m1")  # finds the row and adopts its registration
        assert (adopted.content_address, adopted.tx_id) == (addr, receipt.tx_id)
        for task in ("occupancy_detection", "energy_prediction"):
            ranked = carol.query_models(task, {"co2"})
            listed = ["bob"] if task == row_task else []
            assert [m.owner_node for m in ranked if m.address == addr] == listed
            assert ranked == reference_query(net, kgstore.task_iri(task), {"co2"})

    def test_identical_bytes_are_listed_once_under_the_first_registrant(self, net):
        first = shared_model(net)
        second = shared_model(net, "bob")  # the same dataset and model bytes as alice's
        assert (second.content_address, second.tx_id) == (first.content_address, first.tx_id)

        ranked = net.node("bob").query_models("occupancy_detection", {"co2"})
        assert [(m.address, m.owner_node) for m in ranked] == [(first.content_address, "alice")]
        assert ranked == reference_query(net, first.task, {"co2"})

    def test_a_row_adopted_under_another_own_iri_is_not_listed(self, net):
        shared_model(net)
        bob = net.node("bob")
        bob.create_local_dataset("d1", seed=12, profile=WARM, n_rows=30)
        own = bob.train_model("m1", "d1", "occupancy_detection")
        other = bob.train_model("m2", "d1", "energy_prediction")
        ds_addr = bob.share_dataset("d1").content_address
        addr = own.local_uri.rsplit("/", 1)[-1]
        # bob registers m1's bytes under m2's IRI, then shares m1, which adopts that row
        receipt = net.ledger.submit(
            bob.account, "oracle", "share_model", (other.iri, addr, own.task, ds_addr, None))
        assert receipt.status == "ok"
        assert bob.share_model("m1").content_address == addr

        carol = net.add_node("carol", balance=0)
        ranked = carol.query_models("occupancy_detection", {"co2"})
        assert addr not in [m.address for m in ranked]
        assert ranked == reference_query(net, own.task, {"co2"})

    def test_a_query_reads_no_graph_record(self, net, monkeypatch):
        lookups = []  # the graph of each call to the one record reader
        real = kgstore.KnowledgeGraph.get
        monkeypatch.setattr(kgstore.KnowledgeGraph, "get",
                            lambda graph, *args: lookups.append(graph) or real(graph, *args))
        record = shared_model(net)
        bob = net.node("bob")

        def lookups_of_a_query():
            lookups.clear()
            ranked = bob.query_models("occupancy_detection", {"co2"})
            assert ranked == reference_query(net, record.task, {"co2"})
            listed.clear()
            listed.extend(m.address for m in ranked)
            return len(lookups)

        listed: list[str] = []

        assert lookups_of_a_query() == 0
        assert lookups_of_a_query() == 0  # the registry is unchanged

        ds_addr = net.node("alice").graph.dataset(record.dataset).content_address
        squat = net.ledger.submit(bob.account, "oracle", "share_model",
                                  ("isl://bob/model/x", "ef" * 32, record.task, ds_addr, None))
        assert squat.status == "ok"
        assert lookups_of_a_query() == 0  # the squatted row is never listed
        shared_model(net, "bob", seed=12)
        assert lookups_of_a_query() == 0
        assert lookups_of_a_query() == 0

        # bob registers the real address of a model its graph holds unshared
        bob.create_local_dataset("d2", seed=13, profile=WARM, n_rows=30)
        own = bob.train_model("m2", "d2", "occupancy_detection")
        ds_addr = bob.share_dataset("d2").content_address
        addr = own.local_uri.rsplit("/", 1)[-1]
        receipt = net.ledger.submit(
            bob.account, "oracle", "share_model", (own.iri, addr, own.task, ds_addr, None))
        assert receipt.status == "ok"
        assert lookups_of_a_query() == 0
        assert addr not in listed
        bob.share_model("m2")  # adopts the row
        assert lookups_of_a_query() == 0
        assert addr in listed

        # the share path recorded the row valid, so an acquire reads the registrant's graph
        # no more than a query does; only the buyer's graph is read, to cache the record
        alice = net.node("alice")
        lookups.clear()
        assert bob.acquire_model(record.content_address, payment=0) == record._replace(
            local_uri=bob.store.relative_uri(record.content_address))
        assert lookups and all(graph is not alice.graph for graph in lookups)

    def test_acquire_refuses_a_squatted_entry(self, net):
        record = shared_model(net)
        bob = net.node("bob")
        bob.create_local_dataset("d1", seed=12, profile=WARM, n_rows=30)
        own = bob.train_model("m1", "d1", "occupancy_detection")
        ds_addr = bob.share_dataset("d1").content_address
        addr = own.local_uri.rsplit("/", 1)[-1]
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

    def test_an_acquired_chain_through_squatted_iris_leaves_them_free(self, net):
        tip = squat_bob_ancestry(net)
        bob = net.node("bob")
        bob.acquire_model(tip.content_address, payment=0)
        bob.create_local_dataset("dx", seed=41, profile=WARM, n_rows=25)

        record = bob.train_model("m9", "dx", "occupancy_detection")
        shared = bob.share_model("m9")

        assert shared == bob.graph.model(record.iri) and shared.shared
        assert shared.content_address == record.local_uri.rsplit("/", 1)[-1]
        entry = net.oracle.model_entry(shared.content_address)
        assert (entry["owner"], entry["iri"]) == (bob.account, record.iri)
        assert net.oracle.check_closure() is None

    def test_an_acquired_trace_follows_the_chain_not_a_held_iri(self, net):
        tip = squat_bob_ancestry(net)
        bob = net.node("bob")
        bob.create_local_dataset("real", seed=41, profile=WARM, n_rows=25)
        bob.train_model("m9", "real", "occupancy_detection")  # before the acquire

        bob.acquire_model(tip.content_address, payment=0)

        walk = walk_provenance(net.oracle, tip.content_address)
        assert bob.depgraph.trace(tip.iri).steps == tuple((s.model_iri, s.dataset_iri) for s in walk)
        assert bob.depgraph.trace(tip.iri).steps[0] == (
            kgstore.model_iri("bob", "m9"), kgstore.dataset_iri("bob", "dx"))

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


# (kind, sender: a node or the network owner, IRI from the sender's own graph,
#  IRI pick, task, register bytes the sender holds, row kind)
raw_op = st.tuples(st.just("raw"), st.integers(0, 3), st.booleans(), st.integers(0, 50),
                   st.sampled_from(kgstore.TASKS), st.booleans(),
                   st.sampled_from(["Model", "Dataset"]))
registry_op = st.one_of(
    honest_op(st.booleans()),
    # (kind, buyer, pick, whether to pick among the accepted raw rows, when there are
    #  any, rather than among all registered models and datasets: two times in three)
    st.tuples(st.just("acquire"), st.integers(0, 2), st.integers(0, 50),
              st.sampled_from([True, True, False])),
    # (kind, who re-prices and how, pick among the registered models and datasets, price)
    st.tuples(st.just("reprice"), st.sampled_from(["owner", "other", "negative", "raw"]),
              st.integers(0, 50), st.integers(0, 20)),
    raw_op,
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


def reference_valid(net, addr, kind):
    """Whether the ``kind`` row's registrant records its IRI shared there, by brute force."""
    entry = net.oracle.state_dict()[f"shared_{kind.lower()}s"][addr]
    nodes = {net.node(name).account: net.node(name) for name in net.node_names()}
    node = nodes.get(entry["owner"])
    rec = None if node is None else oracles.scan_record(node.graph.triples, entry["iri"], kind)
    return isinstance(rec, dict) and rec["content_address"] == addr


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
       st.lists(raw_op, min_size=1, max_size=3),
       st.lists(registry_op, min_size=1, max_size=8),
       st.lists(market_query, min_size=1, max_size=4))
def test_query_matches_a_brute_force_reference_over_squatted_registries(shared, raws, ops, queries):
    """Criterion 10's ground-truth check, over registries that also hold raw entries.

    Every query runs after every op, so the network's listings are read
    and then extended, or re-priced, by each kind of op in turn. A few
    raw entries come first, and an acquire picks among the raw entries
    two times in three. It is refused with ``NotFound``, before anything
    is paid or logged, exactly when its row is invalid by the same
    brute-force reading of the registrant's graph.
    """
    with tempfile.TemporaryDirectory() as root:
        net = Network.create(Path(root), owner_balance=1_000)
        nodes = [net.add_node(name, balance=500) for name in ("n0", "n1", "n2")]
        for node in nodes:
            net.register_node(node.name)
        net.submit(net.owner_account, "oracle", "register_node", (net.owner_account,))
        senders = [node.account for node in nodes] + [net.owner_account]
        iris = ["isl://nobody/model/x"]
        raw_rows: list[tuple[str, str]] = []  # (addr, kind) of each accepted raw submit
        for n, op in enumerate(shared + raws + ops):
            registry = net.oracle.state_dict()
            models = sorted(registry["shared_models"])
            rows = [(a, "Model") for a in models]
            rows += [(a, "Dataset") for a in registry["shared_datasets"]]
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
            elif op[0] == "acquire" and rows:
                _, who, pick, raw = op
                pool = raw_rows if raw and raw_rows else rows
                addr, kind = pool[pick % len(pool)]
                if reference_valid(net, addr, kind):
                    got = nodes[who].acquire_model(addr, payment=net.isl.price_of(addr))
                    assert got.content_address == addr
                else:
                    log_len, balances = len(net.ledger.log), net.ledger.state_dict()["balances"]
                    with pytest.raises(NotFound):
                        nodes[who].acquire_model(addr, payment=net.isl.price_of(addr))
                    assert len(net.ledger.log) == log_len
                    assert net.ledger.state_dict()["balances"] == balances
            elif op[0] == "raw" and models:
                _, who, own, pick, task, held, kind = op
                triples = nodes[who].graph.triples if own and who < 3 else ()
                pool = oracles.scan_subjects(triples, kind)
                pool = pool or iris
                blobs = oracles.stored_addresses(nodes[who].root) if held and who < 3 else []
                addr = blobs[-1] if blobs else content_address(f"squat {n}".encode())
                args = (pool[pick % len(pool)], addr)
                if kind == "Model":
                    ds_addr = net.oracle.model_entry(models[0])["dataset_addr"]
                    args += (kgstore.task_iri(task), ds_addr, None)
                receipt = net.ledger.submit(senders[who], "oracle", f"share_{kind.lower()}", args)
                if receipt.status == "ok":
                    raw_rows.append((addr, kind))
            elif op[0] == "reprice" and rows:
                _, how, pick, price = op
                addr = rows[pick % len(rows)][0]
                owner = net.oracle.owner_of_resource(addr)
                seller = next((node for node in nodes if node.account == owner), None)
                if how == "other":
                    other = next(node for node in nodes if node is not seller)
                    with pytest.raises(Unauthorized):
                        other.set_price(addr, price)
                elif how == "negative":
                    with pytest.raises(MalformedArgs):
                        net.submit(owner, "isl", "set_price", (addr, -1 - price))
                elif how == "raw" or seller is None:  # the network owner has no node
                    assert net.ledger.submit(owner, "isl", "set_price", (addr, price)).status == "ok"
                else:
                    seller.set_price(addr, price)
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
    def test_create_refuses_a_non_empty_root(self, tmp_path):
        (tmp_path / "kept.txt").write_text("kept\n")
        with pytest.raises(IslError, match="not empty"):
            Network.create(tmp_path, owner_balance=10)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

    @pytest.mark.parametrize("inside", [False, True], ids=["the-file", "below-the-file"])
    def test_create_refuses_a_regular_file(self, tmp_path, inside):
        kept = tmp_path / "kept.txt"
        kept.write_text("kept\n")
        with pytest.raises(IslError, match="not a directory"):
            Network.create(kept / "ws" if inside else kept, owner_balance=10)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
        assert kept.read_text() == "kept\n"

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

    def test_persisted_network_replays_to_match(self, net, capsys):
        record = shared_model(net)
        net.node("alice").set_price("m1", 10)
        net.node("bob").acquire_model(record.content_address, 10)
        net.persist()

        assert cli.main(["replay", str(net.root)]) == 0
        assert capsys.readouterr().out == "MATCH\n"


    def test_a_persist_stopped_at_any_write_leaves_no_chainstate_or_a_replayable_workspace(
            self, tmp_path, monkeypatch, capsys):
        real = node_module.write_atomic
        for k in itertools.count(1):
            net = two_node_network(tmp_path / f"ws{k}")
            record = shared_model(net)
            net.node("bob").acquire_model(record.content_address, 0)
            writes = []

            def write_or_fail(path, data):
                writes.append(path)
                if len(writes) == k:
                    raise OSError("injected write fault")
                real(path, data)

            monkeypatch.setattr(node_module, "write_atomic", write_or_fail)
            with contextlib.suppress(OSError):
                net.persist()
            monkeypatch.setattr(node_module, "write_atomic", real)

            code = cli.main(["replay", str(net.root)])
            out, err = capsys.readouterr()
            if (net.root / node_module.CHAINSTATE_FILE).exists():
                for name in net.node_names():
                    assert (net.root / "nodes" / name / "kg.nt").is_file()
                    assert (net.root / "nodes" / name / "account.txt").is_file()
                assert (code, out) == (0, "MATCH\n")
            else:
                assert code == 1 and err.startswith("UnknownWorkspace: ")
            if len(writes) < k:  # the persist made fewer writes than k, so none failed
                break
        assert k == 7  # two node files per node, ledger.log and chainstate.json, then a clean run


class TestReferenceResolution:
    def test_iri_refs_are_passed_through(self, net):
        alice = net.node("alice")
        alice.create_local_dataset("d1", seed=4, profile=PROFILE, n_rows=10)
        iri = kgstore.dataset_iri("alice", "d1")
        assert iri.startswith(IRI_PREFIX)
        assert alice.load_dataset(iri).n_rows == 10

    def test_named_kind_forms_the_iri_without_reading_a_graph(self, net, monkeypatch):
        def no_read(self, cls, iri):
            raise AssertionError(f"read {iri}")

        monkeypatch.setattr(kgstore.KnowledgeGraph, "get", no_read)  # every record read goes through it
        iri = kgstore.model_iri("carol", "m1")
        for ref in ("m1", "carol/m1", iri):
            assert net.resolve(ref, "carol", ModelRecord) == Ref(ModelRecord, iri, None)
        with pytest.raises(ParseError):
            net.resolve("f" * 64, "carol", ModelRecord)
        with pytest.raises(ParseError):
            net.resolve(kgstore.dataset_iri("carol", "d1"), "carol", ModelRecord)

    @pytest.mark.parametrize("ref, kind, message", [
        ("isl://alice/thing/x", None, "'isl://alice/thing/x' is not a model or dataset IRI"),
        ("isl://alice/dataset/d1", ModelRecord, "'isl://alice/dataset/d1' is not a model IRI"),
        ("isl://alice/model/m1", DatasetDescriptor, "'isl://alice/model/m1' is not a dataset IRI"),
        ("ab" * 32, ModelRecord,
         f"'{'ab' * 32}' is a content address; name the model by id or IRI"),
    ])
    def test_refusals_name_the_kind_asked_for(self, net, ref, kind, message):
        with pytest.raises(ParseError) as excinfo:
            net.resolve(ref, "alice", kind)
        assert str(excinfo.value) == message

    def test_unnamed_kind_reads_each_candidate_once(self, net, monkeypatch):
        record = shared_model(net)
        reads = []  # the class of each call to the one record reader
        real = kgstore.KnowledgeGraph.get
        monkeypatch.setattr(kgstore.KnowledgeGraph, "get",
                            lambda graph, cls, iri: reads.append(cls) or real(graph, cls, iri))
        assert net.resolve("alice/m1") == Ref(ModelRecord, record.iri, record.content_address)
        assert reads == [ModelRecord, DatasetDescriptor]

    def test_unnamed_kind_reads_the_named_node_graph(self, net):
        record = shared_model(net)
        ds = net.node("alice").graph.dataset(record.dataset)
        assert net.resolve("alice/m1") == Ref(ModelRecord, record.iri, record.content_address)
        assert net.resolve("d1", "alice") == Ref(DatasetDescriptor, ds.iri, ds.content_address)
        assert net.resolve(record.iri, "bob") == Ref(ModelRecord, record.iri, record.content_address)
        assert net.resolve("e" * 64) == Ref(None, None, "e" * 64)
        net.node("alice").train_model("m2", "d1", "occupancy_detection")
        assert net.resolve("alice/m2") == Ref(ModelRecord, kgstore.model_iri("alice", "m2"), None)
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
        assert tuned.local_uri == record.local_uri  # no step taken: the same bytes
        alice.share_model("m2")  # adopts m1's registration
        assert net.shared_address("alice/m2") == record.content_address
