import random

import pytest

from islsim import kgstore
from islsim.depgraph import DependencyGraph
from islsim.errors import IslError, UnknownModel
from islsim.kgstore import DatasetDescriptor, KnowledgeGraph, ModelRecord

from oracles import chain_closure

ADDR = "a" * 64
URI = f"blobs/{ADDR[:2]}/{ADDR}"
TASK = kgstore.task_iri("occupancy_detection")


def M(local, node="alice"):
    return kgstore.model_iri(node, local)


def D(local, node="alice"):
    return kgstore.dataset_iri(node, local)


def no_chain(addr):
    raise AssertionError(f"an own chain read the on-chain walk of {addr}")


def own_graph(structure):
    """alice's graph holding ``structure``: model id -> (base id or None, dataset id), bases first."""
    kg = KnowledgeGraph("alice")
    for ds in sorted({ds for _, ds in structure.values()}):
        kg.register_dataset(DatasetDescriptor(D(ds), "alice", ("co2:ppm",), URI))
    for mid, (base, ds) in structure.items():
        kg.register_model(ModelRecord(M(mid), TASK, D(ds), URI, M(base) if base else None, ("co2",),
                                      0.1, 0.02, "alice"))
    return kg


def linear_chain(n=3):
    return own_graph({f"m{i}": (f"m{i - 1}" if i else None, f"d{i}") for i in range(n)})


def test_trace_is_root_first():
    g = DependencyGraph(linear_chain(3), no_chain)
    chain = g.trace(M("m2"))
    assert chain.steps == ((M("m0"), D("d0")), (M("m1"), D("d1")), (M("m2"), D("d2")))


def test_root_traces_to_itself():
    g = DependencyGraph(linear_chain(1), no_chain)
    assert g.trace(M("m0")).steps == ((M("m0"), D("d0")),)


def test_a_model_not_in_the_graph_is_unknown():
    kg = linear_chain(2)
    g = DependencyGraph(kg, no_chain)
    with pytest.raises(UnknownModel):
        g.trace(M("missing"))
    with pytest.raises(UnknownModel):
        g.trace(D("d0"))  # a dataset is not a model


def test_trace_closure_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(50):
        structure = {}
        for i in range(rng.randint(1, 15)):
            base = None if i == 0 or rng.random() < 0.4 else f"m{rng.randrange(i)}"
            structure[f"m{i}"] = (base, f"d{rng.randrange(1, 6)}")  # datasets get reused
        g = DependencyGraph(own_graph(structure), no_chain)
        target = rng.choice(list(structure))
        want_models, want_datasets = chain_closure(structure, target)
        steps = g.trace(M(target)).steps
        assert {m for m, _ in steps} == {M(m) for m in want_models}
        assert {d for _, d in steps} == {D(d) for d in want_datasets}
        assert steps[-1][0] == M(target)


def test_trace_refuses_cycle():
    kg = linear_chain(2)
    # an own record's base must already be held, so a cycle needs a hand-edited view
    kg._views[M("m0")] = kg._views[M("m0")]._replace(base_model=M("m1"))
    with pytest.raises(IslError, match="cycle"):
        DependencyGraph(kg, no_chain).trace(M("m1"))


def test_trace_continues_past_a_cached_remote_model_through_chain_of():
    kg = KnowledgeGraph("alice")
    # bob's t, fine-tuned from s: alice's graph caches t only, and t's base is not followed
    remote = ModelRecord(M("t", "bob"), TASK, D("dt", "bob"), URI, M("s", "bob"), ("co2",),
                         0.1, 0.02, "bob", ADDR, "tx-7")
    kg.cache_remote_model(remote)
    kg.register_dataset(DatasetDescriptor(D("d1"), "alice", ("co2:ppm",), URI))
    kg.register_model(ModelRecord(M("m1"), TASK, D("d1"), URI, remote.iri, ("co2",),
                                  0.1, 0.02, "alice"))
    on_chain = [(M("s", "bob"), D("ds", "bob")), (M("t", "bob"), D("dt", "bob"))]
    walked = []

    def chain_of(addr):
        walked.append(addr)
        return on_chain

    g = DependencyGraph(kg, chain_of)
    assert g.trace(M("m1")).steps == (*on_chain, (M("m1"), D("d1")))
    assert g.trace(remote.iri).steps == tuple(on_chain)
    assert walked == [ADDR, ADDR]
