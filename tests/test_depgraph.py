import random

import pytest

from islsim.depgraph import DependencyGraph
from islsim.errors import DuplicateModel, IslError, UnknownBase, UnknownModel

from oracles import chain_closure


def linear_chain(n=3):
    g = DependencyGraph()
    prev = None
    for i in range(n):
        g.add_model(f"m{i}", prev, f"d{i}")
        prev = f"m{i}"
    return g


def test_trace_is_root_first():
    g = linear_chain(3)
    chain = g.trace("m2")
    assert chain.steps == (("m0", "d0"), ("m1", "d1"), ("m2", "d2"))


def test_root_traces_to_itself():
    g = linear_chain(1)
    assert g.trace("m0").steps == (("m0", "d0"),)


def test_add_model_guards():
    g = linear_chain(2)
    with pytest.raises(DuplicateModel):
        g.add_model("m1", None, "dX")
    with pytest.raises(UnknownBase):
        g.add_model("m9", "missing", "dX")
    with pytest.raises(UnknownModel):
        g.trace("missing")


def test_membership_and_listing():
    g = linear_chain(2)
    assert "m0" in g and "m1" in g and "nope" not in g


def test_trace_closure_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(50):
        g = DependencyGraph()
        structure = {}
        for i in range(rng.randint(1, 15)):
            mid = f"m{i}"
            base = None if i == 0 or rng.random() < 0.4 else f"m{rng.randrange(i)}"
            ds = f"d{rng.randrange(1, 6)}"  # datasets get reused
            g.add_model(mid, base, ds)
            structure[mid] = (base, ds)
        target = rng.choice(list(structure))
        want_models, want_datasets = chain_closure(structure, target)
        steps = g.trace(target).steps
        assert {m for m, _ in steps} == want_models
        assert {d for _, d in steps} == want_datasets
        assert steps[-1][0] == target


def test_trace_refuses_cycle():
    g = linear_chain(2)
    # cycles cannot be built through add_model; corrupt the map directly
    g._edges["m0"] = ("m1", "d0")
    with pytest.raises(IslError, match="cycle"):
        g.trace("m1")
