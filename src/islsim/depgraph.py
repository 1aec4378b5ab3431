"""Model dependency chains, and the one walker that follows them.

Every model descends from at most one base model and was fitted on
exactly one dataset, so the lineage of a set of models is a forest of
chains. `lineage` follows one such chain from its tip to its root,
whatever table holds the base links: the local `DependencyGraph.trace`,
the on-chain `contracts.walk_provenance` and the registry audit
`OracleContract.check_closure` all walk through it. A cycle can only
appear in a hand-mutated table; `lineage` refuses to loop on one.

A `DependencyGraph` stores a node's chains as a child -> (parent-or-None,
dataset) map. A second parent for the same child is unrepresentable in
that map, and `add_model` only accepts a base that is already present.
Datasets are edge labels, not vertices; reusing one dataset for many
trainings is fine.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .errors import DuplicateModel, IslError, UnknownBase, UnknownModel


def lineage(tip: str, base_of: Callable[[str], str | None]) -> list[str]:
    """``tip`` and its chain of bases, root first.

    ``base_of`` names a model's base (None at a root) and raises for a
    base it cannot follow; a model met twice raises ``IslError``.
    """
    chain: dict[str, None] = {}
    cur: str | None = tip
    while cur is not None:
        if cur in chain:
            raise IslError(f"cycle through {cur}")
        chain[cur] = None
        cur = base_of(cur)
    return list(reversed(chain))


class ProvenanceChain(NamedTuple):
    """Root-first (model, dataset) steps ending at the traced model."""

    steps: tuple[tuple[str, str], ...]


class DependencyGraph:
    def __init__(self) -> None:
        self._edges: dict[str, tuple[str | None, str]] = {}

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._edges

    def add_model(self, model_id: str, base: str | None, dataset_id: str) -> None:
        if model_id in self._edges:
            raise DuplicateModel(f"{model_id} is already in the graph")
        if base is not None and base not in self._edges:
            raise UnknownBase(f"base model {base} is not in the graph")
        self._edges[model_id] = (base, dataset_id)

    def trace(self, model_id: str) -> ProvenanceChain:
        edges = self._edges
        if model_id not in edges:
            raise UnknownModel(f"{model_id} is not in the graph")
        chain = lineage(model_id, lambda m: edges[m][0])
        return ProvenanceChain(tuple((m, edges[m][1]) for m in chain))
