"""Model dependency chains, and the one walker that follows them.

Every model descends from at most one base model and was fitted on
exactly one dataset, so the lineage of a set of models is a forest of
chains. `lineage` follows one such chain from its tip to its root,
whatever table holds the base links: the local `DependencyGraph.trace`,
the on-chain `contracts.walk_provenance` and the registry audit
`OracleContract.check_closure` all walk through it. A cycle can only
appear in a hand-mutated table; `lineage` refuses to loop on one.

A `DependencyGraph` stores no links: a trace follows `base_model` through
the node's own records in its knowledge graph and, past a cached remote
model, reads that model's on-chain chain through `chain_of`. Datasets are
edge labels, not vertices; reusing one dataset for many trainings is fine.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .errors import IslError, UnknownModel
from .kgstore import KnowledgeGraph, ModelRecord


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
    def __init__(self, graph: KnowledgeGraph,
                 chain_of: Callable[[str], list[tuple[str, str]]]) -> None:
        """``chain_of(addr)``: the root-first (model, dataset) steps of a shared model on chain."""
        self._graph = graph
        self._chain_of = chain_of

    def trace(self, model_id: str) -> ProvenanceChain:
        graph = self._graph
        if not graph.has_model(model_id):
            raise UnknownModel(f"{model_id} is not in the graph")
        own: list[ModelRecord] = []  # the records lineage reads, tip first

        def base_of(iri: str) -> str | None:
            own.append(record := graph.model(iri))
            return record.base_model if record.owner_node == graph.node_id else None

        lineage(model_id, base_of)
        steps: list[tuple[str, str]] = []
        if own[-1].owner_node != graph.node_id:  # a cached remote model: the chain holds its steps
            steps = self._chain_of(own.pop().content_address)  # type: ignore[arg-type]
        return ProvenanceChain((*steps, *((m.iri, m.dataset) for m in reversed(own))))
