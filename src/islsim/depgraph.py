"""Model dependency chains.

Every model descends from at most one base model and was fitted on
exactly one dataset, so the lineage of a set of models is a forest of
chains: stored as a child -> (parent-or-None, dataset) map. A second
parent for the same child is unrepresentable in that map, and
`add_model` only accepts a base that is already present, so a cycle can
only appear in a hand-mutated map; `trace` refuses to loop on one.

Datasets are edge labels, not vertices; reusing one dataset for many
trainings is fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateModel, IslError, UnknownBase, UnknownModel


@dataclass(frozen=True)
class ProvenanceChain:
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
        if model_id not in self._edges:
            raise UnknownModel(f"{model_id} is not in the graph")
        steps: list[tuple[str, str]] = []
        seen: set[str] = set()
        cur: str | None = model_id
        while cur is not None:
            if cur in seen:
                raise IslError(f"dependency cycle through {cur}")
            seen.add(cur)
            base, dataset = self._edges[cur]
            steps.append((cur, dataset))
            cur = base
        steps.reverse()
        return ProvenanceChain(tuple(steps))
