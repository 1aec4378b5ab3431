"""Independent reference routes used to cross-check package results.

Everything here deliberately avoids the package's own code paths:
fitting goes through numpy's least-squares solver, metrics through
numpy reductions, gradients through central finite differences,
closure checks through a plain reachability walk over raw state dicts,
knowledge-graph records through a full scan of the raw triple set, and
exported graph lines through the N-Triples line grammar.
"""

from __future__ import annotations

import re

import numpy as np


def lstsq_fit(rows) -> tuple[list[float], float]:
    """Least-squares (weights, bias) via numpy's SVD-based solver."""
    design = np.array([[*features, 1.0] for features, _ in rows], dtype=float)
    targets = np.array([target for _, target in rows], dtype=float)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return [float(c) for c in coef[:-1]], float(coef[-1])


def np_metrics(weights, bias, rows) -> dict[str, float]:
    w = np.array(weights, dtype=float)
    x = np.array([features for features, _ in rows], dtype=float)
    y = np.array([target for _, target in rows], dtype=float)
    err = x @ w + bias - y
    return {"MAE": float(np.mean(np.abs(err))), "MSE": float(np.mean(err * err))}


def loop_mse(weights, bias, rows) -> float:
    total = 0.0
    for features, target in rows:
        pred = bias
        for w, v in zip(weights, features):
            pred += w * v
        total += (pred - target) ** 2
    return total / len(rows)


def fd_gradient(weights, bias, rows, eps: float = 1e-5):
    """Central-difference gradient of the mean squared error."""
    weights = list(weights)
    grad_w = []
    for j in range(len(weights)):
        up = list(weights)
        down = list(weights)
        up[j] += eps
        down[j] -= eps
        grad_w.append((loop_mse(up, bias, rows) - loop_mse(down, bias, rows)) / (2 * eps))
    grad_b = (loop_mse(weights, bias + eps, rows) - loop_mse(weights, bias - eps, rows)) / (2 * eps)
    return grad_w, grad_b


def chain_closure(structure: dict, target: str) -> tuple[set, set]:
    """All (models, datasets) a model transitively depends on, itself included.

    ``structure`` maps model id -> (parent id or None, dataset id).
    """
    models: set = set()
    datasets: set = set()
    cur: str | None = target
    while cur is not None:
        if cur in models:
            raise AssertionError(f"cycle through {cur}")
        models.add(cur)
        parent, dataset = structure[cur]
        datasets.add(dataset)
        cur = parent
    return models, datasets


def registry_closure_violation(oracle_state: dict) -> str | None:
    """Check the registered-closure invariant directly on raw contract state."""
    models = oracle_state["shared_models"]
    datasets = oracle_state["shared_datasets"]
    for addr, entry in models.items():
        if entry["dataset_addr"] not in datasets:
            return f"model {addr} depends on unregistered dataset {entry['dataset_addr']}"
        base = entry["base_model_addr"]
        if base is not None and base not in models:
            return f"model {addr} depends on unregistered base {base}"
    return None


VOCAB = "isl://vocab/"
MALFORMED = "malformed"



def _split(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


# record field -> (predicate local name, required, converter)
RECORD_FIELDS = {
    "Dataset": {
        "owner_node": ("ownerNode", True, str),
        "feature_schema": ("featureSchema", True, _split),
        "local_uri": ("localUri", True, str),
        "content_address": ("contentAddress", False, str),
        "tx_id": ("txId", False, str),
    },
    "Model": {
        "task": ("task", True, str),
        "dataset": ("trainedOn", True, str),
        "model_uri": ("localUri", True, str),
        "base_model": ("baseModel", False, str),
        "input_features": ("inputFeatures", True, _split),
        "mae": ("mae", True, float),
        "mse": ("mse", True, float),
        "owner_node": ("ownerNode", True, str),
        "content_address": ("contentAddress", False, str),
        "tx_id": ("txId", False, str),
    },
}


def scan_subjects(triples, kind: str) -> list[str]:
    """Sorted subjects typed ``isl://vocab/<kind>``, by scanning every triple."""
    return sorted(
        t.subject for t in triples if t.predicate == VOCAB + "type" and t.obj == VOCAB + kind
    )


def scan_has_subject(triples, iri: str) -> bool:
    return any(t.subject == iri for t in triples)


def scan_record(triples, iri: str, kind: str):
    """Field values of ``iri`` read as a ``kind`` record by scanning every triple.

    ``None`` if the subject has no such type, :data:`MALFORMED` if a
    required field is missing or any field has more than one value.
    """
    values: dict[str, list] = {}
    typed = False
    for t in triples:
        if t.subject != iri:
            continue
        if t.predicate == VOCAB + "type" and t.obj == VOCAB + kind:
            typed = True
        values.setdefault(t.predicate, []).append(getattr(t.obj, "lexical", t.obj))
    if not typed:
        return None
    record = {"iri": iri}
    for field, (pred, required, convert) in RECORD_FIELDS[kind].items():
        found = values.get(VOCAB + pred, [])
        if len(found) > 1 or (required and not found):
            return MALFORMED
        record[field] = convert(found[0]) if found else None
    return record


# The N-Triples line grammar (W3C RDF 1.1 N-Triples, section 7) for
# triples of IRIs and literals; blank nodes and language tags never occur.
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
_IRIREF = rf'<(?:[^\x00-\x20<>"{{}}|^`\\]|{_UCHAR})*>'
_LITERAL = rf'"(?:[^"\\\n\r]|\\[tbnrf"\'\\]|{_UCHAR})*"(?:\^\^{_IRIREF})?'
NT_LINE = re.compile(rf"[ \t]*{_IRIREF}[ \t]*{_IRIREF}[ \t]*(?:{_IRIREF}|{_LITERAL})[ \t]*\.[ \t]*")


def is_ntriples_line(line: str) -> bool:
    return NT_LINE.fullmatch(line) is not None
