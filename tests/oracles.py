"""Independent reference routes used to cross-check package results.

Everything here deliberately avoids the package's own code paths:
fitting goes through numpy's least-squares solver, metrics through
numpy reductions, gradients through central finite differences,
closure checks through a plain reachability walk over raw state dicts,
knowledge-graph records through a full scan of the raw triple set (and
a record's stored view through a write to lexical forms and a read back),
exported graph lines through the N-Triples line grammar and a triple
writer of their own, and a blob
store's contents through a scan of its directory. The gradient
step loop and the synthetic data generator are also kept here in their
earlier, object-per-step form, as the bit-exact reference for the
package's loops, and the dataset CSV parser in its row-by-row form.
"""

from __future__ import annotations

import operator
import re
from functools import reduce
from pathlib import Path

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
        "local_uri": ("localUri", True, str),
        "base_model": ("baseModel", False, str),
        "input_features": ("inputFeatures", True, _split),
        "mae": ("mae", True, float),
        "mse": ("mse", True, float),
        "owner_node": ("ownerNode", True, str),
        "content_address": ("contentAddress", False, str),
        "tx_id": ("txId", False, str),
    },
}


def ref_view(record, kind: str) -> dict:
    """Field values of a valid ``kind`` record as the graph once kept them: each written
    to its triple's lexical form, then read back as :func:`scan_record` reads it."""
    view = {"iri": record.iri}
    for field, (_, _, convert) in RECORD_FIELDS[kind].items():
        value = getattr(record, field)
        if convert is _split:  # a list is one comma-joined literal
            value = convert(",".join(value))
        elif convert is float:  # a decimal literal is the repr of its float
            value = convert(repr(float(value)))
        view[field] = value
    return view


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


def format_triple(t) -> str:
    """The N-Triples line of triple ``t``, its object an IRI string or a literal."""
    if isinstance(t.obj, str):
        return f"<{t.subject}> <{t.predicate}> <{t.obj}> ."
    body = '"' + t.obj.lexical.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if t.obj.datatype == "decimal":
        body += f"^^<{VOCAB}decimal>"
    return f"<{t.subject}> <{t.predicate}> {body} ."


def stored_addresses(root) -> list[str]:
    """Sorted addresses of the blobs a store rooted at ``root`` holds, by a directory scan."""
    return sorted(p.name for p in Path(root, "blobs").glob("??/*") if not p.name.endswith(".tmp"))


def ref_parse_dataset(data: bytes):
    """(feature names, rows) of a dataset CSV as the row-by-row parser read it, or the
    text of the ParseError it raised; line numbers count non-empty lines."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        return f"dataset is not ASCII CSV: {exc}"
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        return "dataset file is empty"
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "target":
        return f"bad dataset header {lines[0]!r}"
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"line {lineno}: expected {len(header)} columns"
        try:
            values = [float(c) for c in cells]
        except ValueError:
            return f"line {lineno}: non-numeric cell"
        rows.append((tuple(values[:-1]), values[-1]))
    return tuple(header[:-1]), tuple(rows)


# ------------------------------------------- bit-exact mlsim references
#
# The gradient step and the room generator as they were written before
# their loops were flattened: a prediction is a sum over a generator plus
# ``bias``, a frozen model is built per step, and the noise stream is an
# object. Those sums were the builtin ``sum``, which adds floats left to
# right from 0 on CPython 3.10 and 3.11 but compensates on 3.12 and later;
# ``_sum`` pins the 3.10/3.11 order on every version, the order the
# package spells out with ``+=``.

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1


def _sum(values) -> float:
    return reduce(operator.add, values, 0)


def ref_predict(weights, bias, features) -> float:
    return _sum(w * v for w, v in zip(weights, features)) + bias


def ref_mse_gradient(weights, bias, rows) -> tuple[tuple[float, ...], float]:
    n = len(rows)
    grad_w = [0.0] * len(weights)
    grad_b = 0.0
    for features, target in rows:
        err = ref_predict(weights, bias, features) - target
        grad_b += err
        for j, x in enumerate(features):
            grad_w[j] += err * x
    return tuple(2.0 / n * g for g in grad_w), 2.0 / n * grad_b


def ref_metrics(weights, bias, rows) -> dict[str, float]:
    errs = [ref_predict(weights, bias, features) - target for features, target in rows]
    n = len(rows)
    return {"MAE": _sum(map(abs, errs)) / n, "MSE": _sum(e * e for e in errs) / n}


def ref_fine_tune(weights, bias, rows, steps: int, learning_rate: float):
    """(weights, bias) after ``steps`` full-batch gradient steps."""
    weights = tuple(weights)
    for _ in range(steps):
        grad_w, grad_b = ref_mse_gradient(weights, bias, rows)
        weights = tuple(w - learning_rate * g for w, g in zip(weights, grad_w))
        bias = bias - learning_rate * grad_b
    return weights, bias


class RefLcg:
    def __init__(self, seed: int) -> None:
        self.state = seed & LCG_MASK

    def uniform(self) -> float:
        self.state = (LCG_MULT * self.state + LCG_INC) & LCG_MASK
        return (self.state >> 11) / float(1 << 53)


def ref_quantize(value: float) -> float:
    return float(format(float(value), ".9g"))


def ref_room_rows(seed: int, slope: float, intercept: float, noise_scale: float, n_rows: int):
    """Rows ``((x,), y)`` of the synthetic room dataset for ``seed``."""
    rng = RefLcg(seed)
    rows = []
    for i in range(n_rows):
        u = 2.0 * (i + 0.5) / n_rows - 1.0
        x = ref_quantize(0.1 * (u + 10.0 * u**9))
        noise = _sum(rng.uniform() for _ in range(12)) - 6.0
        y = ref_quantize(slope * x + intercept + noise_scale * noise)
        rows.append(((x,), y))
    return tuple(rows)
