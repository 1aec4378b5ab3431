"""Span tracer that wraps islsim's public functions from outside the package.

Nothing under ``src/`` knows about it. :meth:`Tracer.install` replaces
the public methods of each layer on their classes, and each public
module function in every ``islsim`` module that imported it by name
(``node`` imports ``content_address``, ``cli`` imports ``replay``), with
a wrapper that records one span per call. A span is a list
``[name, start, end, parent, op, child_s, n]``: ``parent`` is the index
of the enclosing span (or ``None``), ``op`` numbers the top-level call
the span belongs to, ``child_s`` is the time covered by direct child
spans and ``n`` is a per-call size (bytes, rows, steps, depth, hits or
reverted flag). Spans stay in memory; :meth:`Tracer.dump` writes them out
once the run has ended, and :func:`layer_metrics` reduces them to the
``<layer>.<op>.<stat>`` numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

KG_WRITES = ("register_dataset", "register_model", "cache_remote_dataset",
             "cache_remote_model", "mark_shared")
KG_READS = ("dataset", "model", "has_dataset", "has_model", "models", "datasets")
ORACLE_LOOKUPS = ("find_model_by_iri", "find_dataset_by_iri", "dataset_entry",
                  "model_entry", "owner_of_resource", "query_task")
ISL_LOOKUPS = ("price_of", "validate_token")
NODE_OPS = ("create_local_dataset", "train_model", "fine_tune_model", "share_model",
            "set_price", "query_models", "acquire_model")
CODEC = (("TabularDataset", "to_csv_bytes"), ("TabularDataset", "from_csv_bytes"),
         ("LinearModel", "to_bytes"), ("LinearModel", "from_bytes"))


def _result_len(args, result):
    return len(result)


def _spec():
    """(owner, attribute, span name, per-call size) for every traced function."""
    from islsim import cas, cli, contracts, depgraph, kgstore, ledger, mlsim, node

    specs = [
        (cas.BlobStore, "put", "cas.put", lambda args, result: len(args[1])),
        (cas.BlobStore, "get", "cas.get", _result_len),
        (cas, "content_address", "cas.hash", None),
        (kgstore.KnowledgeGraph, "export_bytes", "kgstore.export", _result_len),
        (ledger.Ledger, "submit", "ledger.submit",
         lambda args, receipt: int(receipt.status == "reverted")),
        (ledger, "replay", "ledger.replay", None),
        (contracts.Contract, "call", lambda args: f"contracts.{args[0].name}.call", None),
        (depgraph.DependencyGraph, "trace", "depgraph.trace",
         lambda args, chain: len(chain.steps)),
        (mlsim, "make_synthetic_room", "mlsim.gen", lambda args, result: args[2]),
        (mlsim, "train", "mlsim.train", None),
        (mlsim, "fine_tune", "mlsim.fine_tune", lambda args, result: args[2]),
        (mlsim, "evaluate", "mlsim.evaluate", None),
        (cli.ScenarioRunner, "run", "cli.persist", None),
        (cli, "main", "cli.replay", None),
    ]
    specs += [(kgstore.KnowledgeGraph, a, f"kgstore.{a}", None) for a in KG_WRITES + KG_READS]
    specs += [(contracts.OracleContract, a, f"contracts.{a}",
               _result_len if a == "query_task" else None) for a in ORACLE_LOOKUPS]
    specs += [(contracts.IslContract, a, f"contracts.{a}", None) for a in ISL_LOOKUPS]
    specs += [(getattr(mlsim, c), a, f"mlsim.{c}.{a}", None) for c, a in CODEC]
    specs += [(node.IslNode, a, f"node.{a}",
               _result_len if a == "query_models" else None) for a in NODE_OPS]
    return specs


class Tracer:
    """Records spans around islsim's layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._ops += 1
                op = self._ops
            else:
                op = spans[parent][4]
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0, parent, op, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += end - span[1]
            if measure is not None:
                span[6] = measure(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("islsim") and m]
        for owner, attr, name, measure in _spec():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, name, measure)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(raw, name, measure))
            else:
                wrapped = self._wrap(raw, name, measure)
                for module in modules:
                    if vars(module).get(attr) is raw:
                        self._set(module, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def _growth(durations: list[float]) -> float:
    """Median call time of the last tenth of calls over that of the first tenth."""
    k = max(1, len(durations) // 10)
    return statistics.median(durations[-k:]) / statistics.median(durations[:k])


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from recorded spans plus end-of-run counts.

    ``counts`` supplies ``kgstore.triples``, ``contracts.registry.entries``,
    ``ledger.log.entries`` and ``cli.persist.bytes``, which are read from
    the finished network and workspace rather than from spans.
    """
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def group(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names):
        return sum(s[2] - s[1] - s[5] for s in group(*names))

    def total_n(*names):
        return sum(s[6] for s in group(*names))

    def durations(*names):
        return [s[2] - s[1] for s in sorted(group(*names), key=lambda s: s[1])]

    writes = [f"kgstore.{a}" for a in KG_WRITES]
    reads = [f"kgstore.{a}" for a in KG_READS]
    lookups = [f"contracts.{a}" for a in ORACLE_LOOKUPS + ISL_LOOKUPS]
    codec = [f"mlsim.{c}.{a}" for c, a in CODEC]
    submits = group("ledger.submit")
    reverted = total_n("ledger.submit")
    trace_calls = len(group("depgraph.trace"))
    candidates = sum(s[6] for s in group("contracts.query_task")
                     if s[3] is not None and spans[s[3]][0] == "node.query_models")
    replay_s = sum(s[2] - s[1] for s in group("ledger.replay"))
    m = {
        "cas.put.calls": len(group("cas.put")),
        "cas.put.bytes": total_n("cas.put"),
        "cas.put.self_s": self_s("cas.put"),
        "cas.get.calls": len(group("cas.get")),
        "cas.get.bytes": total_n("cas.get"),
        "cas.get.self_s": self_s("cas.get"),
        "cas.hash.self_s": self_s("cas.hash"),
        "kgstore.write.calls": len(group(*writes)),
        "kgstore.write.self_s": self_s(*writes),
        "kgstore.read.calls": len(group(*reads)),
        "kgstore.read.self_s": self_s(*reads),
        "kgstore.read.growth": _growth(durations(*reads)),
        "kgstore.export.self_s": self_s("kgstore.export"),
        "kgstore.export.bytes": total_n("kgstore.export"),
        "ledger.submit.calls": len(submits),
        "ledger.submit.self_s": self_s("ledger.submit"),
        "ledger.submit.growth": _growth(durations("ledger.submit")),
        "ledger.reverted.calls": reverted,
        "ledger.ok_ratio": (len(submits) - reverted) / len(submits),
        "ledger.replay.self_s": self_s("ledger.replay"),
        "ledger.replay.us_per_entry": replay_s / counts["ledger.log.entries"] * 1e6,
        "contracts.oracle.call.self_s": self_s("contracts.oracle.call"),
        "contracts.isl.call.self_s": self_s("contracts.isl.call"),
        "contracts.lookup.calls": len(group(*lookups)),
        "contracts.lookup.self_s": self_s(*lookups),
        "contracts.lookup.growth": _growth(durations(*lookups)),
        "depgraph.trace.calls": trace_calls,
        "depgraph.trace.self_s": self_s("depgraph.trace"),
        "depgraph.trace.mean_depth": total_n("depgraph.trace") / trace_calls if trace_calls else 0.0,
        "mlsim.gen.self_s": self_s("mlsim.gen"),
        "mlsim.gen.rows": total_n("mlsim.gen"),
        "mlsim.train.self_s": self_s("mlsim.train"),
        "mlsim.fine_tune.self_s": self_s("mlsim.fine_tune"),
        "mlsim.fine_tune.steps": total_n("mlsim.fine_tune"),
        "mlsim.evaluate.self_s": self_s("mlsim.evaluate"),
        "mlsim.codec.self_s": self_s(*codec),
        "node.share_model.self_s": self_s("node.share_model"),
        "node.query_models.self_s": self_s("node.query_models"),
        "node.acquire_model.self_s": self_s("node.acquire_model"),
        "node.query.match_ratio": total_n("node.query_models") / candidates if candidates else 0.0,
        "cli.persist.self_s": self_s("cli.persist"),
        "cli.replay.self_s": self_s("cli.replay"),
    }
    m.update(counts)
    return m
