"""One benchmark episode in a fresh process; ``run.py`` starts one per episode.

    python3 perfbench/episode.py WORKLOAD SEED SCALE TRACE WORKSPACE SPANS_FILE

Sets up a network, runs the workload's timed phase, persists and replays
the workspace, checks the outputs and prints one JSON object with the
timings, latencies, counts, digests and problems. With TRACE=1 the
islsim layers are traced for the whole episode, the per-layer metrics
are added to the object and the spans are written to SPANS_FILE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)


def record(workload: str, seed: int, scale: float, trace: bool, ws: Path, spans_file: Path) -> dict:
    """Run one episode in this process and return the object ``main`` prints."""
    tracer = None
    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    ep, stats = workloads.run_episode(workload, seed, scale, ws)
    if tracer is not None:
        tracer.uninstall()
        stats["layers"] = layer_metrics(tracer.spans, stats["counts"])
        tracer.dump(spans_file)
    stats.update(
        attempted=ep.attempted,
        failed=ep.failed,
        ops=ep.ops,
        latencies=ep.latencies,
        failures=ep.failures[:20],
        problems=ep.problems[:20],
    )
    return stats


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, ws, spans_file = argv
    print(json.dumps(record(workload, int(seed), float(scale), trace == "1", Path(ws), Path(spans_file))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
