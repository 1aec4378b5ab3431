"""islsim benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload share_chains --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --sweep --seed 1

A run executes episodes one after another, each in a fresh child
process (``episode.py``), until ``--seconds`` have passed and enough
episodes have finished. Every episode of a run uses the same inputs,
generated from ``--seed``. Timings are converted to reference seconds
by each episode's machine-speed probe (``speed.py``); the wall-clock
figures are printed beside them. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics plus ``trace.overhead``. Every metric is printed on
its own line with its unit; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all output checks passed, 1 an output check failed (the
result is still printed), 2 the benchmark could not run (no result).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("share_chains", "market", "ml_fit")
MIN_EPISODES = 3  # per kind (untraced, traced) in a run
DEADLINE_S = 150  # no episode starts if it could end past this
EPISODE_TIMEOUT_S = 170
SWEEP_SCALES = (1, 2, 4)

LATENCY_OPS = ("share", "query", "acquire", "train", "fine_tune")
TAIL_OPS = ("share", "query", "acquire")
MIN_P50_SAMPLES = 10

# Metrics the final JSON line carries: those every workload has.
END_TO_END = ("setup_s", "ops_per_cpu_s", "tx_per_cpu_s", "replay_s", "peak_rss_mib")
UNREPORTED_LAYERS = ("node.query_models.self_s", "node.query.match_ratio")  # no queries in share_chains

UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "tx_per_s": "tx/s", "replay_s": "s", "sys_s": "s",
    "ops_per_cpu_s": "ops/s", "tx_per_cpu_s": "tx/s",
    "peak_rss_mib": "MiB", "fail_ratio": "ratio", "trace.overhead": "ratio", "speed": "ratio",
}
SUFFIX_UNITS = {
    "_ms": "ms", ".calls": "count", ".bytes": "bytes", ".self_s": "s", ".growth": "ratio",
    "_ratio": "ratio", ".us_per_entry": "us", ".mean_depth": "steps", ".rows": "rows",
    ".steps": "steps", ".triples": "count", ".entries": "count",
}


def unit_of(name: str) -> str:
    name = name.removeprefix("wall.")
    if name in UNITS:
        return UNITS[name]
    return next(u for suffix, u in SUFFIX_UNITS.items() if name.endswith(suffix))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --------------------------------------------------------------- episodes

WORK = ROOT / ".perfbench_work" / str(os.getpid())


def run_child(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """Run one episode in a fresh process and return its record.

    Workspaces stay until the run ends (see ``measure``): deleting
    thousands of blobs between episodes would slow the next one's writes.
    """
    ws = WORK / str(len(list(WORK.glob("*"))) if WORK.exists() else 0)
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.jsonl"
    cmd = [sys.executable, str(HERE / "episode.py"), workload, str(seed), repr(scale),
           "1" if trace else "0", str(ws), str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} episode exceeded {EPISODE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} episode exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_end"] - spawned - record["probe_s"]
    return record


def run_episodes(workload: str, seed: int, seconds: float, trace: bool, scale: float,
                 min_episodes: int) -> tuple[list[dict], list[dict]]:
    """Untraced and traced episode records of one run, executed one at a time."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        enough = len(plain) >= min_episodes and (not trace or len(traced) >= min_episodes)
        elapsed = time.monotonic() - start
        mean = elapsed / max(1, len(plain) + len(traced))
        # Stop where the next episode would end more than half an episode past --seconds.
        if (enough and elapsed + mean / 2 >= seconds) or (plain and elapsed + longest > DEADLINE_S):
            return plain, traced
        use_trace = trace and len(traced) < len(plain)
        began = time.monotonic()
        (traced if use_trace else plain).append(run_child(workload, seed, scale, use_trace))
        longest = max(longest, time.monotonic() - began)


# ------------------------------------------------------------ aggregation

def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail(sorted_values: list[float]) -> tuple[str, float] | None:
    """Highest of p99, p95 and p90 that leaves at least ten samples beyond it."""
    n = len(sorted_values)
    for q in (0.99, 0.95, 0.90):
        if n - math.ceil(q * n) >= 10:
            return f"p{round(q * 100)}", percentile(sorted_values, q)
    return None


def end_to_end(plain: list[dict]) -> tuple[dict[str, float], dict[str, dict]]:
    """End-to-end metrics of the untraced episodes, and tail details.

    Every episode of a run does identical work, and every metric is a
    median over the episodes. Times are in reference seconds: an
    episode's wall or CPU seconds times its speed factor (see
    ``speed.py``); the ``wall.*`` metrics are in wall seconds.
    ``ops_per_cpu_s`` and ``tx_per_cpu_s`` count the user CPU time of
    the timed phase only; ``ops_per_s`` and ``tx_per_s`` its wall time,
    of which ``sys_s`` is spent in the kernel (file writes, mostly).
    Latencies pool every episode's samples in wall time.
    """
    def median(value) -> float:
        return statistics.median(value(e) for e in plain)

    metrics = {
        "setup_s": median(lambda e: e["setup_s"] * e["speed"]),
        "ops_per_cpu_s": median(lambda e: e["ops"] / (e["timed_user_s"] * e["speed"])),
        "tx_per_cpu_s": median(lambda e: e["tx"] / (e["timed_user_s"] * e["speed"])),
        "ops_per_s": median(lambda e: e["ops"] / (e["timed_s"] * e["speed"])),
        "tx_per_s": median(lambda e: e["tx"] / (e["timed_s"] * e["speed"])),
        "sys_s": median(lambda e: e["timed_sys_s"] * e["speed"]),
        "replay_s": median(lambda e: e["replay_s"] * e["speed"]),
        "wall.setup_s": median(lambda e: e["setup_s"]),
        "wall.ops_per_s": median(lambda e: e["ops"] / e["timed_s"]),
        "wall.replay_s": median(lambda e: e["replay_s"]),
        "speed": median(lambda e: e["speed"]),
    }
    tails = {}
    for op in LATENCY_OPS:
        samples = sorted(v for e in plain for v in e["latencies"].get(op, []))
        if len(samples) >= MIN_P50_SAMPLES:
            metrics[f"{op}_p50_ms"] = percentile(samples, 0.5) * 1e3
        found = tail(samples) if op in TAIL_OPS else None
        if found:
            metrics[f"{op}_tail_ms"] = found[1] * 1e3
            tails[f"{op}_tail_ms"] = {"percentile": found[0], "samples": len(samples)}
    metrics["peak_rss_mib"] = statistics.median(e["peak_rss_kib"] for e in plain) / 1024
    metrics["fail_ratio"] = sum(e["failed"] for e in plain) / sum(e["attempted"] for e in plain)
    return metrics, tails


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    metrics = {n: statistics.median(e["layers"][n] for e in traced) for n in names}
    def work(episodes: list[dict]) -> float:
        return statistics.fmean(e["work_s"] * e["speed"] for e in episodes)

    ratio = work(traced) / work(plain)
    metrics["trace.overhead"] = ratio - 1
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            min_episodes: int = MIN_EPISODES) -> dict:
    """One run: episodes, output checks across them, and the aggregated metrics."""
    try:
        plain, traced = run_episodes(workload, seed, seconds, trace, scale, min_episodes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    episodes = plain + traced
    problems = [p for e in episodes for p in e["problems"]]
    if any(e["digests"] != episodes[0]["digests"] for e in episodes):
        problems.append("check failed: episodes of one seed persisted different bytes")
    e2e, tails = end_to_end(plain)
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "episodes": {"untraced": len(plain), "traced": len(traced)},
        "correct": not problems,
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "problems": sorted(set(problems)),
        "failures": sorted({f for e in episodes for f in e["failures"]}),
        "digests": episodes[0]["digests"],
        "end_to_end": e2e,
        "tails": tails,
    }
    if trace:
        result["per_layer"] = per_layer(plain, traced)
    return result


# ---------------------------------------------------------------- output

def print_report(result: dict) -> None:
    w = result["workload"]
    print(f"# {w} seed={result['seed']} scale={result['scale']} episodes={result['episodes']}")
    for section in ("end_to_end", "per_layer"):
        for name, value in result.get(section, {}).items():
            extra = result["tails"].get(name)
            note = f"  ({extra['percentile']} of {extra['samples']} samples)" if extra else ""
            print(f"{w} {name} {value:.6g} {unit_of(name)}{note}")
    print(f"{w} digest state={result['digests']['state']} log={result['digests']['log']}")
    for line in result["problems"] + result["failures"]:
        print(f"{w} {line}")


def metric_entries(metrics: dict[str, float], names) -> dict[str, dict]:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"too few samples for {missing}")
    return {n: {"value": metrics[n], "unit": unit_of(n)} for n in names}


def final_line(results: list[dict], trace: bool) -> dict:
    metrics: dict[str, dict] = {}
    for r in results:
        if trace:
            names = [n for n in r["per_layer"] if n not in UNREPORTED_LAYERS]
            entries = metric_entries(r["per_layer"], names)
        else:
            entries = metric_entries(r["end_to_end"], END_TO_END)
        prefix = "" if len(results) == 1 else f"{r['workload']}/"
        metrics.update({prefix + n: v for n, v in entries.items()})
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def sweep(seed: int, scale: float) -> dict:
    """share_chains at growing size: µs per transaction and the fitted exponent."""
    points = []
    for factor in SWEEP_SCALES:
        try:
            record = run_child("share_chains", seed, scale * factor, False)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        if record["problems"]:
            raise BenchError(f"sweep point x{factor}: {record['problems']}")
        timed_s = record["timed_s"] * record["speed"]
        points.append((record["tx"], timed_s))
        print(f"sweep x{factor} tx={record['tx']} timed_s={timed_s:.4f} "
              f"us_per_tx={timed_s / record['tx'] * 1e6:.1f}")
    xs = [math.log(tx) for tx, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    exponent = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    print(f"sweep exponent {exponent:.3f} (timed seconds ~ transactions^exponent)")
    metrics = {f"us_per_tx_x{f}": {"value": s / tx * 1e6, "unit": "us"}
               for f, (tx, s) in zip(SWEEP_SCALES, points)}
    metrics["exponent"] = {"value": exponent, "unit": "ratio"}
    return {"correct": True, "attempted": len(points), "failed": 0, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size multiplier")
    parser.add_argument("--sweep", action="store_true",
                        help="share_chains at x1, x2 and x4 of --scale; not part of the checks")
    args = parser.parse_args(argv)
    # subprocess.run kills the running episode when SystemExit unwinds through it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "islsim" / "__init__.py").is_file():
        print(f"perfbench: no islsim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.sweep:
            print(json.dumps(sweep(args.seed, args.scale)))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.scale)
            print_report(result)
            results.append(result)
        line = final_line(results, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
