"""shorsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload run-sweep --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Closed loop with one caller: passes run one after another, each in a fresh
interpreter (worker.py), so no in-process cache such as an lru_cache carries
over from one pass to the next; a CLI user pays the cold cost on every call.
Pass k draws its inputs from --seed and k (see workloads.py and spec.json).

--trace 0 repeats untraced passes for about --seconds, then adds set-up-only
interpreters until there are MIN_SETUPS set-up samples.  It reports medians:
set-up time, pass wall time (the sum of the timed calls), peak RSS of the
pass's own process, work items per second of a pass, and the p50/p90 latency
of single calls pooled over all passes.

--trace 1 runs one untraced pass and two traced passes, all on the inputs
of pass 0.
It reports the per-layer metrics of the traced passes, asserts that their
computed counts repeat exactly, and reports the tracing overhead (traced
minus untraced wall time).  End-to-end metrics never come from traced passes.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
COUNT_UNITS = ("count", "B")


class PassFailed(RuntimeError):
    """A worker interpreter crashed, timed out or completed no call."""


def run_worker(workload: str, seed: int, index: int, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(index), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} {mode} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict, dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_worker(workload, seed, len(passes), "pass"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:  # the next pass would overrun
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, len(setups), "setup")["setup_s"])
    latencies = [t for p in passes for t in p["latencies_s"]]
    if not latencies:
        raise PassFailed(f"{workload}: no call completed")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes if p["wall_s"] > 0),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * p90(latencies),
    }
    notes = {"passes": len(passes), "setup samples": len(setups), "latency samples": len(latencies)}
    return passes, values, notes


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass, from its spans and outcome counts."""
    spans, counts = result["layers"], result["counts"]

    def self_s(label):
        return spans.get(label, {}).get("self_s", 0.0)

    def work(label, key="count"):
        return spans.get(label, {}).get(key, 0)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    build_s, entries = self_s("distribution.build"), work("distribution.build")
    sample_s, draws = self_s("distribution.sample"), work("distribution.sample")
    block_s, words = self_s("rng.block"), work("rng.block")
    census_s = self_s("experiments.census")
    render_s, rows = self_s("cli.main"), counts.get("rows_out", 0)
    successes = counts.get("successes", 0)
    return {
        "number_theory.order_s": self_s("number_theory.order"),
        "number_theory.order_calls": work("number_theory.order", "calls"),
        "distribution.build_s": build_s,
        "distribution.entries_built": entries,
        "distribution.build_ns_per_entry": per(build_s, entries, 1e9),
        "distribution.sample_s": sample_s,
        "distribution.draws": draws,
        "distribution.sample_ns_per_draw": per(sample_s, draws, 1e9),
        "rng.words": words,
        "rng.block_s": block_s,
        "rng.ns_per_word": per(block_s, words, 1e9),
        "pipeline.recover_s": self_s("pipeline.recover"),
        "pipeline.recover_calls": work("pipeline.recover", "calls"),
        "pipeline.resamples": counts.get("resamples", 0),
        "pipeline.retry_events": counts.get("retry_events", 0),
        "pipeline.success_frac": per(successes, counts.get("runs", 0), 1),
        "pipeline.useful_draw_ratio": per(successes, draws, 1),
        "experiments.enumerate_s": self_s("experiments.enumerate"),
        "experiments.census_s": census_s,
        "experiments.census_us_per_n": per(census_s, work("experiments.census"), 1e6),
        "experiments.aggregate_s": self_s("experiments.aggregate"),
        "experiments.capture_s": self_s("experiments.capture"),
        "experiments.mc_s": self_s("experiments.mc"),
        "cli.render_s": render_s,
        "cli.rows_out": rows,
        "cli.bytes_out": counts.get("bytes_out", 0),
        "cli.render_ns_per_row": per(render_s, rows, 1e9),
    }


def per_layer(workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    plain = run_worker(workload, seed, 0, "pass")
    traced = [run_worker(workload, seed, 0, "traced") for _ in range(2)]
    first, second = (layer_metrics(p) for p in traced)
    unstable = [k for k in first if UNITS[k] in COUNT_UNITS and first[k] != second[k]]
    for key in unstable:
        print(f"# computed count {key} differs between traced passes: {first[key]} != {second[key]}",
              file=sys.stderr)
    values = {k: first[k] if UNITS[k] in COUNT_UNITS else statistics.median([first[k], second[k]])
              for k in first}
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain["wall_s"]
    notes = {"traced passes": len(traced), "counts repeat": not unstable}
    return [plain, *traced], values, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        passes, values, notes = per_layer(workload, seed)
    else:
        passes, values, notes = end_to_end(workload, seed, seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    versions = passes[0]["versions"]
    aliases = SPEC["workloads"][workload]["aliases"]
    print(f"# {workload}: seed={seed} trace={int(trace)} nproc={os.cpu_count()} "
          f"python={versions['python']} numpy={versions['numpy']}")
    print("# " + "  ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"# attempted={attempted} failed={failed} error_rate={failed / attempted:.6g}")
    for name, value in values.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{workload:12s} {name:32s} {value:.6g} {UNITS[name]}{alias}")
    return {
        "correct": failed == 0 and notes.get("counts repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "shorsim", "__init__.py")):
        print(f"perfbench: no shorsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
