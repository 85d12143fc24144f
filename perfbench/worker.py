"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <pass index> setup|pass|traced

`setup` only imports shorsim and generates the inputs of the pass; `pass` also runs
every operation of the workload once; `traced` does the same with every
public library call recorded by tracer.py.  Set-up time runs from the
interpreter's first statement to the end of input generation.  Each call
is timed alone; checks run outside the timed calls.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    name, seed, index, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.inputs(seed, index)
    out = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        print(json.dumps(out))
        return

    import numpy

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT)
    latencies, items, failed, counts = [], 0, 0, {}
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                result = workload.run(op, workdir)
                latencies.append(time.perf_counter() - start)
                op_items, op_counts = workload.check(op, result)
            except Exception:  # a failed operation is counted, and the pass goes on
                traceback.print_exc()
                failed += 1
                continue
            items += op_items
            for key, value in op_counts.items():
                counts[key] = counts.get(key, 0) + value
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(
        wall_s=sum(latencies),
        latencies_s=latencies,
        items=items,
        attempted=len(ops),
        failed=failed,
        counts=counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        layers=tracer.summary() if tracer else None,
        versions={"python": platform.python_version(), "numpy": numpy.__version__},
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
