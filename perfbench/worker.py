"""One benchmark process: set up a workload, then time whole rounds of it.

Started by run.py, never by hand.  It prints READY once set-up (imports,
inputs, warm-up) is done, so that the launcher can time set-up from process
start; with --setup-only it stops there.  Otherwise it runs whole rounds of
the workload's operations until --seconds have passed, checks every output,
writes a results file under perfbench/results/ and prints one JSON object as
its last line.  With --trace 1 the layer wrappers record spans during the
operations (never during set-up or checks) and the metrics are per-layer.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RESULTS = HERE / "results"


def import_wolffkit():
    """Import wolffkit from the checkout's src/, refusing any other copy."""
    package = CHECKOUT / "src" / "wolffkit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"wolffkit sources not found at {package}")
    sys.path.insert(0, str(package.parent))
    import wolffkit

    if Path(wolffkit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported wolffkit from {wolffkit.__file__}, not from {package}")
    return wolffkit


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("picard", "shoot", "inequalities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wolffkit = import_wolffkit()
    import workloads

    ops = workloads.ROUNDS[args.workload]()  # no input depends on --seed; see README
    workloads.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    round_wall, round_cpu, oracle_errors, records = [], [], [], []
    begin = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for op in ops:
            if tracer:
                tracer.recording = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, raised = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                out, raised = None, exc
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.recording = False
            if raised is None:
                try:
                    problems, err = op.check(out)
                except Exception as exc:  # so is one whose output cannot be checked
                    problems, err = [f"check raised {type(exc).__name__}: {exc}"], None
            else:
                problems, err = [f"raised {type(raised).__name__}: {raised}"], None
            attempted += 1
            failed += bool(problems)
            if err is not None:
                oracle_errors.append(err)
            wall += t1 - t0
            cpu += c1 - c0
            records.append(
                {"op": op.label, "wall_s": t1 - t0, "cpu_s": c1 - c0, "oracle_err": err, "problems": problems}
            )
            for problem in problems:
                print(f"FAILED {op.label}: {problem}", flush=True)
        round_wall.append(wall / len(ops))
        round_cpu.append(cpu / len(ops))
        if time.perf_counter() - begin >= args.seconds:
            break

    metrics = {
        "op_s": {"value": statistics.median(round_wall), "unit": "s"},
        "cpu_s": {"value": statistics.median(round_cpu), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        # no figure at all (every operation raised) reads as a 100 % error
        "oracle_err": {"value": max(oracle_errors) if oracle_errors else 1.0, "unit": "relative"},
    }
    RESULTS.mkdir(exist_ok=True)
    if tracer:
        tracer.uninstall()
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        e2e_while_traced = metrics
        metrics = tracer.layer_metrics(attempted)

    import numpy
    import scipy

    from wolffkit.potential import _thread_count

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        rounds=len(round_wall),
        round_op_s=round_wall,
        round_cpu_s=round_cpu,
        operations=records,
        pool_size=_thread_count(),
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "wolffkit": wolffkit.__version__,
        },
    )
    if tracer:
        detail["e2e_while_traced"] = e2e_while_traced
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"pool_size={detail['pool_size']} rounds={len(round_wall)} results={path.relative_to(CHECKOUT)}")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
