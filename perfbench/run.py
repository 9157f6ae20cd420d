"""Benchmark of wolffkit: one run of one workload, result as JSON on the last line.

    python3 perfbench/run.py --workload {picard,shoot,inequalities} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 the last line carries the
end-to-end metrics (setup_s, op_s, cpu_s, peak_rss_mb, oracle_err); with
--trace 1 it carries the per-layer metrics from a traced run.  See
perfbench/README.md for the workloads and what each metric means.

Set-up time is the median of three fresh processes, each timed from its
start to the moment it is ready for the first timed operation; the third
of them goes on to run the workload (a traced run starts only that one).
The potential layer runs one thread (WOLFFKIT_THREADS=1) unless the caller
sets WOLFFKIT_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, children included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("picard", "shoot", "inequalities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def worker_env() -> dict:
    """The workers' environment: one potential-layer thread unless the caller sets one.

    With the pool at nproc = 2, a map application's wall time depends on
    whether the host gives this process its second CPU at that moment: over
    seven picard runs op_s spread by 21 % (IQR over median) while cpu_s
    spread by 4 %.  One thread keeps op_s a measure of the program.
    """
    env = dict(os.environ)
    env.setdefault("WOLFFKIT_THREADS", "1")
    return env


def run_worker(args, env, deadline: float, setup_only: bool):
    """Run one worker to its end; return (set-up seconds or None, exit code, output after READY)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    setup = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.perf_counter() - start
                break
            print(line, end="")
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup, proc.returncode, out


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated launcher unwinds, so that run_worker's finally stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = worker_env()
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    starts = SETUP_SAMPLES if args.trace == 0 else 1
    for k in range(starts):
        setup, code, out = run_worker(args, env, deadline, setup_only=k < starts - 1)
        if code != 0 or setup is None:
            print(f"benchmark failed: worker exited with code {code}", file=sys.stderr)
            return 1
        setups.append(setup)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
    print(
        f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"WOLFFKIT_THREADS={env.get('WOLFFKIT_THREADS', '')} setup_samples={[round(s, 4) for s in setups]}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
