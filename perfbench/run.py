"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 it starts the workload's
interpreter several times for set-up only (interpreter start, importing
anglekit, generating inputs) and reports the median as setup_s, then
runs the measured worker (perfbench/worker.py) and prints every
end-to-end metric; with --trace 1 it prints the per-layer metrics of a
traced run instead. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics. Any failure to set up
or run the worker exits with status 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 15
# the whole run, set-ups included, ends inside the 180 s a run may take
RUN_TIMEOUT_S = 170.0
# the same set-up work whatever the caller's environment: no bytecode is
# cached between runs, so every set-up compiles what it imports
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def setup_seconds(workload, seed, deadline):
    """Seconds from process start to exit for one set-up-only run."""
    cmd = [sys.executable, WORKER, "setup", "--workload", workload,
           "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                          timeout=max(deadline - start, 1.0))
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        sys.stderr.write(proc.stderr)
        raise RuntimeError("set-up of %s failed" % workload)
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            # each set-up at the machine speed probed just before and
            # just after it
            probes = [speed.probe()]
            for _ in range(SETUP_SAMPLES):
                seconds = setup_seconds(args.workload, args.seed, deadline)
                probes.append(speed.probe())
                factor = (probes[-2] + probes[-1]) / 2 / speed.PROBE_NOMINAL_S
                setups.append((seconds, seconds / factor))
        proc = subprocess.run(
            [sys.executable, WORKER, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, env=ENV,
            timeout=max(deadline - perf_counter(), 1.0))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print("benchmark failed: worker exited with status %d"
              % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setups:
        result["info"]["raw_setup_s"] = round(
            statistics.median(s[0] for s in setups), 6)
        setups = [s[1] for s in setups]
    print("\n".join(render(args, result, setups)))
    return 0


def render(args, result, setups):
    """Report lines: run facts, each metric with its unit, failures, and
    last the JSON result."""
    metrics = dict(result["metrics"])
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    lines = ["workload %s, seed %d, trace %d"
             % (args.workload, args.seed, args.trace)]
    for key, value in sorted(result["info"].items()):
        lines.append("  %s: %s" % (key, value))
    if setups:
        lines.append("  setup_samples: %d" % len(setups))
    for name, m in metrics.items():
        lines.append("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    lines.append("%-52s %14.6g share (%d of %d jobs)" % (
        "failed_share", failed / attempted if attempted else 1.0,
        failed, attempted))
    lines += ["FAILED %s" % problem for problem in result["problems"]]
    lines.append(json.dumps({"correct": failed == 0 and attempted > 0,
                             "attempted": attempted, "failed": failed,
                             "metrics": metrics}))
    return lines


if __name__ == "__main__":
    sys.exit(main())
