"""One workload in one fresh, single-threaded interpreter.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace T

`setup` imports anglekit, generates the inputs, prints "ready" and
exits; the parent times it from process start to exit. `run` does the
same set-up, loads the workload's reference answers, then runs passes
over the job list in a seed-shuffled order, one job at a time (a closed
loop with one client), for 80% of S seconds, repeats the workload's hardest job alone for the rest, and
prints one JSON result line. With --trace 1 it runs untraced passes
for half the time and traced passes for the other half, checks that the
traced answers equal the untraced ones, and reports the per-layer
metrics.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402  (needs the paths above)
from checks import Equations, digest  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WORKDIR = os.path.join("perfbench", "work")
OUTDIR = os.path.join("perfbench", "out")
# one file of recorded answers per workload, written by record.py
REFERENCE_DIR = os.path.join(HERE, "reference")
# the worker stops starting jobs after this long, counting the rest as
# failed, so that run.py finishes inside its own 170 s limit
RUN_BUDGET_S = 150.0


class JobTimeout(BaseException):
    """Raised by the interval timer when a job overruns its limit.
    A BaseException, so no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise JobTimeout()


def timed(job, limit, speed):
    """(seconds, raw result or None, error or None, start, end) for one
    job; seconds leaves out speed probes taken during the job."""
    start = perf_counter()
    probing = speed.spent
    try:
        signal.setitimer(signal.ITIMER_REAL, max(limit, 1e-3))
        try:
            raw = workloads.execute(job)
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        raw, end, error = None, perf_counter(), "timed out after %.0f s" % limit
    except Exception as exc:  # a failed job is counted, not fatal
        raw, end, error = None, perf_counter(), "%s: %s" % (
            type(exc).__name__, exc)
    else:
        error = None
    return end - start - (speed.spent - probing), raw, error, start, end


def build(name):
    """Generate the inputs of one workload: the whole of its set-up."""
    return workloads.build_workload(name, os.path.join(WORKDIR, "cli"))


class Runner:
    """Runs and checks the jobs of one workload. `reference` maps each
    job to its recorded answer."""

    def __init__(self, wl, seed, reference, started):
        self.wl = wl
        self.rng = random.Random(seed)
        self.reference = reference
        self.deadline = started + RUN_BUDGET_S
        self.equations = {}
        for job in self.wl.jobs:
            cx = job.complex
            if cx.name not in self.equations:
                self.equations[cx.name] = Equations(cx.size, cx.gluings)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.speed = SpeedProbe()
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, job, tracer=None):
        """Run one job, then check its answer outside the timed region:
        ((seconds, start, end), record or None)."""
        if tracer is not None:
            tracer.job = job.name
        self.attempted += 1
        limit = min(self.wl.job_limit, self.deadline - perf_counter())
        if limit <= 0:
            now = perf_counter()
            return self._fail(job, "run time budget spent", (0.0, now, now))
        seconds, raw, error, start, end = timed(job, limit, self.speed)
        sample = (seconds, start, end)
        if error is not None:
            return self._fail(job, error, sample)
        try:
            record, error = workloads.answer(
                job, raw, self.equations[job.complex.name])
        except (ValueError, KeyError, TypeError) as exc:
            return self._fail(job, "unreadable answer: %r" % (exc,), sample)
        error = error or self._compare(job.name, record)
        if error is not None:
            return self._fail(job, error, sample)
        return sample, record

    def _fail(self, job, error, sample):
        self.failed += 1
        self.problems.append("%s: %s" % (job.name, error))
        return sample, None

    def run_pass(self, tracer=None):
        """One pass in a seed-shuffled order: (seconds, {job: sample},
        {job: record}), seconds the sum of the jobs' times."""
        order = list(self.wl.jobs)
        self.rng.shuffle(order)
        samples = {}
        records = {}
        for job in order:
            samples[job.name], records[job.name] = self.run(job, tracer)
        return sum(s[0] for s in samples.values()), samples, records

    def _compare(self, name, record):
        ref = self.reference.get(name)
        if ref is None:
            return "no recorded reference"
        for key in record:
            if ref.get(key) != record.get(key):
                return "%s is %r, reference has %r" % (
                    key, record.get(key), ref.get(key))
        return None

    def compare_vertices(self, tracer):
        for job in self.wl.jobs:
            record = vertex_record(tracer.vertex_calls.get(job.name, []))
            error = self._compare(job.name, record)
            if error is not None:
                self._fail(job, error, None)

    def normalised(self, sample):
        """A job's seconds at the nominal machine speed."""
        seconds, start, end = sample
        return seconds / self.speed.factor(start, end)


def vertex_record(calls):
    """Vertex-solution counts and digest of one job's enumerations."""
    return {"vertex_counts": [len(c) for c in calls],
            "vertex_digest": digest(calls)}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner, seconds):
    """Passes while the next one is expected to end within `seconds`
    of measured time (at least one pass): (seconds, {job: sample}) each.
    The checked answers are dropped, so that the worker's memory does
    not grow with the number of passes."""
    passes = []
    spent = 0.0
    while not passes or (
            spent + statistics.median(p[0] for p in passes) <= seconds
            and perf_counter() < runner.deadline):
        passes.append(runner.run_pass()[:2])
        spent += passes[-1][0]
    return passes


def hardest_samples(runner, passes, seconds):
    """The named hardest job's samples from every pass, plus repeats of
    it alone for `seconds`. A single job under about a second swings by
    tens of percent on a shared machine; the repeats give its median
    enough samples."""
    job = next(j for j in runner.wl.jobs if j.name == runner.wl.hardest)
    samples = [p[1][job.name] for p in passes]
    typical = statistics.median(s[0] for s in samples)
    spent = 0.0
    while spent + typical <= seconds and perf_counter() < runner.deadline:
        samples.append(runner.run(job)[0])
        spent += samples[-1][0]
    return samples


def pass_metrics(runner, passes):
    """From normalised job times: the median pass time, and p50 and p99
    over the jobs of each job's median time across passes."""
    walls = []
    per_job = {}
    for p in passes:
        these = {name: runner.normalised(s) for name, s in p[1].items()}
        walls.append(sum(these.values()))
        for name, t in these.items():
            per_job.setdefault(name, []).append(t)
    typical = [statistics.median(ts) for ts in per_job.values()]
    return (statistics.median(walls), statistics.median(typical),
            percentile(typical, 99))


def end_to_end(runner, seconds):
    """Passes for 80% of `seconds`, hardest-job repeats for the rest."""
    runner.speed.start()
    try:
        passes = measure(runner, 0.8 * seconds)
        hardest = hardest_samples(runner, passes, seconds - sum(
            p[0] for p in passes))
    finally:
        runner.speed.stop()
    wall, p50, p99 = pass_metrics(runner, passes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "hardest_job_s": (statistics.median(
            runner.normalised(s) for s in hardest), "s"),
        "job_p50_s": (p50, "s"),
        "job_p99_s": (p99, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    jobs = len(runner.wl.jobs)
    info = {"passes": len(passes), "latency_samples": jobs,
            "beyond_p99": jobs - int(0.99 * jobs),
            "hardest_job": runner.wl.hardest,
            "hardest_samples": len(hardest),
            "speed_factor": round(runner.speed.factor(), 4),
            "speed_samples": len(runner.speed.samples),
            "raw_wall_s": round(statistics.median(p[0] for p in passes), 6),
            "raw_hardest_job_s": round(statistics.median(
                s[0] for s in hardest), 6)}
    return metrics, info


def traced(runner, seconds):
    """Untraced and traced passes in turn, so that a drift in machine
    speed hits both alike; the per-layer metrics of the traced ones."""
    import tracer as tracing
    tr = tracing.Tracer()
    plain, passes, marks = [], [], []
    spent = 0.0
    while not passes or (
            spent + statistics.median(p[0] for p in plain)
            + statistics.median(p[0] for p in passes) <= seconds
            and perf_counter() < runner.deadline):
        plain.append(runner.run_pass())
        tr.vertex_calls = {}   # keep the last pass's enumerations
        marks.append(tr.mark())
        tr.install()
        try:
            passes.append(runner.run_pass(tr))
        finally:
            tr.uninstall()
        spent += plain[-1][0] + passes[-1][0]
    for _, _, records in passes:
        differ = sorted(k for k in records if records[k] != plain[0][2][k])
        if differ:
            runner.failed += 1
            runner.problems.append("traced answers differ: %s" % differ[:3])
    runner.compare_vertices(tr)
    marks.append(len(tr.spans))
    metrics = tracing.median_metrics([
        tracing.layer_metrics(tr.spans[:marks[i + 1]], marks[i],
                              runner.wl.complexes, runner.wl.decisions)
        for i in range(len(passes))])
    # fastest against fastest: a pass slowed by a busy neighbour is not
    # tracing overhead
    metrics["trace.overhead_share"] = (
        min(p[0] for p in passes) / min(p[0] for p in plain) - 1, "ratio")
    os.makedirs(OUTDIR, exist_ok=True)
    tr.write(os.path.join(OUTDIR, "spans-%s.jsonl" % runner.wl.name))
    return metrics, {"traced_walls": [round(p[0], 4) for p in passes],
                     "untraced_walls": [round(p[0], 4) for p in plain]}


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, name + ".json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    started = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if workloads.anglekit.__file__ != os.path.join(
            ROOT, "src", "anglekit", "__init__.py"):
        sys.exit("anglekit was not imported from this checkout's src/")
    os.chdir(ROOT)   # reports name their inputs by checkout-relative path
    wl = build(args.workload)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    runner = Runner(wl, args.seed, load_reference(args.workload), started)
    # the inputs, references and equations live for the whole run; kept
    # out of the collector, they add no work to the collections that
    # run inside jobs
    gc.freeze()
    if args.trace:
        metrics, info = traced(runner, args.seconds)
    else:
        metrics, info = end_to_end(runner, args.seconds)
    print(json.dumps({
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems[:20], "info": info,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
