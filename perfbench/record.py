"""Record the reference answer of every job from the current code.

    python3 perfbench/record.py

Runs every job of every workload once with the tracer installed (so the
vertex solutions of every enumeration are captured), re-checks every
witness and certificate, and writes perfbench/reference/WORKLOAD.json
afresh for each workload. Run it only on code
whose answers are trusted: every later benchmark run compares against
this file.
"""

import json
import os

import worker
import workloads
from tracer import Tracer


def record(name):
    runner = worker.Runner(worker.build(name), 0, {}, worker.perf_counter())
    tr = Tracer()
    tr.install()
    try:
        out = {}
        for job in runner.wl.jobs:
            tr.job = job.name
            seconds, raw, error, _, _ = worker.timed(
                job, runner.wl.job_limit, runner.speed)
            if error is not None:
                raise SystemExit("%s failed: %s" % (job.name, error))
            rec, problem = workloads.answer(
                job, raw, runner.equations[job.complex.name])
            if problem is not None:
                raise SystemExit("%s fails its re-check: %s"
                                 % (job.name, problem))
            rec.update(worker.vertex_record(tr.vertex_calls.get(job.name, [])))
            rec["recorded_s"] = round(seconds, 4)
            out[job.name] = rec
            print("%-50s %8.3f s" % (job.name, seconds), flush=True)
    finally:
        tr.uninstall()
    return out


def main():
    os.chdir(worker.ROOT)
    os.makedirs(worker.REFERENCE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        ref = record(name)
        with open(os.path.join(worker.REFERENCE_DIR, name + ".json"), "w",
                  encoding="utf-8") as handle:
            json.dump(ref, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
