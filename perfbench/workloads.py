"""The four workloads: fixed job lists, how a job runs, and what its
answer is.

A job gets only generated inputs: gluing data for the decision
workloads (it builds its own triangulation, so nothing carries over
between jobs), and generated .tri files for the command line workload.
The answer of a job is a small record (verdict, dimension, exit status,
vertex-solution counts, digests) compared with the recorded reference,
plus the benchmark's own re-check of the witness or certificate.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import anglekit
import anglekit.cli

import checks
import corpus

KINDS = ("generalised", "semi", "strict")

# random-certificate draws its complexes from this fixed corpus seed, so
# every run checks them against the recorded reference; the run seed
# orders the jobs. All have one size, so that per-job p50 falls among
# many jobs of like length
RANDOM_CORPUS_SEED = 20051016
RANDOM_COMPLEXES = 3
RANDOM_SIZE = 10
RANDOM_EDGES = 2

BOUNDED_FOLDS = (3, 4, 5, 6)

# the two complexes the package ships, spelled out as gluing data
EXAMPLE_4_6 = ((0, 2, 0, 0, (2, 1, 0, 3)), (0, 3, 0, 1, (0, 3, 2, 1)))

CLI_COMMANDS = (("info",), ("basis",), ("chi",), ("vertices",),
                ("decide", "--kind", "generalised"),
                ("decide", "--kind", "semi"),
                ("decide", "--kind", "strict"),
                ("prescribe", "--kind", "semi", "--data", None),
                ("gb",))


class Job:
    def __init__(self, name, cx, op, kind=None, argv=None):
        self.name = name
        self.complex = cx
        self.op = op          # "decide", "prescribe" or "cli"
        self.kind = kind
        self.argv = argv


class Workload:
    def __init__(self, name, jobs, hardest, job_limit):
        self.name = name
        self.jobs = jobs
        self.hardest = hardest
        self.job_limit = job_limit
        assert hardest in {j.name for j in jobs}

    @property
    def complexes(self):
        return len({j.complex.name for j in self.jobs})

    @property
    def decisions(self):
        return sum(1 for j in self.jobs
                   if j.op in ("decide", "prescribe")
                   or (j.argv and ("decide" in j.argv
                                   or "prescribe" in j.argv)))


def _decision_jobs(cx, kinds, prescribed_kinds):
    jobs = [Job("%s decide %s" % (cx.name, k), cx, "decide", k)
            for k in kinds]
    jobs += [Job("%s prescribe %s" % (cx.name, k), cx, "prescribe", k)
             for k in prescribed_kinds]
    return jobs


def random_corpus():
    rng = random.Random(RANDOM_CORPUS_SEED)
    return [corpus.random_closed("rand-%d" % (i + 1), RANDOM_SIZE,
                                 RANDOM_EDGES, rng)
            for i in range(RANDOM_COMPLEXES)]


def cli_inputs():
    fig8 = corpus.cyclic_cover(1)
    return corpus.one_tet_presentations() + [
        corpus.Complex("fig8", fig8.size, fig8.gluings),
        corpus.Complex("example_4_6", 1, EXAMPLE_4_6)]


def build_workload(name, workdir):
    """Generate the inputs of one workload (writing files under workdir
    where it needs them) and return the Workload."""
    # per-job p50 of a decision workload must not land on a short job:
    # on a shared machine a single short job swings by tens of percent
    # between runs (see README.md)
    if name == "cusped-criterion":
        jobs = _decision_jobs(corpus.cyclic_cover(2), KINDS, KINDS)
        return Workload(name, jobs, "cover-2 prescribe semi", 60.0)
    if name == "bounded-lp":
        jobs = []
        for n in BOUNDED_FOLDS:
            jobs += _decision_jobs(corpus.bounded_cover(n), ("semi",), ())
        return Workload(name, jobs, "bounded-%d decide semi"
                        % BOUNDED_FOLDS[-1], 60.0)
    if name == "random-certificate":
        jobs = []
        for cx in random_corpus():
            jobs += _decision_jobs(cx, KINDS, ("strict",))
        return Workload(name, jobs, "rand-2 prescribe strict", 60.0)
    if name == "cli-reports":
        os.makedirs(workdir, exist_ok=True)
        data = os.path.join(workdir, "zero.ak")
        with open(data, "w", encoding="utf-8") as handle:
            handle.write("# zero prescription\n")
        jobs = []
        for cx in cli_inputs():
            path = os.path.join(workdir, cx.name + ".tri")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(cx.text())
            for cmd in CLI_COMMANDS:
                cmd = [data if a is None else a for a in cmd]
                for fmt in ([], ["--json"]):
                    label = [cx.name] + fmt + cmd[:1]
                    if cmd[0] in ("decide", "prescribe"):
                        label.append(cmd[2])
                    jobs.append(Job(" ".join(label), cx, "cli",
                                    argv=fmt + cmd + [path]))
        return Workload(name, jobs, "fig8 prescribe semi", 10.0)
    raise ValueError("unknown workload %r" % (name,))


WORKLOADS = ("cusped-criterion", "bounded-lp", "random-certificate",
             "cli-reports")


def zero_prescription(tri):
    return anglekit.AreaCurvature(tri, [0] * (4 * tri.size),
                                  [0] * len(tri.edges))


def execute(job):
    """Run one job against the program; the raw result, unchecked."""
    cx = job.complex
    if job.op == "cli":
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            status = anglekit.cli.main(job.argv)
        return status, out.getvalue()
    tri = anglekit.build(cx.size, cx.gluings)
    if job.op == "decide":
        return anglekit.decide(tri, job.kind)
    return anglekit.decide_prescribed(tri, zero_prescription(tri), job.kind)


def _decision_answer(d, prescribed):
    out = {"feasible": d.feasible, "dimension": d.dimension,
           "routes": {"lp": d.agreement.lp,
                      "criterion": d.agreement.criterion}}
    if d.witness is not None:
        out["witness"] = list(d.witness.values)
    cert = d.certificate
    if cert is not None and prescribed:
        out["certificate"] = {
            "violated": cert.violated_kind, "dual": list(cert.values),
            "normal_vector": list(cert.normal_vector),
            "pairing": cert.pairing, "chi_gap": cert.chi_gap}
    elif cert is not None:
        out["certificate"] = {
            "violated": cert.violated_kind, "w": list(cert.wz.w),
            "z": list(cert.wz.z), "normal_vector": list(cert.normal_vector),
            "chi_star": cert.chi_value}
    return out


def _fractions(value):
    # reports carry rationals as "p/q" strings
    if isinstance(value, str) and value.lstrip("-").replace("/", "").isdigit():
        return Fraction(value)
    if isinstance(value, list):
        return [_fractions(v) for v in value]
    if isinstance(value, dict):
        return {k: _fractions(v) for k, v in value.items()}
    return value


def answer(job, raw, equations):
    """(record, problem): the reference record of a raw result, and the
    re-check failure or None."""
    if job.op != "cli":
        ans = _decision_answer(raw, job.op == "prescribe")
        check = (checks.check_wedge_answer if job.op == "prescribe"
                 else checks.check_angle_answer)
        record = {"feasible": ans["feasible"], "dimension": ans["dimension"],
                  "digest": checks.digest(ans)}
        return record, check(equations, job.kind, ans)
    status, text = raw
    record = {"status": status}
    problem = None
    if "--json" in job.argv:
        report = json.loads(text)
        report.pop("elapsed_seconds", None)
        record["digest"] = checks.digest(report)
        command = report["command"]
        if command == "vertices":
            record["vertex_count"] = report["count"]
        if command in ("decide", "prescribe"):
            ans = _fractions(report["decision"])
            kind = job.argv[job.argv.index("--kind") + 1]
            record["feasible"] = ans["feasible"]
            record["dimension"] = ans.get("dimension")
            check = (checks.check_wedge_answer if command == "prescribe"
                     else checks.check_angle_answer)
            problem = check(equations, kind, ans)
            if status != (0 if ans["feasible"] else 1):
                problem = "exit status %d disagrees with the verdict" % status
    else:
        lines = [ln for ln in text.splitlines()
                 if not ln.startswith("elapsed_seconds:")]
        record["digest"] = checks.digest(lines)
    return record, problem
