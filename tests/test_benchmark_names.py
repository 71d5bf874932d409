"""What the benchmark relies on in the package.

perfbench/tracer.py looks each name in its TRACED table up with
getattr on anglekit.<layer>, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` without failing any other test. The traced
run also compares every enumerate_vertices result of the
cusped-criterion workload with the vertex counts and digest recorded in
perfbench/reference/cusped-criterion.json, so a change to the double
description that alters its output fails that run. Every job of the
decision workloads must give the verdict, dimension and answer digest
recorded in perfbench/reference/<workload>.json and pass the
benchmark's own re-check (perfbench/checks.py); each job runs once
here. The benchmark's files are loaded by path and only read. Its
modules import each other as `checks` and `corpus`, and the suite has a
`corpus` of its own, so they are loaded under other names and handed
to the module that imports them only while it is loaded.
"""

import importlib
import importlib.util
import json
import os
import sys

import pytest

from anglekit.polytope import enumerate_vertices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name, imports=None):
    path = os.path.join(PERFBENCH, name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    imports = imports or {}
    saved = {key: sys.modules.get(key) for key in imports}
    sys.modules.update(imports)
    try:
        spec.loader.exec_module(module)
    finally:
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value
    return module


TRACER = load("tracer")


@pytest.mark.parametrize("layer", sorted(TRACER.TRACED))
def test_traced_names_exist(layer):
    assert layer in TRACER.LAYERS
    module = importlib.import_module("anglekit." + layer)
    for name in TRACER.TRACED[layer]:
        assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)


def test_cover_vertex_solutions_match_the_benchmark_reference():
    checks = load("checks")
    corpus = load("corpus")
    path = os.path.join(PERFBENCH, "reference", "cusped-criterion.json")
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    found = [list(vs.vector)
             for vs in enumerate_vertices(corpus.cyclic_cover(2).build())]
    assert len(found) == 48
    for job, record in sorted(reference.items()):
        # each job enumerates the cover's vertex solutions once or never
        calls = [found] * len(record["vertex_counts"])
        assert record["vertex_counts"] == [len(c) for c in calls], job
        assert record["vertex_digest"] == checks.digest(calls), job


@pytest.mark.parametrize("name", ["cusped-criterion", "bounded-lp",
                                  "random-certificate"])
def test_decision_jobs_match_the_benchmark_reference(name, tmp_path):
    checks = load("checks")
    workloads = load("workloads", {"checks": checks,
                                   "corpus": load("corpus")})
    workload = workloads.build_workload(name, str(tmp_path))
    with open(os.path.join(PERFBENCH, "reference", name + ".json"),
              encoding="utf-8") as handle:
        reference = json.load(handle)
    assert sorted(job.name for job in workload.jobs) == sorted(reference)
    equations = {}
    for job in workload.jobs:
        cx = job.complex
        if cx.name not in equations:
            equations[cx.name] = checks.Equations(cx.size, cx.gluings)
        record, problem = workloads.answer(
            job, workloads.execute(job), equations[cx.name])
        assert problem is None, (job.name, problem)
        for key in ("feasible", "dimension", "digest"):
            assert record[key] == reference[job.name][key], (job.name, key)
