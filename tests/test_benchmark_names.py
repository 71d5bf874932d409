"""What the traced benchmark run relies on in the package.

perfbench/tracer.py looks each name in its TRACED table up with
getattr on anglekit.<layer>, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` without failing any other test. The traced
run also compares every enumerate_vertices result of the
cusped-criterion workload with the vertex counts and digest recorded in
perfbench/reference/cusped-criterion.json, so a change to the double
description that alters its output fails that run. The benchmark's
files are loaded here by path and only read.
"""

import importlib
import importlib.util
import json
import os

import pytest

from anglekit.polytope import enumerate_vertices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name):
    path = os.path.join(PERFBENCH, name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
