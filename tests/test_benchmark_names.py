"""The traced benchmark run wraps public functions by name.

perfbench/tracer.py looks each name in its TRACED table up with
getattr on anglekit.<layer>, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` without failing any other test. The
tracer is loaded here by path and only read.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()


@pytest.mark.parametrize("layer", sorted(TRACER.TRACED))
def test_traced_names_exist(layer):
    assert layer in TRACER.LAYERS
    module = importlib.import_module("anglekit." + layer)
    for name in TRACER.TRACED[layer]:
        assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)
