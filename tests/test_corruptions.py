import ast
import os
import subprocess
import sys

import pytest

import corruptions

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


@pytest.mark.parametrize("case", corruptions.CASES,
                         ids=[c.__name__ for c in corruptions.CASES])
def test_corruption_raises_cross_check_error(case):
    assert corruptions.outcome(case) == "CrossCheckError"


@pytest.mark.parametrize("case", corruptions.ARGUMENT_CASES,
                         ids=[c.__name__ for c in corruptions.ARGUMENT_CASES])
def test_malformed_argument_raises_value_error(case):
    assert corruptions.outcome(case) == "ValueError"


def test_corruptions_still_raise_under_optimize_flag():
    # python -O strips assert statements; neither the verdict checks
    # nor the argument checks may be among them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    done = subprocess.run(
        [sys.executable, "-O", os.path.join(TESTS, "corruptions.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1:] == (["%s CrossCheckError" % c.__name__
                          for c in corruptions.CASES]
                         + ["%s ValueError" % c.__name__
                            for c in corruptions.ARGUMENT_CASES])


def package_trees():
    """(file name, parsed module) for each module of the package."""
    package = os.path.join(SRC, "anglekit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name),
                      encoding="utf-8") as handle:
                yield name, ast.parse(handle.read(), name)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # would stop guarding verdicts under that flag
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the runtime is pure standard library; relative imports stay inside
    # the package
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += ["%s:%d %s" % (name, node.lineno, top) for top in tops
                      if top not in sys.stdlib_module_names]
    assert found == []
