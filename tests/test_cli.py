import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from anglekit import cli
from anglekit.cli import (CLIError, main, parse, parse_data, rational_string,
                          run, serialize)
from anglekit.triangulation import build
from corpus import face_map


def data_path(name):
    return str(resources.files("anglekit") / "data" / (name + ".tri"))


def test_rational_string():
    assert rational_string(7) == "7"
    assert rational_string(Fraction(3, 4)) == "3/4"
    assert rational_string(Fraction(-1, 2)) == "-1/2"
    assert rational_string(Fraction(10, 5)) == "2"


def test_parse_minimal():
    tri = parse("tets 1")
    assert tri.size == 1 and len(tri.edges) == 6
    # comments and blank lines are ignored
    tri = parse("# a file\n\ntets 1  # trailing\n")
    assert tri.size == 1


def test_round_trip_fixtures(ex46, fig8, unglued):
    for tri in (ex46, fig8, unglued):
        text = serialize(tri)
        again = parse(text)
        assert serialize(again) == text
        assert again.size == tri.size
        assert [e.embeddings for e in again.edges] == \
            [e.embeddings for e in tri.edges]


@given(st.data())
def test_round_trip_corpus(all_corpus, data):
    tri = data.draw(st.sampled_from(all_corpus))
    assert serialize(parse(serialize(tri))) == serialize(tri)


def test_labels_round_trip(ex46):
    tri = parse(serialize(ex46))
    tri.set_edge_label(0, "core")
    tri.set_vertex_label(1, "cusp")
    text = serialize(tri)
    assert "label edge 0 core" in text
    assert "label vertex 1 cusp" in text
    again = parse(text)
    assert again.edge_by_name("core") == 0
    assert again.vertices[1].label == "cusp"


@pytest.mark.parametrize("text,where", [
    ("tets 1\nformat 1", "line 2, column 1: format line must come first"),
    ("format 2\ntets 1", "line 1, column 8: unsupported format version 2"),
    ("", "line 1, column 1: missing tets line"),
    ("# nothing\n", "line 1, column 1: missing tets line"),
    ("tets 1\ntets 1", "line 2, column 1: duplicate tets line"),
    ("glue 0 0 0 1 0123", "line 1, column 1: glue before tets"),
    ("label edge 0 x", "line 1, column 1: label before tets"),
    ("tets 0", "line 1, column 6:"),
    ("tets 1\nglue 0 0 0 1 10", "four digits"),
    ("tets 1\nglue 0 0 0 1 0123", "line 2"),
    ("tets 1\nglue 1 0 0 1 0123", "line 2"),
    ("tets 1\nglue 0 0 0 0 0123", "line 2"),
    ("tets 1\nglue 0 2 0 0 2103\nglue 0 3 0 1 0321\nglue 0 2 0 1 0312",
     "already glued on line 2"),
    ("tets 1\nfoo bar", "unknown directive 'foo'"),
    ("tets 1\nlabel edge 9 x", "edge index 9 out of range"),
    ("tets 1\nlabel edge 0 x\nlabel edge 1 x", "line 3"),
    ("tets 1\nglue 0 0", "expected: glue"),
])
def test_parse_errors(text, where):
    with pytest.raises(CLIError) as err:
        parse(text)
    assert where in str(err.value)


def test_parse_data(ex46):
    ac = parse_data("# data\narea 0 1 1/2\ncurv e1 -3\ncurv 1 1/4\n", ex46)
    assert ac.area(0, 1) == Fraction(1, 2)
    assert ac.curvature(0) == -3
    assert ac.curvature(1) == Fraction(1, 4)
    assert ac.curvature(2) == 0


@pytest.mark.parametrize("text,where", [
    ("area 0 0 1\narea 0 0 2", "already set on line 1"),
    ("curv e1 1\ncurv 0 2", "already set on line 1"),
    ("curv nope 1", "line 1"),
    ("area 0 0 x", "rational"),
    ("area 0 7 1", "line 1"),
    ("blah 1", "unknown directive"),
])
def test_parse_data_errors(ex46, text, where):
    with pytest.raises(CLIError) as err:
        parse_data(text, ex46)
    assert where in str(err.value)


def test_run_info():
    report, status = run("info", data_path("example_4_6"), {})
    assert status == 0
    tr = report["triangulation"]
    assert tr["tetrahedra"] == 1 and tr["edges"] == 3 and tr["vertices"] == 2
    assert tr["closed"] is True
    assert sorted(e["degree"] for e in tr["edge_classes"]) == [1, 1, 4]
    assert [v["classification"] for v in tr["vertex_links"]] == \
        ["sphere", "sphere"]
    json.dumps(report)


def test_run_basis():
    report, status = run("basis", data_path("fig8"), {})
    assert status == 0
    basis = report["basis"]
    assert basis["dimension"] == 4 and basis["verified"] is True
    assert len(basis["tetrahedral"]) == 2 and len(basis["edge"]) == 2
    assert all(len(v) == 14 for v in basis["tetrahedral"] + basis["edge"])
    json.dumps(report)


def test_run_chi_tables(tmp_path):
    report, _ = run("chi", data_path("example_4_6"), {})
    assert report["chi_star"]["tetrahedral"] == ["1"]
    assert report["chi_star"]["edge"] == ["2", "2", "2"]
    assert report["chi_star"]["vertex_links"] == ["2", "2"]
    # boundary edges count once
    path = tmp_path / "one.tri"
    path.write_text("tets 1\n")
    report, _ = run("chi", str(path), {})
    assert report["chi_star"]["edge"] == ["1"] * 6
    assert report["chi_star"]["vertex_links"] == ["1"] * 4


def test_run_chi_vector():
    report, status = run("chi", data_path("example_4_6"),
                         {"vector": "0,0,1,0,0,0,0"})
    assert status == 0 and report["chi_star"] == "0"
    report, _ = run("chi", data_path("example_4_6"),
                    {"vector": "1,1,0,0,0,0,0"})
    assert report["chi_star"] == "3"
    with pytest.raises(CLIError):
        run("chi", data_path("example_4_6"), {"vector": "1,2"})


def test_run_vertices():
    report, status = run("vertices", data_path("example_4_6"), {})
    assert status == 0 and report["count"] == 4
    vectors = {tuple(v["vector"]) for v in report["vertex_solutions"]}
    assert vectors == {(0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 1, 0, 1),
                       (0, 0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)}
    assert sorted(v["chi_star"] for v in report["vertex_solutions"]) == \
        ["0", "2", "2", "3"]
    assert report["dimension"] == 4


def test_run_decide():
    report, status = run("decide", data_path("example_4_6"),
                         {"kind": "generalised"})
    assert status == 1
    d = report["decision"]
    assert d["feasible"] is False
    assert d["routes"] == {"linear_program": "infeasible",
                           "criterion": "fails"}
    cert = d["certificate"]
    assert cert["violated"] == "generalised"
    assert Fraction(cert["chi_star"]) > 0

    report, status = run("decide", data_path("fig8"), {"kind": "strict"})
    assert status == 0
    d = report["decision"]
    assert d["feasible"] is True and d["dimension"] == 3
    # one dihedral angle per quad type, three per tetrahedron
    assert d["witness"] == ["1/3"] * 6
    assert d["routes"]["criterion"] == "holds"
    json.dumps(report)


def test_run_prescribe(tmp_path):
    # the prescription induced by the positive one parameter family
    data = tmp_path / "p.ak"
    data.write_text("".join("area 0 %d 1/8\n" % k for k in range(4))
                    + "".join("curv %d 5/4\n" % j for j in range(3)))
    report, status = run("prescribe", data_path("example_4_6"),
                         {"kind": "strict", "data": str(data)})
    assert status == 0
    assert report["prescription"]["area_sign_regime"] == "nonnegative"
    d = report["decision"]
    assert d["feasible"] is True and d["dimension"] == 1
    assert d["routes"]["criterion"] == "holds"
    assert d["routes"]["criterion_meaning"] == "sufficient only"

    # a lone curvature bump is unsolvable
    data.write_text("curv 0 1\n")
    report, status = run("prescribe", data_path("example_4_6"),
                         {"kind": "generalised", "data": str(data)})
    assert status == 1
    d = report["decision"]
    assert d["certificate"]["violated"] == "generalised"
    assert Fraction(d["certificate"]["pairing"]) != 0
    json.dumps(report)


def test_run_gb():
    report, status = run("gb", data_path("fig8"), {})
    assert status == 0
    surf = report["surface"]
    assert surf["cells"] == 8 and surf["euler"] == 0
    assert surf["closed"] is True
    real = report["realization"]
    assert real["realized"] is True and real["defect"] == "0"
    assert len(real["corner_angles"]) == 24
    assert report["gauss_bonnet"]["holds"] is True
    json.dumps(report)

    # unbalanced curvature cannot be realized on a torus link
    report, status = run("gb", data_path("fig8"), {"curv": ["0=1"]})
    assert status == 1
    assert report["realization"]["realized"] is False
    assert report["realization"]["defect"] == "1"
    assert "gauss_bonnet" not in report


def test_run_gb_vertex_selection():
    report, _ = run("gb", data_path("example_4_6"), {"vertex": "v2"})
    assert report["surface"]["vertex"] == "v2"
    report, _ = run("gb", data_path("example_4_6"), {"vertex": "1"})
    assert report["surface"]["vertex"] == "v2"
    with pytest.raises(Exception):
        run("gb", data_path("example_4_6"), {"vertex": "nope"})


def test_run_determinism():
    one, s1 = run("decide", data_path("fig8"), {"kind": "semi"})
    two, s2 = run("decide", data_path("fig8"), {"kind": "semi"})
    one.pop("elapsed_seconds")
    two.pop("elapsed_seconds")
    assert one == two and s1 == s2


def test_main_exit_codes(capsys):
    assert main(["decide", "--kind", "strict", data_path("fig8")]) == 0
    assert main(["decide", "--kind", "generalised",
                 data_path("example_4_6")]) == 1
    out = capsys.readouterr().out
    assert "feasible: yes" in out and "feasible: no" in out

    assert main(["info", "/no/such/file.tri"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["decide", "--kind", "bogus", data_path("fig8")])


def test_main_json(capsys):
    assert main(["--json", "decide", "--kind", "strict",
                 data_path("fig8")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"]["witness"] == ["1/3"] * 6
    assert report["decision"]["dimension"] == 3

    assert main(["--json", "info", data_path("example_4_6")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["triangulation"]["vertices"] == 2


@pytest.mark.parametrize("exc", [RecursionError("too deep"),
                                 AssertionError("bug"), KeyError(3)])
def test_main_unexpected_failure_exits_2(exc, monkeypatch, capsys):
    # status 1 means infeasible; a crash must not read as a verdict
    def boom(*args):
        raise exc

    monkeypatch.setattr(cli, "run", boom)
    assert main(["info", data_path("fig8")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: %s" % type(exc).__name__)


# runs the commands whose reports rest on checked verdicts, in JSON, in
# one interpreter; the first line is the interpreter's optimize flag
OPTIMIZE_SCRIPT = """
import contextlib, io, sys
from importlib import resources
from anglekit.cli import main
print("optimize", sys.flags.optimize)
for name in ("fig8", "example_4_6"):
    path = str(resources.files("anglekit") / "data" / (name + ".tri"))
    for argv in (["decide", "--kind", "generalised"],
                 ["decide", "--kind", "semi"],
                 ["decide", "--kind", "strict"],
                 ["prescribe", "--kind", "semi", "--data", sys.argv[1]],
                 ["prescribe", "--kind", "generalised", "--data",
                  sys.argv[1]],
                 ["vertices"], ["basis"], ["chi"], ["gb"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["--json"] + argv + [path])
        print(name, argv[0], status)
        print(out.getvalue())
"""


def test_cli_reports_identical_under_optimize_flag(tmp_path):
    # python -O strips assert statements; no verdict, witness or
    # certificate may depend on one
    data = tmp_path / "p.ak"
    data.write_text("area 0 0 1/8\narea 0 1 -1/4\ncurv 0 1/2\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    outputs = []
    for flags in (["-O"], []):
        done = subprocess.run(
            [sys.executable] + flags + ["-c", OPTIMIZE_SCRIPT, str(data)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(re.sub(r'"elapsed_seconds": [0-9.e-]+', "",
                              done.stdout).splitlines())
    optimized, plain = outputs
    assert optimized[0] == "optimize 1" and plain[0] == "optimize 0"
    assert optimized[1:] == plain[1:]
    assert sum(line.startswith(("fig8 ", "example_4_6 "))
               for line in plain) == 18
    assert '"certificate": {' in "\n".join(plain)


def test_main_info_on_long_chain(tmp_path, capsys):
    # face 0 of each tetrahedron glued to face 1 of the next: union-find
    # chains as long as the input
    path = tmp_path / "chain.tri"
    path.write_text(serialize(build(
        2000, [(i, 0, i + 1, 1, (1, 0, 2, 3)) for i in range(1999)])))
    assert main(["--json", "info", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["triangulation"]["tetrahedra"] == 2000


def test_main_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.tri"
    bad.write_text("tets 1\nglue 0 0 0 1 10\n")
    assert main(["info", str(bad)]) == 2
    assert "four digits" in capsys.readouterr().err


def test_main_gb_overrides(capsys):
    # a balanced override pair on the ex46 sphere link realizes
    assert main(["gb", "--vertex", "v1", "--curv", "0=2", "--curv", "1=2",
                 data_path("example_4_6")]) in (0, 1)


@st.composite
def gluing_texts(draw):
    """A file of t <= 2 tetrahedra with some of its faces paired at
    random, each pair glued through one of the six maps of its faces."""
    t = draw(st.integers(min_value=1, max_value=2))
    slots = draw(st.permutations([(i, f) for i in range(t)
                                  for f in range(4)]))
    pairs = draw(st.integers(min_value=0, max_value=2 * t))
    lines = ["tets %d" % t]
    for (a, f), (b, g) in list(zip(slots[::2], slots[1::2]))[:pairs]:
        perm = draw(st.sampled_from(tuple(permutations(range(3)))))
        lines.append("glue %d %d %d %d %s" % (
            a, f, b, g, "".join(map(str, face_map(f, g, perm)))))
    return "\n".join(lines).encode()


@st.composite
def mutated_fig8(draw):
    """fig8.tri with a few bytes replaced, inserted or deleted."""
    text = bytearray(pathlib.Path(data_path("fig8")).read_bytes())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text) - 1))
        byte = draw(st.integers(min_value=0, max_value=255)
                    | st.sampled_from(b"0123 \n-/#"))
        how = draw(st.sampled_from(("replace", "insert", "delete")))
        if how == "replace":
            text[at] = byte
        elif how == "insert":
            text.insert(at, byte)
        else:
            del text[at]
    return bytes(text)


COMMANDS = (["info"], ["basis"], ["chi"], ["vertices"], ["gb"],
            ["decide", "--kind", "generalised"], ["decide", "--kind", "semi"],
            ["decide", "--kind", "strict"],
            ["prescribe", "--kind", "semi", "--data"],
            ["prescribe", "--kind", "strict", "--data"])


@seed(20261020)
@settings(max_examples=60)
@given(gluing_texts() | mutated_fig8(), st.sampled_from(COMMANDS),
       st.booleans())
def test_main_exit_contract_on_random_files(tmp_path_factory, text, command,
                                            as_json):
    # 0 feasible, 1 infeasible, 2 a clean error: never a traceback, an
    # internal error or a failed cross-check
    where = tmp_path_factory.getbasetemp()
    path = where / "random.tri"
    path.write_bytes(text)
    argv = list(command)
    if argv[-1] == "--data":
        data = where / "random.ak"
        data.write_text("area 0 1 1/4\ncurv 0 -1/2\n")
        argv.append(str(data))
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["--json"] * as_json + argv + [str(path)])
    if status == 2:
        assert err.getvalue().startswith("error: ")
    else:
        assert status in (0, 1) and err.getvalue() == ""
