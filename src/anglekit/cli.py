"""Command line front end: file formats, commands, reports.

Triangulation files are line based, one record per line, with `#`
starting a comment:

    format 1            # optional, must come first if present
    tets <t>
    glue <tet> <face> <tet'> <face'> <p0p1p2p3>
    label edge <index> <name>
    label vertex <index> <name>

`p0p1p2p3` is the image sequence of the vertex map, so `glue 0 2 0 0
2103` glues face 2 of tetrahedron 0 to face 0 sending vertices
0,1,2,3 to 2,1,0,3. Prescription files use

    area <tet> <corner> <p/q>
    curv <edge-label-or-index> <p/q>

with unlisted entries zero. Every angle, area and curvature at this
interface is measured in units of pi: a flat triangle has angle sum 1,
an interior edge of a flat structure has wedge sum 2.

Exit status is 0 for feasible/true, 1 for infeasible/false, 2 for any
error. `--json` switches the report to JSON with all rationals
rendered exactly as strings like "3/4", never as floats.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .angles import decide
from .cwsurface import gauss_bonnet_check, realize
from .errors import CrossCheckError
from .linalg import dot
from .normal import (chi_star, chi_star_weights, edge_solution, tet_solution,
                     verify_basis, vertex_link_vector)
from .polytope import enumerate_vertices
from .prescribe import AreaCurvature, decide_prescribed
from .triangulation import (Gluing, TriangulationError, build,
                            vertex_link_surface)

FORMAT_VERSION = 1


class CLIError(ValueError):
    """Parse or usage failure, already carrying its source location."""


def _fail(lineno, col, msg):
    raise CLIError("line %d, column %d: %s" % (lineno, col, msg))


def _lines(text):
    # comment stripping keeps columns honest: positions refer to the
    # original line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


def _tokens(lineno, line):
    out = []
    col = 0
    while col < len(line):
        if line[col].isspace():
            col += 1
            continue
        end = col
        while end < len(line) and not line[end].isspace():
            end += 1
        out.append((line[col:end], col + 1))
        col = end
    return out

def _int_token(lineno, tok, what, lo, hi):
    text, col = tok
    try:
        value = int(text)
    except ValueError:
        _fail(lineno, col, "%s must be an integer, got %r" % (what, text))
    if not (lo <= value <= hi):
        _fail(lineno, col, "%s %d out of range %d..%d" % (what, value, lo, hi))
    return value


def parse(text):
    """Build a triangulation from file text.

    Errors name the line and column of the offending token.

    >>> parse("tets 1").size
    1
    """
    size = None
    gluings = []
    used_faces = {}
    labels = []
    saw_any = False
    for lineno, line in _lines(text):
        toks = _tokens(lineno, line)
        word, col = toks[0]
        if word == "format":
            if saw_any:
                _fail(lineno, col, "format line must come first")
            if len(toks) != 2:
                _fail(lineno, col, "expected: format <version>")
            version = _int_token(lineno, toks[1], "format version", 0, 10 ** 9)
            if version != FORMAT_VERSION:
                _fail(lineno, toks[1][1], "unsupported format version %d"
                      % version)
            saw_any = True
            continue
        saw_any = True
        if word == "tets":
            if size is not None:
                _fail(lineno, col, "duplicate tets line")
            if len(toks) != 2:
                _fail(lineno, col, "expected: tets <count>")
            size = _int_token(lineno, toks[1], "tetrahedron count", 1, 10 ** 6)
        elif word == "glue":
            if size is None:
                _fail(lineno, col, "glue before tets line")
            if len(toks) != 6:
                _fail(lineno, col,
                      "expected: glue <tet> <face> <tet'> <face'> <p0p1p2p3>")
            st = _int_token(lineno, toks[1], "tetrahedron", 0, size - 1)
            sf = _int_token(lineno, toks[2], "face", 0, 3)
            dt = _int_token(lineno, toks[3], "tetrahedron", 0, size - 1)
            df = _int_token(lineno, toks[4], "face", 0, 3)
            ptext, pcol = toks[5]
            if len(ptext) != 4 or not all(c in "0123" for c in ptext):
                _fail(lineno, pcol,
                      "vertex map must be four digits 0-3, got %r" % ptext)
            vm = tuple(int(c) for c in ptext)
            try:
                g = Gluing(st, sf, dt, df, vm)
            except TriangulationError as exc:
                _fail(lineno, col, str(exc))
            if (st, sf) == (dt, df):
                _fail(lineno, col, "face glued to itself")
            for side in ((st, sf), (dt, df)):
                if side in used_faces:
                    _fail(lineno, col,
                          "face %r already glued on line %d"
                          % (side, used_faces[side]))
                used_faces[side] = lineno
            gluings.append(g)
        elif word == "label":
            if size is None:
                _fail(lineno, col, "label before tets line")
            if len(toks) != 4 or toks[1][0] not in ("edge", "vertex"):
                _fail(lineno, col,
                      "expected: label edge|vertex <index> <name>")
            which = toks[1][0]
            index = _int_token(lineno, toks[2], "%s index" % which,
                               0, 10 ** 9)
            labels.append((lineno, col, which, index, toks[3][0]))
        else:
            _fail(lineno, col, "unknown directive %r" % word)
    if size is None:
        raise CLIError("line 1, column 1: missing tets line")
    try:
        tri = build(size, gluings)
    except TriangulationError as exc:
        raise CLIError(str(exc))
    for lineno, col, which, index, name in labels:
        pool = tri.edges if which == "edge" else tri.vertices
        if index >= len(pool):
            _fail(lineno, col, "%s index %d out of range (have %d)"
                  % (which, index, len(pool)))
        try:
            if which == "edge":
                tri.set_edge_label(index, name)
            else:
                tri.set_vertex_label(index, name)
        except TriangulationError as exc:
            _fail(lineno, col, str(exc))
    return tri


def serialize(tri):
    """Render a triangulation back to file text; parse inverts this."""
    out = ["format %d" % FORMAT_VERSION, "tets %d" % tri.size]
    for g in tri.gluings:
        out.append("glue %d %d %d %d %s" % (
            g.src_tet, g.src_face, g.dst_tet, g.dst_face,
            "".join(str(i) for i in g.vertex_map)))
    for e in tri.edges:
        if e.label != "e%d" % (e.index + 1):
            out.append("label edge %d %s" % (e.index, e.label))
    for v in tri.vertices:
        if v.label != "v%d" % (v.index + 1):
            out.append("label vertex %d %s" % (v.index, v.label))
    return "\n".join(out) + "\n"


def _rational_token(lineno, tok, what):
    text, col = tok
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(lineno, col, "%s must be a rational like 3/4, got %r"
              % (what, text))


def parse_data(text, tri):
    """Read an area and curvature prescription for tri, in pi units.

    Unlisted areas and curvatures are zero. Listing the same corner or
    edge twice is an error.
    """
    areas = [Fraction(0)] * (4 * tri.size)
    curvs = [Fraction(0)] * len(tri.edges)
    seen_area = {}
    seen_curv = {}
    for lineno, line in _lines(text):
        toks = _tokens(lineno, line)
        word, col = toks[0]
        if word == "area":
            if len(toks) != 4:
                _fail(lineno, col, "expected: area <tet> <corner> <p/q>")
            tet = _int_token(lineno, toks[1], "tetrahedron", 0, tri.size - 1)
            corner = _int_token(lineno, toks[2], "corner", 0, 3)
            key = (tet, corner)
            if key in seen_area:
                _fail(lineno, col, "area %d %d already set on line %d"
                      % (tet, corner, seen_area[key]))
            seen_area[key] = lineno
            areas[4 * tet + corner] = _rational_token(lineno, toks[3], "area")
        elif word == "curv":
            if len(toks) != 3:
                _fail(lineno, col,
                      "expected: curv <edge-label-or-index> <p/q>")
            try:
                edge = tri.edge_by_name(toks[1][0])
            except TriangulationError as exc:
                _fail(lineno, toks[1][1], str(exc))
            if edge in seen_curv:
                _fail(lineno, col, "curvature of edge %s already set on "
                      "line %d" % (tri.edges[edge].label, seen_curv[edge]))
            seen_curv[edge] = lineno
            curvs[edge] = _rational_token(lineno, toks[2], "curvature")
        else:
            _fail(lineno, col, "unknown directive %r" % word)
    return AreaCurvature(tri, areas, curvs)


# -- report rendering ---------------------------------------------------

def rational_string(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _clean(value):
    # reports carry rationals as exact strings, containers recursively
    if isinstance(value, Fraction):
        return rational_string(value)
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def _summary(tri):
    return {
        "tetrahedra": tri.size,
        "edges": len(tri.edges),
        "vertices": len(tri.vertices),
        "closed": tri.is_closed,
        "edge_classes": [
            {"label": e.label, "degree": e.degree,
             "boundary": e.on_boundary, "inverted": e.inverted}
            for e in tri.edges],
        "vertex_links": [
            {"label": v.label, "euler": v.link_euler,
             "closed": v.link_closed, "orientable": v.link_orientable,
             "classification": v.classification}
            for v in tri.vertices],
    }


def _vector(values):
    return [Fraction(x) for x in values]


def _decision_report(tri, decision):
    route = decision.agreement
    routes = {"linear_program": "feasible" if route.lp else "infeasible"}
    if route.criterion_ran:
        routes["criterion"] = "holds" if route.criterion else "fails"
    else:
        routes["criterion"] = "skipped"
        routes["criterion_skipped_because"] = route.skipped_reason
    if route.regime is not None:
        routes["area_sign_regime"] = route.regime
        routes["criterion_meaning"] = route.promise
    out = {
        "kind": decision.kind,
        "feasible": decision.feasible,
        "routes": routes,
    }
    if decision.dimension is not None:
        out["dimension"] = decision.dimension
    if decision.witness is not None:
        out["witness"] = _vector(decision.witness.values)
    if decision.certificate is not None:
        out["certificate"] = decision.certificate.report()
    return out


def _parse_vector(text, tri):
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise CLIError("vector entries must be rationals, got %r" % (text,))
    if len(values) != 7 * tri.size:
        raise CLIError("vector needs %d entries (3 quads then 4 triangles "
                       "per tetrahedron), got %d"
                       % (7 * tri.size, len(values)))
    return values


def _parse_overrides(pairs, count, what):
    out = [Fraction(0)] * count
    for item in pairs or ():
        key, eq, value = item.partition("=")
        if not eq:
            raise CLIError("%s override must look like index=p/q, got %r"
                           % (what, item))
        try:
            index = int(key)
        except ValueError:
            raise CLIError("%s index must be an integer, got %r"
                           % (what, key))
        if not (0 <= index < count):
            raise CLIError("%s index %d out of range 0..%d"
                           % (what, index, count - 1))
        try:
            out[index] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CLIError("%s value must be a rational, got %r"
                           % (what, value))
    return out


def run(command, path, options):
    """Execute one command against a triangulation file.

    Returns (report, exit_status): 0 feasible/true, 1 infeasible/false.
    Errors raise; the console entry point maps them to status 2.
    """
    started = time.perf_counter()
    with open(path, "r", encoding="utf-8") as handle:
        tri = parse(handle.read())
    report = {
        "command": command,
        "file": path,
        "triangulation": _summary(tri),
    }
    status = 0

    if command == "info":
        pass
    elif command == "basis":
        basis = verify_basis(tri)
        report["basis"] = {
            "dimension": basis.dimension,
            "verified": True,
            "tetrahedral": [_vector(v) for v in basis.tet_solutions],
            "edge": [_vector(v) for v in basis.edge_solutions],
        }
    elif command == "chi":
        if options.get("vector") is not None:
            values = _parse_vector(options["vector"], tri)
            report["chi_star"] = Fraction(chi_star(tri, values))
        else:
            weights = chi_star_weights(tri)
            report["chi_star"] = {
                "tetrahedral": [dot(tet_solution(tri, i), weights)
                                for i in range(tri.size)],
                "edge": [dot(edge_solution(tri, j), weights)
                         for j in range(len(tri.edges))],
                "vertex_links": [dot(vertex_link_vector(tri, v), weights)
                                 for v in tri.vertices],
            }
    elif command == "vertices":
        found = enumerate_vertices(tri)
        weights = chi_star_weights(tri)
        report["vertex_solutions"] = [
            {"vector": list(vs.vector),
             "chi_star": dot(vs.vector, weights),
             "support_rank": vs.support_rank}
            for vs in found]
        report["count"] = len(found)
        if found:
            report["dimension"] = found[0].dimension
    elif command == "decide":
        decision = decide(tri, options["kind"])
        report["decision"] = _decision_report(tri, decision)
        status = 0 if decision.feasible else 1
    elif command == "prescribe":
        with open(options["data"], "r", encoding="utf-8") as handle:
            ac = parse_data(handle.read(), tri)
        report["prescription"] = {
            "areas": _vector(ac.areas),
            "curvatures": _vector(ac.curvatures),
            "area_sign_regime": ac.area_regime,
        }
        decision = decide_prescribed(tri, ac, options["kind"])
        report["decision"] = _decision_report(tri, decision)
        status = 0 if decision.feasible else 1
    elif command == "gb":
        name = options.get("vertex")
        v = 0 if name is None else tri.vertex_by_name(name)
        surface = vertex_link_surface(tri, v)
        curvs = _parse_overrides(options.get("curv"),
                                 len(surface.vertices), "curvature")
        areas = _parse_overrides(options.get("area"),
                                 len(surface.cells), "area")
        result = realize(surface, curvs, areas)
        report["surface"] = {
            "vertex": tri.vertices[v].label,
            "cells": len(surface.cells),
            "edges": surface.edge_count,
            "vertices": len(surface.vertices),
            "euler": surface.euler,
            "closed": surface.is_closed,
            "orientable": surface.orientable,
        }
        report["realization"] = {
            "realized": result.realized,
            "defect": Fraction(result.defect),
        }
        if result.realized:
            check = gauss_bonnet_check(surface, result.assignment)
            report["realization"]["corner_angles"] = {
                str(cid): Fraction(x)
                for cid, x in sorted(result.assignment.items())}
            report["gauss_bonnet"] = {
                "area_sum": Fraction(check.area_sum),
                "curvature_sum": Fraction(check.curvature_sum),
                "two_chi": Fraction(check.two_chi),
                "holds": check.holds,
            }
        status = 0 if result.realized else 1
    else:
        raise CLIError("unknown command %r" % (command,))

    report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    return _clean(report), status


def _render_text(value, indent, out):
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                out.append("%s%s:" % (pad, key))
                _render_text(item, indent + 1, out)
            else:
                out.append("%s%s: %s" % (pad, key, _render_scalar(item)))
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                out.append("%s-" % pad)
                _render_text(item, indent + 1, out)
            else:
                out.append("%s- %s" % (pad, _render_scalar(item)))
    else:
        out.append("%s%s" % (pad, _render_scalar(value)))


def _render_scalar(item):
    if isinstance(item, bool):
        return "yes" if item else "no"
    if isinstance(item, list):
        return "[]"
    if isinstance(item, dict):
        return "{}"
    if item is None:
        return "none"
    return str(item)


def render(report, as_json):
    if as_json:
        return json.dumps(report, indent=2)
    out = []
    _render_text(report, 0, out)
    return "\n".join(out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="anglekit",
        description="Exact angle structures and normal surface solution "
                    "spaces on triangulated pseudo-manifolds. All angles, "
                    "areas and curvatures are in units of pi.")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as JSON, rationals as 'p/q'")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="triangulation summary")
    p.add_argument("file")
    p = sub.add_parser("basis", help="tetrahedral and edge solution basis")
    p.add_argument("file")
    p = sub.add_parser("chi", help="generalised Euler characteristic")
    p.add_argument("--vector",
                   help="comma separated coordinates, 3 quads then 4 "
                        "triangles per tetrahedron")
    p.add_argument("file")
    p = sub.add_parser("vertices",
                       help="vertex solutions of the projective "
                            "solution space")
    p.add_argument("file")
    p = sub.add_parser("decide", help="decide an angle structure kind")
    p.add_argument("--kind", required=True,
                   choices=("generalised", "semi", "strict"))
    p.add_argument("file")
    p = sub.add_parser("prescribe",
                       help="decide with prescribed areas and curvatures")
    p.add_argument("--kind", required=True,
                   choices=("generalised", "semi", "strict"))
    p.add_argument("--data", required=True,
                   help="prescription file: area/curv lines in pi units")
    p.add_argument("file")
    p = sub.add_parser("gb",
                       help="curvature and area realization on a vertex "
                            "link surface")
    p.add_argument("--vertex", help="vertex label or index (default first)")
    p.add_argument("--curv", action="append", metavar="I=P/Q",
                   help="curvature at link vertex I, repeatable")
    p.add_argument("--area", action="append", metavar="I=P/Q",
                   help="area of link cell I, repeatable")
    p.add_argument("file")

    args = ap.parse_args(argv)
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "file", "json")}
    try:
        report, status = run(args.command, args.file, options)
        print(render(report, args.json))
    except CrossCheckError as exc:
        print("internal cross-check failed: %s" % exc, file=sys.stderr)
        return 2
    except (CLIError, TriangulationError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # status 1 means infeasible, so an unexpected failure must not
        # escape as a traceback with that status
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
