"""The benchmark's own re-check of witnesses and certificates.

The angle and wedge equations are rebuilt here from the raw gluing data,
with a separate union-find for the edge classes, so a check never goes
through the program's angle_matrix, b_system or edge tracing. Edge
classes are ordered by their smallest (tet, edge slot), the order the
program's certificates are indexed in.
"""

import hashlib
import json
from fractions import Fraction

EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {vw: e for e, vw in enumerate(EDGE_VERTICES)}
# quad slot m is disjoint from the edge pair (m-th pair below)
QUAD_FACING = ((0, 5), (2, 3), (1, 4))
QUAD_AT_EDGE = tuple(next(m for m, pair in enumerate(QUAD_FACING) if e in pair)
                     for e in range(6))
# wedge slot along each tetrahedron edge slot
EDGE_TO_WEDGE = (1, 0, 2, 5, 3, 4)


def _edge(a, b):
    return EDGE_INDEX[(min(a, b), max(a, b))]


class Equations:
    """Edge classes and both equation systems of one complex, zero
    prescription."""

    def __init__(self, size, gluings):
        self.size = size
        parent = {(i, s): (i, s) for i in range(size) for s in range(6)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        glued = set()
        for st, sf, dt, df, vm in gluings:
            glued.add((st, sf))
            glued.add((dt, df))
            others = [v for v in range(4) if v != sf]
            for i, a in enumerate(others):
                for b in others[i + 1:]:
                    ra = find((st, _edge(a, b)))
                    rb = find((dt, _edge(vm[a], vm[b])))
                    if ra != rb:
                        parent[ra] = rb
        groups = {}
        for key in sorted(parent):
            groups.setdefault(find(key), []).append(key)
        self.edges = sorted(groups.values(), key=min)
        self.boundary = [
            any((i, f) not in glued for i, s in emb
                for f in range(4) if f not in EDGE_VERTICES[s])
            for emb in self.edges]

    def angle_system(self):
        t = self.size
        rows = []
        for i in range(t):
            row = [0] * (3 * t)
            row[3 * i:3 * i + 3] = [1, 1, 1]
            rows.append(row)
        for emb in self.edges:
            row = [0] * (3 * t)
            for i, s in emb:
                row[3 * i + QUAD_AT_EDGE[s]] += 1
            rows.append(row)
        return rows, [1] * t + [2] * len(self.edges)

    def wedge_system(self):
        t = self.size
        rows = []
        for i in range(t):
            for k in range(4):
                row = [0] * (6 * t)
                for e, (a, b) in enumerate(EDGE_VERTICES):
                    if k in (a, b):
                        row[6 * i + EDGE_TO_WEDGE[e]] = 1
                rows.append(row)
        for emb in self.edges:
            row = [0] * (6 * t)
            for i, s in emb:
                row[6 * i + EDGE_TO_WEDGE[s]] += 1
            rows.append(row)
        rhs = [1] * (4 * t) + [1 if bd else 2 for bd in self.boundary]
        return rows, rhs


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _transpose_apply(rows, y):
    return [sum(row[q] * yi for row, yi in zip(rows, y))
            for q in range(len(rows[0]))]


def check_primal(rows, rhs, x, kind):
    """A witness solves the system and has the sign its kind asks for."""
    if len(x) != len(rows[0]):
        return "witness has %d entries, expected %d" % (len(x), len(rows[0]))
    if any(_dot(row, x) != b for row, b in zip(rows, rhs)):
        return "witness does not solve the equations"
    if kind == "semi" and any(v < 0 for v in x):
        return "semi witness has a negative entry"
    if kind == "strict" and any(v <= 0 for v in x):
        return "strict witness has a nonpositive entry"
    return None


def check_dual(rows, rhs, y, violated):
    """y obstructs the system for the violated kind (Farkas, Gordan and
    Motzkin forms): y^T A = 0 with y.b != 0; y^T A <= 0 with y.b > 0; or
    y^T A <= 0, nonzero, with y.b >= 0."""
    if len(y) != len(rows):
        return "dual has %d entries, expected %d" % (len(y), len(rows))
    g = _transpose_apply(rows, y)
    pairing = _dot(y, rhs)
    if violated == "generalised":
        ok = all(v == 0 for v in g) and pairing != 0
    elif violated == "semi":
        ok = all(v <= 0 for v in g) and pairing > 0
    elif violated == "strict":
        ok = all(v <= 0 for v in g) and any(g) and pairing >= 0
    else:
        return "unknown violated kind %r" % (violated,)
    return None if ok else "dual does not obstruct the %s system" % violated


def check_angle_answer(eqs, kind, answer):
    """Re-check the answer of an unprescribed decision."""
    rows, rhs = eqs.angle_system()
    if answer["feasible"]:
        return check_primal(rows, rhs, answer["witness"], kind)
    cert = answer["certificate"]
    y = list(cert["w"]) + list(cert["z"])
    err = check_dual(rows, rhs, y, cert["violated"])
    if err:
        return err
    quads = [-v for v in _transpose_apply(rows, y)]
    if list(cert["normal_vector"][:3 * eqs.size]) != quads:
        return "certificate normal vector disagrees with the dual"
    chi = sum(cert["w"]) + sum((1 if bd else 2) * z
                               for bd, z in zip(eqs.boundary, cert["z"]))
    if cert["chi_star"] != chi:
        return "certificate chi* disagrees with the dual"
    return None


def check_wedge_answer(eqs, kind, answer):
    """Re-check the answer of a decision with the zero prescription."""
    rows, rhs = eqs.wedge_system()
    if answer["feasible"]:
        return check_primal(rows, rhs, answer["witness"], kind)
    cert = answer["certificate"]
    err = check_dual(rows, rhs, cert["dual"], cert["violated"])
    if err:
        return err
    if cert["pairing"] != _dot(cert["dual"], rhs):
        return "certificate pairing disagrees with the dual"
    return None


def canonical(value):
    """JSON-ready form with rationals as exact 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in sorted(value.items())}
    return value


def digest(value):
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
