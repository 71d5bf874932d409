"""Shared corpus of small triangulations for the test suite.

One-tetrahedron closed complexes are enumerated exhaustively: choose
one of the three ways to pair the four faces, then an independent
vertex map for each pair. That gives 108 gluing presentations; a
member is called valid when no edge class is identified with itself
in reverse.

Cyclic covers of the shipped figure-eight complement lift its four
gluings to n copies, shifting the copy index by (0, 1, 0, 1): 2n
tetrahedra, one torus cusp, every edge of degree 6. open_copy leaves
that copy's lift of the last gluing open, which bounds the cover.
"""

from itertools import permutations

from anglekit.cli import parse
from anglekit.triangulation import build

from importlib.resources import files as _files

FACE_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def face_map(src_face, dst_face, perm):
    """Vertex map gluing src_face to dst_face, the three remaining
    vertices matched in sorted order through perm."""
    m = [None] * 4
    m[src_face] = dst_face
    src = sorted(x for x in range(4) if x != src_face)
    dst = sorted(x for x in range(4) if x != dst_face)
    for i in range(3):
        m[src[i]] = dst[perm[i]]
    return tuple(m)


def one_tet_closed(valid_only=True):
    out = []
    for (f1, f2), (f3, f4) in FACE_PAIRINGS:
        for p in permutations(range(3)):
            for q in permutations(range(3)):
                tri = build(1, [(0, f1, 0, f2, face_map(f1, f2, p)),
                                (0, f3, 0, f4, face_map(f3, f4, q))])
                if valid_only and tri.has_inverted_edge:
                    continue
                out.append(tri)
    return out


def shipped(name):
    data = _files("anglekit") / "data" / (name + ".tri")
    return parse(data.read_text(encoding="utf-8"))


def full_corpus():
    """All valid closed one-tetrahedron members plus the shipped
    two-tetrahedron fixture."""
    return one_tet_closed(valid_only=True) + [shipped("fig8")]


def cyclic_cover(n, open_copy=None):
    fig8 = shipped("fig8")
    gluings = []
    for k in range(n):
        for i, (g, shift) in enumerate(zip(fig8.gluings, (0, 1, 0, 1))):
            if (i, k) != (3, open_copy):
                gluings.append((2 * k + g.src_tet, g.src_face,
                                2 * ((k + shift) % n) + g.dst_tet,
                                g.dst_face, g.vertex_map))
    return build(2 * n, gluings)
