"""Input generators for the benchmark, independent of the test suite.

Every generator returns plain gluing data (tetrahedron count plus
(src_tet, src_face, dst_tet, dst_face, vertex_map) records) and asserts
the shape of what it built before any timing starts: tetrahedron count,
cusp type, edge degrees, and whether the chi* criterion route applies.

- cyclic_cover(n): the n-fold cyclic cover of the figure-eight knot
  complement, shifts (0, 1, 0, 1) on its four gluings. 2n tetrahedra,
  one torus cusp, 2n edges all of degree 6.
- bounded_cover(n): the same cover with the copy-0 lift of the fourth
  gluing left open: 2 boundary faces, a non-torus link.
- random_closed(name, t, edges, rng): a random closed face pairing, resampled until
  it has the shape the random-certificate workload needs.
- one_tet_presentations(): all 108 closed one-tetrahedron gluing
  presentations (three face pairings times 6 x 6 vertex maps).
"""

from itertools import permutations

from anglekit.cli import serialize
from anglekit.triangulation import build

# the shipped two-tetrahedron figure-eight complement, spelled out here
# so the generators depend only on the gluing format
FIG8_GLUINGS = ((0, 0, 1, 0, (0, 1, 3, 2)),
                (0, 1, 1, 2, (1, 2, 3, 0)),
                (0, 2, 1, 1, (2, 3, 1, 0)),
                (0, 3, 1, 3, (2, 1, 0, 3)))
FIG8_SHIFTS = (0, 1, 0, 1)

FACE_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class Complex:
    """A generated input: a name and its gluing data."""

    def __init__(self, name, size, gluings):
        self.name = name
        self.size = size
        self.gluings = tuple(gluings)

    def build(self):
        return build(self.size, self.gluings)

    def text(self):
        return serialize(self.build())


def _cover_gluings(n, open_copy=None):
    out = []
    for k in range(n):
        for g, (st, sf, dt, df, vm) in enumerate(FIG8_GLUINGS):
            if g == 3 and k == open_copy:
                continue
            out.append((2 * k + st, sf,
                        2 * ((k + FIG8_SHIFTS[g]) % n) + dt, df, vm))
    return out


def cyclic_cover(n):
    cx = Complex("cover-%d" % n, 2 * n, _cover_gluings(n))
    tri = cx.build()
    assert tri.size == 2 * n and tri.is_closed
    assert [v.classification for v in tri.vertices] == ["torus"]
    assert sorted(e.degree for e in tri.edges) == [6] * (2 * n)
    assert not tri.has_inverted_edge  # criterion route applies
    return cx


def bounded_cover(n):
    cx = Complex("bounded-%d" % n, 2 * n, _cover_gluings(n, open_copy=0))
    tri = cx.build()
    assert tri.size == 2 * n and len(tri.boundary_faces) == 2
    assert not all(v.classification in ("torus", "klein")
                   for v in tri.vertices)  # criterion route skipped
    assert not tri.has_inverted_edge
    return cx


def face_map(src_face, dst_face, perm):
    """Vertex map gluing src_face to dst_face, the other three vertices
    matched in sorted order through perm."""
    m = [None] * 4
    m[src_face] = dst_face
    src = [x for x in range(4) if x != src_face]
    dst = [x for x in range(4) if x != dst_face]
    for i in range(3):
        m[src[i]] = dst[perm[i]]
    return tuple(m)


def random_shape_ok(tri, edges):
    """The random-certificate shape: closed, no inverted edge, one vertex
    whose link has nonzero Euler characteristic, and a fixed edge count.
    The link makes every decision of the workload infeasible (chi* of
    the link vector is its Euler characteristic, chi_ak of it is 0 under
    the zero prescription) and keeps the chi* criterion away from vertex
    enumeration. Fixing the edge count fixes every matrix shape, so two
    seeds ask for the same amount of work."""
    return (tri.is_closed and not tri.has_inverted_edge
            and len(tri.edges) == edges and len(tri.vertices) == 1
            and tri.vertices[0].link_euler != 0)


def random_closed(name, t, edges, rng):
    """A random closed face pairing on t tetrahedra with the
    random-certificate shape, resampled from rng until it has it."""
    faces = [(i, f) for i in range(t) for f in range(4)]
    perms = list(permutations(range(3)))
    for _ in range(10000):
        order = faces[:]
        rng.shuffle(order)
        gluings = []
        for a, b in zip(order[0::2], order[1::2]):
            gluings.append(a + b + (face_map(a[1], b[1], rng.choice(perms)),))
        cx = Complex(name, t, gluings)
        tri = cx.build()
        if random_shape_ok(tri, edges):
            assert tri.size == t and not tri.boundary_faces
            return cx
    raise AssertionError("no random closed complex of the required shape")


def one_tet_presentations():
    """All 108 closed one-tetrahedron presentations, inverted or not."""
    out = []
    for (f1, f2), (f3, f4) in FACE_PAIRINGS:
        for p in permutations(range(3)):
            for q in permutations(range(3)):
                idx = len(out)
                out.append(Complex(
                    "tet1-%03d" % idx, 1,
                    [(0, f1, 0, f2, face_map(f1, f2, p)),
                     (0, f3, 0, f4, face_map(f3, f4, q))]))
    assert len(out) == 108
    for cx in out:
        tri = cx.build()
        assert tri.size == 1 and tri.is_closed and len(tri.gluings) == 2
    return out
