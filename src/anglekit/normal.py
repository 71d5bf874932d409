"""Normal surface coordinates and the solution space of the matching
equations.

A tetrahedron carries 7 disc types: 3 quadrilaterals and 4 triangles.
Quadrilateral slot m separates a pair of opposite edges; triangle slot k
cuts off vertex k. Vectors over the 7t disc types are indexed with all
quadrilaterals first (3 per tetrahedron, slot order) and then all
triangles (4 per tetrahedron, slot order).

The solution space C is the kernel of the matching equations: one
equation per normal arc class of each glued face pair. It always admits
the basis made of one tetrahedral solution per tetrahedron and one edge
solution per edge class. The equations and the basis vectors are int
lists; expand, coefficients and chi_star scale rational vectors once by
the lcm of their denominators and compute in integers.
"""

from fractions import Fraction
from math import lcm

from .errors import CrossCheckError
from .linalg import _integer_row, _rank_mod, fr, rank
from .triangulation import EDGE_INDEX, EDGE_VERTICES, FACE_VERTICES

# Quadrilateral slot m separates the two vertex pairs QUAD_PAIRS[m] and
# is disjoint from ("faces") the two edges spanned by those pairs.
QUAD_PAIRS = (((0, 1), (2, 3)), ((0, 3), (1, 2)), ((0, 2), (1, 3)))

# Edge slot -> the quadrilateral slot disjoint from that edge.
QUAD_AT_EDGE = (0, 2, 1, 1, 2, 0)

# Corners of quadrilateral m lie on the four edges it does not face.
QUAD_CORNER_EDGES = ((1, 2, 3, 4), (0, 1, 4, 5), (0, 2, 3, 5))

# Corners of triangle k lie on the three edges at vertex k.
TRI_CORNER_EDGES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def quad_separating(a, b):
    """The quadrilateral slot separating vertices a, b from the rest."""
    return QUAD_AT_EDGE[EDGE_INDEX[(min(a, b), max(a, b))]]


class DiscTypeIndex:
    """Flat indexing of the 7t disc types of a t tetrahedron complex."""

    def __init__(self, size):
        self.size = size

    @property
    def total(self):
        return 7 * self.size

    def quad(self, tet, slot):
        if not 0 <= slot < 3:
            raise ValueError("quadrilateral slot %r out of range" % (slot,))
        return 3 * tet + slot

    def tri(self, tet, slot):
        if not 0 <= slot < 4:
            raise ValueError("triangle slot %r out of range" % (slot,))
        return 3 * self.size + 4 * tet + slot


def matching_matrix(tri):
    """The matching equations, three rows per glued face pair.

    For the arc class near corner a of a glued face, the triangle at a
    plus the quadrilateral separating {a, face} must agree on both sides
    of the gluing. Rows follow the gluing list, corners ascending; signs
    are + on the source side and - on the destination side, so a row can
    collapse when a face is glued to the same tetrahedron.
    """
    ix = DiscTypeIndex(tri.size)
    rows = []
    for g in tri.gluings:
        mp = g.vertex_map
        for a in FACE_VERTICES[g.src_face]:
            b = mp[a]
            row = [0] * ix.total
            row[ix.tri(g.src_tet, a)] += 1
            row[ix.quad(g.src_tet, quad_separating(a, g.src_face))] += 1
            row[ix.tri(g.dst_tet, b)] -= 1
            row[ix.quad(g.dst_tet, quad_separating(b, g.dst_face))] -= 1
            rows.append(row)
    return rows


def tet_solution(tri, tet):
    """The tetrahedral solution: -1 on the 3 quadrilaterals of the
    tetrahedron, +1 on its 4 triangles."""
    ix = DiscTypeIndex(tri.size)
    s = [0] * ix.total
    for m in range(3):
        s[ix.quad(tet, m)] = -1
    for k in range(4):
        s[ix.tri(tet, k)] = 1
    return s


def edge_solution(tri, edge):
    """The edge solution: for each embedding of the edge, +1 on the two
    triangles meeting it and -1 on the quadrilateral facing it."""
    ix = DiscTypeIndex(tri.size)
    e = tri.edges[edge] if isinstance(edge, int) else edge
    s = [0] * ix.total
    for tet, slot in e.embeddings:
        s[ix.quad(tet, QUAD_AT_EDGE[slot])] -= 1
        u, v = EDGE_VERTICES[slot]
        s[ix.tri(tet, u)] += 1
        s[ix.tri(tet, v)] += 1
    return s


class WZCoefficients:
    """Coefficients (w, z) of a solution over the tetrahedral and edge
    solutions: s = sum w[i] W_tet[i] + sum z[j] W_edge[j]."""

    def __init__(self, w, z):
        self.w = tuple([fr(x) for x in w])
        self.z = tuple([fr(x) for x in z])

    def __eq__(self, other):
        return (isinstance(other, WZCoefficients)
                and self.w == other.w and self.z == other.z)

    def __repr__(self):
        return "WZCoefficients(w=%s, z=%s)" % (list(self.w), list(self.z))


class SolutionBasis:
    """The verified tetrahedral and edge solution basis of the kernel."""

    def __init__(self, tri):
        self.tri = tri
        self.tet_solutions = [tet_solution(tri, i) for i in range(tri.size)]
        self.edge_solutions = [edge_solution(tri, j)
                               for j in range(len(tri.edges))]
        self.matching = matching_matrix(tri)
        self._sparse_matching = [[(j, x) for j, x in enumerate(row) if x]
                                 for row in self.matching]
        vectors = self.tet_solutions + self.edge_solutions
        for k, v in enumerate(vectors):
            if _matching_residual(self, v) is not None:
                raise CrossCheckError(
                    "basis vector %d violates the matching equations" % k)
        # t + n kernel vectors independent mod p are independent over Q,
        # so rank_Q(M) <= 6t - n; rank_Q(M) >= rank_p(M), so a modular
        # rank of 6t - n pins the kernel dimension to t + n exactly.
        # An unlucky prime falls through to exact elimination.
        expected = tri.size + len(tri.edges)
        if (_rank_mod(vectors) != expected
                or 7 * tri.size - _rank_mod(self.matching) != expected):
            vector_rank = rank(vectors)
            kernel_dim = 7 * tri.size - rank(self.matching)
            if vector_rank != expected or kernel_dim != expected:
                raise CrossCheckError(
                    "basis rank %d, kernel dimension %d, expected %d"
                    % (vector_rank, kernel_dim, expected))
        self.dimension = expected

    def __repr__(self):
        return "SolutionBasis(t=%d, edges=%d, dim=%d)" % (
            self.tri.size, len(self.tri.edges), self.dimension)


def verify_basis(tri):
    """Construct the basis and verify kernel membership, independence and
    span. Failure raises CrossCheckError."""
    return SolutionBasis(tri)


def expand(basis, coeffs):
    """The solution vector named by (w, z) coefficients.

    The basis vectors are integers, so (w, z) is scaled once by the lcm
    of its denominators, the combination is summed in integers, and
    each coordinate comes back as a Fraction over that scale.
    """
    if isinstance(coeffs, WZCoefficients):
        w, z = coeffs.w, coeffs.z
    else:
        w, z = coeffs
    w, z = list(w), list(z)
    if len(w) != basis.tri.size or len(z) != len(basis.tri.edges):
        raise ValueError("expected %d tetrahedral and %d edge coefficients, "
                         "got %d and %d" % (basis.tri.size,
                                            len(basis.tri.edges), len(w),
                                            len(z)))
    scale, ints = _integer_row(w + z)
    out = [0] * (7 * basis.tri.size)
    for c, vecv in zip(ints, basis.tet_solutions + basis.edge_solutions):
        if c:
            for r, x in enumerate(vecv):
                if x:
                    out[r] += c * x
    return [Fraction(x, scale) for x in out]


def _matching_residual(basis, s):
    """(index, residual) of the first matching equation s violates, or
    None inside the solution space."""
    # a plain loop: rows have four entries, too few for a comprehension
    for r, row in enumerate(basis._sparse_matching):
        res = 0
        for j, x in row:
            res += x * s[j]
        if res != 0:
            return r, res
    return None


def coefficients(basis, s):
    """The unique (w, z) with s = sum w W_tet + sum z W_edge.

    Rejects vectors outside the solution space, reporting the index of
    the first matching equation with a nonzero residual. Inside it, each
    coefficient is read off the discs of one tetrahedron i, and the
    expansion of the result is checked against s. With T, Q the sums of
    the triangle and quad coordinates of i, T + 2 Q = -2 w_i. At the
    first embedding (i, uv) of edge class j, with xy the opposite slot,
    the quad facing both is -w_i - z_uv - z_xy, and tri_u + tri_v -
    tri_x - tri_y = 2 (z_uv - z_xy); together they give z_j = z_uv.
    All of this runs in integers, on s times the lcm of its denominators.
    """
    s = [fr(x) for x in s]
    t = basis.tri.size
    if len(s) != 7 * t:
        raise ValueError("expected %d coordinates, got %d" % (7 * t, len(s)))
    scale, ints = _integer_row(s)
    bad = _matching_residual(basis, ints)
    if bad is not None:
        raise ValueError(
            "vector is outside the solution space: matching equation %d "
            "has residual %s" % (bad[0], Fraction(bad[1], scale)))
    tris = [ints[3 * t + 4 * i:3 * t + 4 * i + 4] for i in range(t)]
    # 2 w_i times the scale
    w2 = [-(sum(tris[i]) + 2 * sum(ints[3 * i:3 * i + 3])) for i in range(t)]
    z = []
    for e in basis.tri.edges:
        i, slot = e.embeddings[0]
        (u, v), (x, y) = EDGE_VERTICES[slot], EDGE_VERTICES[5 - slot]
        c = tris[i]
        z.append(Fraction(c[u] + c[v] - c[x] - c[y]
                          - 2 * ints[3 * i + QUAD_AT_EDGE[slot]] - w2[i],
                          4 * scale))
    co = WZCoefficients([Fraction(x, 2 * scale) for x in w2], z)
    if expand(basis, co) != s:
        raise CrossCheckError(
            "kernel vector not spanned by the verified basis")
    return co


def boundary_arc_count(tri, kind, tet, slot):
    """Number of normal arcs of the disc type lying in unglued faces.

    A quadrilateral has one arc in each of the four faces of its
    tetrahedron; triangle k has one arc in each face other than face k.
    """
    if kind == "quad":
        faces = range(4)
    else:
        faces = (f for f in range(4) if f != slot)
    return sum(1 for f in faces if tri.face_gluing(tet, f) is None)


def chi_star_weights(tri):
    """The chi* weight of every disc type, in flat order (quads first,
    then triangles).

    A triangle counts -(1 + b)/2 plus 1/degree over its three corner
    edges; a quadrilateral counts -(2 + b)/2 plus 1/degree over its four
    corner edges, where b is the boundary arc count. chi* is the linear
    functional with these weights: chi_star is the dot product with
    this vector, and the vertex-solution criterion reads it as its cost
    vector.
    """
    # each weight is one integer over the common denominator 2 h, h the
    # lcm of the edge degrees, so it costs one Fraction
    degrees = [e.degree for e in tri.edges]
    h = lcm(*degrees)
    quads = []
    tris = []
    for tet in range(tri.size):
        share = [2 * h // degrees[tri.edge_class_of[(tet, es)]]
                 for es in range(6)]
        for m, edges in enumerate(QUAD_CORNER_EDGES):
            b = boundary_arc_count(tri, "quad", tet, m)
            quads.append(Fraction(sum([share[es] for es in edges])
                                  - (2 + b) * h, 2 * h))
        for k, edges in enumerate(TRI_CORNER_EDGES):
            b = boundary_arc_count(tri, "tri", tet, k)
            tris.append(Fraction(sum([share[es] for es in edges])
                                 - (1 + b) * h, 2 * h))
    return quads + tris


def chi_star(tri, s):
    """Generalised Euler characteristic of a disc type vector.

    Linear in s; on the vector of an embedded or immersed normal surface
    it equals the Euler characteristic of the surface.

    >>> from anglekit.triangulation import build
    >>> chi_star(build(1, []), tet_solution(build(1, []), 0))
    Fraction(1, 1)
    """
    s = [fr(x) for x in s]
    if len(s) != 7 * tri.size:
        raise ValueError("expected %d coordinates, got %d"
                         % (7 * tri.size, len(s)))
    # one integer dot product over the two common denominators
    scale, ints = _integer_row(s)
    wscale, weights = _integer_row(chi_star_weights(tri))
    return Fraction(sum([a * b for a, b in zip(ints, weights) if a]),
                    scale * wscale)


def vertex_link_vector(tri, v):
    """The normal surface made of one triangle per corner of the vertex
    class: the boundary of a small neighbourhood of the vertex."""
    if not isinstance(v, int):
        v = v.index
    ix = DiscTypeIndex(tri.size)
    s = [0] * ix.total
    for (tet, c) in tri.vertices[v].corners:
        s[ix.tri(tet, c)] += 1
    return s
