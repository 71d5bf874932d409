"""Wedge angle structures with prescribed areas and curvatures.

A quadrilateral disc splits a tetrahedron into two wedges, one along
each of an opposite pair of edges, so a tetrahedron carries six wedges
and an assignment gives each one an angle. Prescribing an area for
every normal triangle type and a curvature for every edge class turns
existence of such an assignment into an exact linear system: each
triangle's three corner angles must sum to 1 + area and the angles
around each edge class to 2 - curvature (1 - curvature on the
boundary), all in pi units.

decide_prescribed() solves that system exactly and, where the chi
criteria apply, checks them against the verdict: equality of chi and
chi_ak on vertex links decides the generalised kind outright, while
for semi and strict the promise depends on the sign of the prescribed
areas (RouteRecord.promise).
"""

from fractions import Fraction

from .errors import CrossCheckError
from .linalg import (_integer_row, dot, fr, is_zero_vec, matvec, matmul,
                     nullspace, transpose, vec)
from .normal import (QUAD_AT_EDGE, TRI_CORNER_EDGES, WZCoefficients,
                     chi_star, chi_star_weights, coefficients, expand,
                     verify_basis, vertex_link_vector)
from .angles import (Decision, RouteRecord, angle_matrix, _exact_route,
                     _vertex_criterion, _witness_dimension)
from .triangulation import EDGE_INDEX, EDGE_VERTICES, vertex_link_surface

# wedge slot w runs along tetrahedron edge WEDGE_TO_EDGE[w]; opposite
# wedges pair up as (0, 3), (1, 4), (2, 5)
WEDGE_TO_EDGE = (1, 0, 2, 4, 5, 3)
EDGE_TO_WEDGE = (1, 0, 2, 5, 3, 4)

# wedges whose angles make up the corner sum of triangle k
TRI_WEDGES = ((0, 1, 2), (1, 3, 5), (0, 4, 5), (2, 3, 4))

# the two triangles meeting each wedge: the ends of its edge
WEDGE_TRIANGLES = tuple(EDGE_VERTICES[e] for e in WEDGE_TO_EDGE)

# quad m has corners in the four wedges it meets; the excluded pair
# runs along the edge pair it faces
QUAD_FACED_WEDGES = tuple(((m + 1) % 3, (m + 1) % 3 + 3) for m in range(3))
QUAD_CORNER_WEDGES = tuple(
    tuple(w for w in range(6) if w not in QUAD_FACED_WEDGES[m])
    for m in range(3))


class AreaCurvature:
    """A prescription: one area per normal triangle type (flat index
    4*tet + corner) and one curvature per edge class, in pi units."""

    def __init__(self, tri, areas, curvatures):
        areas = [fr(x) for x in areas]
        curvatures = [fr(x) for x in curvatures]
        if len(areas) != 4 * tri.size:
            raise ValueError("expected %d areas, got %d"
                             % (4 * tri.size, len(areas)))
        if len(curvatures) != len(tri.edges):
            raise ValueError("expected %d curvatures, got %d"
                             % (len(tri.edges), len(curvatures)))
        self.tri = tri
        self.areas = areas
        self.curvatures = curvatures

    @classmethod
    def zero(cls, tri):
        return cls(tri, [0] * (4 * tri.size), [0] * len(tri.edges))

    def area(self, tet, corner):
        return self.areas[4 * tet + corner]

    def curvature(self, edge):
        return self.curvatures[edge]

    @property
    def area_regime(self):
        """Sign pattern of the areas: "zero", "nonpositive",
        "nonnegative" or "mixed"."""
        neg = any(a < 0 for a in self.areas)
        pos = any(a > 0 for a in self.areas)
        if not neg and not pos:
            return "zero"
        if not pos:
            return "nonpositive"
        if not neg:
            return "nonnegative"
        return "mixed"

    def __eq__(self, other):
        return (isinstance(other, AreaCurvature)
                and self.areas == other.areas
                and self.curvatures == other.curvatures)

    def __repr__(self):
        return "AreaCurvature(triangles=%d, edges=%d, areas %s)" % (
            len(self.areas), len(self.curvatures), self.area_regime)


class WedgeAssignment:
    """Six wedge values per tetrahedron, flat index 6*tet + slot, in pi
    units. Semi means all nonnegative, strict all positive."""

    def __init__(self, tri, values):
        values = [fr(x) for x in values]
        if len(values) != 6 * tri.size:
            raise ValueError("expected %d wedge values, got %d"
                             % (6 * tri.size, len(values)))
        self.tri = tri
        self.values = values
        self.is_semi = all(x >= 0 for x in values)
        self.is_strict = all(x > 0 for x in values)

    def wedge(self, tet, slot):
        return self.values[6 * tet + slot]

    def __repr__(self):
        flavour = ("strict" if self.is_strict
                   else "semi" if self.is_semi else "generalised")
        return "WedgeAssignment(%d values, %s)" % (len(self.values), flavour)


def b_system(tri, ac):
    """The equation system B x = (a, b) a wedge assignment with the
    given prescription must satisfy.

    4t triangle rows (corner sums, right side 1 + area) then n edge
    rows (angle sums over the embeddings, right side 2 - curvature, or
    1 - curvature on the boundary), over 6t wedge columns.

    >>> from anglekit.triangulation import build
    >>> tri = build(1, [])
    >>> rows, rhs = b_system(tri, AreaCurvature.zero(tri))
    >>> len(rows), len(rows[0]), rhs[0], rhs[4]
    (10, 6, Fraction(1, 1), Fraction(1, 1))
    """
    if len(ac.areas) != 4 * tri.size or len(ac.curvatures) != len(tri.edges):
        raise ValueError("prescription sized for a different triangulation")
    cols = 6 * tri.size
    rows = []
    rhs = []
    for i in range(tri.size):
        for k in range(4):
            row = [0] * cols
            for w in TRI_WEDGES[k]:
                row[6 * i + w] = 1
            rows.append(row)
            rhs.append(1 + ac.area(i, k))
    for e in tri.edges:
        row = [0] * cols
        for tet, slot in e.embeddings:
            row[6 * tet + EDGE_TO_WEDGE[slot]] += 1
        rows.append(row)
        rhs.append((1 if e.on_boundary else 2) - ac.curvature(e.index))
    return rows, rhs


def chi_ak(tri, basis, ac, s):
    """chi of s relative to the prescription: half the triangle
    coordinates paired with the areas plus the edge coefficients of s
    paired with the curvatures.

    Linear in s; rejects vectors outside the solution space (the edge
    coefficients only exist there). With the zero prescription it
    vanishes identically.
    """
    s = [fr(x) for x in s]
    co = coefficients(basis, s)
    return (dot(s[3 * tri.size:], ac.areas) / 2
            + dot(co.z, ac.curvatures))


def induced_area_curvature(tri, wa):
    """The areas and curvatures a wedge assignment actually has.

    Returns (AreaCurvature, quad areas): triangle area = corner sum
    minus 1; curvature at an edge = 2 (interior) or 1 (boundary) minus
    its angle sum; quad area = the sum over its four corner wedges
    minus 2.
    """
    areas = []
    quads = []
    for i in range(tri.size):
        for k in range(4):
            total = sum(wa.wedge(i, w) for w in TRI_WEDGES[k])
            areas.append(total - 1)
        for m in range(3):
            total = sum(wa.wedge(i, w) for w in QUAD_CORNER_WEDGES[m])
            quads.append(total - 2)
    curvatures = []
    for e in tri.edges:
        total = sum(wa.wedge(tet, EDGE_TO_WEDGE[slot])
                    for tet, slot in e.embeddings)
        curvatures.append((1 if e.on_boundary else 2) - total)
    return AreaCurvature(tri, areas, curvatures), quads


def induced_link_angles(tri, wa, v):
    """Corner angles a wedge assignment induces on a vertex link.

    The link corner (tet, c, x) sits on the edge from c towards x and
    gets the wedge value along that edge. Returns (surface, angles) fit
    for the surface checks: the areas come out as the triangle areas
    and the vertex curvatures as the edge curvatures.
    """
    surf = vertex_link_surface(tri, v)
    angles = {}
    for cell in surf.cells:
        for cid in cell:
            tet, c, x = cid
            slot = EDGE_INDEX[(min(c, x), max(c, x))]
            angles[cid] = wa.wedge(tet, EDGE_TO_WEDGE[slot])
    return surf, angles


def project_dual(tri, hz):
    """(w, z) from a dual vector (h, z): w sums the four triangle
    entries of each tetrahedron, z passes through."""
    t = tri.size
    n = len(tri.edges)
    if len(hz) != 4 * t + n:
        raise ValueError("expected %d dual entries, got %d"
                         % (4 * t + n, len(hz)))
    hz = [fr(x) for x in hz]
    w = [sum(hz[4 * i:4 * i + 4], Fraction(0)) for i in range(t)]
    return WZCoefficients(w, hz[4 * t:])


def lift_dual(tri, wz):
    """The dual vector (h, z) a kernel element (w, z) of the transposed
    quad system projects from: the entry for triangle k of tetrahedron
    i is -(w_i + z_a + z_b + z_c)/2 over the corner's three edge
    classes. Inverts project_dual on that kernel."""
    h = []
    for i in range(tri.size):
        for k in range(4):
            zs = sum((wz.z[tri.edge_class_of[(i, slot)]]
                      for slot in TRI_CORNER_EDGES[k]), Fraction(0))
            h.append(-(wz.w[i] + zs) / 2)
    return h + list(wz.z)


def _wedge_rows(tri, hz):
    """The wedge rows B^T (h, z) of the transposed system, read off the
    edge embeddings: wedge m of tetrahedron i takes z of the edge class
    it runs along plus h of the two triangles meeting it. Integer (h,
    z) give integer rows."""
    t = tri.size
    out = []
    for i in range(t):
        for m in range(6):
            k, l = WEDGE_TRIANGLES[m]
            j = tri.edge_class_of[(i, WEDGE_TO_EDGE[m])]
            out.append(hz[4 * t + j] + hz[4 * i + k] + hz[4 * i + l])
    return out


def pairing_parts(tri, basis, ac, hz, vec):
    """Decomposition of the pairing of a dual vector against the
    prescribed sums, in pi units.

    vec is the combination W of tetrahedral and edge solutions weighted
    by project_dual(h, z), expand(basis, project_dual(tri, hz)). Returns
    (pairing, chi_gap, wedge_term): pairing = (h, z) dotted with the
    right side of the system, chi_gap = chi*(W) - chi_ak(W), and
    wedge_term = half the sum over wedges of the wedge row z + h_k +
    h_l times the two adjacent prescribed areas. pairing == chi_gap +
    wedge_term identically when vec is W; on the kernel of the
    transposed system the wedge term drops out.
    """
    hz = [fr(x) for x in hz]
    rhs = [1 + a for a in ac.areas]
    rhs += [(1 if e.on_boundary else 2) - curvature
            for e, curvature in zip(tri.edges, ac.curvatures)]
    pairing = dot(hz, rhs)
    gap = chi_star(tri, vec) - chi_ak(tri, basis, ac, vec)
    # the wedge rows in integers, over the common denominator of (h, z)
    scale, ints = _integer_row(hz)
    term = Fraction(0)
    for q, value in enumerate(_wedge_rows(tri, ints)):
        if value:
            i, m = divmod(q, 6)
            k, l = WEDGE_TRIANGLES[m]
            term += value * (ac.area(i, k) + ac.area(i, l))
    return pairing, gap, term / (2 * scale)


class DualCertificate:
    """Certificate that no wedge assignment meets the prescription.

    values is a dual vector (h, z) whose pairing against the prescribed
    sums obstructs: every wedge row of the transposed system is
    nonpositive (zero for the generalised kind) yet the pairing is
    positive (nonnegative with a nonzero wedge row for strict).
    normal_vector is the disc-type vector it projects to and chi_gap
    its chi* minus chi_ak, the quantity the chi conditions bound.
    """

    def __init__(self, tri, values, violated_kind, normal_vector, pairing,
                 chi_gap):
        self.tri = tri
        self.values = tuple(values)
        self.violated_kind = violated_kind
        self.normal_vector = tuple(normal_vector)
        self.pairing = pairing
        self.chi_gap = chi_gap

    def report(self):
        """The certificate as a report record, rationals as Fractions."""
        return {"violated": self.violated_kind, "dual": vec(self.values),
                "normal_vector": vec(self.normal_vector),
                "pairing": fr(self.pairing), "chi_gap": fr(self.chi_gap)}

    def __repr__(self):
        return "DualCertificate(%s, pairing=%s, chi gap=%s)" % (
            self.violated_kind, self.pairing, self.chi_gap)


def dual_to_normal(tri, basis, ac, hz, violated_kind):
    """Package an infeasibility dual of the prescribed system as a
    DualCertificate, checking the sign conditions that make it one."""
    t = tri.size
    n = len(tri.edges)
    if len(hz) != 4 * t + n:
        raise ValueError("expected %d dual entries, got %d"
                         % (4 * t + n, len(hz)))
    hz = [fr(x) for x in hz]
    if all(x == 0 for x in hz):
        raise ValueError("zero vector certifies nothing")
    # scaled to integers by a positive factor, which keeps every sign
    wedge_values = _wedge_rows(tri, _integer_row(hz)[1])
    if violated_kind == "generalised":
        if any(x != 0 for x in wedge_values):
            raise ValueError(
                "generalised obstruction must lie in the kernel of the "
                "transposed system")
    else:
        if any(x > 0 for x in wedge_values):
            raise ValueError("a wedge row of the transposed system is positive")
    if violated_kind == "strict" and all(x == 0 for x in wedge_values):
        raise ValueError("strict obstruction needs a nonzero wedge row")
    vec = expand(basis, project_dual(tri, hz))
    pairing, gap, term = pairing_parts(tri, basis, ac, hz, vec)
    if pairing != gap + term:
        raise CrossCheckError(
            "pairing %s is not chi gap %s plus wedge term %s"
            % (pairing, gap, term))
    if violated_kind == "generalised" and pairing == 0:
        raise ValueError("pairing vanishes; no generalised obstruction")
    if violated_kind == "semi" and pairing <= 0:
        raise ValueError("pairing not positive; no semi obstruction")
    if violated_kind == "strict" and pairing < 0:
        raise ValueError("pairing negative; no strict obstruction")
    quads = vec[:3 * t]
    if violated_kind == "generalised":
        if any(x != 0 for x in quads):
            raise CrossCheckError(
                "generalised certificate projects to a nonzero quad")
    else:
        if any(x < 0 for x in quads):
            raise CrossCheckError("certificate projects to a negative quad")
        if violated_kind == "strict" and not any(x > 0 for x in quads):
            raise CrossCheckError(
                "strict certificate projects to no positive quad")
    return DualCertificate(tri, hz, violated_kind, vec, pairing, gap)


def _curvature_weights(tri, ac):
    """The curvature part of chi_ak as sparse weights {disc index:
    weight} on the solution space.

    The closed form of `coefficients` simplifies to: the edge
    coefficient z_j is half the weight of s on the first embedding
    (i, uv) of edge class j, that is on triangles u and v of
    tetrahedron i and on its two quads that meet edge uv. Each class
    with a nonzero curvature puts curvature/2 on those four discs.
    """
    t = tri.size
    weights = {}
    for e, curvature in zip(tri.edges, ac.curvatures):
        if not curvature:
            continue
        i, slot = e.embeddings[0]
        u, v = EDGE_VERTICES[slot]
        discs = [3 * t + 4 * i + u, 3 * t + 4 * i + v]
        discs += [3 * i + m for m in range(3) if m != QUAD_AT_EDGE[slot]]
        for k in discs:
            weights[k] = weights.get(k, 0) + curvature / 2
    return weights


def _chi_conditions(tri, basis, ac, kind):
    # vertex links must match chi_ak exactly; for semi and strict the
    # vertex solutions bound it from below as well
    for v in tri.vertices:
        vec = vertex_link_vector(tri, v)
        if chi_ak(tri, basis, ac, vec) != v.link_euler:
            return False
    if kind == "generalised":
        return True
    # the curvature weights must give 0 on every tetrahedral solution and
    # curvature j on edge solution j; agreement on the verified basis is
    # agreement on the whole solution space
    curvature = _curvature_weights(tri, ac)
    expected = [0] * tri.size + ac.curvatures
    vectors = basis.tet_solutions + basis.edge_solutions
    for k, (v, want) in enumerate(zip(vectors, expected)):
        if sum(x * v[i] for i, x in curvature.items()) != want:
            raise CrossCheckError(
                "curvature weights disagree with the edge coefficients "
                "on basis vector %d" % k)
    # chi* - chi_ak: half the areas on the triangles, then the curvatures
    weights = chi_star_weights(tri)
    for k, area in enumerate(ac.areas, 3 * tri.size):
        weights[k] -= area / 2
    for i, x in curvature.items():
        weights[i] -= x
    return _vertex_criterion(tri, basis, kind, weights)


def decide_prescribed(tri, ac, kind):
    """Decide existence of a wedge assignment with the prescribed areas
    and curvatures.

    kind is "generalised", "semi" or "strict". The exact linear route
    always runs and fixes the verdict. The chi-condition route (chi ==
    chi_ak on vertex links, plus chi* bounds at the vertex solutions
    for semi and strict) runs unless an edge class is inverted; for the
    generalised kind the two must agree outright, for semi and strict
    only in the direction the sign regime of the areas promises.
    Returns a Decision with the witness or certificate, the dimension
    when feasible, and the route record.
    """
    if kind not in ("generalised", "semi", "strict"):
        raise ValueError("unknown kind %r" % (kind,))
    rows, rhs = b_system(tri, ac)
    t = tri.size
    n = len(tri.edges)
    feasible, x, y, violated, lp = _exact_route(rows, rhs, kind)

    # an inverted edge shifts chi* of a link vector away from the
    # link's Euler characteristic, so the chi conditions only apply
    # without one
    basis = None
    criterion = None
    skipped = None
    if tri.has_inverted_edge:
        skipped = "an edge class is identified with itself in reverse"
    else:
        basis = verify_basis(tri)
        criterion = _chi_conditions(tri, basis, ac, kind)
    agreement = RouteRecord(feasible, criterion, skipped,
                            None if kind == "generalised" else ac.area_regime)
    if criterion is not None:
        necessary = agreement.promise in ("equivalent", "necessary only")
        sufficient = agreement.promise in ("equivalent", "sufficient only")
        if necessary and feasible and not criterion:
            raise CrossCheckError(
                "prescribed %s: system solvable but the chi conditions fail"
                % (kind,))
        if sufficient and criterion and not feasible:
            raise CrossCheckError(
                "prescribed %s: chi conditions hold but the system is "
                "infeasible" % (kind,))

    witness = None
    certificate = None
    dimension = None
    if feasible:
        witness = WedgeAssignment(tri, x)
        induced, _ = induced_area_curvature(tri, witness)
        if induced != ac:
            raise CrossCheckError(
                "wedge witness does not induce the prescription")
        dimension = _witness_dimension(rows, kind, witness, "wedge", lp)
        if kind != "semi" and dimension != 2 * t - n + len(tri.vertices):
            raise CrossCheckError(
                "wedge space dimension %d, expected 2t - n + v = %d"
                % (dimension, 2 * t - n + len(tri.vertices)))
    else:
        if basis is None:
            basis = verify_basis(tri)
        certificate = dual_to_normal(tri, basis, ac, y, violated)
    return Decision(kind, feasible, witness, certificate, dimension,
                    agreement)


class MatrixIdentityReport:
    def __init__(self, c, d, kernel_dimension):
        self.c = c
        self.d = d
        self.kernel_dimension = kernel_dimension

    def __repr__(self):
        return "MatrixIdentityReport(kernel dimension %d)" % (
            self.kernel_dimension,)


def matrix_identities(tri):
    """Check the matrix bridge between the wedge and quad systems.

    Builds C (the matrix of project_dual) and D (one row per quad type,
    marking the wedge pair it faces) and verifies D Bt == At C exactly,
    that the transposed kernels have equal dimension, and that
    project_dual and lift_dual are inverse bijections between them.
    Any failure raises CrossCheckError.
    """
    t = tri.size
    n = len(tri.edges)
    rows_b, _ = b_system(tri, AreaCurvature.zero(tri))
    rows_a, _ = angle_matrix(tri)
    bt = transpose(rows_b)
    at = transpose(rows_a)

    c = []
    for i in range(t):
        row = [Fraction(0)] * (4 * t + n)
        for k in range(4):
            row[4 * i + k] = Fraction(1)
        c.append(row)
    for j in range(n):
        row = [Fraction(0)] * (4 * t + n)
        row[4 * t + j] = Fraction(1)
        c.append(row)

    d = []
    for i in range(t):
        for m in range(3):
            row = [Fraction(0)] * (6 * t)
            for w in QUAD_FACED_WEDGES[m]:
                row[6 * i + w] = Fraction(1)
            d.append(row)

    if matmul(d, bt) != matmul(at, c):
        raise CrossCheckError("wedge and quad transposes disagree through "
                              "the projection")

    kb = nullspace(bt)
    ka = nullspace(at)
    if len(kb) != len(ka):
        raise CrossCheckError("transposed kernel dimensions differ: %d vs %d"
                              % (len(kb), len(ka)))
    for hz in kb:
        wz = project_dual(tri, hz)
        if not is_zero_vec(matvec(at, list(wz.w) + list(wz.z))):
            raise CrossCheckError("projected dual left the quad kernel")
        if lift_dual(tri, wz) != hz:
            raise CrossCheckError("lift does not invert the projection")
    for x in ka:
        wz = WZCoefficients(x[:t], x[t:])
        hz = lift_dual(tri, wz)
        if not is_zero_vec(matvec(bt, hz)):
            raise CrossCheckError("lifted dual left the wedge kernel")
        if project_dual(tri, hz) != wz:
            raise CrossCheckError("projection does not invert the lift")
    return MatrixIdentityReport(c, d, len(kb))
