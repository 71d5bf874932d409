"""Angle structures on quadrilateral types, decided two independent ways.

Angles live in units of pi, so a tetrahedron's three quad angles sum
to 1 and the angles around an edge sum to 2. The generalised kind allows
any rational values, semi requires them nonnegative, strict positive.

decide() runs an exact LP and, where the classification theorems apply,
the vertex-solution criterion, and insists the two verdicts agree.
"""

from fractions import Fraction
from math import lcm

from .errors import CrossCheckError
from .linalg import _integer_row, fr, rank, solve, vec
from .lp import solve_lp
from .normal import (QUAD_AT_EDGE, WZCoefficients, chi_star,
                     chi_star_weights, expand, verify_basis)
from .polytope import enumerate_vertices


def angle_matrix(tri):
    """The equation system A x = b of generalised angle structures.

    One column per quad type. First t rows: the three quads of each
    tetrahedron sum to 1. Then n rows: the quads facing each edge class,
    counted once per embedding, sum to 2.

    >>> a, b = angle_matrix(__import__("anglekit").build(1, []))
    >>> len(a), len(a[0]), b[0], b[1]
    (7, 3, Fraction(1, 1), Fraction(2, 1))
    """
    t = tri.size
    rows = []
    rhs = []
    for i in range(t):
        row = [0] * (3 * t)
        for m in range(3):
            row[3 * i + m] = 1
        rows.append(row)
        rhs.append(Fraction(1))
    for e in tri.edges:
        row = [0] * (3 * t)
        for tet, slot in e.embeddings:
            row[3 * tet + QUAD_AT_EDGE[slot]] += 1
        rows.append(row)
        rhs.append(Fraction(2))
    return rows, rhs


class AngleAssignment:
    """A solution of the angle equations, one value per quad type."""

    def __init__(self, tri, values):
        values = [fr(x) for x in values]
        if len(values) != 3 * tri.size:
            raise ValueError("expected %d quad values, got %d"
                             % (3 * tri.size, len(values)))
        # the rows of angle_matrix on the values scaled to integers: each
        # tetrahedron sums to 1, each edge class to 2
        scale, ints = _integer_row(values)
        for i in range(tri.size):
            if sum(ints[3 * i:3 * i + 3]) != scale:
                raise ValueError(
                    "angle equations fail at tetrahedron %d row" % i)
        for e in tri.edges:
            if sum([ints[3 * tet + QUAD_AT_EDGE[slot]]
                    for tet, slot in e.embeddings]) != 2 * scale:
                raise ValueError(
                    "angle equations fail at edge %s row" % e.label)
        self.tri = tri
        self.values = tuple(values)
        self.is_semi = all(x >= 0 for x in values)
        self.is_strict = all(x > 0 for x in values)
        self.is_taut = self.is_semi and all(x in (0, 1) for x in values)

    def quad(self, tet, slot):
        return self.values[3 * tet + slot]

    def __repr__(self):
        return "AngleAssignment(%s)" % ([str(x) for x in self.values],)


class FarkasWitness:
    """An infeasibility certificate mapped into normal coordinates.

    The dual vector is read as coefficients (w, z) on the tetrahedral
    and edge solutions. The combination has quad coordinates equal to
    minus the dual pairing with the angle-matrix columns, hence
    nonnegative; its generalised Euler characteristic violates the
    classification condition named by violated_kind.
    """

    def __init__(self, tri, wz, normal_vector, chi_value, violated_kind):
        self.tri = tri
        self.wz = wz
        self.normal_vector = tuple(normal_vector)
        self.chi_value = chi_value
        self.violated_kind = violated_kind

    def quad_part(self):
        return self.normal_vector[:3 * self.tri.size]

    def report(self):
        """The certificate as a report record, rationals as Fractions."""
        return {"violated": self.violated_kind, "w": vec(self.wz.w),
                "z": vec(self.wz.z), "normal_vector": vec(self.normal_vector),
                "chi_star": fr(self.chi_value)}

    def __repr__(self):
        return "FarkasWitness(%s, chi*=%s)" % (self.violated_kind,
                                               self.chi_value)


def farkas_to_normal(basis, dual, violated_kind):
    """Package an LP dual vector as a FarkasWitness.

    dual has one entry per row of the angle matrix: w over tetrahedra
    then z over edge classes. Checks, exactly:
      - the combination's quad coordinates are -(A^T dual), all >= 0;
      - chi* of the combination is sum(w) + sum over edges of
        (2 - on_boundary) * z;
      - on closed complexes, the sign condition of violated_kind.
    Rejects duals failing any of these, naming the component.
    """
    tri = basis.tri
    t = tri.size
    n = len(tri.edges)
    if len(dual) != t + n:
        raise ValueError("expected %d dual entries, got %d"
                         % (t + n, len(dual)))
    dual = [fr(x) for x in dual]
    if all(x == 0 for x in dual):
        raise ValueError("zero dual vector certifies nothing")
    wz = WZCoefficients(dual[:t], dual[t:])
    vec = expand(basis, wz)
    # -(A^T dual) in integers, each column of the angle matrix read off
    # its tetrahedron row and the edge embeddings facing it
    scale, ints = _integer_row(dual)
    pairing = [-ints[q // 3] for q in range(3 * t)]
    for j, e in enumerate(tri.edges, t):
        for tet, slot in e.embeddings:
            pairing[3 * tet + QUAD_AT_EDGE[slot]] -= ints[j]
    if vec[:3 * t] != [Fraction(x, scale) for x in pairing]:
        raise CrossCheckError(
            "quad part of the combination differs from the dual pairing")
    if violated_kind == "generalised":
        if any(x != 0 for x in vec[:3 * t]):
            raise ValueError("generalised certificate has a nonzero quad")
    else:
        bad = next((q for q in range(3 * t) if vec[q] < 0), None)
        if bad is not None:
            raise ValueError("quad coordinate %d is negative" % bad)
    chi = chi_star(tri, vec)
    per_edge = [2 - (1 if e.on_boundary else 0) for e in tri.edges]
    if chi != sum(wz.w) + sum(c * z for c, z in zip(per_edge, wz.z)):
        raise CrossCheckError(
            "chi* of the combination differs from its (w, z) formula")
    if tri.is_closed:
        if violated_kind == "generalised" and chi == 0:
            raise ValueError("chi* vanishes; no generalised obstruction")
        if violated_kind == "semi" and chi <= 0:
            raise ValueError("chi* not positive; no semi obstruction")
        if violated_kind == "strict":
            if chi < 0:
                raise ValueError("chi* negative; no strict obstruction")
            if all(x == 0 for x in vec[:3 * t]):
                raise ValueError("strict obstruction needs a positive quad")
    return FarkasWitness(tri, wz, vec, chi, violated_kind)


# what the criterion route promises about the verdict, by the sign
# regime of the prescribed areas: nonpositive areas make the chi
# conditions necessary, nonnegative ones sufficient, zero both
PROMISES = {None: "equivalent", "zero": "equivalent",
            "nonpositive": "necessary only",
            "nonnegative": "sufficient only", "mixed": "not applicable"}


class RouteRecord:
    """Verdicts of the LP route and the criterion route side by side.

    regime is the sign regime of the prescribed areas, None when nothing
    is prescribed (or the kind is generalised, where the chi conditions
    decide outright); promise reads off what the criterion then claims.
    """

    def __init__(self, lp, criterion, skipped_reason=None, regime=None):
        self.lp = lp
        self.criterion = criterion
        self.skipped_reason = skipped_reason
        self.regime = regime

    @property
    def criterion_ran(self):
        return self.criterion is not None

    @property
    def promise(self):
        return PROMISES[self.regime]

    def __repr__(self):
        if self.criterion is None:
            text = "criterion skipped: %s" % (self.skipped_reason,)
        else:
            text = "criterion=%s" % (self.criterion,)
        if self.regime is not None:
            text += ", areas %s" % (self.regime,)
        return "RouteRecord(lp=%s, %s)" % (self.lp, text)


class Decision:
    def __init__(self, kind, feasible, witness, certificate, dimension,
                 agreement):
        self.kind = kind
        self.feasible = feasible
        self.witness = witness
        self.certificate = certificate
        self.dimension = dimension
        self.agreement = agreement

    def __repr__(self):
        return "Decision(%s: %s, dim=%s)" % (
            self.kind, "feasible" if self.feasible else "infeasible",
            self.dimension)


def _exact_route(a, b, kind):
    """Solve A x = b with the sign kind asks for, exactly.

    Returns (feasible, x, y, violated, lp): a solution x, or a dual y
    obstructing the kind named by violated, and for semi the LP result,
    whose tableau the semi dimension continues. Generalised solves the
    equations outright, semi runs one LP with zero cost, and strict
    widens the system by a uniform margin.
    """
    if kind == "generalised":
        x, y = solve(a, b)
        return x is not None, x, y, kind, None
    m = len(a)
    cols = len(a[0])
    if kind == "semi":
        res = solve_lp(a, b, [Fraction(0)] * cols)
        if res.status == "optimal":
            return True, res.x, None, kind, res
        if res.status != "infeasible":
            raise CrossCheckError("semi LP ended %s" % (res.status,))
        return False, None, res.y, kind, None
    # x = u + eps * ones with u >= 0: maximising eps over
    # A u + eps (A 1) = b, eps + slack = 1 finds the largest uniform
    # margin; strict solutions exist exactly when it is positive
    wide = [list(row) + [sum(row), 0] for row in a]
    wide.append([0] * cols + [1, 1])
    rhs = list(b) + [Fraction(1)]
    cost = [Fraction(0)] * cols + [Fraction(1), Fraction(0)]
    res = solve_lp(wide, rhs, cost)
    if res.status == "infeasible":
        # the widened system is solvable whenever a semi solution
        # exists, so this dual is a semi obstruction
        return False, None, res.y[:m], "semi", None
    if res.status != "optimal":
        raise CrossCheckError("strict LP ended %s" % (res.status,))
    eps = res.x[cols]
    if eps > 0:
        return True, [u + eps for u in res.x[:cols]], None, kind, None
    return False, None, [-v for v in res.y[:m]], kind, None


def _witness_dimension(a, kind, witness, unit, lp):
    """Check the sign of a feasible witness of kind, then return the
    dimension of the solution set it lies in: the semi polytope, from
    the semi LP lp, for semi, the affine solution space otherwise. unit
    names one value ("angle" or "wedge") in the error."""
    if kind == "semi":
        if not witness.is_semi:
            raise CrossCheckError("semi witness has a negative %s" % unit)
        return _semi_dimension(a, lp)
    if kind == "strict" and not witness.is_strict:
        raise CrossCheckError("strict witness has a nonpositive %s" % unit)
    return len(a[0]) - rank(a)


def _semi_dimension(a, lp):
    """Dimension of the polytope {x >= 0 : A x = b}, given an optimal
    LP result lp over it.

    A coordinate is pinned when it vanishes on the whole polytope. The
    support of lp.x is not pinned. Maximising the sum of the coordinates
    not yet seen positive either adds the support of the optimum to the
    seen set or reaches 0, which pins every unseen coordinate. Each such
    LP reruns phase 2 of lp's tableau, so phase 1 runs once. The affine
    hull is then cut out by the equations plus those pins.
    """
    cols = len(a[0])
    seen = {q for q in range(cols) if lp.x[q] > 0}
    while len(seen) < cols:
        res = lp.rerun([0 if q in seen else 1 for q in range(cols)])
        if res.status != "optimal":
            raise CrossCheckError(
                "semi polytope with a point gave an LP status %r"
                % (res.status,))
        if res.value == 0:
            break
        seen.update(q for q in range(cols) if res.x[q] > 0)
    pins = [[int(j == q) for j in range(cols)]
            for q in range(cols) if q not in seen]
    return cols - rank(a + pins)


def _vertex_criterion(tri, basis, kind, weights):
    """The chi* criterion over the vertex solutions, for one linear
    functional given by its rational weights over the 7t disc types
    (chi* for decide, chi* minus chi_ak for a prescription). For semi
    the functional is at most 0 at every vertex solution; for strict it
    is below 0 at every vertex solution with a positive quad.

    The weights are scaled once by the lcm of their denominators, a
    positive factor that keeps every sign, so each vertex solution costs
    one sparse integer dot product. Vertex solutions are rows . c over
    the verified basis, so they lie in the solution space, where the
    weights of the callers agree with the functionals they stand for.
    """
    t = tri.size
    scale = lcm(*[w.denominator for w in weights])
    sparse = [(i, w.numerator * (scale // w.denominator))
              for i, w in enumerate(weights) if w]
    for vs in enumerate_vertices(tri, basis):
        s = vs.vector
        if kind == "strict" and not any(s[:3 * t]):
            continue
        value = sum([w * s[i] for i, w in sparse])
        if value > 0 or (kind == "strict" and value == 0):
            return False
    return True


def decide(tri, kind):
    """Decide existence of an angle structure of the given kind.

    kind is "generalised", "semi" or "strict". The LP route always runs
    and fixes the verdict; the criterion route (vertex links for
    generalised, chi* over vertex solutions for the other two) runs when
    its theorem's hypothesis holds, and any disagreement raises
    CrossCheckError. Returns a Decision carrying the witness or
    certificate, the solution-space dimension when feasible, and the
    route record.
    """
    if kind not in ("generalised", "semi", "strict"):
        raise ValueError("unknown kind %r" % (kind,))
    a, b = angle_matrix(tri)
    t = tri.size
    basis = None
    feasible, x, y, violated, lp = _exact_route(a, b, kind)

    # the classification theorems live in the ideal-triangulation
    # setting: closed links and no edge identified with itself in
    # reverse (an inverted edge shifts chi* of a link vector away from
    # the link's Euler characteristic, one unit per inversion)
    links_closed = tri.is_closed
    torus_klein = links_closed and all(
        v.classification in ("torus", "klein") for v in tri.vertices)
    inverted = tri.has_inverted_edge
    criterion = None
    skipped = None
    if kind == "generalised":
        if not links_closed:
            skipped = "some vertex link has boundary"
        elif inverted:
            skipped = "an edge class is identified with itself in reverse"
        else:
            criterion = torus_klein
    else:
        if not torus_klein:
            skipped = "some vertex link is not a torus or Klein bottle"
        elif inverted:
            skipped = "an edge class is identified with itself in reverse"
        else:
            basis = verify_basis(tri)
            criterion = _vertex_criterion(tri, basis, kind,
                                          chi_star_weights(tri))
    if criterion is not None and criterion != feasible:
        raise CrossCheckError(
            "%s: LP says %s but the classification criterion says %s"
            % (kind, feasible, criterion))
    agreement = RouteRecord(feasible, criterion, skipped)

    witness = None
    certificate = None
    dimension = None
    if feasible:
        witness = AngleAssignment(tri, x)
        dimension = _witness_dimension(a, kind, witness, "angle", lp)
        if (kind != "semi" and torus_klein and not inverted
                and dimension != t + len(tri.vertices)):
            raise CrossCheckError(
                "angle space dimension %d, expected t + v = %d"
                % (dimension, t + len(tri.vertices)))
    else:
        if basis is None:
            basis = verify_basis(tri)
        certificate = farkas_to_normal(basis, y, violated)
    return Decision(kind, feasible, witness, certificate, dimension,
                    agreement)
