"""Surfaces built from polygonal cells with identified sides.

A cell with n sides is a cyclic list of n corner ids (globally unique,
hashable). Side k runs from the corner in position k to the corner in
position (k + 1) % n. A gluing record ((c1, k1), (c2, k2), flip)
identifies side k1 of cell c1 with side k2 of cell c2. With flip False
the tail corner of each side meets the head corner of the other, the
pattern that lets both cells keep their orientation. With flip True
tails meet tails and heads meet heads.

Corners are first class: a cell may meet a vertex class several times,
and monogons and bigons are legal. Angle values are kept in pi units
throughout, so a flat triangle has corner sum 1.
"""

from fractions import Fraction

from .errors import CrossCheckError
from .linalg import fr, solve


class CWError(ValueError):
    pass


class UnionFind:
    """Disjoint sets over hashable items, added on first find."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self, items):
        """The classes met by items, each in item order, ordered by
        their first item."""
        out = {}
        for it in items:
            out.setdefault(self.find(it), []).append(it)
        return list(out.values())


class CWSurface:
    """A compact surface with a fixed polygonal cell structure."""

    def __init__(self, cells, gluings):
        cells = [tuple(c) for c in cells]
        seen = set()
        for c in cells:
            if len(c) < 1:
                raise CWError("empty cell: %r" % (c,))
            for cid in c:
                if cid in seen:
                    raise CWError("corner id used twice: %r" % (cid,))
                seen.add(cid)
        self.cells = cells

        used = set()
        norm = []
        for rec in gluings:
            try:
                (c1, k1), (c2, k2), flip = rec
            except (TypeError, ValueError):
                raise CWError("malformed gluing record: %r" % (rec,))
            for c, k in ((c1, k1), (c2, k2)):
                if not (0 <= c < len(cells)) or not (0 <= k < len(cells[c])):
                    raise CWError("gluing names a missing side: %r" % (rec,))
            if (c1, k1) == (c2, k2):
                raise CWError("side glued to itself: %r" % (rec,))
            for s in ((c1, k1), (c2, k2)):
                if s in used:
                    raise CWError("side used twice: %r" % (rec,))
                used.add(s)
            norm.append(((c1, k1), (c2, k2), bool(flip)))
        self.gluings = tuple(norm)

        all_sides = [(ci, k) for ci, c in enumerate(cells) for k in range(len(c))]
        self.free_sides = tuple([s for s in all_sides if s not in used])

        # vertex classes of corners
        uf = UnionFind()
        for (c1, k1), (c2, k2), flip in self.gluings:
            t1, h1 = self._ends(c1, k1)
            t2, h2 = self._ends(c2, k2)
            if flip:
                uf.union(t1, t2)
                uf.union(h1, h2)
            else:
                uf.union(t1, h2)
                uf.union(h1, t2)
        # per-surface sequences whose length follows the input are lists:
        # CPython 3.11 keeps every freed tuple of exactly 20 items on a
        # free list that allocation never draws from, so each one stays
        # allocated until a full garbage collection
        self.vertices = [tuple(grp) for grp in
                         uf.groups(cid for c in cells for cid in c)]
        self.vertex_of = {}
        for vi, grp in enumerate(self.vertices):
            for cid in grp:
                self.vertex_of[cid] = vi

        onb = [False] * len(self.vertices)
        for ci, k in self.free_sides:
            t, h = self._ends(ci, k)
            onb[self.vertex_of[t]] = True
            onb[self.vertex_of[h]] = True
        self.vertex_on_boundary = onb

        self.edge_count = len(self.gluings) + len(self.free_sides)
        self.euler = len(self.vertices) - self.edge_count + len(cells)
        self.is_closed = not self.free_sides

        # connected components of the cell graph
        cuf = UnionFind()
        for (c1, _), (c2, _), _ in self.gluings:
            cuf.union(c1, c2)
        self.components = tuple([tuple(grp) for grp in
                                 cuf.groups(range(len(cells)))])
        self.is_connected = len(self.components) <= 1

        self.orientable = self._orientable()

    def _ends(self, ci, k):
        cell = self.cells[ci]
        return cell[k], cell[(k + 1) % len(cell)]

    def _orientable(self):
        # 2-colour cells: a flip gluing forces opposite colours, a plain
        # gluing forces equal colours; orientable iff no contradiction.
        colour = {}
        adj = {ci: [] for ci in range(len(self.cells))}
        for (c1, _), (c2, _), flip in self.gluings:
            adj[c1].append((c2, flip))
            adj[c2].append((c1, flip))
        for start in range(len(self.cells)):
            if start in colour:
                continue
            colour[start] = 1
            stack = [start]
            while stack:
                ci = stack.pop()
                for cj, flip in adj[ci]:
                    want = -colour[ci] if flip else colour[ci]
                    if cj not in colour:
                        colour[cj] = want
                        stack.append(cj)
                    elif colour[cj] != want:
                        return False
        return True

    def corner_ids(self):
        return [cid for c in self.cells for cid in c]

    def __repr__(self):
        return "CWSurface(cells=%d, edges=%d, vertices=%d, chi=%d)" % (
            len(self.cells), self.edge_count, len(self.vertices), self.euler)


def cell_area(cell, angles):
    """Area of one cell: corner sum minus (n - 2), in pi units.

    A flat euclidean n-gon has area 0 by this convention. Monogons and
    bigons get negative area unless their corners are large.
    """
    total = sum((fr(angles[cid]) for cid in cell), Fraction(0))
    return total - (len(cell) - 2)


def curvature(surface, angles, v):
    """Curvature at vertex v: 2 (interior) or 1 (boundary) minus the
    corner sum around it, in pi units."""
    base = 1 if surface.vertex_on_boundary[v] else 2
    total = sum((fr(angles[cid]) for cid in surface.vertices[v]), Fraction(0))
    return base - total


class GaussBonnetReport:
    def __init__(self, area_sum, curvature_sum, two_chi):
        self.area_sum = area_sum
        self.curvature_sum = curvature_sum
        self.two_chi = two_chi

    @property
    def holds(self):
        return self.area_sum + self.curvature_sum == self.two_chi

    def __repr__(self):
        return "GaussBonnetReport(area=%s, curvature=%s, 2chi=%s, holds=%s)" % (
            self.area_sum, self.curvature_sum, self.two_chi, self.holds)


def gauss_bonnet_check(surface, angles):
    """Total area plus total curvature against 2 chi, in pi units.

    This is an identity: it holds for every corner assignment, because
    every angle enters once positively through its cell and once
    negatively through its vertex.
    """
    area = sum((cell_area(c, angles) for c in surface.cells), Fraction(0))
    curv = sum((curvature(surface, angles, v) for v in range(len(surface.vertices))),
               Fraction(0))
    return GaussBonnetReport(area, curv, 2 * surface.euler)


class RealizeResult:
    def __init__(self, assignment, defect):
        self.assignment = assignment
        self.defect = defect

    @property
    def realized(self):
        return self.assignment is not None

    def __repr__(self):
        if self.realized:
            return "RealizeResult(realized, defect=0)"
        return "RealizeResult(refused, defect=%s)" % (self.defect,)


def realize(surface, curvatures, areas):
    """Find a corner assignment with the prescribed vertex curvatures and
    cell areas, all in pi units.

    Returns a RealizeResult. The assignment exists exactly when the
    prescription satisfies the closing identity
    sum(areas) + sum(curvatures) = 2 chi, so the refusal reason is the
    defect, the amount by which that identity fails. The surface must be
    connected; split a disconnected surface first.
    """
    if not surface.is_connected:
        sizes = sorted(len(c) for c in surface.components)
        raise CWError(
            "surface is disconnected (component cell counts %s); "
            "realize each component separately" % (sizes,))
    if len(curvatures) != len(surface.vertices):
        raise CWError("need one curvature per vertex (%d expected, %d given)"
                      % (len(surface.vertices), len(curvatures)))
    if len(areas) != len(surface.cells):
        raise CWError("need one area per cell (%d expected, %d given)"
                      % (len(surface.cells), len(areas)))
    curvatures = [fr(k) for k in curvatures]
    areas = [fr(a) for a in areas]

    ids = surface.corner_ids()
    col = {cid: j for j, cid in enumerate(ids)}
    rows = []
    rhs = []
    for ci, cell in enumerate(surface.cells):
        row = [Fraction(0)] * len(ids)
        for cid in cell:
            row[col[cid]] += 1
        rows.append(row)
        rhs.append(areas[ci] + (len(cell) - 2))
    for vi, grp in enumerate(surface.vertices):
        row = [Fraction(0)] * len(ids)
        for cid in grp:
            row[col[cid]] += 1
        rows.append(row)
        base = 1 if surface.vertex_on_boundary[vi] else 2
        rhs.append(base - curvatures[vi])

    defect = sum(areas, Fraction(0)) + sum(curvatures, Fraction(0)) - 2 * surface.euler
    x, cert = solve(rows, rhs)
    if x is None:
        if defect == 0:
            raise CrossCheckError("inconsistent system with zero defect")
        return RealizeResult(None, defect)
    if defect != 0:
        raise CrossCheckError("solvable system with nonzero defect")
    return RealizeResult({cid: x[col[cid]] for cid in ids}, Fraction(0))
