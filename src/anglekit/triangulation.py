"""Triangulated 3-dimensional pseudo-manifolds given by face gluings.

A triangulation is a disjoint union of tetrahedra, labelled 0..t-1, with
some of the 4t faces glued in pairs. Vertices of each tetrahedron are
labelled 0..3 and face f is the face opposite vertex f. A gluing record
carries the two faces and the induced map on all four vertex labels; the
label opposite the source face must map to the label opposite the
destination face. A face may be glued to a different face of the same
tetrahedron, and gluings may reverse edges; both are legal here and the
quotient need not be a manifold.
"""

from .cwsurface import CWSurface, UnionFind
from .errors import CrossCheckError

# The six edges of a tetrahedron, indexed by their vertex pairs in
# lexicographic order. Edge 5 - e is opposite edge e.
EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

EDGE_INDEX = {vw: e for e, vw in enumerate(EDGE_VERTICES)}

# Face f is opposite vertex f and carries the other three labels.
FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class TriangulationError(ValueError):
    pass


class Gluing:
    """One face identification.

    vertex_map is a permutation of (0, 1, 2, 3) sending vertex labels of
    the source tetrahedron to labels of the destination tetrahedron, with
    vertex_map[src_face] == dst_face.
    """

    def __init__(self, src_tet, src_face, dst_tet, dst_face, vertex_map):
        self.src_tet = src_tet
        self.src_face = src_face
        self.dst_tet = dst_tet
        self.dst_face = dst_face
        self.vertex_map = tuple(vertex_map)
        if sorted(self.vertex_map) != [0, 1, 2, 3]:
            raise TriangulationError(
                "malformed permutation in gluing %r" % (self.record(),))
        if not (0 <= src_face < 4 and 0 <= dst_face < 4):
            raise TriangulationError("face out of range in gluing %r"
                                     % (self.record(),))
        if self.vertex_map[src_face] != dst_face:
            raise TriangulationError(
                "vertex map does not send the source face label to the "
                "destination face label in gluing %r" % (self.record(),))
        inv = [0] * 4
        for a, b in enumerate(self.vertex_map):
            inv[b] = a
        self.inverse_map = tuple(inv)

    def record(self):
        return (self.src_tet, self.src_face, self.dst_tet, self.dst_face,
                self.vertex_map)

    def __repr__(self):
        return "Gluing(%d,%d -> %d,%d via %s)" % (
            self.src_tet, self.src_face, self.dst_tet, self.dst_face,
            "".join(str(i) for i in self.vertex_map))


class EdgeClass:
    """An edge of the quotient complex.

    embeddings lists the (tet, edge_slot) pairs glued into this edge, in
    the order met when walking around it. inverted means some chain of
    gluings carries the edge back to itself with its ends swapped.
    """

    def __init__(self, index, embeddings, on_boundary, inverted, label):
        self.index = index
        self.embeddings = tuple(embeddings)
        self.on_boundary = on_boundary
        self.inverted = inverted
        self.label = label

    @property
    def degree(self):
        return len(self.embeddings)

    def __repr__(self):
        flags = []
        if self.on_boundary:
            flags.append("boundary")
        if self.inverted:
            flags.append("inverted")
        return "EdgeClass(%s, degree=%d%s)" % (
            self.label, self.degree, ", " + ",".join(flags) if flags else "")


class VertexClass:
    """A vertex of the quotient complex together with its link surface."""

    def __init__(self, index, corners, label):
        self.index = index
        self.corners = tuple(corners)
        self.label = label
        self.link_euler = None
        self.link_orientable = None
        self.link_closed = None
        self.classification = None

    def __repr__(self):
        return "VertexClass(%s, corners=%d, link=%s)" % (
            self.label, len(self.corners), self.classification)


def _classify_link(surface):
    chi = surface.euler
    if surface.is_closed:
        if chi == 2 and surface.orientable:
            return "sphere"
        if chi == 0:
            return "torus" if surface.orientable else "klein"
    else:
        if chi == 1 and surface.orientable:
            return "disc"
        if chi == 0:
            return "annulus" if surface.orientable else "moebius"
    return "other(%d)" % chi


def _link_side(c, f):
    # Side of the link triangle at vertex c lying in face f. Corners of
    # that triangle sit on the edges from c and are listed by far end in
    # increasing order; side s joins corner s to corner s + 1.
    xs = [x for x in range(4) if x != c]
    return (xs.index(f) + 1) % 3


class Triangulation:
    def __init__(self, size, gluings):
        if size < 1:
            raise TriangulationError("need at least one tetrahedron")
        self.size = size
        norm = []
        for rec in gluings:
            if isinstance(rec, Gluing):
                g = rec
            else:
                try:
                    st, sf, dt, df, vm = rec
                except (TypeError, ValueError):
                    raise TriangulationError("malformed gluing record: %r" % (rec,))
                g = Gluing(st, sf, dt, df, vm)
            for tet in (g.src_tet, g.dst_tet):
                if not (0 <= tet < size):
                    raise TriangulationError(
                        "tetrahedron out of range in gluing %r" % (g.record(),))
            if (g.src_tet, g.src_face) == (g.dst_tet, g.dst_face):
                raise TriangulationError(
                    "face glued to itself in gluing %r" % (g.record(),))
            norm.append(g)
        # a list, not a tuple: see CWSurface.vertices
        self.gluings = norm

        self._glued = {}
        for gi, g in enumerate(self.gluings):
            for key, forward in (((g.src_tet, g.src_face), True),
                                 ((g.dst_tet, g.dst_face), False)):
                if key in self._glued:
                    raise TriangulationError(
                        "face %r used twice, second use in gluing %r"
                        % (key, g.record()))
                self._glued[key] = (gi, forward)

        self.boundary_faces = tuple(sorted(
            (tet, f) for tet in range(size) for f in range(4)
            if (tet, f) not in self._glued))
        self.is_closed = not self.boundary_faces

        self._build_edges()
        self._build_vertices()
        self._build_links()
        # an edge identified with itself in reverse breaks the usual
        # reading of degrees; such complexes are accepted but flagged
        self.has_inverted_edge = any(e.inverted for e in self.edges)

    # -- edges ---------------------------------------------------------

    def face_gluing(self, tet, face):
        """(Gluing, forward) for the gluing using this face, or None."""
        hit = self._glued.get((tet, face))
        if hit is None:
            return None
        gi, forward = hit
        return self.gluings[gi], forward

    def _step(self, tet, u, v, face):
        # Cross the given face; the directed edge (u, v) lies in it.
        # Returns the next (tet, u, v, pivot_face) or None at the boundary.
        hit = self._glued.get((tet, face))
        if hit is None:
            return None
        gi, forward = hit
        g = self.gluings[gi]
        mp = g.vertex_map if forward else g.inverse_map
        nt = g.dst_tet if forward else g.src_tet
        nf = g.dst_face if forward else g.src_face
        nu, nv = mp[u], mp[v]
        (nxt,) = set(range(4)) - {nu, nv, nf}
        return (nt, nu, nv, nxt)

    def _trace_edge(self, tet, slot):
        u, v = EDGE_VERTICES[slot]
        f1, f2 = (f for f in range(4) if f not in (u, v))
        visits = []
        state0 = (tet, u, v, f1)
        state = state0
        on_boundary = False
        while True:
            ct, cu, cv, cf = state
            lo, hi = min(cu, cv), max(cu, cv)
            visits.append((ct, EDGE_INDEX[(lo, hi)], cu > cv))
            nxt = self._step(ct, cu, cv, cf)
            if nxt is None:
                on_boundary = True
                break
            state = nxt
            if state == state0:
                break
        if on_boundary:
            back = []
            state = (tet, u, v, f2)
            while True:
                nxt = self._step(*state)
                if nxt is None:
                    break
                state = nxt
                ct, cu, cv, cf = state
                lo, hi = min(cu, cv), max(cu, cv)
                back.append((ct, EDGE_INDEX[(lo, hi)], cu > cv))
            visits = back[::-1] + visits
        embeddings = []
        seen = set()
        for t_, s_, _ in visits:
            if (t_, s_) not in seen:
                seen.add((t_, s_))
                embeddings.append((t_, s_))
        dirs = {}
        inverted = False
        for t_, s_, flip in visits:
            prev = dirs.setdefault((t_, s_), flip)
            if prev != flip:
                inverted = True
        return embeddings, on_boundary, inverted

    def _build_edges(self):
        self.edges = []
        self.edge_class_of = {}
        for tet in range(self.size):
            for slot in range(6):
                if (tet, slot) in self.edge_class_of:
                    continue
                embeddings, on_boundary, inverted = self._trace_edge(tet, slot)
                idx = len(self.edges)
                label = "e%d" % (idx + 1)
                self.edges.append(EdgeClass(idx, embeddings, on_boundary,
                                            inverted, label))
                for emb in embeddings:
                    if emb in self.edge_class_of:
                        raise CrossCheckError(
                            "edge embedding %r lies in two edge classes"
                            % (emb,))
                    self.edge_class_of[emb] = idx
        self.edge_labels = {e.label: e.index for e in self.edges}

    # -- vertices ------------------------------------------------------

    def _build_vertices(self):
        uf = UnionFind()
        corners = [(tet, c) for tet in range(self.size) for c in range(4)]
        for g in self.gluings:
            for c in FACE_VERTICES[g.src_face]:
                uf.union((g.src_tet, c), (g.dst_tet, g.vertex_map[c]))
        groups = sorted((sorted(grp) for grp in uf.groups(corners)),
                        key=lambda grp: grp[0])
        self.vertices = []
        self.vertex_class_of = {}
        for idx, grp in enumerate(groups):
            label = "v%d" % (idx + 1)
            self.vertices.append(VertexClass(idx, grp, label))
            for corner in grp:
                self.vertex_class_of[corner] = idx
        self.vertex_labels = {v.label: v.index for v in self.vertices}

    # -- vertex links --------------------------------------------------

    def _link_surface(self, vclass, arcs):
        # arcs: the (gluing, source corner) pairs at corners of vclass
        cells = []
        cell_index = {}
        for (i, c) in vclass.corners:
            cell_index[(i, c)] = len(cells)
            cells.append([(i, c, x) for x in range(4) if x != c])
        records = []
        for g, c in arcs:
            mp = g.vertex_map
            c2 = mp[c]
            a = cell_index[(g.src_tet, c)]
            b = cell_index[(g.dst_tet, c2)]
            sa = _link_side(c, g.src_face)
            sb = _link_side(c2, g.dst_face)
            xa = [x for x in range(4) if x != c]
            xb = [x for x in range(4) if x != c2]
            tail_a = xa[sa]
            head_a = xa[(sa + 1) % 3]
            tail_b = xb[sb]
            head_b = xb[(sb + 1) % 3]
            if {mp[tail_a], mp[head_a]} != {tail_b, head_b}:
                raise CrossCheckError(
                    "link sides do not match across gluing %r"
                    % (g.record(),))
            flip = mp[tail_a] == tail_b
            records.append(((a, sa), (b, sb), flip))
        return CWSurface(cells, records)

    def _build_links(self):
        arcs = [[] for _ in self.vertices]
        for g in self.gluings:
            for c in FACE_VERTICES[g.src_face]:
                arcs[self.vertex_class_of[(g.src_tet, c)]].append((g, c))
        self._links = []
        for vc in self.vertices:
            surf = self._link_surface(vc, arcs[vc.index])
            if not surf.is_connected:
                raise CrossCheckError("link of vertex %s is disconnected"
                                      % (vc.label,))
            self._links.append(surf)
            vc.link_euler = surf.euler
            vc.link_orientable = surf.orientable
            vc.link_closed = surf.is_closed
            vc.classification = _classify_link(surf)

    # -- labels and lookups --------------------------------------------

    def set_edge_label(self, index, label):
        old = self.edges[index].label
        del self.edge_labels[old]
        if label in self.edge_labels:
            raise TriangulationError("duplicate edge label %r" % (label,))
        self.edges[index].label = label
        self.edge_labels[label] = index

    def set_vertex_label(self, index, label):
        old = self.vertices[index].label
        del self.vertex_labels[old]
        if label in self.vertex_labels:
            raise TriangulationError("duplicate vertex label %r" % (label,))
        self.vertices[index].label = label
        self.vertex_labels[label] = index

    def _by_name(self, what, labels, count, name):
        if isinstance(name, int):
            idx = name
        elif name in labels:
            return labels[name]
        else:
            try:
                idx = int(name)
            except ValueError:
                raise TriangulationError("unknown %s %r" % (what, name))
        if not (0 <= idx < count):
            raise TriangulationError("%s index %r out of range" % (what, name))
        return idx

    def edge_by_name(self, name):
        """Edge index from a label or a 0-based index string or int."""
        return self._by_name("edge", self.edge_labels, len(self.edges), name)

    def vertex_by_name(self, name):
        """Vertex index from a label or a 0-based index string or int."""
        return self._by_name("vertex", self.vertex_labels,
                             len(self.vertices), name)

    def __repr__(self):
        return "Triangulation(t=%d, edges=%d, vertices=%d%s)" % (
            self.size, len(self.edges), len(self.vertices),
            ", closed" if self.is_closed else
            ", boundary faces=%d" % len(self.boundary_faces))


def build(size, gluings):
    """Build a triangulation from a tetrahedron count and gluing records.

    Records are Gluing objects or (src_tet, src_face, dst_tet, dst_face,
    vertex_map) tuples. Rejected inputs raise TriangulationError naming
    the offending record.
    """
    return Triangulation(size, gluings)


def vertex_link_surface(tri, v):
    """The link of a vertex class as a CW surface.

    Cells are the corner triangles (one per (tet, vertex) in the class,
    in class order), with corner ids (tet, vertex, far_end): the corner
    on the edge from vertex towards far_end.
    """
    if isinstance(v, VertexClass):
        v = v.index
    return tri._links[v]


def edge_partition_unionfind(tri):
    """Edge classes recomputed by union-find over (tet, slot) pairs.

    Returns (partition, inverted) where partition is a set of frozensets
    and inverted maps each frozenset to a bool. Used to cross-check the
    orbit tracing route, which is what build() itself uses.
    """
    plain = UnionFind()
    signed = UnionFind()
    items = [(tet, s) for tet in range(tri.size) for s in range(6)]
    for g in tri.gluings:
        mp = g.vertex_map
        vs = FACE_VERTICES[g.src_face]
        for a, b in ((vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])):
            s1 = EDGE_INDEX[(a, b)]
            na, nb = mp[a], mp[b]
            s2 = EDGE_INDEX[(min(na, nb), max(na, nb))]
            preserved = na < nb
            plain.union((g.src_tet, s1), (g.dst_tet, s2))
            signed.union((g.src_tet, s1, 0), (g.dst_tet, s2, 0 if preserved else 1))
            signed.union((g.src_tet, s1, 1), (g.dst_tet, s2, 1 if preserved else 0))
    partition = set(frozenset(grp) for grp in plain.groups(items))
    inverted = {}
    for grp in partition:
        inverted[grp] = any(
            signed.find(it + (0,)) == signed.find(it + (1,)) for it in grp)
    return partition, inverted
