"""Vertex solutions of the projective solution space.

The nonnegative vectors of the solution space form a pointed rational
cone. Its extreme rays, scaled to primitive integer vectors, are the
vertex solutions; scaled to coordinate sum 1 they are the vertices of
the projective solution space. The enumerator is an integer double
description pass in solution coordinates (as in Burton, Math. Comp.
79, 2010): rays are primitive integer solution vectors, each carries
its zero set as a bitmask, and adjacency is decided combinatorially
from those masks. A brute force support enumeration is kept as an
oracle.
"""

from itertools import combinations
from math import gcd

from .errors import CrossCheckError
from .linalg import (_gauss_jordan, _rank_residues, _residues, fr, matvec,
                     nullspace, primitive, rank)
from .normal import _matching_residual, verify_basis


class VertexSolution:
    """An extreme ray of the nonnegative solution cone.

    vector is the primitive integer form. support_rank is the rank of
    the kernel parametrisation restricted to the zero set; extremality
    is support_rank == dimension - 1.
    """

    def __init__(self, vector, dimension, support_rank):
        self.vector = tuple([int(x) for x in vector])
        self.dimension = dimension
        self.support_rank = support_rank

    def __repr__(self):
        return "VertexSolution(%s)" % (list(self.vector),)


def _constraint_rows(basis):
    # row r is the integer linear functional giving coordinate r of the
    # solution in terms of kernel basis coefficients
    vectors = basis.tet_solutions + basis.edge_solutions
    return [[int(x) for x in row] for row in zip(*vectors)]


def _sorted_rows(rows):
    """Indices of the distinct rows, sparsest first, ties broken
    lexicographically. Identical rows are identical coordinates of every
    solution, so only the first of each is kept."""
    first = {}
    for r, row in enumerate(rows):
        first.setdefault(tuple(row), r)
    return sorted(first.values(),
                  key=lambda r: (sum(1 for x in rows[r] if x != 0),
                                 tuple(rows[r])))


def _initial_cone(rows, order, d):
    """The first d independent rows in order (chosen), the others in
    order (rest) and the d rays of the simplicial cone cut out by the
    chosen rows R, as primitive integer solution vectors: ray j is R^-1
    column j mapped to solution coordinates, so it vanishes on every
    chosen row but the j-th, where it is positive.

    One fraction-free Gauss-Jordan pass over the d kernel basis vectors,
    their coordinates permuted into order, pivots on the chosen rows;
    its rows, each holding the positive level on its own pivot, divided
    by their content, are the rays. Fewer than d pivots raise
    CrossCheckError.
    """
    order = list(order)
    perm = order + sorted(set(range(len(rows))) - set(order))
    m, pivots, _ = _gauss_jordan(list(zip(*[rows[i] for i in perm])),
                                 len(order))
    if len(pivots) != d:
        raise CrossCheckError("kernel parametrisation lost rank")
    chosen = [order[c] for c in pivots]
    rest = [r for r in order if r not in chosen]
    rays = []
    for row in m:
        g = gcd(*row)
        ray = [0] * len(rows)
        for i, x in zip(perm, row):
            ray[i] = x // g
        rays.append(ray)
    return chosen, rest, rays


def _support_rank(rows, residues, zero, d):
    """The rank of rows[zero], the zero rows of a vector already checked
    to be a nonzero solution, if it is d - 1; otherwise a smaller rank.

    The vector is R c with c != 0 in the kernel of its zero rows, so
    their rank over Q is at most d - 1, and at least their rank mod p
    (residues: the rows mod p). A modular rank reaching d - 1 settles
    it, and stops there; a short one, which an unlucky prime can give,
    falls through to exact elimination.
    """
    if _rank_residues([residues[i] for i in zero], d - 1) == d - 1:
        return d - 1
    return rank([rows[i] for i in zero])


def enumerate_vertices(tri, basis=None):
    """All vertex solutions, in a canonical order.

    Integer double description in solution coordinates: from the
    simplicial cone of _initial_cone, insert the nonnegativity of one
    distinct coordinate row at a time, in the order of _sorted_rows,
    keeping each ray as a primitive integer solution vector (its value
    on the inserted row is its own coordinate) and its zero set over
    the rows inserted so far as a bitmask. A positive and a negative ray
    combine only when they are adjacent: at least d - 2 rows vanish on
    both, and no third ray vanishes on all of those rows. Every output
    ray is re-checked to be nonnegative and nonzero, to satisfy the
    matching equations and to be extreme (_support_rank). Output is
    sorted by primitive vector, so it does not depend on the insertion
    order.
    """
    if basis is None:
        basis = verify_basis(tri)
    d = basis.dimension
    rows = _constraint_rows(basis)
    order = _sorted_rows(rows)
    chosen, rest, rays = _initial_cone(rows, order, d)
    # bit k of a mask marks the k-th inserted row; initial ray j
    # vanishes on every chosen row but the j-th
    full = (1 << d) - 1
    masks = [full ^ (1 << j) for j in range(d)]
    for k, r in enumerate(rest, d):
        bit = 1 << k
        pos = []
        neg = []
        new_rays = []
        new_masks = []
        for ray, mask in zip(rays, masks):
            v = ray[r]
            if v > 0:
                pos.append((ray, mask))
                new_rays.append(ray)
                new_masks.append(mask)
            elif v < 0:
                neg.append((ray, mask))
            else:
                new_rays.append(ray)
                new_masks.append(mask | bit)
        for rp, mp in pos:
            vp = rp[r]
            for rn, mn in neg:
                common = mp & mn
                if common.bit_count() < d - 2:
                    continue
                for m in masks:
                    if m & common == common and m != mp and m != mn:
                        break
                else:
                    vn = rn[r]
                    ray = [vp * xn - vn * xp for xp, xn in zip(rp, rn)]
                    g = gcd(*ray)
                    new_rays.append([x // g for x in ray])
                    new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    residues = [_residues(row) for row in rows]
    result = []
    for vec in sorted(set(map(tuple, rays))):
        if min(vec) < 0 or not any(vec):
            raise CrossCheckError(
                "double description emitted a ray outside the cone")
        if _matching_residual(basis, vec) is not None:
            raise CrossCheckError(
                "double description emitted a ray outside the solution "
                "space")
        zero = [i for i in order if vec[i] == 0]
        srank = _support_rank(rows, residues, zero, d)
        if srank != d - 1:
            raise CrossCheckError(
                "double description emitted a non extreme ray")
        result.append(VertexSolution(vec, d, srank))
    return result


def support_enumeration_vertices(tri, basis=None):
    """Brute force oracle: scan maximal zero sets by rank tests.

    Dedup the coordinate functionals up to scale, then every candidate
    extreme ray is the one dimensional kernel of some d-1 of them. Keep
    the sign consistent ones. Exponentially many subsets; fixtures only.
    """
    if basis is None:
        basis = verify_basis(tri)
    d = basis.dimension
    rows = _constraint_rows(basis)
    lines = {}
    for row in rows:
        if all(x == 0 for x in row):
            continue
        p = primitive(row)
        if next(x for x in p if x != 0) < 0:
            p = [-x for x in p]
        lines[tuple(p)] = True
    lines = [list(p) for p in lines]
    found = {}
    for subset in combinations(range(len(lines)), d - 1):
        sub = [lines[i] for i in subset]
        null = nullspace(sub) if sub else nullspace([], ncols=d)
        if len(null) != 1:
            continue
        x = matvec(rows, null[0])
        if all(v >= 0 for v in x) and any(v != 0 for v in x):
            found[tuple(primitive(x))] = True
        elif all(v <= 0 for v in x) and any(v != 0 for v in x):
            found[tuple(primitive([-v for v in x]))] = True
    result = []
    for vec in sorted(found):
        zero_rows = [rows[i] for i, v in enumerate(vec) if v == 0]
        result.append(VertexSolution(vec, d, rank(zero_rows)))
    return result


def is_vertex(tri, s, basis=None):
    """Rank test for extremality of a nonnegative solution vector."""
    if basis is None:
        basis = verify_basis(tri)
    s = [fr(x) for x in s]
    if len(s) != 7 * basis.tri.size:
        raise ValueError("expected %d coordinates, got %d"
                         % (7 * basis.tri.size, len(s)))
    if all(x == 0 for x in s) or any(x < 0 for x in s):
        return False
    if _matching_residual(basis, s) is not None:
        return False
    rows = _constraint_rows(basis)
    zero = [i for i, v in enumerate(s) if v == 0]
    residues = {i: _residues(rows[i]) for i in zero}
    d = basis.dimension
    return _support_rank(rows, residues, zero, d) == d - 1
