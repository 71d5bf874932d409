"""Vertex solutions of the projective solution space.

The nonnegative vectors of the solution space form a pointed rational
cone. Its extreme rays, scaled to primitive integer vectors, are the
vertex solutions; scaled to coordinate sum 1 they are the vertices of
the projective solution space. The enumerator is an integer double
description pass over the kernel parametrisation: rays are primitive
integer coefficient vectors, each carries its zero set as a bitmask,
and adjacency is decided combinatorially from those masks. A brute
force support enumeration is kept as an oracle.
"""

from itertools import combinations
from math import gcd

from .errors import CrossCheckError
from .linalg import (_gauss_jordan, _rank_mod, fr, matvec, nullspace,
                     primitive, rank)
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
    order = sorted(range(len(rows)),
                   key=lambda r: (sum(1 for x in rows[r] if x != 0),
                                  tuple(rows[r])))
    return order


def _initial_cone(rows, order, d):
    """The first d independent rows in order (chosen), the others (rest)
    and the d rays of the simplicial cone {c : R c >= 0}, R the chosen
    rows.

    The rays are the columns of R^-1, read from one fraction-free
    Gauss-Jordan pass over the integer [R | I], each scaled to a
    primitive integer vector with R[j] . ray_j > 0. A singular R raises
    CrossCheckError.
    """
    # the chosen rows are kept in one fraction-free echelon form: each
    # stored row is reduced against those before it, and a candidate,
    # reduced row by row (Bareiss: every division by the previous pivot
    # is exact), is independent exactly when something nonzero is left
    chosen = []
    rest = []
    echelon = []    # (pivot column, reduced row)
    for r in order:
        if len(chosen) == d:
            rest.append(r)
            continue
        v = rows[r]
        prev = 1
        for col, p in echelon:
            pv = p[col]
            f = v[col]
            if f:
                v = [(x * pv - f * y) // prev for x, y in zip(v, p)]
            elif pv != prev:
                v = [x * pv // prev for x in v]
            prev = pv
        for col, x in enumerate(v):
            if x:
                chosen.append(r)
                echelon.append((col, v))
                break
        else:
            rest.append(r)
    if len(chosen) != d:
        raise CrossCheckError("kernel parametrisation lost rank")
    # fraction-free Gauss-Jordan on [R | I] ends as [p I | p R^-1], p the
    # last pivot, so column j of the right block is column j of R^-1
    # scaled by p
    square = [rows[i] for i in chosen]
    m, pivots, _ = _gauss_jordan([row + [int(i == j) for j in range(d)]
                                  for i, row in enumerate(square)], d)
    if pivots != list(range(d)):
        raise CrossCheckError("initial cone is not simplicial")
    rays = []
    for j in range(d, 2 * d):
        col = [row[j] for row in m]
        g = gcd(*col)
        ray = [x // g for x in col]
        if sum(a * x for a, x in zip(square[j - d], ray)) < 0:
            ray = [-x for x in ray]
        rays.append(ray)
    return chosen, rest, rays


def _support_rank(zero_rows, d):
    # a nonzero kernel vector of zero_rows bounds rank_Q by d - 1, and
    # rank_Q >= rank_p, so a modular rank of d - 1 settles extremality;
    # a short modular rank falls through to exact elimination
    if _rank_mod(zero_rows) == d - 1:
        return d - 1
    return rank(zero_rows)


def enumerate_vertices(tri, basis=None):
    """All vertex solutions, in a canonical order.

    Integer double description over the kernel basis: insert the
    nonnegativity of one coordinate at a time (sparsest rows first, ties
    broken lexicographically), keeping primitive integer rays and the
    zero set of each over the rows inserted so far as a bitmask. A
    positive and a negative ray combine only when they are adjacent: at
    least d - 2 rows vanish on both, and no third ray vanishes on all of
    those rows. Every output ray is re-checked to be nonnegative,
    nonzero and extreme. Output is sorted by primitive vector, so it
    does not depend on the insertion order.
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
        a = [(j, x) for j, x in enumerate(rows[r]) if x]
        vals = [sum(x * ray[j] for j, x in a) for ray in rays]
        pos = []
        neg = []
        new_rays = []
        new_masks = []
        for i, v in enumerate(vals):
            if v > 0:
                pos.append(i)
                new_rays.append(rays[i])
                new_masks.append(masks[i])
            elif v < 0:
                neg.append(i)
            else:
                new_rays.append(rays[i])
                new_masks.append(masks[i] | bit)
        for ip in pos:
            mp = masks[ip]
            rp = rays[ip]
            vp = vals[ip]
            for i_n in neg:
                mn = masks[i_n]
                common = mp & mn
                if common.bit_count() < d - 2:
                    continue
                for m in masks:
                    if m & common == common and m != mp and m != mn:
                        break
                else:
                    vn = vals[i_n]
                    ray = [vp * xn - vn * xp for xp, xn in zip(rp, rays[i_n])]
                    g = gcd(*ray)
                    new_rays.append([x // g for x in ray])
                    new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    out = set()
    for c in rays:
        x = [sum(a * y for a, y in zip(row, c)) for row in rows]
        if any(v < 0 for v in x) or not any(x):
            raise CrossCheckError(
                "double description emitted a ray outside the cone")
        g = gcd(*x)
        out.add(tuple([v // g for v in x]))
    result = []
    for vec in sorted(out):
        zero_rows = [rows[i] for i, v in enumerate(vec) if v == 0]
        srank = _support_rank(zero_rows, d)
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
    zero_rows = [rows[i] for i, v in enumerate(s) if v == 0]
    return _support_rank(zero_rows, basis.dimension) == basis.dimension - 1
