from math import gcd

import pytest

import anglekit.polytope as polytope
from anglekit.errors import CrossCheckError
from anglekit.linalg import dot, matvec, nullspace, primitive, rank
from anglekit.normal import (chi_star, coefficients, expand, matching_matrix,
                             verify_basis, vertex_link_vector)
from anglekit.polytope import (_constraint_rows, _initial_cone, _sorted_rows,
                               enumerate_vertices, is_vertex,
                               support_enumeration_vertices)
from corpus import cyclic_cover, shipped


def _adjacent(p, q, processed, d):
    tight = [row for row in processed if dot(row, p) == 0 and dot(row, q) == 0]
    if len(tight) < d - 2:
        return False
    return rank(tight) == d - 2


def algebraic_dd_vertices(tri):
    """The rational double description with the algebraic adjacency
    test: every candidate pair's tight rows are recomputed and ranked.
    An oracle for the integer, bitmask enumerator; same insertion order,
    output as the sorted primitive vectors."""
    basis = verify_basis(tri)
    d = basis.dimension
    rows = _constraint_rows(basis)
    chosen, rest, rays = nullspace_initial_cone(rows, _sorted_rows(rows), d)
    processed = [rows[i] for i in chosen]
    for r in rest:
        a = rows[r]
        vals = [dot(a, ray) for ray in rays]
        if all(v >= 0 for v in vals):
            processed.append(a)
            continue
        keep = [ray for ray, v in zip(rays, vals) if v >= 0]
        fresh = []
        pos = [(ray, v) for ray, v in zip(rays, vals) if v > 0]
        neg = [(ray, v) for ray, v in zip(rays, vals) if v < 0]
        for rp, vp in pos:
            for rn, vn in neg:
                if d == 2 or _adjacent(rp, rn, processed, d):
                    fresh.append([vp * xn - vn * xp for xp, xn in zip(rp, rn)])
        processed.append(a)
        rays = keep + fresh
    out = {tuple(primitive(matvec(rows, c))) for c in rays}
    for vec in out:
        assert all(x >= 0 for x in vec) and any(vec)
        assert rank([rows[i] for i, v in enumerate(vec) if v == 0]) == d - 1
    return sorted(out)


def kernel_coefficient_vertices(tri):
    """(vector, support_rank) of each vertex solution, by the integer
    double description over the kernel coefficients c, with x = R c,
    from the coefficient rays of nullspace_initial_cone: every row
    inserted in order (identical rows included), each row's value on a
    ray a dot product, the rays projected back and made primitive at the
    end, and every support rank an exact rank. An oracle for the
    enumerator in solution coordinates."""
    basis = verify_basis(tri)
    d = basis.dimension
    rows = _constraint_rows(basis)
    order = sorted(range(len(rows)),
                   key=lambda r: (sum(1 for x in rows[r] if x != 0),
                                  tuple(rows[r])))
    chosen, rest, rays = nullspace_initial_cone(rows, order, d)
    full = (1 << d) - 1
    masks = [full ^ (1 << j) for j in range(d)]
    for k, r in enumerate(rest, d):
        bit = 1 << k
        a = [(j, x) for j, x in enumerate(rows[r]) if x]
        vals = [sum(x * ray[j] for j, x in a) for ray in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [ray for ray, v in zip(rays, vals) if v >= 0]
        new_masks = [m | bit if v == 0 else m
                     for m, v in zip(masks, vals) if v >= 0]
        for ip in pos:
            for i_n in neg:
                common = masks[ip] & masks[i_n]
                if common.bit_count() < d - 2 or any(
                        m & common == common and m not in (masks[ip],
                                                           masks[i_n])
                        for m in masks):
                    continue
                ray = [vals[ip] * xn - vals[i_n] * xp
                       for xp, xn in zip(rays[ip], rays[i_n])]
                g = gcd(*ray)
                new_rays.append([x // g for x in ray])
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    out = set()
    for c in rays:
        x = [sum(a * y for a, y in zip(row, c)) for row in rows]
        assert min(x) >= 0 and any(x)
        g = gcd(*x)
        out.add(tuple([v // g for v in x]))
    return [(vec, rank([rows[i] for i, v in enumerate(vec) if v == 0]))
            for vec in sorted(out)]


KERNEL_ORACLE_CASES = {
    "fig8": lambda: shipped("fig8"),
    "example_4_6": lambda: shipped("example_4_6"),
    "cover2": lambda: cyclic_cover(2),
    "cover3": lambda: cyclic_cover(3),
    "cover3_open": lambda: cyclic_cover(3, open_copy=0),
}


def _vertex_records(tri):
    return [(vs.vector, vs.support_rank) for vs in enumerate_vertices(tri)]


@pytest.mark.parametrize("name", sorted(KERNEL_ORACLE_CASES))
def test_matches_the_kernel_coefficient_oracle(name):
    tri = KERNEL_ORACLE_CASES[name]()
    assert _vertex_records(tri) == kernel_coefficient_vertices(tri)


def test_corpus_matches_the_kernel_coefficient_oracle(valid_corpus):
    # initial rays left unreduced come out as multiples of vertex
    # solutions on many of these presentations
    for tri in valid_corpus:
        assert _vertex_records(tri) == kernel_coefficient_vertices(tri)


def test_known_vertex_solutions(ex46):
    found = {tuple(v.vector) for v in enumerate_vertices(ex46)}
    assert found == {(0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 1, 0, 1),
                     (0, 0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)}
    values = sorted(chi_star(ex46, v) for v in found)
    assert values == [0, 2, 2, 3]


def test_vertex_solution_invariants(ex46, fig8):
    for tri in (ex46, fig8):
        m = matching_matrix(tri)
        for vs in enumerate_vertices(tri):
            assert all(x >= 0 for x in vs.vector)
            assert any(x > 0 for x in vs.vector)
            assert all(x == 0 for x in matvec(m, vs.vector))
            g = 0
            for x in vs.vector:
                g = gcd(g, x)
            assert g == 1  # primitive integer form
            assert vs.support_rank == vs.dimension - 1
            assert is_vertex(tri, vs.vector)


def test_link_vectors_are_vertices(ex46):
    found = {tuple(v.vector) for v in enumerate_vertices(ex46)}
    for v in ex46.vertices:
        link = tuple(int(x) for x in vertex_link_vector(ex46, v))
        assert link in found


def test_combinations_are_not_vertices(ex46):
    vs = enumerate_vertices(ex46)
    combo = [a + b for a, b in zip(vs[0].vector, vs[1].vector)]
    assert not is_vertex(ex46, combo)
    # same zero set as a vertex solution, but off the solution space
    assert is_vertex(ex46, (0, 0, 0, 1, 0, 1, 0))
    assert not is_vertex(ex46, (0, 0, 0, 2, 0, 1, 0))
    with pytest.raises(ValueError, match="expected 7 coordinates, got 6"):
        is_vertex(ex46, (0, 0, 0, 1, 0, 1))


def test_support_enumeration_matches(ex46, fig8, valid_corpus):
    sample = [ex46, fig8] + valid_corpus[::6]
    for tri in sample:
        dd = {tuple(v.vector) for v in enumerate_vertices(tri)}
        brute = {tuple(v.vector) for v in support_enumeration_vertices(tri)}
        assert dd == brute


def test_figure_eight_vertex_count(fig8):
    vs = enumerate_vertices(fig8)
    assert len(vs) == 6
    # the link vector of the single vertex appears among them
    link = tuple(int(x) for x in vertex_link_vector(fig8, fig8.vertices[0]))
    assert link in {tuple(v.vector) for v in vs}
    assert chi_star(fig8, link) == 0


def test_matches_algebraic_dd_oracle(ex46, fig8, valid_corpus):
    cases = valid_corpus + [fig8, ex46, cyclic_cover(2)]
    for tri in cases:
        found = [vs.vector for vs in enumerate_vertices(tri)]
        assert found == algebraic_dd_vertices(tri)
    assert len(found) == 48


def test_three_fold_cover_vertex_count():
    tri = cyclic_cover(3)
    basis = verify_basis(tri)
    found = enumerate_vertices(tri, basis)
    assert len(found) == 471
    assert all(is_vertex(tri, vs.vector, basis) for vs in found)


def test_carried_coefficients_expand_to_the_vector(ex46, fig8, valid_corpus):
    for tri in valid_corpus[::6] + [ex46, fig8, cyclic_cover(2)]:
        basis = verify_basis(tri)
        for vs in enumerate_vertices(tri, basis):
            co = coefficients(basis, vs.vector)
            assert expand(basis, co) == list(vs.vector)


def test_short_modular_ranks_fall_back_to_exact(monkeypatch):
    # an unlucky prime can only make a modular rank short; the exact rank
    # then decides each extremality check, with the same output
    tri = cyclic_cover(2)
    want = [vs.vector for vs in enumerate_vertices(tri)]
    exact = []

    def counting_rank(m):
        exact.append(m)
        return rank(m)

    monkeypatch.setattr(polytope, "rank", counting_rank)
    enumerate_vertices(tri)
    calls = len(exact)
    del exact[:]
    monkeypatch.setattr(polytope, "_rank_residues", lambda rows, cap: 0)
    found = enumerate_vertices(tri)
    assert [vs.vector for vs in found] == want
    assert all(vs.support_rank == vs.dimension - 1 for vs in found)
    assert len(exact) == calls + len(found)
    assert is_vertex(tri, found[0].vector)


def rank_chosen_rows(rows, order, d):
    """Oracle: the first d rows in order that raise the rank of those
    chosen before them, by one rank call per candidate."""
    chosen = []
    for r in order:
        if len(chosen) < d and rank([rows[i] for i in chosen]
                                    + [rows[r]]) > len(chosen):
            chosen.append(r)
    return chosen


def test_initial_cone_picks_the_rows_a_rank_test_picks(ex46, fig8,
                                                       valid_corpus):
    for tri in valid_corpus + [ex46, fig8, cyclic_cover(2), cyclic_cover(3),
                               cyclic_cover(4)]:
        basis = verify_basis(tri)
        d = basis.dimension
        rows = _constraint_rows(basis)
        order = _sorted_rows(rows)
        chosen, rest, rays = _initial_cone(rows, order, d)
        assert chosen == rank_chosen_rows(rows, order, d)
        # one index per distinct row, the first of its copies
        assert sorted(chosen + rest) == sorted(order) == sorted(
            {tuple(row): i for i, row in reversed(list(enumerate(rows)))}
            .values())
        # each initial ray vanishes on every chosen row but its own
        for j, ray in enumerate(rays):
            vals = [ray[i] for i in chosen]
            assert vals[j] > 0 and vals[:j] + vals[j + 1:] == [0] * (d - 1)


def nullspace_initial_cone(rows, order, d):
    """Oracle: the rows a rank test picks, the others in order, and ray
    j as the one dimensional kernel of the chosen rows but the j-th, by
    one nullspace call per ray, primitive and positive on row j."""
    chosen = rank_chosen_rows(rows, order, d)
    rest = [r for r in order if r not in chosen]
    square = [rows[i] for i in chosen]
    rays = []
    for j in range(d):
        col = nullspace(square[:j] + square[j + 1:])
        assert len(col) == 1
        ray = primitive(col[0])
        if dot(square[j], ray) < 0:
            ray = [-x for x in ray]
        rays.append(ray)
    return chosen, rest, rays


def test_initial_cone_matches_the_nullspace_rule(ex46, fig8, valid_corpus):
    for tri in valid_corpus + [fig8, ex46, cyclic_cover(2), cyclic_cover(3),
                               cyclic_cover(3, open_copy=0)]:
        basis = verify_basis(tri)
        rows = _constraint_rows(basis)
        order = _sorted_rows(rows)
        chosen, rest, rays = nullspace_initial_cone(rows, order,
                                                    basis.dimension)
        # the coefficient rays, in solution coordinates
        assert (_initial_cone(rows, order, basis.dimension)
                == (chosen, rest, [primitive(matvec(rows, c)) for c in rays]))


def test_initial_cone_rejects_rank_deficient_rows():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 2, 1]]
    with pytest.raises(CrossCheckError, match="lost rank"):
        _initial_cone(rows, range(len(rows)), 3)
