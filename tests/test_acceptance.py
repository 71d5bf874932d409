"""End to end checks, one per acceptance area, exact arithmetic only."""

import random
from fractions import Fraction

from anglekit.angles import angle_matrix, decide
from anglekit.cwsurface import (cell_area, curvature, gauss_bonnet_check,
                                realize)
from anglekit.linalg import dot, nullspace, rank, transpose
from anglekit.lp import solve_lp
from anglekit.normal import (WZCoefficients, chi_star, edge_solution,
                             expand, matching_matrix, tet_solution,
                             verify_basis, vertex_link_vector)
from anglekit.polytope import enumerate_vertices, support_enumeration_vertices
from anglekit.prescribe import (AreaCurvature, WedgeAssignment, b_system,
                                chi_ak, decide_prescribed,
                                induced_area_curvature, lift_dual,
                                matrix_identities, pairing_parts,
                                project_dual)
from anglekit.triangulation import vertex_link_surface
from corpus import full_corpus, one_tet_closed

S1 = (0, 0, 0, 1, 0, 1, 0)
S2 = (0, 0, 0, 0, 1, 0, 1)
T = (0, 0, 1, 0, 0, 0, 0)
R = (1, 1, 0, 0, 0, 0, 0)


def rand_frac(rng, span=4, den=8):
    return Fraction(rng.randint(-span * den, span * den), rng.randint(1, den))


def alpha_prescription(ex46, a):
    areas = [Fraction(3, 2) * a - 1] * 4
    curvs = [2 - a] * 3
    return AreaCurvature(ex46, areas, curvs)


def test_two_sphere_example_exact_reproduction(ex46):
    assert sorted(e.degree for e in ex46.edges) == [1, 1, 4]
    assert [v.classification for v in ex46.vertices] == ["sphere", "sphere"]

    basis = verify_basis(ex46)
    assert basis.dimension == 4
    known = [S1, S2, T, R]
    rows = [[Fraction(x) for x in v] for v in known]
    assert rank(rows) == 4
    matching = matching_matrix(ex46)
    for v in known:
        assert all(dot(row, v) == 0 for row in matching)
    assert [chi_star(ex46, v) for v in known] == [2, 2, 0, 3]

    # closed forms of the prescribed chi on the spanning vectors: the
    # degree one edges contribute their curvature once, the degree four
    # edge half, triangle areas come in halves
    by_emb = {e.embeddings: e.index for e in ex46.edges}
    i1, i2 = by_emb[((0, 1),)], by_emb[((0, 4),)]
    i3 = next(i for emb, i in by_emb.items() if len(emb) == 4)
    rng = random.Random(11)
    for _ in range(20):
        areas = [rand_frac(rng) for _ in range(4)]
        curvs = [rand_frac(rng) for _ in range(3)]
        ac = AreaCurvature(ex46, areas, curvs)
        k1, k2, k3 = curvs[i1], curvs[i2], curvs[i3]
        half = Fraction(1, 2)
        assert chi_ak(ex46, basis, ac, S1) == \
            half * (areas[0] + areas[2]) + k1 + half * k3
        assert chi_ak(ex46, basis, ac, S2) == \
            half * (areas[1] + areas[3]) + k2 + half * k3
        assert chi_ak(ex46, basis, ac, T) == half * k3
        assert chi_ak(ex46, basis, ac, R) == k1 + k2 + half * k3

    # the strict sufficiency threshold of the one parameter family
    threshold = Fraction(4, 5)
    at = alpha_prescription(ex46, threshold)
    d = decide_prescribed(ex46, at, "strict")
    assert d.agreement.criterion is False
    assert chi_ak(ex46, basis, at, R) == 3 == chi_star(ex46, R)
    assert chi_ak(ex46, basis, at, T) > 0
    rng = random.Random(12)
    samples = [Fraction(rng.randint(-20, 15), 20) for _ in range(12)]
    for a in samples + [Fraction(79, 100), Fraction(0), Fraction(799, 1000)]:
        assert a < threshold
        d = decide_prescribed(ex46, alpha_prescription(ex46, a), "strict")
        assert d.agreement.criterion is True


def test_solution_basis_rank_on_corpus():
    for tri in full_corpus():
        t, n = tri.size, len(tri.edges)
        basis = verify_basis(tri)
        assert basis.dimension == t + n
        vectors = [tet_solution(tri, i) for i in range(t)] + \
            [edge_solution(tri, j) for j in range(n)]
        assert len(vectors) == t + n
        assert rank([list(v) for v in vectors]) == t + n


def test_chi_star_calibration_on_corpus(unglued):
    for tri in full_corpus() + [unglued]:
        for i in range(tri.size):
            assert chi_star(tri, tet_solution(tri, i)) == 1
        for e in tri.edges:
            want = 1 if e.on_boundary else 2
            assert chi_star(tri, edge_solution(tri, e.index)) == want
        for v in tri.vertices:
            assert chi_star(tri, vertex_link_vector(tri, v)) == v.link_euler


def test_generalised_feasibility_matches_link_topology(fig8):
    for tri in full_corpus():
        tk = all(v.classification in ("torus", "klein")
                 for v in tri.vertices)
        d = decide(tri, "generalised")
        assert d.feasible == tk
        if d.feasible:
            assert d.dimension == tri.size + len(tri.vertices)
    assert decide(fig8, "strict").dimension == 3


def test_semi_strict_routes_agree_and_lp_max_at_vertex():
    for tri in full_corpus():
        tk = all(v.classification in ("torus", "klein")
                 for v in tri.vertices)
        if tk:
            for kind in ("semi", "strict"):
                d = decide(tri, kind)
                assert d.agreement.criterion_ran
                assert d.agreement.lp == d.agreement.criterion

        # chi* maximum over the projective solution space is attained
        # at an enumerated vertex solution
        t = tri.size
        rows = matching_matrix(tri) + [[Fraction(1)] * (7 * t)]
        b = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
        unit = [Fraction(0)] * (7 * t)
        cost = []
        for i in range(7 * t):
            unit[i] = Fraction(1)
            cost.append(chi_star(tri, unit))
            unit[i] = Fraction(0)
        res = solve_lp(rows, b, cost)
        assert res.status == "optimal"
        found = enumerate_vertices(tri)
        assert found
        best = max(Fraction(chi_star(tri, v.vector), sum(v.vector))
                   for v in found)
        assert res.value == best


def test_vertex_enumeration_matches_support_search(unglued):
    for tri in one_tet_closed(valid_only=False) + full_corpus() + [unglued]:
        assert 7 * tri.size <= 14
        dd = {v.vector for v in enumerate_vertices(tri)}
        brute = {v.vector for v in support_enumeration_vertices(tri)}
        assert dd == brute


def test_wedge_quad_matrix_bridge_round_trip(ex46, fig8, unglued):
    for tri in full_corpus() + [unglued]:
        matrix_identities(tri)
    rng = random.Random(21)
    for tri in (ex46, fig8, unglued):
        t, n = tri.size, len(tri.edges)
        rows_b, _ = b_system(tri, AreaCurvature.zero(tri))
        rows_a, _ = angle_matrix(tri)
        kb = nullspace(transpose(rows_b))
        ka = nullspace(transpose(rows_a))
        assert len(kb) == len(ka)
        for _ in range(100):
            co = [rand_frac(rng) for _ in kb]
            hz = [sum(c * v[i] for c, v in zip(co, kb))
                  for i in range(4 * t + n)]
            wz = project_dual(tri, hz)
            assert lift_dual(tri, wz) == hz
            co = [rand_frac(rng) for _ in ka]
            w = [sum(c * v[i] for c, v in zip(co, ka)) for i in range(t)]
            z = [sum(c * v[t + j] for c, v in zip(co, ka)) for j in range(n)]
            lifted = lift_dual(tri, WZCoefficients(w, z))
            back = project_dual(tri, lifted)
            assert list(back.w) == w and list(back.z) == z
            # the lift lands in the kernel of the transposed system
            assert all(dot(col, lifted) == 0 for col in transpose(rows_b))


def test_prescribed_existence_matches_link_conditions(ex46, fig8, unglued):
    rng = random.Random(31)
    for tri in (ex46, fig8, unglued):
        t, n, v = tri.size, len(tri.edges), len(tri.vertices)
        for _ in range(50):
            ac = AreaCurvature(
                tri, [rand_frac(rng) for _ in range(4 * t)],
                [rand_frac(rng) for _ in range(n)])
            d = decide_prescribed(tri, ac, "generalised")
            assert d.agreement.criterion_ran
            assert d.feasible == d.agreement.criterion
            if d.feasible:
                assert d.dimension == 2 * t - n + v
        for _ in range(10):
            wa = WedgeAssignment(
                tri, [rand_frac(rng) for _ in range(6 * t)])
            ac, _ = induced_area_curvature(tri, wa)
            d = decide_prescribed(tri, ac, "generalised")
            assert d.feasible and d.dimension == 2 * t - n + v


def test_gauss_bonnet_identity_and_realization(ex46, fig8, unglued):
    rng = random.Random(41)
    surfaces = []
    for tri in (ex46, fig8, unglued):
        for v in tri.vertices:
            surfaces.append(vertex_link_surface(tri, v))
    assert len(surfaces) == 7
    for surf in surfaces:
        corner_ids = [cid for cell in surf.cells for cid in cell]
        for _ in range(100):
            angles = {cid: rand_frac(rng) for cid in corner_ids}
            rep = gauss_bonnet_check(surf, angles)
            assert rep.holds
            assert rep.area_sum + rep.curvature_sum == rep.two_chi

        for trial in range(100):
            curvs = [rand_frac(rng) for _ in surf.vertices]
            areas = [rand_frac(rng) for _ in surf.cells]
            if trial % 2 == 0:
                # balance the books so the defect vanishes
                areas[-1] += 2 * surf.euler - sum(areas) - sum(curvs)
            result = realize(surf, curvs, areas)
            defect = sum(areas) + sum(curvs) - 2 * surf.euler
            assert result.realized == (defect == 0)
            assert result.defect == defect
            if result.realized:
                got = result.assignment
                for ci, cell in enumerate(surf.cells):
                    assert cell_area(cell, got) == areas[ci]
                for vi in range(len(surf.vertices)):
                    assert curvature(surf, got, vi) == curvs[vi]


def test_dual_pairing_decomposition(ex46, fig8, unglued):
    rng = random.Random(51)
    for tri in (ex46, fig8, unglued):
        t, n = tri.size, len(tri.edges)
        basis = verify_basis(tri)
        for _ in range(10):
            ac = AreaCurvature(
                tri, [rand_frac(rng) for _ in range(4 * t)],
                [rand_frac(rng) for _ in range(n)])
            for _ in range(10):
                hz = [rand_frac(rng) for _ in range(4 * t + n)]
                vec = expand(basis, project_dual(tri, hz))
                pairing, gap, term = pairing_parts(tri, basis, ac, hz, vec)
                assert pairing == gap + term
