from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import linalg, normal
from anglekit.errors import CrossCheckError
from anglekit.linalg import _rank_mod, dot, matvec, rank, solve, transpose
from anglekit.normal import (QUAD_PAIRS, WZCoefficients, chi_star, coefficients,
                             edge_solution, expand, matching_matrix,
                             quad_separating, tet_solution, verify_basis,
                             vertex_link_vector)
from anglekit.polytope import enumerate_vertices
from anglekit.triangulation import EDGE_VERTICES
from corpus import cyclic_cover

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def test_quad_separating():
    for m, (pair_a, pair_b) in enumerate(QUAD_PAIRS):
        assert quad_separating(*pair_a) == m
        assert quad_separating(*pair_b) == m
    # the pair of a quad consists of an edge slot and its opposite
    for e in range(6):
        assert quad_separating(*EDGE_VERTICES[e]) == \
            quad_separating(*EDGE_VERTICES[5 - e])


def test_tet_solution_shape(ex46):
    # quads carry -1, triangles +1 within the tetrahedron
    w = tet_solution(ex46, 0)
    assert w == [-1, -1, -1, 1, 1, 1, 1]


def test_edge_solution_shape(ex46):
    # a degree one edge contributes its two end triangles and -1 on
    # the quad facing it
    w = edge_solution(ex46, 1)
    assert w == [0, 0, -1, 1, 0, 1, 0]


def test_matching_matrix_kernel(ex46, fig8, unglued):
    for tri in (ex46, fig8, unglued):
        m = matching_matrix(tri)
        pairs = (4 * tri.size - len(tri.boundary_faces)) // 2
        assert len(m) == 3 * pairs  # three arc classes per glued face pair
        assert 7 * tri.size - rank(m) == tri.size + len(tri.edges)


def test_basis_verifies_on_all_presentations(all_corpus, fig8, unglued):
    for tri in all_corpus + [fig8, unglued]:
        basis = verify_basis(tri)
        assert basis.dimension == tri.size + len(tri.edges)


def test_chi_star_calibration(all_corpus, fig8, unglued):
    for tri in all_corpus + [fig8, unglued]:
        for i in range(tri.size):
            assert chi_star(tri, tet_solution(tri, i)) == 1
        for e in tri.edges:
            want = 1 if e.on_boundary else 2
            assert chi_star(tri, edge_solution(tri, e.index)) == want


def test_chi_star_of_vertex_links(valid_corpus, fig8, unglued):
    for tri in valid_corpus + [fig8, unglued]:
        for v in tri.vertices:
            vec = vertex_link_vector(tri, v)
            assert chi_star(tri, vec) == v.link_euler
            # one triangle per corner, no quads
            assert all(x == 0 for x in vec[:3 * tri.size])
            assert sum(vec) == len(v.corners)


def test_chi_star_of_links_shifts_by_inversions(all_corpus):
    # an inverted edge folds a link vertex onto itself; each inversion
    # raises chi* of the link vectors by one in total
    for tri in all_corpus:
        if not tri.has_inverted_edge:
            continue
        inverted = sum(1 for e in tri.edges if e.inverted)
        total = sum(chi_star(tri, vertex_link_vector(tri, v))
                    for v in tri.vertices)
        euler = sum(v.link_euler for v in tri.vertices)
        assert total == euler + inverted


@pytest.fixture(scope="module")
def round_trip_corpus(all_corpus, fig8, ex46):
    # every one-tetrahedron presentation, inverted edges included, a
    # bounded cover and both fixtures
    return all_corpus + [cyclic_cover(2, open_copy=0), fig8, ex46]


@given(st.data())
def test_expand_coefficients_round_trip(round_trip_corpus, data):
    tri = data.draw(st.sampled_from(round_trip_corpus))
    basis = verify_basis(tri)
    w = [data.draw(rationals) for _ in range(tri.size)]
    z = [data.draw(rationals) for _ in range(len(tri.edges))]
    s = expand(basis, (w, z))
    co = coefficients(basis, s)
    assert list(co.w) == w and list(co.z) == z


def test_coefficients_rejects_outside_kernel(ex46):
    basis = verify_basis(ex46)
    m = matching_matrix(ex46)
    bump = [1] + [0] * 6
    assert any(x != 0 for x in matvec(m, bump))
    s = expand(basis, ([1], [0, 0, 0]))
    with pytest.raises(ValueError):
        coefficients(basis, [a + b for a, b in zip(s, bump)])
    with pytest.raises(ValueError):
        coefficients(basis, [1, 2, 3])  # wrong length


def solved_coefficients(basis, s):
    # eliminate over the columns of the expansion map
    x, cert = solve(transpose(basis.tet_solutions + basis.edge_solutions), s)
    assert cert is None
    t = basis.tri.size
    return WZCoefficients(x[:t], x[t:])


@pytest.fixture(scope="module")
def cover2():
    return cyclic_cover(2)


def test_coefficients_match_solve_on_vertex_solutions(fig8, cover2):
    for tri in (fig8, cover2):
        basis = verify_basis(tri)
        for vs in enumerate_vertices(tri, basis):
            co = coefficients(basis, vs.vector)
            assert co == solved_coefficients(basis, vs.vector)


@given(st.data())
def test_coefficients_match_solve_on_kernel_combinations(fig8, cover2, data):
    tri = data.draw(st.sampled_from([fig8, cover2]))
    basis = verify_basis(tri)
    ints = st.integers(min_value=-5, max_value=5)
    w = [data.draw(ints) for _ in range(tri.size)]
    z = [data.draw(ints) for _ in range(len(tri.edges))]
    s = expand(basis, (w, z))
    co = coefficients(basis, s)
    assert co == solved_coefficients(basis, s)
    assert list(co.w) == w and list(co.z) == z


def test_outside_kernel_message(fig8):
    basis = verify_basis(fig8)
    m = matching_matrix(fig8)
    s = [Fraction(0)] * 14
    s[5] = Fraction(3, 2)
    first = next(r for r, row in enumerate(m) if dot(row, s) != 0)
    residual = dot(m[first], s)
    with pytest.raises(ValueError) as info:
        coefficients(basis, s)
    assert str(info.value) == (
        "vector is outside the solution space: matching equation %d "
        "has residual %s" % (first, residual))


def test_known_kernel_vectors(ex46):
    basis = verify_basis(ex46)
    four = [(0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)]
    values = [2, 2, 0, 3]
    for vec, want in zip(four, values):
        co = coefficients(basis, vec)  # raises if outside the kernel
        assert expand(basis, co) == [Fraction(x) for x in vec]
        assert chi_star(ex46, vec) == want
    assert rank(list(four)) == 4 == basis.dimension


@pytest.fixture(scope="module")
def basis_corpus(all_corpus, fig8, ex46, unglued):
    return (all_corpus + [fig8, ex46, unglued]
            + [cyclic_cover(n) for n in (1, 2, 3)])


def test_modular_basis_matches_exact_ranks(basis_corpus):
    # the exact Fraction ranks are the oracle for the modular check
    for tri in basis_corpus:
        basis = verify_basis(tri)
        vectors = basis.tet_solutions + basis.edge_solutions
        expected = tri.size + len(tri.edges)
        assert basis.dimension == expected
        assert _rank_mod(vectors) == rank(vectors) == expected
        assert (_rank_mod(basis.matching) == rank(basis.matching)
                == 7 * tri.size - expected)


def test_unlucky_prime_falls_back_to_exact_ranks(basis_corpus, monkeypatch):
    # mod 2 the ranks come out short on most presentations; the exact
    # elimination then decides, with the same verdict
    exact = []

    def counting_rank(m):
        exact.append(m)
        return rank(m)

    monkeypatch.setattr(normal, "_rank_mod",
                        lambda rows: linalg._rank_mod(rows, 2))
    monkeypatch.setattr(normal, "rank", counting_rank)
    for tri in basis_corpus:
        assert verify_basis(tri).dimension == tri.size + len(tri.edges)
    # two exact ranks per fallback
    assert len(exact) // 2 > len(basis_corpus) // 2


def test_dependent_basis_fails_in_the_fallback(fig8, monkeypatch):
    # a repeated edge solution passes the kernel check; both the
    # modular and the exact ranks then come out short
    monkeypatch.setattr(normal, "edge_solution",
                        lambda tri, j: edge_solution(tri, 0))
    with pytest.raises(CrossCheckError,
                       match="basis rank 3, kernel dimension 4, expected 4"):
        verify_basis(fig8)


def test_basis_outside_the_kernel_is_rejected(fig8, monkeypatch):
    monkeypatch.setattr(normal, "edge_solution",
                        lambda tri, j: [1] + [0] * (7 * tri.size - 1))
    with pytest.raises(CrossCheckError,
                       match="basis vector 2 violates the matching"):
        verify_basis(fig8)
