from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.angles import RouteRecord, decide
from anglekit.cwsurface import cell_area, gauss_bonnet_check
from anglekit.linalg import dot, nullspace, transpose
from anglekit.normal import chi_star, expand, verify_basis
from anglekit.prescribe import (EDGE_TO_WEDGE, AreaCurvature,
                                WedgeAssignment, b_system, chi_ak,
                                decide_prescribed, induced_area_curvature,
                                induced_link_angles, lift_dual,
                                matrix_identities, pairing_parts,
                                project_dual)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def alpha_structure(tri, a):
    # the one parameter family on the two-sphere example: the two
    # degree one edges carry a, the four wedges of the degree four
    # class carry a quarter each
    values = [None] * 6
    for e in tri.edges:
        share = a if e.degree == 1 else Fraction(a, 4)
        for tet, slot in e.embeddings:
            values[EDGE_TO_WEDGE[slot]] = share
    return WedgeAssignment(tri, values)


def test_b_system_shapes(ex46):
    ac = AreaCurvature.zero(ex46)
    rows, rhs = b_system(ex46, ac)
    assert len(rows) == 4 + 3 and len(rows[0]) == 6
    assert rhs == [1, 1, 1, 1, 2, 2, 2]
    # every wedge appears in exactly two triangle rows
    for col in range(6):
        assert sum(row[col] for row in rows[:4]) == 2


def test_area_curvature_validation(ex46):
    with pytest.raises(ValueError):
        AreaCurvature(ex46, [0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        AreaCurvature(ex46, [0] * 4, [0])
    ac = AreaCurvature(ex46, [1, "1/2", 0, 0], [0, 1, 0])
    assert ac.area(0, 1) == Fraction(1, 2)
    assert ac.curvature(1) == 1


def test_area_regimes(ex46):
    assert AreaCurvature.zero(ex46).area_regime == "zero"
    assert AreaCurvature(ex46, [0, -1, 0, 0], [0] * 3).area_regime \
        == "nonpositive"
    assert AreaCurvature(ex46, [1, 0, 0, 0], [0] * 3).area_regime \
        == "nonnegative"
    assert AreaCurvature(ex46, [1, -1, 0, 0], [0] * 3).area_regime \
        == "mixed"


@pytest.mark.parametrize("regime, promise", [
    (None, "equivalent"), ("zero", "equivalent"),
    ("nonpositive", "necessary only"), ("nonnegative", "sufficient only"),
    ("mixed", "not applicable")])
def test_route_record_promise_and_repr(ex46, regime, promise):
    ran = RouteRecord(True, False, regime=regime)
    skipped = RouteRecord(False, None, "no theorem applies", regime)
    assert ran.promise == skipped.promise == promise
    areas = "" if regime is None else ", areas %s" % regime
    assert repr(ran) == "RouteRecord(lp=True, criterion=False%s)" % areas
    assert repr(skipped) == ("RouteRecord(lp=False, criterion skipped: "
                             "no theorem applies%s)" % areas)
    # decide_prescribed records the regime of the areas for semi and
    # strict, and none for generalised, whose conditions decide outright
    if regime is not None:
        areas = {"zero": [0] * 4, "nonpositive": [0, -1, 0, 0],
                 "nonnegative": [1, 0, 0, 0], "mixed": [1, -1, 0, 0]}[regime]
        ac = AreaCurvature(ex46, areas, [0] * 3)
        assert decide_prescribed(ex46, ac, "semi").agreement.regime == regime
        assert decide_prescribed(ex46, ac, "generalised").agreement.regime \
            is None


@given(st.lists(rationals, min_size=7, max_size=7))
def test_chi_ak_formulas(ex46, data):
    areas, k1, k2, k3 = data[:4], data[4], data[5], data[6]
    by_emb = {e.embeddings: e.index for e in ex46.edges}
    curvs = [Fraction(0)] * 3
    curvs[by_emb[((0, 1),)]] = k1
    curvs[by_emb[((0, 4),)]] = k2
    curvs[next(i for emb, i in by_emb.items() if len(emb) == 4)] = k3
    ac = AreaCurvature(ex46, areas, curvs)
    basis = verify_basis(ex46)
    s1 = (0, 0, 0, 1, 0, 1, 0)
    s2 = (0, 0, 0, 0, 1, 0, 1)
    t_ = (0, 0, 1, 0, 0, 0, 0)
    r_ = (1, 1, 0, 0, 0, 0, 0)
    half = Fraction(1, 2)
    assert chi_ak(ex46, basis, ac, s1) == \
        half * (areas[0] + areas[2]) + k1 + half * k3
    assert chi_ak(ex46, basis, ac, s2) == \
        half * (areas[1] + areas[3]) + k2 + half * k3
    assert chi_ak(ex46, basis, ac, t_) == half * k3
    assert chi_ak(ex46, basis, ac, r_) == k1 + k2 + half * k3


def test_chi_ak_rejects_outside_kernel(ex46):
    basis = verify_basis(ex46)
    with pytest.raises(ValueError):
        chi_ak(ex46, basis, AreaCurvature.zero(ex46), [1, 0, 0, 0, 0, 0, 0])


def test_zero_data_kills_chi_ak(fig8):
    basis = verify_basis(fig8)
    ac = AreaCurvature.zero(fig8)
    s = expand(basis, ([1, -2], [3, Fraction(1, 2)]))
    assert chi_ak(fig8, basis, ac, s) == 0


def test_induced_flat_figure_eight(fig8):
    wa = WedgeAssignment(fig8, [Fraction(1, 3)] * 12)
    ac, quads = induced_area_curvature(fig8, wa)
    assert all(a == 0 for a in ac.areas)
    assert all(k == 0 for k in ac.curvatures)
    assert all(q == Fraction(-2, 3) for q in quads)


def test_induced_alpha_structure(ex46):
    a = Fraction(3, 4)
    wa = alpha_structure(ex46, a)
    ac, quads = induced_area_curvature(ex46, wa)
    assert all(x == Fraction(3, 2) * a - 1 for x in ac.areas)
    assert all(k == 2 - a for k in ac.curvatures)
    assert sorted(quads) == [Fraction(-5, 4), Fraction(-1, 8),
                             Fraction(-1, 8)]


@given(st.data())
def test_chi_ak_against_chi_star(ex46, fig8, data):
    # for the (A, k) induced by any wedge assignment, chi_ak differs
    # from chi* by the quad-area pairing
    tri = data.draw(st.sampled_from([ex46, fig8]))
    basis = verify_basis(tri)
    wa = WedgeAssignment(
        tri, [data.draw(rationals) for _ in range(6 * tri.size)])
    ac, quads = induced_area_curvature(tri, wa)
    w = [data.draw(rationals) for _ in range(tri.size)]
    z = [data.draw(rationals) for _ in range(len(tri.edges))]
    s = expand(basis, (w, z))
    paired = dot(quads, s[:3 * tri.size])
    assert chi_ak(tri, basis, ac, s) == chi_star(tri, s) - Fraction(1, 2) * paired


def test_prescribed_strict_family(ex46):
    for a in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 4), Fraction(4, 5), Fraction(9, 10), 2):
        wa = alpha_structure(ex46, Fraction(a))
        ac, _ = induced_area_curvature(ex46, wa)
        d = decide_prescribed(ex46, ac, "strict")
        assert d.feasible
        assert d.dimension == 1 == \
            2 * ex46.size - len(ex46.edges) + len(ex46.vertices)
        assert d.witness.is_strict
        # the family member solves the same system as the witness
        rows, rhs = b_system(ex46, ac)
        assert [dot(row, wa.values) for row in rows] == rhs
        assert d.agreement.criterion == (Fraction(a) < Fraction(4, 5))
        want_regime = ("nonpositive" if a < Fraction(2, 3) else
                       "zero" if a == Fraction(2, 3) else "nonnegative")
        assert d.agreement.regime == want_regime


def test_prescribed_necessity_gap(ex46):
    # negative a: no semi assignment exists, yet the necessary
    # condition holds; the sign regime says this is legal
    wa = alpha_structure(ex46, Fraction(-1))
    ac, _ = induced_area_curvature(ex46, wa)
    assert ac.area_regime == "nonpositive"
    d = decide_prescribed(ex46, ac, "semi")
    assert not d.feasible
    assert d.agreement.criterion is True
    cert = d.certificate
    assert cert.violated_kind == "semi"
    assert cert.pairing > 0
    # generalised existence is unaffected; the witness sits in the same
    # affine line as the family member
    g = decide_prescribed(ex46, ac, "generalised")
    assert g.feasible and g.dimension == 1
    rows, _ = b_system(ex46, ac)
    diff = [x - y for x, y in zip(g.witness.values, wa.values)]
    assert all(dot(row, diff) == 0 for row in rows)


def test_prescribed_generalised_rejects_unbalanced(ex46):
    # bump one curvature: the link equalities fail and the system is
    # unsolvable, in agreement
    ac = AreaCurvature(ex46, [0] * 4, [1, 0, 0])
    d = decide_prescribed(ex46, ac, "generalised")
    assert not d.feasible
    assert d.agreement.criterion is False
    cert = d.certificate
    assert cert.violated_kind == "generalised"
    assert cert.pairing != 0


def test_prescribed_zero_matches_angles(fig8, valid_corpus):
    klein = [t for t in valid_corpus
             if all(v.classification in ("torus", "klein")
                    for v in t.vertices)]
    for tri in [fig8] + klein:
        zero = AreaCurvature.zero(tri)
        for kind in ("generalised", "semi", "strict"):
            assert decide_prescribed(tri, zero, kind).feasible == \
                decide(tri, kind).feasible


def test_prescribed_inverted_member_skips_criterion(all_corpus):
    tri = next(t for t in all_corpus if t.has_inverted_edge)
    d = decide_prescribed(tri, AreaCurvature.zero(tri), "semi")
    assert not d.agreement.criterion_ran
    assert "reverse" in d.agreement.skipped_reason


def test_witness_reproduces_prescription(fig8):
    ac = AreaCurvature(
        fig8, [Fraction(1, 2)] * 8,
        [Fraction(-1, 4), Fraction(1, 4)])
    d = decide_prescribed(fig8, ac, "generalised")
    if d.feasible:
        induced, _ = induced_area_curvature(fig8, d.witness)
        assert induced == ac


def test_matrix_identities_fixtures(ex46, fig8, unglued):
    for tri, v in ((ex46, 2), (fig8, 1), (unglued, 4)):
        rep = matrix_identities(tri)
        assert rep.kernel_dimension == v


def test_matrix_identities_corpus(all_corpus):
    for tri in all_corpus:
        rep = matrix_identities(tri)
        assert rep.kernel_dimension == len(tri.vertices)


@given(st.data())
def test_projection_round_trip(ex46, fig8, unglued, data):
    tri = data.draw(st.sampled_from([ex46, fig8, unglued]))
    t, n = tri.size, len(tri.edges)
    rows, _ = b_system(tri, AreaCurvature.zero(tri))
    # a kernel element of the transposed system projects and lifts back
    kernel = nullspace(transpose(rows))
    coeffs = [data.draw(rationals) for _ in kernel]
    hz = [sum(c * v[i] for c, v in zip(coeffs, kernel))
          for i in range(4 * t + n)]
    wz = project_dual(tri, hz)
    assert lift_dual(tri, wz) == [Fraction(x) for x in hz]


@given(st.data())
def test_pairing_identity(ex46, fig8, unglued, data):
    tri = data.draw(st.sampled_from([ex46, fig8, unglued]))
    t, n = tri.size, len(tri.edges)
    basis = verify_basis(tri)
    ac = AreaCurvature(
        tri, [data.draw(rationals) for _ in range(4 * t)],
        [data.draw(rationals) for _ in range(n)])
    hz = [data.draw(rationals) for _ in range(4 * t + n)]
    vec = expand(basis, project_dual(tri, hz))
    pairing, gap, half_term = pairing_parts(tri, basis, ac, hz, vec)
    assert pairing == gap + half_term


def test_induced_link_angles_bridge(ex46, fig8):
    # the induced combinatorial structure on a vertex link satisfies
    # the closed surface identity, with cell areas matching the
    # prescribed triangle areas
    for tri, values in ((fig8, [Fraction(1, 3)] * 12),
                        (ex46, list(alpha_structure(
                            ex46, Fraction(1, 2)).values))):
        wa = WedgeAssignment(tri, values)
        ac, _ = induced_area_curvature(tri, wa)
        for v in tri.vertices:
            surface, angles = induced_link_angles(tri, wa, v)
            rep = gauss_bonnet_check(surface, angles)
            assert rep.holds and rep.two_chi == 2 * v.link_euler
            for ci, cell in enumerate(surface.cells):
                tet, corner = v.corners[ci]
                assert cell_area(cell, angles) == ac.area(tet, corner)
