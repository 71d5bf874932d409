from fractions import Fraction

import pytest

from anglekit import angles
from anglekit.angles import (AngleAssignment, _semi_dimension, angle_matrix,
                             decide)
from anglekit.errors import CrossCheckError
from anglekit.linalg import nullspace, rank
from anglekit.lp import LPResult, solve_lp
from anglekit.normal import chi_star
from anglekit.prescribe import (AreaCurvature, WedgeAssignment, b_system,
                                induced_area_curvature)
from anglekit.triangulation import build
from corpus import cyclic_cover

# two tetrahedra, one vertex: semi angle structures exist but no strict
# one, so some quad coordinates vanish on the whole polytope
TAUT_ONLY = ((0, 3, 1, 2, (1, 3, 0, 2)), (0, 1, 1, 1, (3, 1, 2, 0)),
             (1, 3, 0, 0, (2, 3, 1, 0)), (1, 0, 0, 2, (2, 0, 3, 1)))


def test_angle_matrix_shapes(ex46, fig8):
    a, b = angle_matrix(ex46)
    assert len(a) == 4 and len(a[0]) == 3
    assert b == [1, 2, 2, 2]
    a, b = angle_matrix(fig8)
    assert len(a) == 4 and len(a[0]) == 6
    # both edges have degree six, so each edge row counts six quads
    assert sum(a[2]) == 6 and sum(a[3]) == 6


def test_assignment_validation(fig8):
    good = AngleAssignment(fig8, [Fraction(1, 3)] * 6)
    assert good.is_strict and good.is_semi and not good.is_taut
    assert good.quad(1, 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        AngleAssignment(fig8, [Fraction(1, 2)] * 6)
    with pytest.raises(ValueError):
        AngleAssignment(fig8, [1, 0, 0])


def test_figure_eight_strict(fig8):
    d = decide(fig8, "strict")
    assert d.feasible
    assert d.witness.values == (Fraction(1, 3),) * 6
    assert d.witness.is_strict
    assert d.dimension == 3 == fig8.size + len(fig8.vertices)
    assert d.agreement.lp is True
    assert d.agreement.criterion is True
    assert d.certificate is None


def test_figure_eight_all_kinds(fig8):
    for kind in ("generalised", "semi", "strict"):
        d = decide(fig8, kind)
        assert d.feasible
        assert d.agreement.criterion_ran


def test_sphere_links_infeasible(ex46):
    d = decide(ex46, "generalised")
    assert not d.feasible
    assert d.agreement.criterion is False
    cert = d.certificate
    assert cert.violated_kind == "generalised"
    # generalised dual: quad part vanishes, chi* does not
    assert all(x == 0 for x in cert.quad_part())
    assert cert.chi_value > 0
    assert chi_star(ex46, cert.normal_vector) == cert.chi_value


def test_sphere_links_semi_certificate(ex46):
    d = decide(ex46, "semi")
    assert not d.feasible
    cert = d.certificate
    assert cert.violated_kind == "semi"
    assert all(x >= 0 for x in cert.quad_part())
    assert cert.chi_value > 0


def test_unknown_kind_rejected(fig8):
    with pytest.raises(ValueError):
        decide(fig8, "taut")


def test_boundary_skips_criterion(unglued):
    d = decide(unglued, "generalised")
    assert not d.agreement.criterion_ran
    assert "boundary" in d.agreement.skipped_reason


def test_corpus_classification(valid_corpus):
    # all torus/klein links <=> a generalised structure exists; the
    # criterion route runs on every valid closed member and decide()
    # itself raises if the routes ever disagree
    feasible_count = 0
    for tri in valid_corpus:
        tk = all(v.classification in ("torus", "klein")
                 for v in tri.vertices)
        d = decide(tri, "generalised")
        assert d.agreement.criterion_ran
        assert d.feasible == tk
        if d.feasible:
            feasible_count += 1
            assert d.dimension == tri.size + len(tri.vertices)
        else:
            assert d.certificate is not None
    assert feasible_count == 12


def test_corpus_semi_strict_routes(valid_corpus):
    for tri in valid_corpus:
        tk = all(v.classification in ("torus", "klein")
                 for v in tri.vertices)
        for kind in ("semi", "strict"):
            d = decide(tri, kind)
            assert d.agreement.criterion_ran == tk
            if d.feasible and kind == "strict":
                assert d.witness.is_strict


def test_inverted_members_skip_criterion(all_corpus):
    inverted = [t for t in all_corpus if t.has_inverted_edge]
    for tri in inverted[::8]:
        d = decide(tri, "generalised")
        assert not d.agreement.criterion_ran
        assert "reverse" in d.agreement.skipped_reason


def semi_dimension_oracle(a, b):
    # one LP per coordinate: a coordinate is pinned when its maximum
    # over the polytope is 0
    cols = len(a[0])
    pinned = [q for q in range(cols)
              if solve_lp(a, b, [int(j == q) for j in range(cols)]).value == 0]
    units = [[int(j == q) for j in range(cols)] for q in pinned]
    return cols - rank(a + units), pinned


def pinned_wedge_system(fig8):
    # flat fig8 wedges with the three corners of one triangle closed up:
    # that triangle gets area -1 and its wedges are pinned to 0
    values = [Fraction(1, 3)] * 12
    values[0] = values[1] = values[2] = 0
    ac, _ = induced_area_curvature(fig8, WedgeAssignment(fig8, values))
    return b_system(fig8, ac)


def test_semi_dimension_matches_per_coordinate_lps(valid_corpus, fig8):
    taut = build(2, TAUT_ONLY)
    tris = valid_corpus + [fig8, cyclic_cover(2, open_copy=0), taut]
    systems = [angle_matrix(tri) for tri in tris]
    systems += [b_system(tri, AreaCurvature.zero(tri)) for tri in tris]
    systems.append(pinned_wedge_system(fig8))
    compared = with_pins = 0
    for a, b in systems:
        res = solve_lp(a, b, [0] * len(a[0]))
        if res.status != "optimal":
            continue
        dim, pinned = semi_dimension_oracle(a, b)
        assert _semi_dimension(a, res) == dim
        compared += 1
        with_pins += bool(pinned)
    assert compared > 20
    assert with_pins >= 2


def test_semi_dimension_on_taut_only_complex():
    tri = build(2, TAUT_ONLY)
    d = decide(tri, "semi")
    assert d.feasible and not decide(tri, "strict").feasible
    a, b = angle_matrix(tri)
    dim, pinned = semi_dimension_oracle(a, b)
    assert pinned and d.dimension == dim


def test_corrupted_lp_witness_raises(fig8, monkeypatch):
    # an LP result that satisfies the equations but has a negative
    # angle must not come back as a semi witness
    a, b = angle_matrix(fig8)
    direction = nullspace(a)[0]
    x = [Fraction(1, 3) + 10 * d for d in direction]
    assert min(x) < 0
    monkeypatch.setattr(angles, "solve_lp",
                        lambda *args: LPResult("optimal", x, None, 0))
    with pytest.raises(CrossCheckError, match="negative angle"):
        decide(fig8, "semi")
