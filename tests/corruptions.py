"""Corrupted certificates and coefficients the package must reject.

Each case in CASES feeds a checked function one deliberately wrong
ingredient and must end in CrossCheckError; each case in
ARGUMENT_CASES passes a malformed argument and must end in ValueError.
Run as a script, it prints one line per case, so a test can run it
under `python -O` (which strips assert statements) and confirm the
checks still fire:

    PYTHONPATH=src:tests python -O tests/corruptions.py
"""

import sys
from fractions import Fraction
from unittest import mock

import anglekit.angles as angles
import anglekit.polytope as polytope
import anglekit.prescribe as prescribe
import anglekit.triangulation as triangulation
from anglekit.angles import (_semi_dimension, angle_matrix, decide,
                             farkas_to_normal)
from anglekit.errors import CrossCheckError
from anglekit.linalg import dot
from anglekit.lp import LPResult, _recheck, solve_lp
from anglekit.normal import (DiscTypeIndex, coefficients, edge_solution,
                             verify_basis)
from anglekit.polytope import enumerate_vertices
from anglekit.prescribe import (AreaCurvature, WedgeAssignment,
                                decide_prescribed, dual_to_normal,
                                induced_area_curvature)
from anglekit.triangulation import Triangulation, build
from corpus import shipped


def farkas_certificate_with_corrupted_basis():
    ex46 = shipped("example_4_6")
    wz = decide(ex46, "generalised").certificate.wz
    basis = verify_basis(ex46)
    basis.tet_solutions[0][0] += 1
    farkas_to_normal(basis, list(wz.w) + list(wz.z), "generalised")


def farkas_certificate_with_corrupted_chi_star():
    ex46 = shipped("example_4_6")
    wz = decide(ex46, "semi").certificate.wz
    basis = verify_basis(ex46)
    with mock.patch.object(angles, "chi_star", lambda tri, s: 0):
        farkas_to_normal(basis, list(wz.w) + list(wz.z), "semi")


def dual_certificate_with_corrupted_pairing():
    ex46 = shipped("example_4_6")
    ac = AreaCurvature.zero(ex46)
    hz = decide_prescribed(ex46, ac, "semi").certificate.values
    parts = prescribe.pairing_parts

    def shifted(*args):
        pairing, gap, term = parts(*args)
        return pairing, gap + 1, term

    with mock.patch.object(prescribe, "pairing_parts", shifted):
        dual_to_normal(ex46, verify_basis(ex46), ac, hz, "semi")


def coefficients_with_corrupted_basis():
    fig8 = shipped("fig8")
    basis = verify_basis(fig8)
    vector = edge_solution(fig8, 0)
    coefficients(basis, vector)
    # the coefficients are read off the vector alone; only their
    # expansion over the basis can notice the change
    basis.edge_solutions[0][0] += 1
    coefficients(basis, vector)


def chi_conditions_with_corrupted_curvature_weight():
    fig8 = shipped("fig8")
    wedges = WedgeAssignment(fig8, [Fraction(k + 1, 7) for k in range(12)])
    ac, _ = induced_area_curvature(fig8, wedges)   # curvatures -29/7, -3
    weights = prescribe._curvature_weights

    def shifted(tri, ac):
        out = weights(tri, ac)
        out[min(out)] += 1
        return out

    # the vertex-link check reads chi_ak through coefficients and passes;
    # only the check of the weights on the basis can notice the shift
    with mock.patch.object(prescribe, "_curvature_weights", shifted):
        decide_prescribed(fig8, ac, "semi")


def vertex_enumeration_with_short_ranks():
    fig8 = shipped("fig8")
    with mock.patch.object(polytope, "_rank_residues",
                           lambda rows, cap: 0), \
            mock.patch.object(polytope, "rank", lambda rows: 0):
        enumerate_vertices(fig8)


def vertex_enumeration_with_corrupted_basis():
    # the rays span the cone of the corrupted basis, so they come out
    # nonnegative and with zero rows of rank d - 1; only the matching
    # equations can notice that they left the solution space
    fig8 = shipped("fig8")
    basis = verify_basis(fig8)
    basis.edge_solutions[0][0] += 1
    enumerate_vertices(fig8, basis)


def semi_dimension_of_an_unbounded_polytope():
    # fig8's angle equations with a column appended that cancels the
    # first: moving along both columns at once keeps every equation, so
    # the sum of the coordinates outside the witness's support has no
    # maximum over the polytope
    a, b = angle_matrix(shipped("fig8"))
    a = [row + [-row[0]] for row in a]
    _semi_dimension(a, solve_lp(a, b, [0] * len(a[0])))


def edge_traces_that_overlap():
    # every edge slot traced to the same single embedding
    with mock.patch.object(Triangulation, "_trace_edge",
                           lambda self, tet, slot: ([(0, 0)], False, False)):
        build(1, [])


def link_sides_that_do_not_match():
    # each link side moved one step round its link triangle
    side = triangulation._link_side
    with mock.patch.object(triangulation, "_link_side",
                           lambda c, f: (side(c, f) + 1) % 3):
        shipped("fig8")


def vertex_link_that_is_disconnected():
    surface = triangulation.CWSurface

    def disconnected(cells, records):
        surf = surface(cells, records)
        surf.is_connected = False
        return surf

    with mock.patch.object(triangulation, "CWSurface", disconnected):
        build(1, [])


def lp_result_with_corrupted_dual():
    rows, b, c = [[1, 1], [1, -1]], [2, 0], [1, 2]
    res = solve_lp(rows, b, c)
    y = [res.y[0], res.y[1] + 1]
    _recheck(rows, b, c, LPResult("optimal", res.x, y, res.value))


def lp_with_a_short_row():
    solve_lp([[1, 1], [1]], [1, 1], [0, 0])


def lp_with_no_costs():
    solve_lp([[1, 1]], [1], [])


def dot_of_unequal_lengths():
    dot([1, 2], [1])


def quad_slot_out_of_range():
    DiscTypeIndex(1).quad(0, 3)


def triangle_slot_out_of_range():
    DiscTypeIndex(1).tri(0, 4)


CASES = (farkas_certificate_with_corrupted_basis,
         farkas_certificate_with_corrupted_chi_star,
         dual_certificate_with_corrupted_pairing,
         coefficients_with_corrupted_basis,
         chi_conditions_with_corrupted_curvature_weight,
         vertex_enumeration_with_short_ranks,
         vertex_enumeration_with_corrupted_basis,
         semi_dimension_of_an_unbounded_polytope,
         edge_traces_that_overlap,
         link_sides_that_do_not_match,
         vertex_link_that_is_disconnected,
         lp_result_with_corrupted_dual)

ARGUMENT_CASES = (lp_with_a_short_row,
                  lp_with_no_costs,
                  dot_of_unequal_lengths,
                  quad_slot_out_of_range,
                  triangle_slot_out_of_range)


def outcome(case):
    """'CrossCheckError', another exception's name, or 'returned'."""
    try:
        case()
    except CrossCheckError:
        return "CrossCheckError"
    except Exception as exc:
        return type(exc).__name__
    return "returned"


if __name__ == "__main__":
    print("optimize %d" % sys.flags.optimize)
    for case in CASES + ARGUMENT_CASES:
        print("%s %s" % (case.__name__, outcome(case)))
