"""Both deciders on random closed complexes of up to four tetrahedra.

Every decision runs its cross-checks (the two routes agree, witnesses
re-substitute, certificates verify), so a CrossCheckError anywhere
fails the test. On top, each kind of structure is also one of the
weaker kinds: strict implies semi implies generalised.

Random face pairings seldom have only torus and Klein bottle links, so
a second strategy draws cusped complexes, where the chi* criterion
over the vertex solutions runs, and compares it with the criterion
evaluated vertex by vertex; their vertex solutions are compared with
the kernel-coefficient enumeration of tests/test_polytope.py.
"""

import random
from itertools import permutations

from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from anglekit.angles import _vertex_criterion, decide
from anglekit.normal import (chi_star, chi_star_weights, verify_basis,
                             vertex_link_vector)
from anglekit.polytope import enumerate_vertices
from anglekit.prescribe import (AreaCurvature, WedgeAssignment,
                                _chi_conditions, chi_ak, decide_prescribed,
                                induced_area_curvature)
from anglekit.triangulation import build
from corpus import face_map
from test_polytope import kernel_coefficient_vertices

KINDS = ("generalised", "semi", "strict")
PERMS = tuple(permutations(range(3)))
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def closed_complexes(draw, max_size=4):
    """Pair the 4t faces of t tetrahedra at random, each pair glued
    through one of the six vertex maps of its two faces."""
    t = draw(st.integers(min_value=1, max_value=max_size))
    slots = draw(st.permutations([(i, f) for i in range(t)
                                  for f in range(4)]))
    gluings = []
    for (a, f), (b, g) in zip(slots[::2], slots[1::2]):
        perm = draw(st.sampled_from(PERMS))
        gluings.append((a, f, b, g, face_map(f, g, perm)))
    return build(t, gluings)


def _random_pairing(t, rng):
    slots = [(i, f) for i in range(t) for f in range(4)]
    rng.shuffle(slots)
    return build(t, [(a, f, b, g, face_map(f, g, rng.choice(PERMS)))
                     for (a, f), (b, g) in zip(slots[::2], slots[1::2])])


def is_cusped(tri):
    """Every vertex link a torus or Klein bottle and no inverted edge:
    the hypotheses of the chi* criterion."""
    return not tri.has_inverted_edge and all(
        v.classification in ("torus", "klein") for v in tri.vertices)


@st.composite
def cusped_complexes(draw, max_size=4):
    """Random closed face pairings, resampled until cusped. About one
    pairing in 10 (t = 1) to one in 120 (t = 4) is, too few for
    hypothesis to filter, so the resampling runs on a Random seeded
    from the drawn data."""
    t = draw(st.integers(min_value=1, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    while True:
        tri = _random_pairing(t, rng)
        if is_cusped(tri):
            return tri


def per_vertex_criterion(tri, vertices, bound):
    """Reference: the semi and strict verdicts of the chi* criterion with
    chi* minus bound(s) evaluated at each vertex solution s."""
    verdict = {"semi": True, "strict": True}
    for vs in vertices:
        s = vs.vector
        excess = chi_star(tri, s) - bound(s)
        verdict["semi"] = verdict["semi"] and excess <= 0
        if any(s[:3 * tri.size]):
            verdict["strict"] = verdict["strict"] and excess < 0
    return verdict


def _nested(feasible):
    # a strict structure is semi, and a semi one is generalised
    return (feasible["strict"] <= feasible["semi"]
            <= feasible["generalised"])


@seed(20261018)
@settings(max_examples=60)
@given(closed_complexes(), st.data())
def test_random_closed_complexes(tri, data):
    feasible = {}
    for kind in KINDS:
        d = decide(tri, kind)
        assert (d.witness is None) == (d.certificate is not None)
        feasible[kind] = d.feasible
    assert _nested(feasible)
    ac = AreaCurvature(
        tri, [data.draw(rationals) for _ in range(4 * tri.size)],
        [data.draw(rationals) for _ in range(len(tri.edges))])
    for kind in KINDS:
        d = decide_prescribed(tri, ac, kind)
        assert (d.witness is None) == (d.certificate is not None)
        feasible[kind] = d.feasible
    assert _nested(feasible)


# no shrink phase: the complex comes from a drawn seed, which shrinking
# cannot simplify, and each of its many attempts enumerates vertices
@seed(20261018)
@settings(max_examples=25,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(cusped_complexes(), st.data())
def test_criterion_on_random_cusped_complexes(tri, data):
    basis = verify_basis(tri)
    vertices = enumerate_vertices(tri, basis)
    assert ([(vs.vector, vs.support_rank) for vs in vertices]
            == kernel_coefficient_vertices(tri))
    wedges = WedgeAssignment(
        tri, [data.draw(rationals) for _ in range(6 * tri.size)])
    induced, _ = induced_area_curvature(tri, wedges)
    zero = AreaCurvature.zero(tri)
    want = per_vertex_criterion(tri, vertices, lambda s: 0)
    # an induced prescription passes the vertex-link check, so the
    # criterion runs on weights with the areas and curvatures in them;
    # the reference reads chi_ak through (w, z) coefficients
    assert all(chi_ak(tri, basis, induced, vertex_link_vector(tri, v))
               == v.link_euler for v in tri.vertices)
    want_induced = per_vertex_criterion(
        tri, vertices, lambda s: chi_ak(tri, basis, induced, s))
    for kind in ("semi", "strict"):
        assert _vertex_criterion(tri, basis, kind,
                                 chi_star_weights(tri)) == want[kind]
        assert _chi_conditions(tri, basis, zero, kind) == want[kind]
        assert (_chi_conditions(tri, basis, induced, kind)
                == want_induced[kind])
