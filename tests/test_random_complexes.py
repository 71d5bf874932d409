"""Both deciders on random closed complexes of up to four tetrahedra.

Every decision runs its cross-checks (the two routes agree, witnesses
re-substitute, certificates verify), so a CrossCheckError anywhere
fails the test. On top, each kind of structure is also one of the
weaker kinds: strict implies semi implies generalised.
"""

from itertools import permutations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from anglekit.angles import decide
from anglekit.prescribe import AreaCurvature, decide_prescribed
from anglekit.triangulation import build
from corpus import face_map

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
