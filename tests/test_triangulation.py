from fractions import Fraction

import pytest

from anglekit.triangulation import (EDGE_VERTICES, Gluing, TriangulationError,
                                    build, edge_partition_unionfind,
                                    vertex_link_surface)
from corpus import one_tet_closed


def test_rejects_bad_records():
    with pytest.raises(TriangulationError):
        build(1, [(0, 0, 0, 0, (0, 1, 2, 3))])  # face glued to itself
    with pytest.raises(TriangulationError):
        build(1, [(0, 0, 0, 1, (0, 1, 2, 3))])  # map sends face 0 to 0, not 1
    with pytest.raises(TriangulationError):
        build(1, [(0, 0, 0, 1, (1, 1, 2, 2))])  # not a permutation
    with pytest.raises(TriangulationError):
        build(1, [(0, 0, 1, 0, (0, 1, 3, 2))])  # tetrahedron out of range
    with pytest.raises(TriangulationError):
        # face (0,2) used twice
        build(1, [(0, 2, 0, 0, (2, 1, 0, 3)), (0, 2, 0, 1, (1, 0, 2, 3))])
    with pytest.raises(TriangulationError):
        build(0, [])


def test_unglued_tetrahedron(unglued):
    assert unglued.size == 1
    assert not unglued.is_closed
    assert len(unglued.boundary_faces) == 4
    assert len(unglued.edges) == 6
    assert len(unglued.vertices) == 4
    assert all(e.degree == 1 and e.on_boundary for e in unglued.edges)
    assert all(v.classification == "disc" for v in unglued.vertices)
    assert all(v.link_euler == 1 for v in unglued.vertices)


def test_two_sphere_example(ex46):
    assert ex46.size == 1 and ex46.is_closed
    assert len(ex46.edges) == 3 and len(ex46.vertices) == 2
    assert sorted(e.degree for e in ex46.edges) == [1, 1, 4]
    # the two degree one classes are single self-identified edges
    singles = sorted(e.embeddings[0][1] for e in ex46.edges if e.degree == 1)
    assert [EDGE_VERTICES[s] for s in singles] == [(0, 2), (1, 3)]
    assert not ex46.has_inverted_edge
    for v in ex46.vertices:
        assert v.classification == "sphere"
        assert v.link_euler == 2 and v.link_closed and v.link_orientable


def test_figure_eight(fig8):
    assert fig8.size == 2 and fig8.is_closed
    assert len(fig8.edges) == 2 and len(fig8.vertices) == 1
    assert all(e.degree == 6 for e in fig8.edges)
    assert not fig8.has_inverted_edge
    v = fig8.vertices[0]
    assert v.classification == "torus"
    assert v.link_euler == 0 and v.link_closed and v.link_orientable


def test_corpus_counts(all_corpus, valid_corpus):
    assert len(all_corpus) == 108
    assert len(valid_corpus) == 39
    census = {}
    for tri in valid_corpus:
        key = tuple(sorted(v.classification for v in tri.vertices))
        census[key] = census.get(key, 0) + 1
    assert census == {("klein",): 12, ("sphere",): 24,
                      ("sphere", "sphere"): 3}


def test_corpus_edge_embedding_count(all_corpus):
    for tri in all_corpus:
        assert sum(e.degree for e in tri.edges) == 6 * tri.size


def test_corpus_euler_characteristic(all_corpus):
    # closed case: chi = v - n + t. Summing link defects counts edge
    # ends, and an inverted edge has its two ends identified, so each
    # inversion shifts the sum by one half.
    for tri in all_corpus:
        chi = len(tri.vertices) - len(tri.edges) + tri.size
        inverted = sum(1 for e in tri.edges if e.inverted)
        from_links = sum(
            Fraction(2 - v.link_euler, 2) for v in tri.vertices)
        assert from_links == chi + Fraction(inverted, 2)


def test_unionfind_cross_check(all_corpus, fig8):
    for tri in all_corpus + [fig8]:
        partition, inverted = edge_partition_unionfind(tri)
        ours = {frozenset(e.embeddings): e.inverted for e in tri.edges}
        assert {frozenset(g) for g in partition} == set(ours)
        for grp in partition:
            assert inverted[grp] == ours[frozenset(grp)]


def test_link_surfaces_partition_corners(ex46, fig8, unglued):
    for tri in (ex46, fig8, unglued):
        total = sum(len(vertex_link_surface(tri, v.index).cells)
                    for v in tri.vertices)
        assert total == 4 * tri.size
        for v in tri.vertices:
            surf = vertex_link_surface(tri, v.index)
            assert len(surf.cells) == len(v.corners)
            assert surf.is_closed == v.link_closed


def test_labels(ex46):
    assert [e.label for e in ex46.edges] == ["e1", "e2", "e3"]
    assert [v.label for v in ex46.vertices] == ["v1", "v2"]


@pytest.mark.parametrize("what", ["edge", "vertex"])
def test_lookup_by_name(ex46, what):
    lookup = getattr(ex46, what + "_by_name")
    count = len(ex46.edges if what == "edge" else ex46.vertices)
    assert lookup(what[0] + "2") == 1    # label
    assert lookup("1") == 1              # index string
    assert lookup(0) == 0                # int
    with pytest.raises(TriangulationError, match="unknown %s 'nope'" % what):
        lookup("nope")
    for index in (str(count), count, "7", -1):
        with pytest.raises(TriangulationError,
                           match="%s index .* out of range" % what):
            lookup(index)


def test_label_assignment():
    tri = build(1, [])
    tri.set_edge_label(0, "spine")
    assert tri.edge_by_name("spine") == 0
    with pytest.raises(TriangulationError):
        tri.set_edge_label(1, "spine")
    tri.set_vertex_label(2, "cusp")
    assert tri.vertex_labels["cusp"] == 2


def test_gluing_maps_are_involutive(fig8):
    for g in fig8.gluings:
        for v in range(4):
            assert g.inverse_map[g.vertex_map[v]] == v
    assert fig8.face_gluing(0, 0) is not None


def test_inverted_members_flagged(all_corpus):
    flagged = [t for t in all_corpus if t.has_inverted_edge]
    assert len(flagged) == 108 - 39
    tri = flagged[0]
    assert any(e.inverted for e in tri.edges)


def test_long_chain_builds():
    # find() is iterative, so union-find chains of any length are safe
    n = 2000
    tri = build(n, [(i, 0, i + 1, 1, (1, 0, 2, 3)) for i in range(n - 1)])
    assert tri.size == n and len(tri.boundary_faces) == 2 * n + 2
    # labels 2 and 3 run the whole chain; labels 1 and 0 pair up
    # across each gluing, leaving the two ends single
    sizes = sorted(len(v.corners) for v in tri.vertices)
    assert len(tri.vertices) == n + 3
    assert sizes == [1, 1] + [2] * (n - 1) + [n, n]
