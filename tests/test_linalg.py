from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import angles, cwsurface, linalg
from anglekit.angles import decide
from anglekit.linalg import (_rank_mod, dot, fr, matvec, nullspace,
                             primitive, rank, rref, solve, transpose, vec)
from anglekit.prescribe import AreaCurvature, decide_prescribed
from anglekit.triangulation import vertex_link_surface
from corpus import cyclic_cover

small = st.integers(min_value=-6, max_value=6)
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n),
                       min_size=1, max_size=5))


def test_fr_coerces():
    assert fr(2) == Fraction(2)
    assert fr("3/4") == Fraction(3, 4)
    assert fr(Fraction(1, 3)) == Fraction(1, 3)


def test_rref_identity_is_fixed():
    m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    work, pivots = rref(m)
    assert work == m
    assert pivots == [0, 1, 2, 3]


def test_rref_known_case():
    work, pivots = rref([[2, 4], [1, 2]])
    assert work == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert pivots == [0]


@given(matrices)
def test_rref_idempotent(m):
    once, piv1 = rref(m)
    twice, piv2 = rref(once)
    assert once == twice and piv1 == piv2


@given(matrices)
def test_rank_nullity(m):
    ncols = len(m[0])
    r = rank(m)
    basis = nullspace(m)
    assert r + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in matvec(m, v))
    # independence: stack the basis and re-rank
    if basis:
        assert rank(basis) == len(basis)


@given(matrices, st.data())
def test_solve_or_certificate(m, data):
    ncols = len(m[0])
    b = data.draw(st.lists(small, min_size=len(m), max_size=len(m)))
    x, cert = solve(m, b)
    if cert is None:
        assert matvec(m, x) == [fr(v) for v in b]
    else:
        assert all(v == 0 for v in matvec(transpose(m), cert))
        assert dot(cert, vec(b)) == 1


@given(matrices, st.data())
def test_solve_finds_constructed_solutions(m, data):
    ncols = len(m[0])
    x0 = data.draw(st.lists(small, min_size=ncols, max_size=ncols))
    b = matvec(m, x0)
    x, cert = solve(m, b)
    assert cert is None
    assert matvec(m, x) == b


def test_primitive():
    assert primitive([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert primitive([4, 6]) == [2, 3]
    assert primitive([0, 0]) == [0, 0]
    assert primitive([Fraction(-2, 7)]) == [-1]


@given(matrices)
def test_rank_mod_matches_exact_rank(m):
    assert _rank_mod(m) == rank(m)
    assert _rank_mod(vec(row) for row in m) == rank(m)


def test_rank_mod_small_prime_undercounts():
    m = [[2, 0], [0, 3]]
    assert rank(m) == 2
    assert _rank_mod(m, 2) == 1 and _rank_mod(m, 3) == 1
    assert _rank_mod([[1, 1], [1, -1]], 2) == 1


def test_rank_mod_rejects_fractions():
    with pytest.raises(ValueError):
        _rank_mod([[Fraction(1, 2)]])


rational_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 min_size=n, max_size=n),
        min_size=1, max_size=6))


@given(rational_matrices)
def test_fraction_free_rank_matches_rref(m):
    assert rank(m) == len(rref(m)[1])


@given(matrices, st.data())
def test_fraction_free_rank_of_dependent_rows(m, data):
    # append integer and rational combinations of the rows: the rank
    # must not move
    coef = data.draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                           max_denominator=5),
                              min_size=len(m), max_size=len(m)))
    combo = [sum((c * row[j] for c, row in zip(coef, m)), Fraction(0))
             for j in range(len(m[0]))]
    assert rank(m + [combo]) == rank(m) == len(rref(m)[1])


def test_rank_reads_strings_and_zero_rows():
    assert rank([["1/2", "1/3"], [3, 2], [0, 0]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


# The Fraction Gauss-Jordan elimination that the fraction-free core
# replaced, kept as the oracle: rref, nullspace and solve must return
# exactly what these return, pivots, row order and certificates included.

def oracle_rref_in_place(m, ncols=None):
    rows = len(m)
    if rows == 0:
        return []
    for i in range(rows):
        m[i] = [fr(x) for x in m[i]]
    width = len(m[0])
    if ncols is None:
        ncols = width
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def oracle_rref(m):
    work = [list(row) for row in m]
    pivots = oracle_rref_in_place(work)
    return work, pivots


def oracle_nullspace(m, ncols=None):
    if ncols is None:
        ncols = len(m[0]) if m else 0
    if not m:
        return [[Fraction(int(j == i)) for j in range(ncols)]
                for i in range(ncols)]
    work = [list(row) for row in m]
    pivots = oracle_rref_in_place(work)
    basis = []
    for fcol in [c for c in range(ncols) if c not in pivots]:
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            x[pcol] = -work[r][fcol]
        basis.append(x)
    return basis


def oracle_solve(m, b):
    rows = len(m)
    n = len(m[0]) if rows else 0
    aug = [list(m[i]) + [Fraction(int(j == i)) for j in range(rows)]
           + [fr(b[i])] for i in range(rows)]
    pivots = oracle_rref_in_place(aug, ncols=n)
    for r in range(rows):
        if all(aug[r][c] == 0 for c in range(n)) and aug[r][n + rows] != 0:
            scale = aug[r][n + rows]
            return None, [aug[r][n + j] / scale for j in range(rows)]
    x = [Fraction(0)] * n
    for r, pcol in enumerate(pivots):
        x[pcol] = aug[r][n + rows]
    return x, None


def identical(got, want):
    # equal values of equal types, so a Fraction never comes back as int
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(identical(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def as_string(x):
    x = fr(x)
    return "%d/%d" % (x.numerator, x.denominator)


@st.composite
def hard_matrices(draw):
    """Rational matrices made rank deficient by appended combinations,
    with zero rows mixed in and some entries given as 'p/q' strings."""
    base = draw(rational_matrices)
    ncols = len(base[0])
    m = [list(row) for row in base]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coef = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=5),
                             min_size=len(base), max_size=len(base)))
        m.append([sum((c * row[j] for c, row in zip(coef, base)),
                      Fraction(0)) for j in range(ncols)])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        m.insert(draw(st.integers(min_value=0, max_value=len(m))),
                 [0] * ncols)
    if draw(st.booleans()):
        m = [[as_string(x) if draw(st.booleans()) else x for x in row]
             for row in m]
    return m


@given(hard_matrices())
def test_rref_and_nullspace_match_the_fraction_oracle(m):
    assert identical(rref(m), oracle_rref(m))
    assert identical(nullspace(m), oracle_nullspace(m))


@given(hard_matrices(), st.data())
def test_solve_matches_the_fraction_oracle(m, data):
    # a right side in the column space, then one pushed off it
    x0 = data.draw(st.lists(small, min_size=len(m[0]), max_size=len(m[0])))
    b = matvec([vec(row) for row in m], x0)
    assert identical(solve(m, b), oracle_solve(m, b))
    b[data.draw(st.integers(min_value=0, max_value=len(b) - 1))] += 1
    if data.draw(st.booleans()):
        b = [as_string(x) for x in b]
    assert identical(solve(m, b), oracle_solve(m, b))


def test_empty_systems_match_the_fraction_oracle():
    assert identical(solve([], []), oracle_solve([], []))
    assert identical(rref([]), oracle_rref([]))
    assert identical(nullspace([], ncols=3), oracle_nullspace([], ncols=3))
    assert identical(nullspace([[0, 0]]), oracle_nullspace([[0, 0]]))


def test_every_solve_of_the_deciders_matches_the_oracle(
        valid_corpus, ex46, fig8, monkeypatch):
    # the deciders on their exact route and realize on the vertex links:
    # every system they solve, on one- and two-tetrahedron complexes and
    # on the covers of fig8
    calls = []

    def checked(m, b):
        got = linalg.solve(m, b)
        assert identical(got, oracle_solve(m, b))
        calls.append(got[0] is None)
        return got

    monkeypatch.setattr(angles, "solve", checked)
    monkeypatch.setattr(cwsurface, "solve", checked)
    tris = valid_corpus + [ex46, fig8, cyclic_cover(2),
                           cyclic_cover(3, open_copy=0)]
    for tri in tris:
        for kind in ("generalised", "semi", "strict"):
            decide(tri, kind)
            decide_prescribed(tri, AreaCurvature.zero(tri), kind)
        for v in tri.vertices:
            surface = vertex_link_surface(tri, v)
            cwsurface.realize(surface, [0] * len(surface.vertices),
                              [0] * len(surface.cells))
    # generalised decide and decide_prescribed per complex, one realize
    # per vertex; both consistent and inconsistent systems occur
    assert len(calls) == sum(2 + len(tri.vertices) for tri in tris)
    assert any(calls) and not all(calls)
