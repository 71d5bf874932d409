from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.linalg import (_rank_mod, dot, fr, matvec, nullspace,
                             primitive, rank, rref, solve, transpose, vec)

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
