from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.errors import CrossCheckError
from anglekit.linalg import dot, matvec, transpose, vec
from anglekit.lp import LPResult, _recheck, feasible_point, solve_lp

small = st.integers(min_value=-4, max_value=4)
systems = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4)).flatmap(
        lambda mn: st.tuples(
            st.lists(st.lists(small, min_size=mn[1], max_size=mn[1]),
                     min_size=mn[0], max_size=mn[0]),
            st.lists(small, min_size=mn[0], max_size=mn[0]),
            st.lists(small, min_size=mn[1], max_size=mn[1]),
            st.lists(st.integers(min_value=0, max_value=4),
                     min_size=mn[1], max_size=mn[1])))


def test_simple_optimum():
    res = solve_lp([[1, 1]], [1], [1, 2])
    assert res.status == "optimal"
    assert res.value == 2
    assert res.x == [Fraction(0), Fraction(1)]


def test_infeasible_certificate():
    res = solve_lp([[1, 1]], [-1], [0, 0])
    assert res.status == "infeasible"
    y = res.y
    assert all(v <= 0 for v in matvec(transpose([[1, 1]]), y))
    assert dot(y, [Fraction(-1)]) > 0


def test_unbounded():
    res = solve_lp([[1, -1]], [0], [1, 0])
    assert res.status == "unbounded"


def test_degenerate_optimum():
    # three constraints meet at the optimal vertex; Bland's rule must
    # terminate despite the degeneracy
    rows = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
    b = [1, 1, 1]
    res = solve_lp(rows, b, [1, 0, 0, 0])
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]


@given(systems)
def test_constructed_feasible_never_infeasible(sys_):
    rows, _, c, x0 = sys_
    b = matvec(rows, x0)
    res = solve_lp(rows, b, c)
    assert res.status in ("optimal", "unbounded")
    if res.status == "optimal":
        assert matvec(rows, res.x) == b
        assert all(x >= 0 for x in res.x)
        assert res.value >= dot(vec(c), vec(x0))
        # weak duality on the returned dual
        assert all(lhs >= rhs for lhs, rhs
                   in zip(matvec(transpose(rows), res.y), vec(c)))
        assert dot(res.y, b) == res.value


@given(systems)
def test_feasible_point_dichotomy(sys_):
    rows, b, _, _ = sys_
    x, y = feasible_point(rows, b)
    if x is not None:
        assert y is None
        assert matvec(rows, x) == [Fraction(v) for v in b]
        assert all(v >= 0 for v in x)
    else:
        assert all(v <= 0 for v in matvec(transpose(rows), y))
        assert dot(y, vec(b)) > 0


def test_recheck_rejects_corrupted_results():
    rows, b, c = [[1, 1]], [1], [1, 2]
    res = solve_lp(rows, b, c)
    assert _recheck(rows, b, c, res) is res
    bad = [LPResult("optimal", res.x, [Fraction(1)], res.value),
           LPResult("optimal", [Fraction(2), Fraction(-1)], res.y, 0),
           LPResult("optimal", [Fraction(1), Fraction(1)], res.y, 3),
           LPResult("optimal", res.x, res.y, Fraction(3))]
    for corrupt in bad:
        with pytest.raises(CrossCheckError):
            _recheck(rows, b, c, corrupt)
    infeasible = solve_lp([[1, 1]], [-1], [0, 0])
    corrupt = LPResult("infeasible", None, [-v for v in infeasible.y], None)
    with pytest.raises(CrossCheckError):
        _recheck([[1, 1]], [-1], [0, 0], corrupt)
