import gc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anglekit.angles as angles
from anglekit.angles import decide
from anglekit.errors import CrossCheckError
from anglekit.linalg import dot, fr, matvec, transpose, vec
from anglekit.lp import LPResult, _recheck, solve_lp
from anglekit.prescribe import AreaCurvature, decide_prescribed
from corpus import cyclic_cover, one_tet_closed, shipped


def fraction_simplex(a_rows, b, c):
    """Oracle: the two phase Bland-rule simplex on a Fraction tableau
    that the integer tableau replaced, without the re-check."""
    m = len(a_rows)
    n = len(c) if c else (len(a_rows[0]) if m else 0)
    orig_rows = [[fr(x) for x in row] for row in a_rows]
    orig_b = [fr(x) for x in b]
    c = [fr(x) for x in c]

    sign = []
    rows = []
    rhs = []
    for i in range(m):
        if orig_b[i] < 0:
            rows.append([-x for x in orig_rows[i]])
            rhs.append(-orig_b[i])
            sign.append(Fraction(-1))
        else:
            rows.append(list(orig_rows[i]))
            rhs.append(orig_b[i])
            sign.append(Fraction(1))

    ncols = n + m
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(r, col, obj):
        pv = tab[r][col]
        tab[r] = [x / pv for x in tab[r]]
        for i in range(m):
            if i != r and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * p for x, p in zip(tab[i], tab[r])]
        if obj is not None and obj[col] != 0:
            f = obj[col]
            obj[:] = [x - f * p for x, p in zip(obj, tab[r])]
        basis[r] = col

    def objective_row(cost):
        obj = []
        for j in range(ncols + 1):
            zj = sum((cost[basis[i]] * tab[i][j] for i in range(m)
                      if cost[basis[i]] != 0), Fraction(0))
            cj = cost[j] if j < ncols else Fraction(0)
            obj.append(zj - cj)
        return obj

    def run(cost, allowed):
        obj = objective_row(cost)
        while True:
            enter = None
            for j in allowed:
                if obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal", obj
            leave = None
            best = None
            for i in range(m):
                if tab[i][enter] > 0:
                    ratio = tab[i][ncols] / tab[i][enter]
                    if (best is None or ratio < best
                            or (ratio == best and basis[i] < basis[leave])):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded", obj
            pivot(leave, enter, obj)

    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    status, obj = run(cost1, range(ncols))
    assert status == "optimal"
    value1 = sum((cost1[basis[i]] * tab[i][ncols] for i in range(m)),
                 Fraction(0))
    if value1 < 0:
        y = [-sign[i] * (obj[n + i] + cost1[n + i]) for i in range(m)]
        return LPResult("infeasible", None, y, None)
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    pivot(i, j, None)
                    break
    cost2 = c + [Fraction(0)] * m
    status, obj = run(cost2, range(n))
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][ncols]
    y = [sign[i] * (obj[n + i] + cost2[n + i]) for i in range(m)]
    return LPResult("optimal", x, y, dot(c, x))


def outcome(res):
    return res.status, res.x, res.y, res.value


def assert_matches_oracle(a_rows, b, c):
    got = solve_lp(a_rows, b, c)
    assert outcome(got) == outcome(fraction_simplex(a_rows, b, c))
    for v in (got.x or []) + (got.y or []):
        assert type(v) is Fraction
    return got


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
    res = solve_lp(rows, b, [0] * len(rows[0]))
    assert res.status in ("optimal", "infeasible")
    if res.status == "optimal":
        x = res.x
        assert matvec(rows, x) == [Fraction(v) for v in b]
        assert all(v >= 0 for v in x)
    else:
        y = res.y
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


# rationals whose rows share denominators: each row, right-hand side
# included, draws one denominator; zero-heavy numerators make
# degenerate vertices and ties in the ratio test common
numerators = st.integers(min_value=-5, max_value=5) | st.just(0)
denominators = st.sampled_from((1, 1, 2, 3, 4, 6))


@st.composite
def rational_lps(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    b = []
    for _ in range(m):
        den = draw(denominators)
        rows.append([Fraction(draw(numerators), den) for _ in range(n)])
        b.append(Fraction(draw(numerators), den))
    if draw(st.booleans()):
        # a feasible right-hand side at a point with zeros: degenerate
        x0 = [Fraction(draw(st.integers(min_value=0, max_value=2)),
                       draw(denominators)) for _ in range(n)]
        b = matvec(rows, x0)
    c = [Fraction(draw(numerators), draw(denominators)) for _ in range(n)]
    return rows, b, c


@settings(max_examples=300)
@given(rational_lps())
def test_integer_tableau_matches_fraction_tableau(lp):
    assert_matches_oracle(*lp)


def test_integer_tableau_matches_on_fixed_cases():
    statuses = set()
    cases = [
        ([[1, 1]], [1], [1, 2]),
        ([[1, 1]], [-1], [0, 0]),
        ([[1, -1]], [0], [1, 0]),
        ([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], [1, 1, 1],
         [1, 0, 0, 0]),
        # rows sharing a denominator, a negative right-hand side and
        # rational costs
        ([["1/2", "1/2", 0], ["1/2", 0, "-1/2"], ["1/3", "2/3", "1/3"]],
         ["1/2", "-1/2", "2/3"], ["1/2", "-1/3", "1/6"]),
        # a redundant row leaves an artificial basic at zero
        ([[1, 1, 1], [2, 2, 2], [1, 0, -1]], [1, 2, 0], [0, 1, 0]),
        # an artificial basic at zero is evicted on a negative pivot
        ([[2, -2, 1], [-1, -2, -1], [-2, 0, 1]], [-2, -2, 0], [1, -1, -1]),
        ([["1/3", "1/3"], ["1/3", "1/3"]], ["1/3", "1/2"], [0, 0]),
        ([], [], [1, -1]),
        ([], [], [0, -1]),
    ]
    for rows, b, c in cases:
        statuses.add(assert_matches_oracle(rows, b, c).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def decision_lps():
    """Every LP that decide and decide_prescribed issue on the fixtures,
    the valid one-tetrahedron corpus and the bounded 3-fold cover: the
    solve_lp calls as (rows, b, cost), and the reruns of their tableaux
    as (rows, b, new cost, result)."""
    issued = []
    reruns = []
    rerun = LPResult.rerun

    def recording(a_rows, b, c):
        issued.append(([list(row) for row in a_rows], list(b), list(c)))
        return solve_lp(a_rows, b, c)

    def recording_rerun(res, c):
        got = rerun(res, c)
        tableau = res._tableau
        reruns.append(([list(row) for row in tableau.rows], list(tableau.b),
                       list(c), got))
        return got

    complexes = (one_tet_closed(valid_only=True)
                 + [shipped("fig8"), shipped("example_4_6"),
                    cyclic_cover(3, open_copy=0)])
    with mock.patch.object(angles, "solve_lp", recording), \
            mock.patch.object(LPResult, "rerun", recording_rerun):
        for tri in complexes:
            half = AreaCurvature(tri, [Fraction(1, 3)] * (4 * tri.size),
                                 [Fraction(-1, 2)] * len(tri.edges))
            for kind in ("semi", "strict"):
                decide(tri, kind)
                decide_prescribed(tri, AreaCurvature.zero(tri), kind)
                decide_prescribed(tri, half, kind)
    return issued, reruns


def test_integer_tableau_matches_on_decision_lps():
    issued, reruns = decision_lps()
    assert len(issued) > 250
    statuses = {assert_matches_oracle(*lp).status for lp in issued}
    assert statuses == {"optimal", "infeasible"}
    # a rerun starts from the basis its system's last LP ended at, so
    # its x may be another optimal vertex; its status and optimum are
    # those of the oracle on the same inputs
    assert len(reruns) > 40
    for rows, b, c, got in reruns:
        want = fraction_simplex(rows, b, c)
        assert (got.status, got.value) == (want.status, want.value)


@settings(max_examples=100)
@given(rational_lps(), st.data())
def test_rerun_matches_fraction_tableau_on_the_new_cost(lp, data):
    rows, b, c1 = lp
    c2 = [Fraction(data.draw(numerators), data.draw(denominators))
          for _ in c1]
    first = solve_lp(rows, b, c1)
    if first.status == "infeasible":
        with pytest.raises(ValueError, match="no feasible basis"):
            first.rerun(c2)
        return
    got = first.rerun(c2)
    want = fraction_simplex(rows, b, c2)
    assert (got.status, got.value) == (want.status, want.value)
    # and back to the first cost, from wherever the rerun ended
    again = got.rerun(c1)
    assert (again.status, again.value) == (first.status, first.value)


def test_deciders_leave_no_reference_cycles():
    # results keep their tableau for reruns; a cycle through them would
    # outlive each decision until a full collection, which the integer
    # code seldom triggers
    complexes = [shipped("fig8"), shipped("example_4_6"), cyclic_cover(2),
                 cyclic_cover(3, open_copy=0)]
    gc.collect()
    gc.disable()
    try:
        for tri in complexes:
            zero = AreaCurvature.zero(tri)
            for kind in ("generalised", "semi", "strict"):
                decide(tri, kind)
                decide_prescribed(tri, zero, kind)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recheck_accepts_rational_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 0]]
    b = [Fraction(5, 6), Fraction(-1, 4)]
    res = solve_lp(rows, b, [1, 1])
    assert res.status == "infeasible"
    assert _recheck(rows, b, [1, 1], res) is res
    b = [Fraction(5, 6), Fraction(1, 4)]
    res = solve_lp(rows, b, [Fraction(1, 2), 1])
    assert res.status == "optimal" and res.x == [1, 1]
    assert _recheck(rows, b, [Fraction(1, 2), 1], res) is res
    shifted = [res.y[0] + Fraction(1, 7), res.y[1]]
    with pytest.raises(CrossCheckError, match="dual"):
        _recheck(rows, b, [Fraction(1, 2), 1],
                 LPResult("optimal", res.x, shifted, res.value))
    with pytest.raises(CrossCheckError, match="shape"):
        _recheck(rows, b, [Fraction(1, 2), 1],
                 LPResult("optimal", res.x, res.y[:1], res.value))


def test_right_hand_side_length_mismatch_is_a_value_error():
    # zipping rows with a shorter b would silently drop rows
    with pytest.raises(ValueError, match="2 rows but 1 right-hand sides"):
        solve_lp([[1, 1], [1, 0]], [1], [0, 0])


def test_cost_length_mismatch_is_a_value_error():
    # the column count comes from the rows; a cost vector of another
    # length is reported as such, not as a bad row or an IndexError
    for c in ([], [0, 0, 0]):
        with pytest.raises(ValueError,
                           match="2 columns but %d costs" % len(c)):
            solve_lp([[1, 1]], [1], c)
