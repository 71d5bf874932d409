"""Exact linear programming over the rationals.

A plain two phase simplex with Bland's rule, in equality standard form:
maximise c . x subject to A x = b, x >= 0. Small and slow, but exact,
and it surrenders usable dual vectors: an optimal dual for optimal
problems and an infeasibility certificate y with A^T y <= 0 and
y . b > 0 for infeasible ones.
"""

from fractions import Fraction

from .errors import CrossCheckError
from .linalg import dot, fr


class LPResult:
    def __init__(self, status, x, y, value):
        self.status = status
        self.x = x
        self.y = y
        self.value = value

    def __repr__(self):
        return "LPResult(%s, value=%s)" % (self.status, self.value)


def solve_lp(a_rows, b, c):
    """Maximise c . x over A x = b, x >= 0.

    Returns LPResult with status 'optimal', 'infeasible' or 'unbounded'.
    For 'optimal', x is a vertex solution, value = c . x, and y is an
    optimal dual: A^T y >= c and y . b = value. For 'infeasible', y
    satisfies A^T y <= 0 and y . b > 0. Both dual claims are re-checked
    before returning.
    """
    m = len(a_rows)
    n = len(c) if c else (len(a_rows[0]) if m else 0)
    orig_rows = [[fr(x) for x in row] for row in a_rows]
    orig_b = [fr(x) for x in b]
    c = [fr(x) for x in c]
    for row in orig_rows:
        assert len(row) == n

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

    # phase 1: drive the artificials to zero
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    status, obj = run(cost1, range(ncols))
    if status != "optimal":
        raise CrossCheckError("phase 1 ended %s" % (status,))
    value1 = sum((cost1[basis[i]] * tab[i][ncols] for i in range(m)), Fraction(0))
    if value1 < 0:
        y = [sign[i] * (obj[n + i] + cost1[n + i]) for i in range(m)]
        y = [-v for v in y]
        return _recheck(orig_rows, orig_b, c,
                        LPResult("infeasible", None, y, None))

    # evict basic artificials where a structural pivot exists
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    pivot(i, j, None)
                    break

    # phase 2 over the structural columns only
    cost2 = c + [Fraction(0)] * m
    status, obj = run(cost2, range(n))
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][ncols]
    y = [sign[i] * (obj[n + i] + cost2[n + i]) for i in range(m)]
    return _recheck(orig_rows, orig_b, c,
                    LPResult("optimal", x, y, dot(c, x)))


def _recheck(rows, b, c, res):
    """Return res after checking its primal and dual claims against
    maximise c . x over rows x = b, x >= 0; raise CrossCheckError on
    the first claim that fails."""
    m = len(rows)
    pairing = [sum(rows[i][j] * res.y[i] for i in range(m))
               for j in range(len(c))]
    if res.status == "infeasible":
        if any(v > 0 for v in pairing) or dot(res.y, b) <= 0:
            raise CrossCheckError("infeasibility certificate fails")
        return res
    x = res.x
    if any(xv < 0 for xv in x):
        raise CrossCheckError("LP solution has a negative entry")
    if any(dot(row, x) != bi for row, bi in zip(rows, b)):
        raise CrossCheckError("LP solution violates an equation")
    if any(v < cj for v, cj in zip(pairing, c)):
        raise CrossCheckError("LP dual is not feasible")
    if res.value != dot(c, x) or dot(res.y, b) != res.value:
        raise CrossCheckError("LP dual value differs from the optimum")
    return res


def feasible_point(a_rows, b):
    """A nonnegative solution of A x = b, or the Farkas certificate.

    Returns (x, None) when feasible, (None, y) with A^T y <= 0 and
    y . b > 0 when not.
    """
    n = len(a_rows[0]) if a_rows else 0
    res = solve_lp(a_rows, b, [Fraction(0)] * n)
    if res.status == "infeasible":
        return None, res.y
    return res.x, None
