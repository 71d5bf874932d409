"""Exact linear programming over the rationals.

A two phase simplex with Bland's rule, in equality standard form:
maximise c . x subject to A x = b, x >= 0. It is exact, and it
surrenders usable dual vectors: an optimal dual for optimal problems
and an infeasibility certificate y with A^T y <= 0 and y . b > 0 for
infeasible ones.

The tableau is kept in integers by integer pivoting (Edmonds 1967;
Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", 1968). Each row of [A | I | b] is multiplied by
the lcm s_i of its denominators. That is a left multiplication by a
positive diagonal matrix, so the rational tableau B^-1 [A | I | b] is
the same for every basis. The integer tableau holds D times it, where
D is the determinant of the current basis (the product of the s_i at
the start), kept positive. A pivot on the entry pv sets every entry
outside the pivot row to (x * pv - f * p) / D, a division that is
always exact, and D to pv. Since D > 0, every sign test and every
ratio comparison reads the same as on the rational tableau, so the
pivots, and hence x and y, are the ones a Fraction tableau would give.
"""

from fractions import Fraction
from math import lcm

from .errors import CrossCheckError
from .linalg import _integer_row, dot, fr


class LPResult:
    def __init__(self, status, x, y, value):
        self.status = status
        self.x = x
        self.y = y
        self.value = value

    def __repr__(self):
        return "LPResult(%s, value=%s)" % (self.status, self.value)


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else fr(x)


def _scaled_system(rows, b):
    """Each row of [A | b] times the lcm of its denominators: the
    integer rows, right-hand sides and scales."""
    a = []
    rhs = []
    scales = []
    for row, bi in zip(rows, b):
        s, ints = _integer_row(list(row) + [bi])
        rhs.append(ints.pop())
        a.append(ints)
        scales.append(s)
    return a, rhs, scales


def _common_denominator(values):
    k = 1
    for v in values:
        if v.denominator != 1:
            k = lcm(k, v.denominator)
    return k


def solve_lp(a_rows, b, c):
    """Maximise c . x over A x = b, x >= 0.

    Returns LPResult with status 'optimal', 'infeasible' or 'unbounded'.
    For 'optimal', x is a vertex solution, value = c . x, and y is an
    optimal dual: A^T y >= c and y . b = value. For 'infeasible', y
    satisfies A^T y <= 0 and y . b > 0. Both dual claims are re-checked
    before returning.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else len(c)
    if len(c) != n:
        raise ValueError("LP has %d columns but %d costs" % (n, len(c)))
    for row in a_rows:
        if len(row) != n:
            raise ValueError("LP row has %d entries, expected %d"
                             % (len(row), n))
    if len(b) != m:
        raise ValueError("LP has %d rows but %d right-hand sides"
                         % (m, len(b)))
    c = [_rational(x) for x in c]
    a, rhs, scales = _scaled_system(a_rows, b)

    # row i is D times the rational row (+-A_i | e_i | |b_i|), where D,
    # the determinant of the artificial basis of the scaled system, is
    # the product of the scales; their lcm would break the exactness of
    # the divisions once two scales share a factor
    sign = []
    d = 1
    for s in scales:
        d *= s
    ncols = n + m
    tab = []
    for i in range(m):
        f = d // scales[i]
        if rhs[i] < 0:
            f = -f
            sign.append(-1)
        else:
            sign.append(1)
        row = [x * f for x in a[i]] + [0] * m
        row[n + i] = d
        row.append(rhs[i] * f)
        tab.append(row)
    basis = [n + i for i in range(m)]

    def pivot(r, col, obj):
        nonlocal d
        prow = tab[r]
        pv = prow[col]
        for i in range(m):
            if i != r:
                row = tab[i]
                f = row[col]
                if f:
                    tab[i] = [(x * pv - f * p) // d for x, p in zip(row, prow)]
                elif pv != d:
                    tab[i] = [x * pv // d for x in row]
        if obj is not None:
            f = obj[col]
            if f:
                obj[:] = [(x * pv - f * p) // d for x, p in zip(obj, prow)]
            elif pv != d:
                obj[:] = [x * pv // d for x in obj]
        basis[r] = col
        if pv < 0:
            # only an eviction pivot can be negative; flip every row so
            # that D stays positive and signs keep their meaning
            for i in range(m):
                tab[i] = [-x for x in tab[i]]
            pv = -pv
        d = pv

    def objective_row(cost):
        # cost is integral: the rational objective row times K D
        obj = [0] * (ncols + 1)
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                obj = [o + cb * x for o, x in zip(obj, tab[i])]
        for j in range(ncols):
            if cost[j]:
                obj[j] -= cost[j] * d
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
            # minimum ratio rhs / entry over positive entries, compared
            # by cross-multiplication; ties go to the lower basic index
            leave = None
            for i in range(m):
                e = tab[i][enter]
                if e > 0:
                    num = tab[i][ncols]
                    if leave is None:
                        leave, best_num, best_e = i, num, e
                        continue
                    lhs = num * best_e
                    other = best_num * e
                    if lhs < other or (lhs == other
                                       and basis[i] < basis[leave]):
                        leave, best_num, best_e = i, num, e
            if leave is None:
                return "unbounded", obj
            pivot(leave, enter, obj)

    # phase 1: drive the artificials to zero
    status, obj = run([0] * n + [-1] * m, range(ncols))
    if status != "optimal":
        raise CrossCheckError("phase 1 ended %s" % (status,))
    if obj[ncols] < 0:
        y = [sign[i] * Fraction(d - obj[n + i], d) for i in range(m)]
        return _recheck(a_rows, b, c, LPResult("infeasible", None, y, None))

    # evict basic artificials where a structural pivot exists
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    pivot(i, j, None)
                    break

    # phase 2 over the structural columns only
    k = _common_denominator(c)
    status, obj = run([x.numerator * (k // x.denominator) for x in c]
                      + [0] * m, range(n))
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][ncols], d)
    y = [sign[i] * Fraction(obj[n + i], k * d) for i in range(m)]
    return _recheck(a_rows, b, c, LPResult("optimal", x, y, dot(c, x)))


def _recheck(rows, b, c, res):
    """Return res after checking its primal and dual claims against
    maximise c . x over rows x = b, x >= 0; raise CrossCheckError on
    the first claim that fails.

    The checks run in integers: with row i scaled by s_i, A^T y is the
    scaled A^T times the vector of y_i / s_i, and that vector times the
    lcm L of its denominators is integral, so A^T y and y . b come out
    multiplied by the positive integer L."""
    a, rhs, scales = _scaled_system(rows, b)
    if len(res.y) != len(a) or (res.x is not None and len(res.x) != len(c)):
        raise CrossCheckError("LP result has the wrong shape")
    big = 1
    dens = [v.denominator * s for v, s in zip(res.y, scales)]
    for den in dens:
        if den != 1:
            big = lcm(big, den)
    w = [v.numerator * (big // den) for v, den in zip(res.y, dens)]
    pairing = [0] * len(c)
    for wi, ai in zip(w, a):
        if wi:
            pairing = [p + wi * x for p, x in zip(pairing, ai)]
    yb = sum(wi * bi for wi, bi in zip(w, rhs))
    if res.status == "infeasible":
        if any(v > 0 for v in pairing) or yb <= 0:
            raise CrossCheckError("infeasibility certificate fails")
        return res
    x = res.x
    if any(xv < 0 for xv in x):
        raise CrossCheckError("LP solution has a negative entry")
    xd = _common_denominator(x)
    xn = [v.numerator * (xd // v.denominator) for v in x]
    for ai, bi in zip(a, rhs):
        if sum(coef * v for coef, v in zip(ai, xn)) != bi * xd:
            raise CrossCheckError("LP solution violates an equation")
    if any(p < big * cj for p, cj in zip(pairing, c)):
        raise CrossCheckError("LP dual is not feasible")
    if res.value != dot(c, x) or Fraction(yb, big) != res.value:
        raise CrossCheckError("LP dual value differs from the optimum")
    return res
