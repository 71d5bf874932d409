"""Exact linear programming over the rationals.

A two phase simplex with Bland's rule, in equality standard form:
maximise c . x subject to A x = b, x >= 0. It is exact, and it
surrenders usable dual vectors: an optimal dual for optimal problems
and an infeasibility certificate y with A^T y <= 0 and y . b > 0 for
infeasible ones.

The tableau is kept in integers by integer pivoting (Edmonds 1967;
Bareiss 1968). Each row of [A | I | b] is multiplied by the lcm of its
denominators, a positive diagonal left factor, so the rational tableau
B^-1 [A | I | b] is the same for every basis. Row i holds L_i times its
rational row, where its level L_i is the basis determinant D (kept
positive) when the row was last touched: as in linalg._gauss_jordan, a
row with 0 in the pivot column is left alone. A pivot on pv brings the
pivot row to level D, sets each entry x of a touched row to (x * pv -
f * p) / L_i, an exact division, and puts those rows and D at level
pv; a negative pivot (only an eviction makes one) negates the pivot
row first. Signs and each ratio rhs_i / e_i read the same at any
positive level, so the pivots, x = rhs_i / L_i and y, read off the
objective row at level D, are those of a Fraction tableau.

A feasible result keeps its tableau: LPResult.rerun runs phase 2 again
with another cost from the basis the last phase 2 ended at, so phase 1
runs once for any number of costs. Every result is re-checked.
"""

from fractions import Fraction
from math import lcm, prod

from .errors import CrossCheckError
from .linalg import _integer_row, dot, fr


class LPResult:
    def __init__(self, status, x, y, value, tableau=None):
        self.status = status
        self.x = x
        self.y = y
        self.value = value
        self._tableau = tableau

    def rerun(self, c):
        """Maximise c . x over the same system, running phase 2 again
        from the basis the last phase 2 on this system ended at. Only a
        result whose phase 1 found a feasible basis can be rerun."""
        if self._tableau is None:
            raise ValueError("a %s LP has no feasible basis to rerun from"
                             % (self.status,))
        return self._tableau.phase2(_costs(c, self._tableau.n))

    def __repr__(self):
        return "LPResult(%s, value=%s)" % (self.status, self.value)


def _costs(c, n):
    if len(c) != n:
        raise ValueError("LP has %d columns but %d costs" % (n, len(c)))
    return [x if isinstance(x, (int, Fraction)) else fr(x) for x in c]


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
    before returning. A feasible result can be rerun with another cost.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else len(c)
    c = _costs(c, n)
    for row in a_rows:
        if len(row) != n:
            raise ValueError("LP row has %d entries, expected %d"
                             % (len(row), n))
    if len(b) != m:
        raise ValueError("LP has %d rows but %d right-hand sides"
                         % (m, len(b)))
    tableau = _Tableau(a_rows, b, n)
    y = tableau.phase1()
    if y is not None:
        return _recheck(a_rows, b, c, LPResult("infeasible", None, y, None))
    return tableau.phase2(c)


class _Tableau:
    """The integer tableau of A x = b, x >= 0 plus one artificial
    column per row. After phase1, phase2 may run any number of times."""

    def __init__(self, a_rows, b, n):
        self.rows, self.b, self.n = a_rows, b, n
        m = len(a_rows)
        a, rhs, scales = _scaled_system(a_rows, b)
        # row i is D times the rational row (+-A_i | e_i | |b_i|), where
        # D, the determinant of the artificial basis of the scaled
        # system, is the product of the scales; their lcm would break
        # the exactness of the divisions once two scales share a factor
        self.d = d = prod(scales)
        self.sign = [-1 if v < 0 else 1 for v in rhs]
        self.tab = []
        for i, (ai, s, sign) in enumerate(zip(a, scales, self.sign)):
            f = sign * (d // s)
            row = [x * f for x in ai] + [0] * m
            row[n + i] = d
            row.append(rhs[i] * f)
            self.tab.append(row)
        self.level = [d] * m
        self.basis = [n + i for i in range(m)]

    def pivot(self, r, col, obj):
        tab, level, d = self.tab, self.level, self.d
        prow = tab[r]
        if level[r] != d:
            prow = tab[r] = [x * d // level[r] for x in prow]
        pv = prow[col]
        if pv < 0:
            # only an eviction pivot can be negative; the rows it touches
            # then come out negated too, at the positive level -pv
            prow = tab[r] = [-x for x in prow]
            pv = -pv
        level[r] = pv
        for i, row in enumerate(tab):
            f = row[col]
            if f and i != r:
                lv = level[i]
                tab[i] = [(x * pv - f * p) // lv for x, p in zip(row, prow)]
                level[i] = pv
        if obj is not None:
            # the entering column is negative in the objective row,
            # so every pivot touches it and it stays at level D
            f = obj[col]
            obj[:] = [(x * pv - f * p) // d for x, p in zip(obj, prow)]
        self.basis[r] = col
        self.d = pv

    def objective_row(self, cost):
        # cost is integral: the rational objective row times K D, each
        # basic row with a cost brought to level D first
        tab, level, d = self.tab, self.level, self.d
        obj = [0] * (len(cost) + 1)
        for i, j in enumerate(self.basis):
            cb = cost[j]
            if cb:
                if level[i] != d:
                    tab[i] = [x * d // level[i] for x in tab[i]]
                    level[i] = d
                obj = [o + cb * x for o, x in zip(obj, tab[i])]
        for j, cj in enumerate(cost):
            if cj:
                obj[j] -= cj * d
        return obj

    def run(self, cost, allowed):
        tab, basis = self.tab, self.basis
        obj = self.objective_row(cost)
        while True:
            enter = None
            for j in allowed:
                if obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal", obj
            # minimum ratio rhs / entry over positive entries, compared
            # by cross-multiplication (a row's level scales both alike);
            # ties go to the lower basic index
            leave = None
            for i, row in enumerate(tab):
                e = row[enter]
                if e > 0:
                    num = row[-1]
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
            self.pivot(leave, enter, obj)

    def phase1(self):
        """Drive the artificials to zero and evict the basic ones a
        structural pivot can: a certificate y if infeasible, else None."""
        m, n = len(self.tab), self.n
        status, obj = self.run([0] * n + [-1] * m, range(n + m))
        if status != "optimal":
            raise CrossCheckError("phase 1 ended %s" % (status,))
        d = self.d
        if obj[-1] < 0:
            return [s * Fraction(d - obj[n + i], d)
                    for i, s in enumerate(self.sign)]
        for i in range(m):
            if self.basis[i] >= n:
                row = self.tab[i]
                for j in range(n):
                    if row[j] != 0:
                        self.pivot(i, j, None)
                        break
        return None

    def phase2(self, c):
        """Maximise c . x over the structural columns from the current
        feasible basis; the result is re-checked against (A, b, c)."""
        n = self.n
        k = _common_denominator(c)
        status, obj = self.run([x.numerator * (k // x.denominator) for x in c]
                               + [0] * len(self.tab), range(n))
        if status == "unbounded":
            return LPResult("unbounded", None, None, None, self)
        x = [Fraction(0)] * n
        for i, j in enumerate(self.basis):
            if j < n:
                x[j] = Fraction(self.tab[i][-1], self.level[i])
        kd = k * self.d
        y = [s * Fraction(obj[n + i], kd) for i, s in enumerate(self.sign)]
        return _recheck(self.rows, self.b, c,
                        LPResult("optimal", x, y, dot(c, x), self))


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
