"""Exact linear algebra over the rationals.

Matrices are lists of rows and vectors are lists; entries are int or
Fraction, and a 'p/q' string is read as a Fraction. Exact elimination
never divides a Fraction: each row is scaled to integers and eliminated
fraction-free (Bareiss 1968) by _pivot_step, the one row update of the
package, which states the level rule. rank runs it as forward
elimination, and one Gauss-Jordan pass (_gauss_jordan) is behind rref,
nullspace and solve, which read their Fraction results off its integer
rows; the simplex of lp pivots with it too. _rank_mod works over Z/p,
and _rank_residues on rows reduced mod p once by _residues. The public
functions return fresh objects and never mutate their input.
"""

from fractions import Fraction
from math import gcd, lcm


def fr(x):
    """Coerce to Fraction. Accepts int, Fraction, or a 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries):
    return [fr(x) for x in entries]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot of vectors of lengths %d and %d"
                         % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v) if a), Fraction(0))


def matvec(m, v):
    return [dot(row, v) for row in m]


def _integer_row(row):
    """(s, ints): s the lcm of the denominators of row, ints the entries
    times s."""
    s = 1
    try:
        for x in row:
            if x.denominator != 1:
                s = lcm(s, x.denominator)
    except AttributeError:
        return _integer_row([fr(x) for x in row])
    if s == 1:
        return 1, [x.numerator for x in row]
    return s, [x.numerator * (s // x.denominator) for x in row]


def _pivot_step(rows, level, r, c, d):
    """One fraction-free (Bareiss) pivot on entry (r, c), in place.

    Row i holds level[i] times its rational row, its level the pivot it
    was last brought to, and d is the level of the last pivot; every
    level is positive. Row r is brought to level d and negated if its
    entry pv in column c is negative. In each other row with an entry f
    != 0 in column c, each entry x becomes (x pv - f p) / level[i], p
    the pivot row's entry in the same column: an exact division, since
    the result is pv times the row's new rational row. Those rows and
    row r go to level pv; a row with 0 in column c is unchanged
    rationally and is left alone, to be rescaled only when next used.
    Returns pv = |pivot| > 0.
    """
    prow = rows[r]
    if level[r] != d:
        prow = [x * d // level[r] for x in prow]
    if prow[c] < 0:
        prow = [-x for x in prow]
    rows[r] = prow
    level[r] = pv = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            lv = level[i]
            rows[i] = [(x * pv - f * p) // lv for x, p in zip(row, prow)]
            level[i] = pv
    return pv


def _gauss_jordan(m, ncols):
    """Fraction-free Gauss-Jordan elimination of m, rows scaled to
    integers, pivoting among the first ncols columns in order, each in
    the first nonzero row at or below the next pivot row: the pivots and
    row order are those of the Fraction elimination.

    Returns (rows, pivots, d), d > 0 the last pivot step's pivot and
    every row brought to level d: pivot row r is d times row r of the
    reduced row echelon form, so it holds d in its pivot column.
    """
    rows = [_integer_row(row)[1] for row in m]
    level = [1] * len(rows)
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        level[r], level[pr] = level[pr], level[r]
        d = _pivot_step(rows, level, r, c, d)
        pivots.append(c)
    rows = [row if lv == d else [x * d // lv for x in row]
            for row, lv in zip(rows, level)]
    return rows, pivots, d


def rref(m):
    """(reduced row echelon form of m as Fraction rows, pivot columns)."""
    rows, pivots, d = _gauss_jordan(m, len(m[0]) if m else 0)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def rank(m):
    """Rank over Q by fraction-free forward elimination: each pivot row
    is used once by _pivot_step and then dropped."""
    work = [_integer_row(row)[1] for row in m]
    level = [1] * len(work)
    d = 1
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i, row in enumerate(work) if row[c]), None)
        if piv is not None:
            d = _pivot_step(work, level, piv, c, d)
            del work[piv], level[piv]
    return len(m) - len(work)


MERSENNE_61 = (1 << 61) - 1


def _residues(row, p=MERSENNE_61):
    """An integer row mod p, as a sparse {column: residue} dict."""
    r = {}
    for j, x in enumerate(row):
        if x:
            if x.denominator != 1:
                raise ValueError("non-integer entry %s in column %d"
                                 % (x, j))
            x = int(x) % p
            if x:
                r[j] = x
    return r


def _rank_mod(rows, p=MERSENNE_61):
    """Rank over the field Z/p of a matrix with integer entries. It never
    exceeds the rank over Q; an unlucky prime can only make it smaller."""
    return _rank_residues([_residues(row, p) for row in rows], None, p)


def _rank_residues(rows, cap=None, p=MERSENNE_61):
    """Rank over Z/p of rows from _residues, counted no further than cap.

    Rows are reduced one at a time against the pivots found so far, kept
    sparse by leading column with the inverse of their leading entry."""
    pivots = {}
    for row in rows:
        if len(pivots) == cap:
            break
        r = dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (pow(r[lead], -1, p), r)
                break
            inv, prow = piv
            f = r[lead] * inv % p
            for j, x in prow.items():
                v = (r.get(j, 0) - f * x) % p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)


def nullspace(m, ncols=None):
    """Basis of {x : m x = 0} as a list of vectors, one per free column."""
    if ncols is None:
        ncols = len(m[0]) if m else 0
    if not m:
        return [ [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
                 for i in range(ncols) ]
    work, pivots, d = _gauss_jordan(m, len(m[0]))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            x[pcol] = Fraction(-work[r][fcol], d)
        basis.append(x)
    return basis


def solve(m, b):
    """Solve m x = b exactly.

    Returns (x, None) with one particular solution (free variables 0), or
    (None, y) with an inconsistency certificate: y m = 0 and y . b = 1.
    """
    rows = len(m)
    n = len(m[0]) if rows else 0
    aug = [list(m[i]) + [int(j == i) for j in range(rows)] + [b[i]]
           for i in range(rows)]
    aug, pivots, d = _gauss_jordan(aug, n)
    # the rows past the pivots vanish on the first n columns
    for row in aug[len(pivots):]:
        if row[n + rows]:
            return None, [Fraction(x, row[n + rows]) for x in row[n:-1]]
    x = [Fraction(0)] * n
    for r, pcol in enumerate(pivots):
        x[pcol] = Fraction(aug[r][n + rows], d)
    return x, None


def primitive(v):
    """Scale v by a positive rational to the integer vector with content 1."""
    v = vec(v)
    if not any(v):
        return [0] * len(v)
    denom = lcm(*[a.denominator for a in v]) if len(v) > 1 else v[0].denominator
    ints = [int(a * denom) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return [a // g for a in ints]
