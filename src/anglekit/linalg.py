"""Exact linear algebra over the rationals.

Matrices are lists of rows and vectors are lists; entries are int or
Fraction, and a 'p/q' string is read as a Fraction. The elimination
behind rref, nullspace and solve works on Fraction rows. rank scales
each row to integers and eliminates fraction-free, and _rank_mod works
over Z/p. Functions return fresh objects; nothing mutates its input
unless the name says so.
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


def matmul(a, b):
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def is_zero_vec(v):
    return all(a == 0 for a in v)


def rref_in_place(m, ncols=None):
    """Reduce m to reduced row echelon form. Returns the pivot column list.

    Pivots are chosen only among the first ncols columns (all by default),
    so trailing columns can carry an augmented part.
    """
    rows = len(m)
    if rows == 0:
        return []
    for i in range(rows):
        # int rows would hit true division at the pivot step; keep it exact
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


def rref(m):
    work = [list(row) for row in m]
    pivots = rref_in_place(work)
    return work, pivots


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


def rank(m):
    """Rank over Q by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first. After k pivots every remaining
    entry is a (k+1)-minor of the scaled matrix, so the division by the
    previous pivot is exact and no gcd is ever taken.
    """
    work = []
    for row in m:
        ints = _integer_row(row)[1]
        if any(ints):
            work.append(ints)
    r = 0
    prev = 1
    c = 0
    while work:
        piv = None
        for i, row in enumerate(work):
            if row[c]:
                piv = i
                break
        if piv is not None:
            prow = work.pop(piv)
            pv = prow[c]
            rest = []
            for row in work:
                f = row[c]
                if f:
                    row = [(x * pv - f * p) // prev for x, p in zip(row, prow)]
                elif pv != prev:
                    row = [x * pv // prev for x in row]
                if any(row):
                    rest.append(row)
            work = rest
            prev = pv
            r += 1
        c += 1
    return r


MERSENNE_61 = (1 << 61) - 1


def _rank_mod(rows, p=MERSENNE_61):
    """Rank over the field Z/p of a matrix with integer entries.

    Rows are reduced one at a time against the pivots found so far,
    stored sparsely by leading column, so sparse input stays cheap.
    The rank mod p never exceeds the rank over Q; an unlucky prime can
    only make it smaller.
    """
    pivots = {}
    for row in rows:
        r = {}
        for j, x in enumerate(row):
            if x.denominator != 1:
                raise ValueError("non-integer entry %s in column %d" % (x, j))
            x = int(x) % p
            if x:
                r[j] = x
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in r.items()}
                break
            f = r[lead]
            for j, x in piv.items():
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
    work = [list(row) for row in m]
    pivots = rref_in_place(work)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            x[pcol] = -work[r][fcol]
        basis.append(x)
    return basis


def solve(m, b):
    """Solve m x = b exactly.

    Returns (x, None) with one particular solution (free variables 0), or
    (None, y) with an inconsistency certificate: y m = 0 and y . b = 1.
    """
    rows = len(m)
    n = len(m[0]) if rows else 0
    aug = [list(m[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(rows)]
           + [fr(b[i])] for i in range(rows)]
    pivots = rref_in_place(aug, ncols=n)
    for r in range(rows):
        if all(aug[r][c] == 0 for c in range(n)) and aug[r][n + rows] != 0:
            scale = aug[r][n + rows]
            y = [aug[r][n + j] / scale for j in range(rows)]
            return None, y
    x = [Fraction(0)] * n
    for r, pcol in enumerate(pivots):
        x[pcol] = aug[r][n + rows]
    return x, None


def primitive(v):
    """Scale v by a positive rational to the integer vector with content 1."""
    v = vec(v)
    if is_zero_vec(v):
        return [0] * len(v)
    denom = lcm(*[a.denominator for a in v]) if len(v) > 1 else v[0].denominator
    ints = [int(a * denom) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return [a // g for a in ints]
