"""Exact linear algebra over small commutative scalar domains.

Everything here operates on plain Python scalars, ``int`` for integer and
residue work and :class:`fractions.Fraction` for rationals, arranged as
lists of row lists. Matrices are desk scale (at most a few dozen rows), so
the algorithms favour exactness and clarity over asymptotics. There is no
floating point anywhere.

Over the fields Q and Z/p one Gauss-Jordan elimination (``_rref``) serves
both nullspaces; a field is only its canonical-value map and its inversion.
A composite modulus n eliminates on least residues mod n (``kernel_mod``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    m = [[int(e) for e in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions (or ints)."""
    n = len(rows)
    scale = Fraction(1)
    int_rows = []
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
        fr = [Fraction(e) for e in r]
        den = lcm(*(f.denominator for f in fr)) if fr else 1
        scale *= den
        int_rows.append([int(f * den) for f in fr])
    return Fraction(det_int(int_rows), 1) / scale if n else Fraction(1)


def det_mod(rows: list[list[int]], modulus: int) -> int:
    """Determinant of an integer matrix reduced modulo ``modulus``."""
    return det_int(rows) % modulus


# A field on plain scalars is a pair (normal, inverse): ``normal`` maps an int
# or a field value to its canonical representative, ``inverse`` inverts a
# nonzero canonical value.
_RATIONALS = (Fraction, lambda x: 1 / x)


def _prime_field(p: int):
    """Z/p with least nonnegative residues; p must be prime."""
    return (lambda x: x % p, lambda x: pow(x, -1, p))


def _rref(m: list[list], field) -> list[int]:
    """Reduce ``m``, whose entries are canonical in ``field``, in place to
    reduced row echelon form over the field; return the pivot columns."""
    normal, inverse = field
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = inverse(m[r][c])
        m[r] = [normal(e * inv) for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [normal(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def _nullspace(rows: list[list], ncols: int, field) -> list[tuple]:
    """Basis of {x : rows . x = 0} over ``field``, deterministic order.

    One basis vector per free column, with a 1 in the free position.
    """
    normal = field[0]
    zero, one = normal(0), normal(1)
    m = [[normal(e) for e in r] for r in rows]
    m = [r for r in m if any(r)]
    pivots = _rref(m, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for pi, pc in enumerate(pivots):
            v[pc] = normal(-m[pi][fc])
        basis.append(tuple(v))
    return basis


def nullspace_rational(rows: list[list], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel over the rationals."""
    return _nullspace(rows, ncols, _RATIONALS)


def nullspace_mod_prime(rows: list[list[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """Basis of the kernel of an integer matrix over the prime field Z/p."""
    return _nullspace(rows, ncols, _prime_field(p))


def span_mod(vectors, ncols: int, modulus: int):
    """Every sum c_1 v_1 + ... + c_k v_k over Z/modulus with each c_j below
    the additive order of v_j, as tuples of least residues in a fixed order:
    the whole span, each member once, when it is the direct sum of the
    cyclic groups the v_j generate."""
    orders = [modulus // gcd(modulus, *v) for v in vectors]
    cols = [[v[i] for v in vectors] for i in range(ncols)]
    for combo in itertools.product(*map(range, orders)):
        yield tuple(sum(c * x for c, x in zip(combo, col)) % modulus for col in cols)


def kernel_mod(rows: list[list[int]], ncols: int, modulus: int):
    """Solutions of rows . x = 0 over Z/modulus, for any modulus, as
    ``(count, solutions)``: each solution once, as least residues.

    Euclidean row and column steps diagonalize the system, reducing every
    entry and the column transform mod ``modulus`` after each step, so no
    integer outgrows it; a diagonal entry d leaves gcd(d, modulus) values
    for its unknown."""
    n = modulus
    a = [[e % n for e in r] for r in rows]
    nrows = len(a)
    # the column transform by columns: x = sum of y_j * cols[j]
    cols = [[int(i == j) for i in range(ncols)] for j in range(ncols)]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        cols[j], cols[k] = cols[k], cols[j]

    def add_col(dst, src, q):
        # column dst  -=  q * column src
        for row in a:
            row[dst] = (row[dst] - q * row[src]) % n
        cols[dst] = [(x - q * y) % n for x, y in zip(cols[dst], cols[src])]

    t = 0
    while t < min(nrows, ncols):
        pivot = next(((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]), None)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [(x - q * y) % n for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1
    gs = [gcd(a[j][j] if j < t else 0, n) for j in range(ncols)]
    # the transform is invertible mod n, so column j times n / g_j has order g_j
    gens = [[n // g * x % n for x in col] for g, col in zip(gs, cols)]
    return prod(gs), span_mod(gens, ncols, n)


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    fr = [Fraction(e) for e in vec]
    den = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * den) for f in fr]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
