"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from cyclesplit.endo import ClassificationError, CycleFamily, EndoFamily, RootFamily
from cyclesplit.ncpoly import poly
from cyclesplit.rings import Ring, TableAlgebra, TableAlgebraDescriptor, parse_ring_spec


# strings that are no rational literal: the grammar is an optional "-", ASCII
# digits, then optionally "/" and ASCII digits
BAD_RATIONAL_LITERALS = (
    "1/", " 1/2", "+1/2", "1_000/3", "\uff13/4", "1/0", "", "-", "/2", "1/-2",
    "--1", "1/2/3", "1/2 ", "0x1",
)

# command lines whose numbers are no ASCII decimal numeral, the rule that
# ring specs and rational literals follow too: non-ASCII digits, "_", a
# space or a "+" in --n, --p or --k (a "-" only on --k), and non-ASCII
# digits or whitespace in polynomial text
BAD_NUMERAL_ARGVS = (
    ("endos", "--p", "\uff13"),
    ("endos", "--p", "1_1"),
    ("export", "--p", "-3", "--table", "monoid"),
    ("search", "--ring", "Zmod:3", "--poly", "X^2", "--n", "\uff12"),
    ("search", "--ring", "Zmod:3", "--poly", "X^2", "--n", "0_2"),
    ("search", "--ring", "Zmod:3", "--poly", "X^2", "--n", " 2"),
    ("search", "--ring", "Zmod:3", "--poly", "X^2", "--n", "+2"),
    ("rotate", "--witness", '{"ring":"Zmod:3","leading":1,"pseudoroots":[1,2]}', "--k", "\u0661"),
    ("rotate", "--witness", '{"ring":"Zmod:3","leading":1,"pseudoroots":[1,2]}', "--k", "1_0"),
    ("roots", "--ring", "Q", "--poly", "\uff13*X"),
    ("roots", "--ring", "Zmod:5", "--poly", "X^\uff12 - 1"),
    ("roots", "--ring", "Zmod:5", "--poly", "X\u3000+ 1"),
    ("roots", "--ring", "Zmod:5", "--poly", "X\u00a0+ 1"),
    ("roots", "--ring", "Zmod:5", "--poly", "X +\u2003 1"),
)

# table algebras over a noncommutative base, as descriptor JSON: Mat:2:Zmod:2
# presented as a rank-1 table, and the group algebra of C2 over UT:2:Zmod:2
RANK1_OVER_MAT2 = {
    "basis_size": 1,
    "structure_constants": [[[1]]],
    "unit_vector": [1],
    "base": "Mat:2:Zmod:2",
}
C2_OVER_UT2 = {
    "basis_size": 2,
    "structure_constants": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    "unit_vector": [1, 0],
    "base": "UT:2:Zmod:2",
}


def table_algebra(descriptor_json) -> TableAlgebra:
    """The table algebra of descriptor JSON, built without a file."""
    d = descriptor_json
    descriptor = TableAlgebraDescriptor(d["basis_size"], d["structure_constants"], d["unit_vector"])
    return TableAlgebra(descriptor, parse_ring_spec(d["base"]))


def solve_rational(rows, rhs):
    """One rational solution of rows . x = rhs, free variables set to 0, or
    None when there is none: Gaussian elimination on the augmented matrix,
    written out independently of ``cyclesplit.linalg``."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []  # (row, column) of each pivot, top to bottom
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        m[r] = [e / m[r][col] for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
    if any(all(e == 0 for e in row[:ncols]) and row[ncols] != 0 for row in m):
        return None  # a row 0 = b with b nonzero
    x = [Fraction(0)] * ncols
    for r, col in pivots:
        x[col] = m[r][ncols]
    return tuple(x)


def det_permutation_oracle(rows):
    """Reference determinant by signed permutation expansion. O(n!)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def flatten_blocks(payload):
    """The block isomorphism Mat(2, Mat(2, R)) -> Mat(4, R), written out
    independently of the library: block (i, j) fills rows 2i, 2i+1 and
    columns 2j, 2j+1."""
    return tuple(
        tuple(payload[r // 2][c // 2][r % 2][c % 2] for c in range(4)) for r in range(4)
    )


def random_element(ring: Ring, rng: random.Random):
    """Deterministic pseudo-random element of any supported ring."""
    card = ring.cardinality
    if card is not None and card <= 4096:
        elems = getattr(ring, "_cached_elems", None)
        if elems is None:
            elems = list(ring.elements())
            ring.__dict__["_cached_elems"] = elems
        return rng.choice(elems)
    return ring.element(_random_payload(ring, rng))


def _random_payload(ring: Ring, rng: random.Random):
    from cyclesplit.rings import (
        IntegerRing,
        MatrixRing,
        RationalRing,
        ResidueRing,
        TableAlgebra,
    )

    if isinstance(ring, IntegerRing):
        return rng.randint(-9, 9)
    if isinstance(ring, RationalRing):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(ring, ResidueRing):
        return rng.randrange(ring.modulus)
    if isinstance(ring, MatrixRing):
        k = ring.size
        grid = [[ring.base._zero for _ in range(k)] for _ in range(k)]
        for r in range(k):
            start = r if ring.upper_triangular else 0
            for c in range(start, k):
                grid[r][c] = _random_payload(ring.base, rng)
        return tuple(tuple(row) for row in grid)
    if isinstance(ring, TableAlgebra):
        return tuple(
            _random_payload(ring.base, rng)
            for _ in range(ring.descriptor.basis_size)
        )
    raise TypeError(f"no random payloads for {ring!r}")


def random_poly(ring: Ring, rng: random.Random, max_degree: int):
    deg = rng.randint(0, max_degree)
    return poly(ring, [random_element(ring, rng) for _ in range(deg + 1)])


def poly_add_reference(f, g):
    """Reference sum on Element values, coefficient by coefficient."""
    ring = f.ring

    def coefficient(h, i):
        return h.coeffs[i] if i < len(h.coeffs) else ring.zero()

    n = max(len(f.coeffs), len(g.coeffs))
    return poly(ring, [coefficient(f, i) + coefficient(g, i) for i in range(n)])


def poly_neg_reference(f):
    return poly(f.ring, [-c for c in f.coeffs])


def poly_mul_reference(f, g):
    """Reference product on Element values: (f g)_k is the sum of f_i * g_j
    over i + j = k, with f's coefficient on the left."""
    ring = f.ring
    if f.is_zero or g.is_zero:
        return poly(ring, [])
    out = [ring.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, fi in enumerate(f.coeffs):
        for j, gj in enumerate(g.coeffs):
            out[i + j] = out[i + j] + fi * gj
    return poly(ring, out)


def expand_reference(w):
    """f_n (X - a_1) ... (X - a_n), multiplied out by ``poly_mul_reference``."""
    ring = w.ring
    acc = poly(ring, [w.leading])
    for a in w.pseudoroots:
        acc = poly_mul_reference(acc, poly(ring, [-a, ring.one()]))
    return acc


def product_commutation_check(g, a) -> bool:
    """Check, on this instance, that if g*(X - a) commutes with X - a then g
    does too. Always true (X - a is monic, hence cancelable)."""
    from cyclesplit.ncpoly import x_minus

    h = x_minus(a)
    p = g * h
    if p * h == h * p:
        return g * h == h * g
    return True


def brute_force_census(ring: Ring, f, n: int, mode: str):
    """Reference splitting census: every n-tuple of elements, kept when its
    splitting with f's leading coefficient expands to f (and, in mode
    ``commuting_splittings_only``, satisfies the commutation hypothesis).

    Returns (witnesses, cycle_ids, cycle_count) in the canonical order and
    numbering that ``SearchOutcome`` documents.
    """
    from cyclesplit.splitting import SplittingWitness, commutation_hypothesis, expand

    leading = f.coeffs[-1]
    found = []
    for tup in itertools.product(list(ring.elements()), repeat=n):
        w = SplittingWitness(ring, leading, tup)
        if expand(w) != f:
            continue
        if mode == "commuting_splittings_only" and not commutation_hypothesis(f, tup)[0]:
            continue
        found.append(w)
    found.sort(key=lambda w: tuple(a.payload for a in w.pseudoroots))
    class_of = {}
    cycle_ids = []
    for w in found:
        payloads = tuple(a.payload for a in w.pseudoroots)
        key = min(payloads[k:] + payloads[:k] for k in range(n))
        cycle_ids.append(class_of.setdefault(key, len(class_of)))
    return tuple(found), tuple(cycle_ids), len(class_of)


def monoid_report_reference(p: int):
    """The monoid report's counts the plain way: both composition orders of
    every ordered pair, the neutral law by composing with ``identity_endo``,
    and the automorphisms by a two-sided compositional-inverse search.

    Returns (frozen-order count, reversed-order count, neutral law holds,
    automorphisms in enumeration order).
    """
    from cyclesplit.endo import compose_endos, enumerate_endos, identity_endo

    endos = enumerate_endos(p)
    frozen = reversed_ = 0
    for r in endos:
        for c in endos:
            predicted = predicted_composition(r.family, c.family, p)
            frozen += compose_endos(r, c).family == predicted
            reversed_ += compose_endos(c, r).family == predicted
    ident = identity_endo(p)
    neutral_ok = all(
        compose_endos(e, ident).images == e.images
        and compose_endos(ident, e).images == e.images
        for e in endos
    )
    autos = [
        e
        for e in endos
        if any(
            compose_endos(e, f).images == ident.images
            and compose_endos(f, e).images == ident.images
            for f in endos
        )
    ]
    return frozen, reversed_, neutral_ok, autos


# The per-cell prediction rules, one family tag per cell: the reference that
# the battery's row rules are checked against, cell by cell.


def predicted_composition(f1: EndoFamily, f2: EndoFamily, p: int) -> EndoFamily:
    """Family of compose(e1, e2) predicted by the matrix model M(e1) M(e2)."""
    if f1.kind == "eps" or f1.kind == "eps_prime":
        return EndoFamily(f1.kind)
    if f1.kind == "eps_sigma_s":
        s, v = f1.params
        if f2.kind == "eps":
            return EndoFamily("eps")
        if f2.kind == "eps_prime":
            return EndoFamily("eps_prime")
        if f2.kind == "eps_sigma_s":
            t, u = f2.params
            return EndoFamily("eps_sigma_s", ((s * t) % p, (v * t + u) % p))
        (u,) = f2.params
        return EndoFamily("eps_s", (u,))
    if f1.kind == "eps_s":
        (v,) = f1.params
        if f2.kind == "eps":
            return EndoFamily("eps_prime")
        if f2.kind == "eps_prime":
            return EndoFamily("eps")
        if f2.kind == "eps_sigma_s":
            t, u = f2.params
            return EndoFamily("eps_s", ((v * t + u) % p,))
        (u,) = f2.params
        return EndoFamily("eps_sigma_s", (0, u))
    raise ClassificationError(f"no prediction for {f1!r}")


def predicted_root_action(e: EndoFamily, r: RootFamily, p: int) -> RootFamily:
    if e.kind == "eps":
        if r.kind in ("r_tau", "r_tau_t"):
            return RootFamily("r_tau", (0,))
        return RootFamily("r")
    if e.kind == "eps_prime":
        if r.kind in ("r_tau", "r_t"):
            return RootFamily("r_tau", (0,))
        return RootFamily("r")
    if e.kind == "eps_sigma_s":
        s, v = e.params
        if r.kind == "r_tau":
            return RootFamily("r_tau", ((r.params[0] * s) % p,))
        if r.kind == "r_tau_t":
            t, u = r.params
            return RootFamily("r_tau_t", ((t * s) % p, (u * s + v) % p))
        if r.kind == "r_t":
            return RootFamily("r_t", ((r.params[0] * s + v) % p,))
        return RootFamily("r")
    if e.kind == "eps_s":
        (v,) = e.params
        if r.kind == "r_tau":
            return RootFamily("r_tau", (0,))
        if r.kind == "r_tau_t":
            return RootFamily("r_t", (v,))
        if r.kind == "r_t":
            return RootFamily("r_tau_t", (0, v))
        return RootFamily("r")
    raise ClassificationError(f"no action rule for {e!r}")


def predicted_cycle_action(e: EndoFamily, c: CycleFamily, p: int) -> CycleFamily:
    if e.kind in ("eps", "eps_prime"):
        return CycleFamily("c_tau", (0,))
    if e.kind == "eps_sigma_s":
        s, v = e.params
        if c.kind == "c_tau":
            return CycleFamily("c_tau", ((c.params[0] * s) % p,))
        if c.kind == "c_tau_t":
            t, u = c.params
            return CycleFamily("c_tau_t", ((t * s) % p, (u * s + v) % p))
        # the shift parameter moves: c_t(u) -> c_t(u*s + v)
        return CycleFamily("c_t", ((c.params[0] * s + v) % p,))
    if e.kind == "eps_s":
        (v,) = e.params
        if c.kind == "c_tau":
            return CycleFamily("c_tau", (0,))
        if c.kind == "c_tau_t":
            return CycleFamily("c_t", (v,))
        return CycleFamily("c_tau_t", (0, v))
    raise ClassificationError(f"no action rule for {e!r}")


def divide_linear_reference(f, a, side: str):
    """Reference synthetic division of f by X - a on Element values, the
    recurrence written out for one side at a time: returns (quotient
    coefficients low to high, remainder) with f = q (X - a) + r for
    ``side == "right"`` and f = (X - a) q + r for ``side == "left"``."""
    coeffs = list(f.coeffs)
    if not coeffs:
        return [], f.ring.zero()
    n = len(coeffs) - 1
    q = [None] * n
    if n == 0:
        return q, coeffs[0]
    q[n - 1] = coeffs[n]
    for j in range(n - 1, 0, -1):
        q[j - 1] = coeffs[j] + (q[j] * a if side == "right" else a * q[j])
    r = coeffs[0] + (q[0] * a if side == "right" else a * q[0])
    return q, r


def eval_reference(f, a, side: str):
    """Reference evaluation straight from the definition with powers:
    sum of f_i * a^i for ``side == "right"``, of a^i * f_i for "left"."""
    acc = f.ring.zero()
    for i, c in enumerate(f.coeffs):
        acc = acc + (c * a**i if side == "right" else a**i * c)
    return acc


class CayleyTables:
    """Addition and multiplication tables of a small finite ring on element
    indices (positions in ``ring.elements()``), for exhaustive sweeps.

    ``_add``, ``_mul``, ``_zero`` and ``_one`` are the rings' payload
    protocol names on indices, so ``ncpoly._divide_linear`` runs on indices.
    """

    def __init__(self, ring):
        self.elements = list(ring.elements())
        payloads = [e.payload for e in self.elements]
        index = {p: i for i, p in enumerate(payloads)}
        self.add = [[index[ring._add(x, y)] for y in payloads] for x in payloads]
        self.mul = [[index[ring._mul(x, y)] for y in payloads] for x in payloads]
        self.neg = [index[ring._neg(x)] for x in payloads]
        self._zero = index[ring._zero]
        self._one = index[ring._one]

    def __len__(self):
        return len(self.elements)

    def _add(self, i, j):
        return self.add[i][j]

    def _mul(self, i, j):
        return self.mul[i][j]

    def commutes(self, i, j):
        return self.mul[i][j] == self.mul[j][i]

    def centralizer_indices(self, i):
        return [j for j in range(len(self.elements)) if self.commutes(i, j)]

    def linear_factor_product(self, roots):
        """Coefficient indices (low to high) of (X - a_1)...(X - a_k)."""
        coeffs = [self._one]
        for a in roots:
            na = self.neg[a]
            new = [self._zero] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = self.add[new[i + 1]][c]
                new[i] = self.add[new[i]][self.mul[c][na]]
            coeffs = new
        return tuple(coeffs)


def dense_table_mul(algebra, a, b):
    """Reference table-algebra product: the plain triple loop over every
    structure constant, zeros included, each embedded into the base."""
    base = algebra.base
    m = algebra.descriptor.basis_size
    out = [base._zero] * m
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c = base._from_int(algebra.descriptor.structure_constants[i][j][k])
                out[k] = base._add(out[k], base._mul(base._mul(a[i], b[j]), c))
    return tuple(out)


def assert_cayley_axioms(cache: CayleyTables, block_size: int = 32):
    """Check associativity of + and * and both distributive laws on every
    triple of a finite ring, a block of first operands x at a time, by row
    gathers from the index tables: ``mul[mul_b]`` holds (x*y)*z at [x, y, z]
    and ``np.take(mul_b, mul, axis=1)`` holds x*(y*z)."""
    import numpy as np

    mul = np.array(cache.mul, dtype=np.int16)
    add = np.array(cache.add, dtype=np.int16)
    for start in range(0, len(cache), block_size):
        mul_b = mul[start : start + block_size]  # (block, n): x*y for x in the block
        add_b = add[start : start + block_size]
        # (x*y)*z == x*(y*z)
        assert np.array_equal(mul[mul_b], np.take(mul_b, mul, axis=1))
        # (x+y)+z == x+(y+z)
        assert np.array_equal(add[add_b], np.take(add_b, add, axis=1))
        # x*(y+z) == x*y + x*z
        assert np.array_equal(np.take(mul_b, add, axis=1), add[mul_b[:, :, None], mul_b[:, None, :]])
        # (x+y)*z == x*z + y*z
        assert np.array_equal(mul[add_b], add[mul_b[:, None, :], mul[None, :, :]])
