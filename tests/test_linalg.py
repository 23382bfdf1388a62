import random
from fractions import Fraction
from math import gcd

import pytest

from cyclesplit import linalg
from helpers import det_permutation_oracle, solve_rational


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_int_matches_permutation_expansion(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert linalg.det_int(rows) == det_permutation_oracle(rows)


def test_det_int_singular():
    assert linalg.det_int([[1, 2], [2, 4]]) == 0
    assert linalg.det_int([[0, 0], [0, 0]]) == 0


def test_det_fraction_matches_oracle():
    rng = random.Random(7)
    for _ in range(25):
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
            for _ in range(3)
        ]
        assert linalg.det_fraction(rows) == det_permutation_oracle(rows)


def test_det_mod():
    rng = random.Random(8)
    for modulus in (2, 6, 12):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            assert linalg.det_mod(rows, modulus) == det_permutation_oracle(rows) % modulus


def test_nullspace_rational_kernel_property():
    rng = random.Random(9)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        basis = linalg.nullspace_rational(rows, ncols)
        for v in basis:
            for r in rows:
                assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0
        # rank-nullity: pivots + free = ncols
        m = [[Fraction(e) for e in r] for r in rows if any(r)]
        pivots = linalg._rref(m, linalg._RATIONALS) if m else []
        assert len(basis) == ncols - len(pivots)


def test_nullspace_mod_prime_matches_brute_force():
    rng = random.Random(10)
    for p in (2, 3, 5):
        for _ in range(10):
            ncols = rng.randint(1, 3)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(2)]
            basis = linalg.nullspace_mod_prime(rows, ncols, p)
            # brute force the kernel and compare counts
            import itertools

            brute = [
                v
                for v in itertools.product(range(p), repeat=ncols)
                if all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)
            ]
            assert len(brute) == p ** len(basis)
            for v in basis:
                assert all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)


def test_solve_rational():
    # the test oracle of the matrix-unit re-derivation in test_acceptance
    rows = [[1, 2], [3, 4]]
    sol = solve_rational(rows, [5, 6])
    assert sol is not None
    assert [sum(Fraction(a) * b for a, b in zip(r, sol)) for r in rows] == [5, 6]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    # a row swap, and a free variable set to 0
    assert solve_rational([[0, 1], [1, 0]], [3, 4]) == (4, 3)
    assert solve_rational([[1, 1, 0], [0, 0, 2]], [2, 1]) == (2, 0, Fraction(1, 2))


def test_kernel_mod_matches_brute_force():
    import itertools

    rng = random.Random(12)
    for modulus in (2, 4, 6, 12, 36):
        for _ in range(10):
            # up to 4 x 4 systems; 3 unknowns mod 36 keep the scan at 36^3
            ncols = rng.randint(1, 3 if modulus == 36 else 4)
            nrows = rng.randint(1, 4)
            rows = [[rng.randint(-40, 40) for _ in range(ncols)] for _ in range(nrows)]
            count, solutions = linalg.kernel_mod(rows, ncols, modulus)
            listed = list(solutions)
            brute = sorted(
                v
                for v in itertools.product(range(modulus), repeat=ncols)
                if all(sum(a * b for a, b in zip(r, v)) % modulus == 0 for r in rows)
            )
            assert sorted(listed) == brute
            assert count == len(listed) == len(brute)


def test_primitive_integer_vector():
    assert linalg.primitive_integer_vector(
        [Fraction(1, 2), Fraction(1, 3)]
    ) == (3, 2)
    assert linalg.primitive_integer_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    v = linalg.primitive_integer_vector([Fraction(6), Fraction(9)])
    assert v == (2, 3) and gcd(*v) == 1
