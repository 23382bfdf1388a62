"""The scalar-base protocol: ``det`` and ``kernel`` of Z, Q and Z/n against
independent oracles, and the centralizers built on ``kernel`` against
exhaustive commutator scans."""

import itertools
import random
from math import gcd

import pytest

from cyclesplit.examples import example1_algebra
from cyclesplit.rings import (
    PRIMALITY_BOUND,
    MatrixRing,
    ResidueRing,
    UnsupportedOperationError,
    centralizer_of_set,
    commutator,
    parse_ring_spec,
)
from helpers import (
    C2_OVER_UT2,
    RANK1_OVER_MAT2,
    det_permutation_oracle,
    flatten_blocks,
    random_element,
    table_algebra,
)

SCALAR_SPECS = ("Z", "Q", "Zmod:5", "Zmod:6")


def _rows(ring, rng, nrows, ncols):
    return [[random_element(ring, rng).payload for _ in range(ncols)] for _ in range(nrows)]


def _apply(ring, rows, vec):
    return [ring.element(sum(a * b for a, b in zip(row, vec))).payload for row in rows]


def _rank_oracle(rows, ncols):
    """Size of the largest nonsingular minor, by permutation expansion."""
    for k in range(min(len(rows), ncols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(ncols), k):
                if det_permutation_oracle([[rows[r][c] for c in ci] for r in ri]) != 0:
                    return k
    return 0


def _brute_solutions(ring, rows, rhs, ncols):
    n = ring.modulus
    return {
        x
        for x in itertools.product(range(n), repeat=ncols)
        if _apply(ring, rows, x) == [ring.element(b).payload for b in rhs]
    }


@pytest.mark.parametrize("spec", SCALAR_SPECS)
def test_det_matches_permutation_expansion(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(11)
    for n in range(5):
        for trial in range(12):
            rows = _rows(ring, rng, n, n)
            if trial % 3 == 0 and n >= 2:
                rows[-1] = list(rows[0])  # singular
            assert ring.det(rows) == ring.element(det_permutation_oracle(rows)).payload


@pytest.mark.parametrize("spec", ("Zmod:5", "Zmod:6"))
def test_kernel_mod_n_matches_brute_force(spec):
    ring = parse_ring_spec(spec)
    n = ring.modulus
    rng = random.Random(12)
    for ncols in range(1, 5):
        for nrows in range(4):
            rows = _rows(ring, rng, nrows, ncols)
            brute = _brute_solutions(ring, rows, [0] * nrows, ncols)
            basis, count, solutions = ring.kernel(rows, ncols)
            listed = list(solutions)
            assert count == len(brute) == len(listed)
            assert set(listed) == brute
            if ring.is_prime:
                assert n ** len(basis) == count
                assert all(tuple(v) in brute for v in basis)
            else:
                assert basis is None


def test_is_prime_matches_trial_division():
    def trial(n):
        return all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(2, 20000) if ResidueRing(n).is_prime] == [
        n for n in range(2, 20000) if trial(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_moduli():
    # Carmichael numbers, the least strong pseudoprime to bases 2 to 7, to
    # bases 2 to 31 and to bases 2 to 37: each is composite
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not ResidueRing(n).is_prime
    for n in (10**16 + 61, 10**18 + 3):
        assert ResidueRing(n).is_prime
    # from the bound on, a witness of compositeness still decides; a modulus
    # that passes every base is refused, prime (2^89 - 1) or not (the bound,
    # a strong pseudoprime to every base)
    assert not ResidueRing((10**16 + 61) * (10**18 + 3)).is_prime
    for n in (2**89 - 1, PRIMALITY_BOUND):
        with pytest.raises(UnsupportedOperationError, match=str(PRIMALITY_BOUND)):
            ResidueRing(n).is_prime


@pytest.mark.parametrize("spec", ("Z", "Q"))
def test_kernel_over_z_and_q_against_rank(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(14)
    for ncols in range(1, 5):
        for nrows in range(4):
            rows = _rows(ring, rng, nrows, ncols)
            if nrows >= 2:
                rows[-1] = [2 * e for e in rows[0]]  # force a dependent row
            basis, count, solutions = ring.kernel(rows, ncols)
            assert count is None and solutions is None
            assert len(basis) == ncols - _rank_oracle(rows, ncols)
            assert _rank_oracle([list(v) for v in basis], ncols) == len(basis)
            for v in basis:
                assert _apply(ring, rows, v) == [ring._zero] * nrows
                if spec == "Z":
                    assert all(isinstance(e, int) for e in v)
                    assert gcd(*v) == 1
                    assert next(e for e in v if e) > 0


# spec, innermost scalar ring, number of scalar coordinates, side of the
# scalar matrix
TOWERS = (
    ("Zmod:6", "Zmod:6", 1, 1),
    ("Q", "Q", 1, 1),
    ("UT:2:Z", "Z", 3, 2),
    ("Mat:2:Mat:2:Zmod:2", "Zmod:2", 16, 4),
    ("UT:2:Mat:2:Zmod:3", "Zmod:3", 12, 4),
    ("Mat:1:UT:2:Q", "Q", 3, 2),
)


@pytest.mark.parametrize("spec, scalar_spec, ncoords, side", TOWERS)
def test_scalar_coordinates_invert_and_the_scalar_matrix_multiplies(
    spec, scalar_spec, ncoords, side
):
    ring = parse_ring_spec(spec)
    scalar = ring.scalar_ring
    assert scalar == parse_ring_spec(scalar_spec)
    rng = random.Random(17)
    for _ in range(20):
        x, y = random_element(ring, rng), random_element(ring, rng)
        coords, mx = ring.scalar_coords(x.payload), ring.scalar_matrix(x.payload)
        assert len(coords) == ncoords and len(mx) == side and all(len(r) == side for r in mx)
        assert ring.from_scalar_coords(coords) == x.payload
        assert ring.from_scalar_matrix(mx) == x.payload
        my = ring.scalar_matrix(y.payload)
        product = [
            [scalar.element(sum(a * b for a, b in zip(row, col))).payload for col in zip(*my)]
            for row in mx
        ]
        assert ring.scalar_matrix((x * y).payload) == product


CENTRALIZER_RINGS = {
    "Mat:2:Zmod:4": lambda: parse_ring_spec("Mat:2:Zmod:4"),
    "Mat:2:Zmod:5": lambda: parse_ring_spec("Mat:2:Zmod:5"),
    "UT:3:Zmod:2": lambda: parse_ring_spec("UT:3:Zmod:2"),
    "UT:2:UT:2:Zmod:2": lambda: parse_ring_spec("UT:2:UT:2:Zmod:2"),
    "example1 over Zmod:5": lambda: example1_algebra(ResidueRing(5)),
    "example1 over Zmod:6": lambda: example1_algebra(ResidueRing(6)),
    # over a noncommutative base, even where the table's own basis commutes
    "Table over Mat:2:Zmod:2": lambda: table_algebra(RANK1_OVER_MAT2),
    "Mat:1 of Table over Mat:2:Zmod:2": lambda: MatrixRing(1, table_algebra(RANK1_OVER_MAT2)),
    "C2 over UT:2:Zmod:2": lambda: table_algebra(C2_OVER_UT2),
}


@pytest.mark.parametrize("name", sorted(CENTRALIZER_RINGS))
def test_centralizer_matches_commutator_scan(name):
    ring = CENTRALIZER_RINGS[name]()
    rng = random.Random(16)
    elements = list(ring.elements())
    gen_sets = [[], [ring.one()]]
    gen_sets += [[random_element(ring, rng)] for _ in range(3)]
    gen_sets += [[random_element(ring, rng), random_element(ring, rng)] for _ in range(2)]
    for gens in gen_sets:
        desc = centralizer_of_set(ring, gens)
        scan = [x.payload for x in elements if all(commutator(x, g).is_zero for g in gens)]
        assert desc.count == len(scan)
        assert [e.payload for e in desc.elements] == scan  # both in payload order
        if desc.basis is not None:
            assert all(commutator(b, g).is_zero for b in desc.basis for g in gens)


def test_centralizer_over_a_matrix_base_matches_the_flat_ring():
    ring = parse_ring_spec("Mat:2:Mat:2:Zmod:2")
    flat = parse_ring_spec("Mat:4:Zmod:2")
    one, zero = ((1, 0), (0, 1)), ((0, 0), (0, 0))
    x = ring.element(((one, one), (zero, one)))
    desc = centralizer_of_set(ring, [x])
    flat_desc = centralizer_of_set(flat, [flat.element(flatten_blocks(x.payload))])
    assert desc.count == flat_desc.count == len(desc.elements) == 256
    assert sorted(flatten_blocks(e.payload) for e in desc.elements) == [
        e.payload for e in flat_desc.elements
    ]
    # a basis over Z/2 whose span is the centralizer
    assert 2 ** len(desc.basis) == desc.count
    assert all(commutator(b, x).is_zero for b in desc.basis)
    # the module basis is built from the base's own one and zero
    desc = centralizer_of_set(ring, [])
    assert len(desc.basis) == 4 and desc.elements is None
    assert desc.basis[0] + desc.basis[3] == ring.one()
