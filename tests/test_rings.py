import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from cyclesplit.examples import (
    EXAMPLE1_DESCRIPTOR,
    example1_algebra,
    example1_matrices,
    example1_matrix_ring,
    example2_centralizer_element,
    example2_matrices,
    example2_matrix_ring,
    verify_example1_isomorphism,
)
from cyclesplit.rings import (
    Element,
    IntegerRing,
    InfiniteRingError,
    MatrixRing,
    NotInvertibleError,
    RationalRing,
    ResidueRing,
    RingMismatchError,
    SpecParseError,
    TableAlgebra,
    TableAlgebraDescriptor,
    UnsupportedOperationError,
    centralizer_of_set,
    commutator,
    equals,
    generated_subalgebra,
    inverse,
    is_unit,
    parse_ring_spec,
)
from helpers import (
    BAD_RATIONAL_LITERALS,
    RANK1_OVER_MAT2,
    dense_table_mul,
    flatten_blocks,
    random_element,
)

Z = parse_ring_spec("Z")
Q = parse_ring_spec("Q")

SMALL_FINITE_SPECS = ["Zmod:6", "UT:2:Zmod:2", "Mat:2:Zmod:2", "UT:2:Zmod:3"]
SAMPLED_SPECS = ["Z", "Q", "Mat:2:Z", "Mat:3:Zmod:5", "UT:3:Zmod:4"]


def _axiom_triple_check(x, y, z, ring):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    one = ring.one()
    zero = ring.zero()
    assert x + zero == x and x * one == x and one * x == x
    assert x + (-x) == zero


@pytest.mark.parametrize("spec", SMALL_FINITE_SPECS)
def test_ring_axioms_exhaustive_small(spec):
    ring = parse_ring_spec(spec)
    elems = list(ring.elements())
    if len(elems) ** 3 > 30_000:
        elems_sample = elems
        rng = random.Random(1)
        triples = [
            (rng.choice(elems_sample), rng.choice(elems_sample), rng.choice(elems_sample))
            for _ in range(2000)
        ]
    else:
        triples = itertools.product(elems, repeat=3)
    for x, y, z in triples:
        _axiom_triple_check(x, y, z, ring)


def test_ring_axioms_exhaustive_512_elements():
    # a finite ring at the 512-element scale, all 512^3 triples checked by
    # vectorized Cayley-table indexing
    pytest.importorskip("numpy")
    from helpers import CayleyTables, assert_cayley_axioms

    ring = parse_ring_spec("UT:2:Zmod:8")
    assert ring.cardinality == 512
    assert_cayley_axioms(CayleyTables(ring))


def test_commutator_antisymmetry_and_examples():
    rng = random.Random(2)
    for spec in SMALL_FINITE_SPECS + SAMPLED_SPECS:
        ring = parse_ring_spec(spec)
        for _ in range(100):
            x, y = random_element(ring, rng), random_element(ring, rng)
            assert commutator(x, y) == -commutator(y, x)
            assert commutator(x, x).is_zero


def test_unit_law_example_mat2():
    ring = parse_ring_spec("Mat:2:Z")
    a1 = ring.element(((0, 0), (0, 1)))
    assert ring.one() * a1 == a1


def test_residue_modular_reduction():
    r6 = parse_ring_spec("Zmod:6")
    assert (r6.from_int(3) * r6.from_int(2)).is_zero
    assert r6.element(-1).payload == 5
    assert r6.from_int(10).payload == 4


def test_table_algebra_reproduces_multiplication_table():
    algebra = example1_algebra(Z)
    a1, a2, a3 = algebra.basis_elements()
    zero = algebra.zero()
    expected = {
        (0, 0): a1, (0, 1): zero, (0, 2): zero,
        (1, 0): a2, (1, 1): zero, (1, 2): zero,
        (2, 0): -a2, (2, 1): a2, (2, 2): a3,
    }
    basis = (a1, a2, a3)
    for (i, j), want in expected.items():
        assert basis[i] * basis[j] == want
    assert a3 * a1 == -a2
    assert algebra.one() == a1 + a2 + a3


def test_table_descriptor_refuses_rank_zero():
    # rank 0 is the zero ring, where 1 = 0, refused like Zmod:1
    with pytest.raises(ValueError, match="at least 1"):
        TableAlgebraDescriptor(0, (), ())


def test_table_algebra_rejects_nonassociative_table():
    bad = TableAlgebraDescriptor(
        basis_size=2,
        structure_constants=(((0, 1), (1, 0)), ((1, 0), (0, 1))),
        unit_vector=(1, 0),
    )
    with pytest.raises(ValueError):
        TableAlgebra(bad, Z)


# basis (1, e) with e * e = 2e: over Z/2 the constant 2 vanishes; the rank-1
# table presents its base itself, noncommutative over Mat:2:Zmod:2
TABLE_DESCRIPTORS = {
    "example1": EXAMPLE1_DESCRIPTOR,
    "e^2=2e": TableAlgebraDescriptor(
        basis_size=2,
        structure_constants=(((1, 0), (0, 1)), ((0, 1), (0, 2))),
        unit_vector=(1, 0),
    ),
    "rank-1": TableAlgebraDescriptor(
        basis_size=1, structure_constants=(((1,),),), unit_vector=(1,)
    ),
}


@pytest.mark.parametrize(
    "name, spec",
    [
        ("example1", "Zmod:2"),
        ("example1", "Zmod:3"),
        ("example1", "Zmod:4"),
        ("example1", "Z"),
        ("example1", "Q"),
        ("e^2=2e", "Zmod:2"),
        ("e^2=2e", "Zmod:4"),
        ("e^2=2e", "Z"),
        ("rank-1", "Mat:2:Zmod:2"),
    ],
)
def test_table_mul_matches_dense_reference(name, spec):
    # the product plan against the sum of c_ijk a_i b_j over every (i, j, k)
    algebra = TableAlgebra(TABLE_DESCRIPTORS[name], parse_ring_spec(spec))
    base = algebra.base
    # the plan keeps no zero constant and marks each unit constant None
    assert all(c not in (base._zero, base._one) for *_, c in algebra._plan)
    if algebra.is_finite:
        pairs = itertools.product(list(algebra.payloads()), repeat=2)
    else:
        rng = random.Random(spec)
        pairs = [
            (random_element(algebra, rng).payload, random_element(algebra, rng).payload)
            for _ in range(500)
        ]
    for a, b in pairs:
        assert algebra._mul(a, b) == dense_table_mul(algebra, a, b)


def test_pow_examples():
    ut = example1_matrix_ring(Z)
    _, a2, _ = example1_matrices(ut)
    assert (a2 ** 2).is_zero
    assert (a2 ** 0) == ut.one()
    m3 = example2_matrix_ring(Z)
    b1, _, _ = example2_matrices(m3)
    assert (b1 ** 2).payload == ((0, 0, 4), (2, 0, 0), (0, 2, 0))


def test_pow_refuses_a_bool_exponent():
    # the rule of ``Element._coerce``: a bool is not an integer here
    one = parse_ring_spec("Zmod:5").from_int(2)
    assert one ** 1 == one
    for exponent in (True, False, -1, 1.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            one ** exponent


def test_commutator_worked_example_values():
    ut = example1_matrix_ring(Z)
    a1, a2, a3 = example1_matrices(ut)
    assert commutator(a1, a2) == -a2
    assert (-a2).payload == ((0, 1), (0, 0))
    m3 = example2_matrix_ring(Z)
    b1, b2, b3 = example2_matrices(m3)
    assert commutator(b1, b2).payload == ((0, 0, 6), (-6, 0, 0), (0, 3, 0))


def test_enumeration_counts_and_order():
    assert [e.payload for e in parse_ring_spec("Zmod:3").elements()] == [0, 1, 2]
    ut = parse_ring_spec("UT:2:Zmod:2")
    elems = list(ut.elements())
    assert len(elems) == 8
    payloads = [e.payload for e in elems]
    assert payloads == sorted(payloads)
    algebra = example1_algebra(ResidueRing(3))
    assert len(list(algebra.elements())) == 27
    with pytest.raises(InfiniteRingError):
        list(Z.elements())


def test_enumeration_is_deterministic():
    ring = parse_ring_spec("Mat:2:Zmod:2")
    first = [e.payload for e in ring.elements()]
    second = [e.payload for e in ring.elements()]
    assert first == second


@pytest.mark.parametrize(
    "spec", ["Mat:2:Zmod:3", "UT:2:Zmod:4", "UT:3:Zmod:2", "Mat:2:UT:2:Zmod:2", "UT:2:Mat:2:Zmod:2"]
)
def test_matrix_enumeration_is_the_coordinate_product(spec):
    """A matrix ring lists its payloads row by row; that is the order of
    ``from_coords`` over the product of the coordinates."""
    ring = parse_ring_spec(spec)
    base = list(ring.base.payloads())
    expected = [ring.from_coords(c) for c in itertools.product(base, repeat=ring.rank)]
    assert list(ring.payloads()) == expected


def test_generators_decide_centrality(tmp_path):
    """An element is central exactly when it commutes with the ring's
    ``_generators``, and the ring is commutative exactly when every element
    is central: checked against every element of each ring, among them a
    matrix ring and a rank-1 table algebra over a noncommutative base, whose
    generators must include the base's own."""
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(EXAMPLE1_DESCRIPTOR.to_json("Zmod:3")))
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps(RANK1_OVER_MAT2))
    specs = [
        "Zmod:6", "UT:2:Zmod:4", "Mat:2:Zmod:3", "UT:3:Zmod:2", f"Table:{path}",
        "UT:2:Mat:2:Zmod:2", f"Table:{t1}",
    ]
    rings = [parse_ring_spec(s) for s in specs] + [MatrixRing(1, example1_algebra(ResidueRing(2)))]
    for ring in rings:
        elems = list(ring.payloads())
        # the exhaustive test in a seeded order, so a non-central element
        # fails after a few products
        others = random.Random(3).sample(elems, len(elems))
        mul = ring._mul
        centre = {x for x in elems if all(mul(x, y) == mul(y, x) for y in others)}
        for x in elems:
            by_gens = all(mul(x, g) == mul(g, x) for g in ring._generators)
            assert by_gens == (x in centre), (ring.describe(), x)
        assert ring._one in centre
        assert (len(centre) == len(elems)) == ring.is_commutative, ring.describe()


def test_units_and_inverses():
    assert is_unit(Z.one()) and inverse(Z.one()) == Z.one()
    assert is_unit(Z.from_int(-1))
    assert not is_unit(Z.from_int(2))
    with pytest.raises(NotInvertibleError):
        inverse(Z.from_int(2))

    r6 = parse_ring_spec("Zmod:6")
    assert not is_unit(r6.from_int(2))
    assert is_unit(r6.from_int(5))
    assert inverse(r6.from_int(5)) == r6.from_int(5)

    m = parse_ring_spec("Mat:2:Zmod:6")
    x = m.element(((1, 2), (0, 5)))
    assert is_unit(x)
    assert inverse(x) * x == m.one() and x * inverse(x) == m.one()

    q3 = parse_ring_spec("Mat:3:Q")
    y = q3.element(((1, 2, 0), (0, 1, 0), (3, 0, 1)))
    assert is_unit(y) and inverse(y) * y == q3.one()

    # matrices over Z: units need determinant +-1
    mz = parse_ring_spec("Mat:2:Z")
    assert not is_unit(mz.element(((2, 0), (0, 1))))
    u = mz.element(((1, 1), (0, 1)))
    assert is_unit(u) and inverse(u) == mz.element(((1, -1), (0, 1)))


def test_table_algebra_inverse_paths():
    for base_spec in ("Q", "Z", "Zmod:5", "Zmod:6"):
        algebra = example1_algebra(parse_ring_spec(base_spec))
        one = algebra.one()
        assert is_unit(one) and inverse(one) == one
        a1 = algebra.basis_elements()[0]
        assert not is_unit(a1)  # idempotent, not the unit
        with pytest.raises(NotInvertibleError):
            inverse(a1)


UNIT_SCAN_RINGS = {
    **{
        f"example1 over Zmod:{n}": (lambda n=n: example1_algebra(ResidueRing(n)))
        for n in (2, 4, 5, 6, 8)
    },
    **{spec: (lambda spec=spec: parse_ring_spec(spec))
       for spec in ("Mat:2:Zmod:4", "UT:2:Zmod:6", "UT:3:Zmod:2", "Mat:1:Zmod:6")},
}


@pytest.mark.parametrize("name", sorted(UNIT_SCAN_RINGS))
def test_units_and_inverses_match_two_sided_scan(name):
    ring = UNIT_SCAN_RINGS[name]()
    elements = list(ring.elements())
    one = ring.one()
    for x in elements:
        inverses = [y for y in elements if x * y == one and y * x == one]
        assert is_unit(x) == bool(inverses), x
        if inverses:
            assert [inverse(x)] == inverses
        else:
            with pytest.raises(NotInvertibleError):
                inverse(x)


def test_inverses_over_q_and_z_are_two_sided():
    rng = random.Random(21)
    q3 = parse_ring_spec("Mat:3:Q")
    units = [x for x in (random_element(q3, rng) for _ in range(30)) if is_unit(x)]
    assert len(units) >= 20
    z2 = parse_ring_spec("Mat:2:Z")
    # products of elementary matrices and signs: the units of Mat:2:Z
    gens = [
        z2.element(g)
        for g in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    ]
    for _ in range(20):
        u = z2.one()
        for _ in range(rng.randint(1, 8)):
            u = u * rng.choice(gens)
        units.append(u)
    for u in units:
        assert is_unit(u)
        assert inverse(u) * u == u.ring.one() == u * inverse(u)


def test_table_algebra_units_over_large_composite_moduli():
    for n in (100, 102):  # 10^6 and 1061208 elements
        algebra = example1_algebra(ResidueRing(n))
        start = time.perf_counter()
        assert not is_unit(algebra.from_int(2))
        assert time.perf_counter() - start < 0.1
        u = algebra.from_int(7) + algebra.basis_elements()[1]
        assert is_unit(u)
        assert inverse(u) * u == algebra.one() == u * inverse(u)


def test_table_algebra_over_a_matrix_base_decides_units():
    # the base has no determinant; the algebra flattens to Z/2 instead
    base = parse_ring_spec("Mat:2:Zmod:2")
    algebra = TableAlgebra(EXAMPLE1_DESCRIPTOR, base)
    with pytest.raises(UnsupportedOperationError):
        base.det([[base.one().payload]])
    rng = random.Random(22)
    swap = base.element(((0, 1), (1, 0)))
    samples = [algebra.one(), algebra.basis_elements()[0]]
    samples += [
        algebra.element((swap.payload, random_element(base, rng).payload, base.one().payload)),
        algebra.element((base.zero().payload, swap.payload, swap.payload)),
    ]
    for x in samples:
        # under the isomorphism with UT(2) over the base, x is a unit exactly
        # when both diagonal coordinates, those of a1 and a3, are units
        c1, _, c3 = (base.element(c) for c in x.payload)
        assert is_unit(x) == (is_unit(c1) and is_unit(c3))
        if is_unit(x):
            assert inverse(x) * x == algebra.one() == x * inverse(x)
        else:
            with pytest.raises(NotInvertibleError):
                inverse(x)


def test_units_of_a_triangular_tower_exhaustive():
    ring = parse_ring_spec("UT:2:UT:2:Zmod:2")
    one = ring.one()
    for x in ring.elements():
        (a, _), (_, d) = x.payload
        # the four innermost diagonal entries
        diagonal = (a[0][0], a[1][1], d[0][0], d[1][1])
        assert is_unit(x) == (diagonal == (1, 1, 1, 1)), x
        if is_unit(x):
            y = inverse(x)
            assert x * y == one == y * x
        else:
            with pytest.raises(NotInvertibleError):
                inverse(x)


def test_units_of_a_matrix_tower_match_the_flat_ring():
    ring = parse_ring_spec("Mat:2:Mat:2:Zmod:2")
    flat = parse_ring_spec("Mat:4:Zmod:2")
    rng = random.Random(23)
    units = 0
    for _ in range(200):
        x = random_element(ring, rng)
        fx = flat.element(flatten_blocks(x.payload))
        assert is_unit(x) == is_unit(fx)
        if is_unit(x):
            units += 1
            assert flatten_blocks(inverse(x).payload) == inverse(fx).payload
            assert x * inverse(x) == ring.one() == inverse(x) * x
        else:
            with pytest.raises(NotInvertibleError):
                inverse(x)
    assert 30 <= units <= 170  # both kinds are sampled


def test_ring_mismatch_errors():
    x = Z.one()
    y = parse_ring_spec("Zmod:5").one()
    with pytest.raises(RingMismatchError):
        _ = x + y
    with pytest.raises(RingMismatchError):
        equals(x, y)
    assert x != y  # __eq__ stays total and returns False across rings


def test_elements_coerce_ints():
    r = parse_ring_spec("Zmod:7")
    assert r.from_int(3) + 4 == r.zero()
    assert 2 * r.from_int(4) == r.from_int(1)


def test_isomorphism_table_algebra_to_ut2():
    for base_spec in ("Z", "Zmod:2", "Zmod:3", "Zmod:5"):
        assert verify_example1_isomorphism(parse_ring_spec(base_spec))


def test_centralizer_is_subring_on_finite_rings():
    rng = random.Random(3)
    for spec in ("UT:2:Zmod:2", "Mat:2:Zmod:2", "Zmod:6"):
        ring = parse_ring_spec(spec)
        gens = [random_element(ring, rng) for _ in range(2)]
        desc = centralizer_of_set(ring, gens)
        elems = set(desc.elements)
        assert ring.one() in elems
        for x in desc.elements:
            for y in desc.elements:
                assert x + y in elems
                assert x * y in elems


def test_centralizer_empty_gens_is_whole_ring():
    ring = parse_ring_spec("Zmod:4")
    desc = centralizer_of_set(ring, [])
    assert desc.count == 4
    assert len(desc.elements) == 4


def test_centralizer_example1_algebra_z5_is_scalars():
    algebra = example1_algebra(ResidueRing(5))
    gens = list(algebra.basis_elements())
    desc = centralizer_of_set(algebra, gens)
    assert desc.count == 5
    scalars = {algebra.from_int(n).payload for n in range(5)}
    assert {e.payload for e in desc.elements} == scalars
    # independent oracle: exhaustive scan over all 125 elements
    brute = {
        x.payload
        for x in algebra.elements()
        if all(commutator(x, g).is_zero for g in gens)
    }
    assert {e.payload for e in desc.elements} == brute


def test_centralizer_example2_z6_shape_and_crt_oracle():
    r6 = example2_matrix_ring(parse_ring_spec("Zmod:6"))
    gens = example2_matrices(r6)
    desc = centralizer_of_set(r6, gens)
    # displayed shape: alpha free, 3*beta = 0, gamma free
    shape = {
        example2_centralizer_element(r6, a, b, g).payload
        for a in range(6)
        for b in (0, 2, 4)
        for g in range(6)
    }
    assert desc.count == 108 == 6 * 3 * 6
    assert {e.payload for e in desc.elements} == shape
    # independent oracle: exhaustive scans over the prime factors, then CRT
    counts = {}
    for p in (2, 3):
        rp = example2_matrix_ring(parse_ring_spec(f"Zmod:{p}"))
        gp = example2_matrices(rp)
        counts[p] = sum(
            1
            for x in rp.elements()
            if all(commutator(x, g).is_zero for g in gp)
        )
    assert counts[2] * counts[3] == desc.count


@pytest.mark.parametrize("n", (6, 10))
def test_centralizer_mod_n_is_the_crt_product_of_prime_fields(n):
    # Z/n eliminates on least residues; an integer Smith form of these
    # 9 x 9 commutation systems grows without bound and did not finish
    ring = parse_ring_spec(f"Mat:3:Zmod:{n}")
    primes = [p for p in (2, 3, 5) if n % p == 0]
    rng = random.Random(20)

    def matrix():
        return tuple(tuple(rng.randrange(n) for _ in range(3)) for _ in range(3))

    cases = [[((1, 2, 3), (4, 5, 6), (7, 8, 10))]]
    cases += [[matrix() for _ in range(1 + k % 2)] for k in range(6)]
    counts = []
    for payloads in cases:
        gens = [ring.element(g) for g in payloads]
        start = time.perf_counter()
        desc = centralizer_of_set(ring, gens)
        assert time.perf_counter() - start < 2
        assert len(set(desc.elements)) == desc.count
        assert all(commutator(x, g).is_zero for x in desc.elements for g in gens)
        expected = 1
        for p in primes:
            rp = parse_ring_spec(f"Mat:3:Zmod:{p}")
            expected *= centralizer_of_set(rp, [rp.element(g) for g in payloads]).count
        assert desc.count == expected
        counts.append(desc.count)
    assert n != 6 or counts[0] == 216 == 8 * 27


def test_centralizer_example2_q_and_z():
    rq = example2_matrix_ring(Q)
    desc = centralizer_of_set(rq, example2_matrices(rq))
    assert desc.basis is not None and len(desc.basis) == 1
    assert desc.basis[0] == rq.one() or desc.basis[0] == -rq.one()

    rz = example2_matrix_ring(Z)
    desc_z = centralizer_of_set(rz, example2_matrices(rz))
    assert desc_z.basis is not None and len(desc_z.basis) == 1
    assert desc_z.basis[0] in (rz.one(), -rz.one())


def _closure(ring, gens):
    """Every element that 0, 1 and ``gens`` reach under + and *."""
    seen = {ring.zero(), ring.one(), *gens}
    frontier = list(seen)
    while frontier:
        new = set()
        for x in frontier:
            for y in list(seen):
                new.update(z for z in (x + y, x * y, y * x) if z not in seen)
        seen |= new
        frontier = list(new)
    return seen


GENERATED_SUBALGEBRA_RINGS = {
    "UT:2:Zmod:2": 2,
    "Mat:2:Zmod:2": 2,
    "UT:2:Zmod:3": 3,
    "Mat:2:Zmod:3": 3,
    "cubic:3": 3,
}


@pytest.mark.parametrize("spec", GENERATED_SUBALGEBRA_RINGS)
def test_generated_subalgebra_rank_matches_brute_force_closure(spec):
    p = GENERATED_SUBALGEBRA_RINGS[spec]
    ring = example1_algebra(ResidueRing(p)) if spec.startswith("cubic") else parse_ring_spec(spec)
    rng = random.Random(26)
    ranks = set()
    for size in (0, 1, 1, 1, 2, 2, 2):
        gens = [random_element(ring, rng) for _ in range(size)]
        basis = generated_subalgebra(ring, gens)
        closure = _closure(ring, gens)
        assert len(closure) == p ** len(basis), gens
        assert set(basis) <= closure
        ranks.add(len(basis))
    # the seeded sets reach a proper subalgebra and a larger one
    assert len(ranks) > 1


def test_generated_subalgebra_of_the_example_pseudoroots():
    for base, rank in (("Q", 9), ("Zmod:5", 9), ("Zmod:7", 9), ("Zmod:3", 3)):
        ring = example2_matrix_ring(parse_ring_spec(base))
        basis = generated_subalgebra(ring, example2_matrices(ring))
        assert len(basis) == rank, base
    # over Q the canonical basis is the matrix units, row-major
    rq = example2_matrix_ring(Q)
    units = tuple(rq.element(b) for b in rq.module_basis())
    assert generated_subalgebra(rq, example2_matrices(rq)) == units
    for p in (2, 3, 5):
        ring = example1_matrix_ring(ResidueRing(p))
        assert len(generated_subalgebra(ring, example1_matrices(ring))) == 3, p


def test_generated_subalgebra_needs_a_field():
    for base in ("Z", "Zmod:6"):
        ring = example2_matrix_ring(parse_ring_spec(base))
        with pytest.raises(UnsupportedOperationError):
            generated_subalgebra(ring, example2_matrices(ring))
        with pytest.raises(UnsupportedOperationError):
            generated_subalgebra(parse_ring_spec(base), [])
    rq = example2_matrix_ring(Q)
    with pytest.raises(RingMismatchError):
        generated_subalgebra(rq, example2_matrices(example2_matrix_ring(Z)))


def test_spec_grammar_round_trip():
    for spec in (
        "Z",
        "Q",
        "Zmod:12",
        "Mat:3:Zmod:5",
        "UT:2:Mat:2:Z",
        "Mat:2:UT:2:Zmod:4",
    ):
        assert parse_ring_spec(spec).spec_string() == spec
    for bad in ("z", "Zmod:", "Zmod:1", "Mat:0:Z", "Mat:2", "Table:", "Foo"):
        with pytest.raises(SpecParseError):
            parse_ring_spec(bad)


def test_matrix_size_is_an_integer_not_a_bool():
    # True would equal and hash like 1 but print as "Mat:True:Z", which the
    # grammar refuses
    for size in (True, False, 2.0, "2"):
        with pytest.raises(ValueError):
            MatrixRing(size, Z)
    assert MatrixRing(1, Z).spec_string() == "Mat:1:Z"


def test_upper_triangular_flag_is_a_bool():
    # "no" is truthy: it would build a ring that prints as UT:2:Z yet is
    # not equal to UT:2:Z, so their elements could not be combined
    for flag in ("no", 1, 0, None):
        with pytest.raises(ValueError):
            MatrixRing(2, Z, upper_triangular=flag)
    assert MatrixRing(2, Z, upper_triangular=True) == parse_ring_spec("UT:2:Z")


def test_table_spec_file_round_trip(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(EXAMPLE1_DESCRIPTOR.to_json("Zmod:5")))
    ring = parse_ring_spec(f"Table:{path}")
    assert isinstance(ring, TableAlgebra)
    assert ring.cardinality == 125
    assert ring.spec_string() == f"Table:{path}"
    # a programmatic table algebra has no grammar form
    with pytest.raises(UnsupportedOperationError):
        example1_algebra(Z).spec_string()


def test_element_json_round_trip():
    rng = random.Random(4)
    for spec in ("Z", "Q", "Zmod:9", "Mat:2:Zmod:6", "UT:3:Z", "Mat:2:Q"):
        ring = parse_ring_spec(spec)
        for _ in range(25):
            x = random_element(ring, rng)
            blob = json.dumps(x.to_json())
            assert ring.element_from_json(json.loads(blob)) == x


def _json_reference(ring, payload):
    # one base call per matrix entry, at every level of the tower
    if isinstance(ring, MatrixRing):
        return [[_json_reference(ring.base, e) for e in row] for row in payload]
    return ring.payload_to_json(payload)


def test_matrix_json_is_byte_identical_to_the_entrywise_rule():
    # a scalar base's payloads are their own JSON, so a matrix row over Z or
    # Z/n is written whole; the text must not change
    rng = random.Random(27)
    for spec in ("Z", "Q", "Zmod:6", "Mat:2:Z", "Mat:3:Q", "Mat:2:Zmod:6", "UT:3:Z", "UT:2:Q",
                 "Mat:2:Mat:2:Zmod:2"):
        ring = parse_ring_spec(spec)
        for _ in range(25):
            x = random_element(ring, rng)
            want = json.dumps(_json_reference(ring, x.payload))
            assert json.dumps(ring.payload_to_json(x.payload)) == want
            assert json.dumps(x.to_json()) == want


def test_rational_payloads_canonical():
    q = parse_ring_spec("Q")
    x = q.element(Fraction(4, -6))
    assert x.payload == Fraction(-2, 3)
    assert q.payload_to_json(x.payload) == "-2/3"
    assert q.element_from_json("4/6").payload == Fraction(2, 3)
    assert q.element_from_json("-2/3").payload == Fraction(-2, 3)
    assert q.element_from_json("1/2").payload == Fraction(1, 2)


@pytest.mark.parametrize("text", BAD_RATIONAL_LITERALS)
def test_rational_literals_are_strict(text):
    with pytest.raises(ValueError, match="bad rational literal"):
        parse_ring_spec("Q").element_from_json(text)


@pytest.mark.parametrize("spec, payload, shape", [
    ("Mat:2:Z", "12", "2x2 matrix"),
    ("Mat:2:Z", ("12", (0, 1)), "2x2 matrix"),
    ("Mat:1:Z", {(5,): 0}, "1x1 matrix"),
    ("Mat:2:Z", ((1, 0), {0: 0, 1: 1}), "2x2 matrix"),
    ("UT:2:Z", ({1: 0, 0: 0}, (0, 1)), "2x2 matrix"),
    ("UT:2:Q", ("10", "01"), "2x2 matrix"),
    ("Mat:1:Mat:1:Z", (({(1,): 0},),), "1x1 matrix"),
    ("example1", "123", "vector of length 3"),
    ("example1", {1: 0, 0: 0, 2: 0}, "vector of length 3"),
])
def test_element_refuses_a_string_or_a_dict_for_a_list(spec, payload, shape):
    ring = example1_algebra(Z) if spec == "example1" else parse_ring_spec(spec)
    with pytest.raises(ValueError, match=shape):
        ring.element(payload)


# the scalar embedding, ``from_int`` and ``from_base_scalar``, on each kind of
# ring: scalar rings, a triangular ring over a composite modulus, a tower and
# a table algebra
EMBED_RINGS = {
    "Z": lambda: Z,
    "Q": lambda: Q,
    "Zmod:6": lambda: parse_ring_spec("Zmod:6"),
    "UT:2:Zmod:4": lambda: parse_ring_spec("UT:2:Zmod:4"),
    "Mat:2:Mat:2:Q": lambda: parse_ring_spec("Mat:2:Mat:2:Q"),
    "example1 over Zmod:5": lambda: example1_algebra(ResidueRing(5)),
}


@pytest.mark.parametrize("name", sorted(EMBED_RINGS))
def test_from_int_is_the_repeated_sum_of_one(name):
    ring = EMBED_RINGS[name]()
    for n in range(-3, 4):
        total = ring.zero()
        for _ in range(abs(n)):
            total = total + ring.one()
        assert ring.from_int(n) == (total if n >= 0 else -total), n
    if ring.scalar_ring == Q:
        assert ring.from_base_scalar(Fraction(1, 2)) * ring.from_int(2) == ring.one()
    else:
        with pytest.raises(ValueError):
            ring.from_base_scalar(Fraction(1, 2))


def test_upper_triangular_validation():
    ut = parse_ring_spec("UT:2:Z")
    with pytest.raises(ValueError):
        ut.element(((1, 0), (1, 1)))
    mat = parse_ring_spec("Mat:2:Z")
    assert mat.element(((1, 0), (1, 1))).payload == ((1, 0), (1, 1))
