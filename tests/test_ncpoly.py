import itertools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from cyclesplit.examples import (
    example1_algebra,
    example1_cubic,
    example1_matrices,
    example1_matrix_ring,
)
from cyclesplit.ncpoly import (
    MAX_DEGREE,
    CommutationError,
    NCPoly,
    _divide_linear,
    eval_commuting,
    from_int_coeffs,
    left_divide_linear,
    left_eval,
    poly,
    poly_from_json,
    right_divide_linear,
    right_eval,
    x_minus,
    x_power,
)
from cyclesplit.rings import ResidueRing, RingMismatchError, commutator, parse_ring_spec
from cyclesplit.splitting import commutation_hypothesis, expand, witness
from helpers import (
    CayleyTables,
    divide_linear_reference,
    eval_reference,
    expand_reference,
    poly_add_reference,
    poly_mul_reference,
    poly_neg_reference,
    product_commutation_check,
    random_element,
    random_poly,
)

Z = parse_ring_spec("Z")
UT2 = parse_ring_spec("UT:2:Zmod:2")
UT2_ELEMS = list(UT2.elements())


def test_normalization_and_degree():
    f = poly(Z, [Z.from_int(1), Z.zero(), Z.zero()])
    assert f.degree == 0
    zero = poly(Z, [Z.zero()])
    assert zero.is_zero and zero.degree is None
    assert (f - f).degree is None
    # a polynomial stores its ring and its payloads; a direct NCPoly is
    # checked only for a trailing zero, which poly() trims
    z5 = parse_ring_spec("Zmod:5")
    assert NCPoly._fields == ("ring", "payloads")
    assert poly(z5, [z5.one(), z5.from_int(2), z5.zero()]) == NCPoly(z5, (1, 2))
    with pytest.raises(ValueError):
        NCPoly(z5, (1, z5._zero))


def test_mul_keeps_coefficient_order():
    ring = parse_ring_spec("Mat:2:Zmod:3")
    rng = random.Random(0)
    a, b = random_element(ring, rng), random_element(ring, rng)
    f = x_minus(a) * x_minus(b)
    # X^2 - (a+b) X + a*b, with a*b, not b*a
    assert f.coeffs[0] == a * b
    assert f.coeffs[1] == -(a + b)
    assert f.coeffs[2] == ring.one()


def test_ring_mismatch():
    f = from_int_coeffs(Z, [1, 1])
    z5 = parse_ring_spec("Zmod:5")
    with pytest.raises(RingMismatchError):
        right_divide_linear(f, z5.one())
    # poly() refuses a coefficient of another ring, wherever it stands
    for coeffs in ([Z.one(), z5.one()], [z5.one(), Z.one()], [Z.zero()]):
        with pytest.raises(RingMismatchError):
            poly(z5, coeffs)


def test_x_power_refuses_a_bad_exponent():
    # -2 gave the constant 1 and True gave X
    ring = parse_ring_spec("Zmod:5")
    assert x_power(ring, 0) == from_int_coeffs(ring, [1])
    for k in (-2, -1, True, False, 2.0, "2"):
        with pytest.raises(ValueError):
            x_power(ring, k)


def test_division_example_x_squared_by_one():
    ring = parse_ring_spec("Mat:2:Z")
    f = x_power(ring, 2)
    q, r = right_divide_linear(f, ring.one())
    assert q == from_int_coeffs(ring, [1, 1])  # X + 1
    assert r == ring.one()


def test_division_exact_factor_left_and_right():
    ring = parse_ring_spec("Mat:2:Zmod:5")
    rng = random.Random(1)
    a, b = random_element(ring, rng), random_element(ring, rng)
    f = x_minus(a) * x_minus(b)
    q, r = right_divide_linear(f, b)
    assert r.is_zero and q == x_minus(a)
    ql, rl = left_divide_linear(f, a)
    assert rl.is_zero and ql == x_minus(b)


def test_division_example1_cubic():
    ring = example1_matrix_ring(Z)
    a1, a2, a3 = example1_matrices(ring)
    f = example1_cubic(ring)
    q, r = right_divide_linear(f, a3)
    assert r.is_zero
    assert q == x_minus(a1) * x_minus(a2)
    ql, rl = left_divide_linear(f, a1)
    assert rl.is_zero
    assert ql == x_minus(a2) * x_minus(a3)


def test_degree_one_divisions():
    ring = parse_ring_spec("Zmod:7")
    c = ring.from_int(3)
    a = ring.from_int(5)
    f = x_minus(c)
    q, r = left_divide_linear(f, a)
    assert q == from_int_coeffs(ring, [1])
    assert r == a - c
    assert right_eval(f, a) == a - c


DUALITY_RINGS = ["Z", "Q", "Zmod:6", "UT:2:Zmod:3", "Mat:2:Z", "Mat:3:Zmod:5"]


@pytest.mark.parametrize(
    "spec", ["Z", "Q", "Zmod:6", "UT:2:Zmod:4", "Mat:2:UT:2:Zmod:2", "example1:Zmod:2"]
)
def test_division_kernel_matches_element_recurrence(spec):
    """The payload kernel, and both Element-level wrappers around it, agree
    with the plain recurrence on each side, over commutative rings, a
    matrix ring over a noncommutative base and the example-1 algebra.

    Sparse and monic targets (X^k, X^3 - X, coefficients 1) and the points
    0, 1 and -1 reach the kernel's identity skips: a partial sum that is 0
    or 1 takes no product and a zero summand no sum. On a small ring the
    kernel also runs on Cayley-table indices, which must give the indices
    of the payload results."""
    if spec == "example1:Zmod:2":
        ring = example1_algebra(ResidueRing(2))
    else:
        ring = parse_ring_spec(spec)
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        f = random_poly(ring, rng, 5)
        cases.append((f, random_element(ring, rng)))
    one = ring.one()
    sparse = [x_power(ring, k) for k in range(5)]
    sparse += [from_int_coeffs(ring, ints) for ints in ([0, -1, 0, 1], [1, 1, 0, 1], [1, 0, 1], [0, 1, 1, 1])]
    # coefficients 0 and 1 around a random one: partial sums that are 1
    # between ones that are not
    sparse += [
        poly(ring, [rng.choice([ring.zero(), one, random_element(ring, rng)]) for _ in range(5)] + [one])
        for _ in range(6)
    ]
    points = [ring.zero(), one, -one] + [random_element(ring, rng) for _ in range(3)]
    cases += [(f, a) for f in sparse for a in points]
    tables = CayleyTables(ring) if ring.cardinality is not None and ring.cardinality <= 64 else None
    if tables is not None:
        index = {e.payload: i for i, e in enumerate(tables.elements)}
    for f, a in cases:
        for side, divide in (("right", right_divide_linear), ("left", left_divide_linear)):
            q_ref, r_ref = divide_linear_reference(f, a, side)
            q, r = divide(f, a)
            assert list(q.coeffs) == q_ref and r == r_ref, (spec, side)
            if f.is_zero:
                continue
            q_pay, r_pay = _divide_linear(ring, list(f.payloads), a.payload, side == "right")
            assert q_pay == [c.payload for c in q_ref] and r_pay == r_ref.payload, (spec, side)
            if tables is not None:
                q_idx, r_idx = _divide_linear(
                    tables, [index[c] for c in f.payloads], index[a.payload], side == "right"
                )
                assert q_idx == [index[c] for c in q_pay] and r_idx == index[r_pay], (spec, side)


@pytest.mark.parametrize("spec", DUALITY_RINGS)
def test_eval_equals_division_remainder_seeded(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(zlib.crc32(spec.encode()))
    for _ in range(200):
        f = random_poly(ring, rng, 6)
        a = random_element(ring, rng)
        q, r = right_divide_linear(f, a)
        assert right_eval(f, a) == r == eval_reference(f, a, "right")
        assert q * x_minus(a) + poly(ring, [r]) == f
        ql, rl = left_divide_linear(f, a)
        assert left_eval(f, a) == rl == eval_reference(f, a, "left")
        assert x_minus(a) * ql + poly(ring, [rl]) == f


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_mul_associative_and_distributive(data):
    elems = st.sampled_from(UT2_ELEMS)
    polys = st.lists(elems, min_size=0, max_size=4).map(lambda cs: poly(UT2, cs))
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize(
    "spec", ["Zmod:6", "Q", "UT:2:Zmod:3", "Mat:2:Mat:2:Zmod:2", "cubic:Zmod:5"]
)
def test_payload_arithmetic_matches_element_reference(spec):
    """Sums, differences, products, ``expand`` and the commutation
    hypothesis, which run on payloads, agree with the plain Element-level
    loops (over a noncommutative ring a swapped product fails here)."""
    ring = example1_algebra(ResidueRing(5)) if spec == "cubic:Zmod:5" else parse_ring_spec(spec)
    rng = random.Random(zlib.crc32(spec.encode()))
    for _ in range(40):
        f, g = random_poly(ring, rng, 4), random_poly(ring, rng, 4)
        assert f * g == poly_mul_reference(f, g), spec
        assert f + g == poly_add_reference(f, g), spec
        assert f - g == poly_add_reference(f, poly_neg_reference(g)), spec
        assert -f == poly_neg_reference(f), spec
        for h in (f * g, f + g, f - g):
            assert poly(ring, h.coeffs) == h, spec
        roots = [random_element(ring, rng) for _ in range(rng.randint(1, 4))]
        w = witness(ring, random_element(ring, rng), roots)
        assert expand(w) == expand_reference(w), spec
        clashes = tuple(
            (i, k)
            for i, c in enumerate(f.coeffs)
            for k, a in enumerate(roots, start=1)
            if not commutator(c, a).is_zero
        )
        assert commutation_hypothesis(f, roots) == (not clashes, clashes), spec


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_commuting_agrees_both_sides(data):
    ring = parse_ring_spec("Zmod:9")
    elems = st.sampled_from(list(ring.elements()))
    f = poly(ring, data.draw(st.lists(elems, max_size=5)))
    a = data.draw(elems)
    assert eval_commuting(f, a) == right_eval(f, a) == left_eval(f, a)


def test_eval_commuting_raises_with_offending_index():
    ring = parse_ring_spec("Mat:2:Zmod:2")
    a = ring.element(((0, 1), (0, 0)))
    b = ring.element(((1, 0), (0, 0)))
    assert not commutator(a, b).is_zero
    f = poly(ring, [ring.zero(), a])  # a X
    with pytest.raises(CommutationError) as err:
        eval_commuting(f, b)
    assert err.value.index == 1


def test_product_commutation_descends_exhaustive_ut2_z2():
    # over UT(2, Z/2): whenever g*(X-a) commutes with X-a, so does g;
    # checked on all g of degree <= 2 and all a
    coeff_tuples = itertools.product(UT2_ELEMS, repeat=3)
    polys = [poly(UT2, cs) for cs in coeff_tuples]
    for g in polys:
        for a in UT2_ELEMS:
            assert product_commutation_check(g, a)


@pytest.mark.parametrize("spec", ["UT:2:Zmod:2", "UT:2:Zmod:3"])
def test_quotient_inherits_commutation_exhaustive(spec):
    # all (f, a) with deg f <= 3, coefficients commuting with a and zero
    # right remainder: the quotient's coefficients must commute with a too.
    # Runs in index space (Cayley tables); coefficients are drawn from the
    # centralizer of a, which is exactly the commuting-coefficient set.
    ring = parse_ring_spec(spec)
    cache = CayleyTables(ring)
    n = len(cache)
    checked = 0
    for a in range(n):
        cz = cache.centralizer_indices(a)
        for coeffs in itertools.product(cz, repeat=4):
            q, r = _divide_linear(cache, coeffs, a, True)
            if r != cache._zero:
                continue
            checked += 1
            assert all(cache.commutes(qi, a) for qi in q)
    assert checked > 0


def test_quotient_inherits_commutation_sampled_mat3_z5():
    # the hypothesis set {f : coefficients commute with a, zero remainder}
    # is sampled by drawing coefficients from the centralizer of a
    from cyclesplit.rings import centralizer_of_set

    ring = parse_ring_spec("Mat:3:Zmod:5")
    rng = random.Random(77)

    def centralizer_sample(basis):
        acc = ring.zero()
        for b in basis:
            acc = acc + rng.randrange(5) * b
        return acc

    exact_hits = 0
    direct_hits = 0
    for _ in range(60):
        a = random_element(ring, rng)
        basis = centralizer_of_set(ring, [a]).basis
        # constructed exact multiples: remainder is zero by construction
        g = poly(ring, [centralizer_sample(basis) for _ in range(3)])
        f = g * x_minus(a)
        assert all(commutator(c, a).is_zero for c in f.coeffs)
        q, r = right_divide_linear(f, a)
        assert r.is_zero and q == g
        assert all(commutator(c, a).is_zero for c in q.coeffs)
        exact_hits += 1
        # free draws from the commuting-coefficient space, filtered on the
        # remainder actually vanishing
        for _ in range(30):
            f2 = poly(ring, [centralizer_sample(basis) for _ in range(4)])
            q2, r2 = right_divide_linear(f2, a)
            if f2.is_zero or not r2.is_zero:
                continue
            direct_hits += 1
            assert all(commutator(c, a).is_zero for c in q2.coeffs)
    assert exact_hits == 60 and direct_hits > 0


def test_poly_json_round_trip():
    rng = random.Random(5)
    for spec in ("Z", "Zmod:8", "Mat:2:Zmod:3"):
        ring = parse_ring_spec(spec)
        for _ in range(20):
            f = random_poly(ring, rng, 5)
            blob = f.to_json()
            assert poly_from_json(blob) == f


def test_poly_json_degree_cap():
    """A JSON polynomial takes at most MAX_DEGREE + 1 coefficients, the
    cap polynomial text has; trailing zeros count, since the cap is on input."""
    ring = parse_ring_spec("Zmod:5")
    top = {"ring": "Zmod:5", "coeffs": [0] * MAX_DEGREE + [1]}
    assert poly_from_json(top) == x_power(ring, MAX_DEGREE)
    for coeffs in ([0] * (MAX_DEGREE + 1) + [1], [1] * 1001, [1] + [0] * (MAX_DEGREE + 1)):
        with pytest.raises(ValueError, match="above the cap"):
            poly_from_json({"ring": "Zmod:5", "coeffs": coeffs})
        with pytest.raises(ValueError, match="above the cap"):
            poly_from_json({"coeffs": coeffs}, ring)
