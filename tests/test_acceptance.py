"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every check is exact (tolerance is equality); each criterion also
carries a wall-clock budget that is asserted.
"""

import itertools
import random
import time

import pytest

from cyclesplit import endo
from cyclesplit.examples import (
    EXAMPLE2_COMMUTATOR_GRID,
    example1_algebra,
    example1_cubic,
    example1_matrix_ring,
    example1_witness,
    example2_centralizer_element,
    example2_cubic,
    example2_matrices,
    example2_matrix_ring,
    example2_witness,
)
from cyclesplit.ncpoly import (
    _divide_linear,
    from_int_coeffs,
    left_divide_linear,
    left_eval,
    poly,
    right_divide_linear,
    right_eval,
    x_minus,
)
from cyclesplit.rings import ResidueRing, centralizer_of_set, commutator, parse_ring_spec
from cyclesplit.search import SearchTask, counterexample_hunt, enumerate_splittings
from cyclesplit.splitting import (
    SplittingWitness,
    expand,
    rotate,
    vandermonde,
    verify_cyclic_splitting,
)
from helpers import CayleyTables, eval_reference, random_element, random_poly, solve_rational

Z = parse_ring_spec("Z")


class _Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {status} {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_01_example1_splitting():
    with _Budget(1, "X^3 - X^2 splits cyclically over UT:2:Z", 1.0):
        ring = example1_matrix_ring(Z)
        w = example1_witness(ring)
        f = expand(w)
        assert f == example1_cubic(ring)
        for k in range(3):
            assert expand(rotate(w, k)) == f
        for a in w.pseudoroots:
            assert right_eval(f, a).is_zero
            assert left_eval(f, a).is_zero
        a1, a2, a3 = w.pseudoroots
        minus_a2 = -a2
        assert not minus_a2.is_zero
        for i, o in enumerate(
            (commutator(a1, a2), commutator(a2, a3), commutator(a3, a1))
        ):
            assert o == minus_a2
        for k in range(3):
            rotated = rotate(w, k)
            swapped = SplittingWitness(
                ring,
                ring.one(),
                (rotated.pseudoroots[1], rotated.pseudoroots[0], rotated.pseudoroots[2]),
            )
            assert expand(swapped) != f


EXPECTED_VANDERMONDE = (
    (0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 1),
    (0, 1, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
)


def test_criterion_02_example1_vandermonde():
    with _Budget(2, "the 6x6 power-block matrix is singular over Z", 1.0):
        report = vandermonde(example1_witness(example1_matrix_ring(Z)))
        assert report.rows == EXPECTED_VANDERMONDE
        assert report.det == 0
        assert not report.invertible


def test_criterion_03_example2_splitting():
    with _Budget(3, "X^3 - 4 splits cyclically over Mat:3:Z, degenerates mod 3", 1.0):
        ring = example2_matrix_ring(Z)
        w = example2_witness(ring)
        f = expand(w)
        assert f == example2_cubic(ring)
        for k in range(3):
            assert expand(rotate(w, k)) == f
        report = verify_cyclic_splitting(w)
        assert report.commutation_ok and report.all_roots_zero
        expected = ring.element(EXAMPLE2_COMMUTATOR_GRID)
        assert all(o == expected for o in report.obstructions)

        r3 = example2_matrix_ring(parse_ring_spec("Zmod:3"))
        b1, b2, b3 = example2_matrices(r3)
        assert b1 == b2 == b3
        one = r3.one()
        cube = x_minus(one) * x_minus(one) * x_minus(one)
        assert example2_cubic(r3) == cube


def test_criterion_04_example2_matrix_unit_identities():
    with _Budget(4, "nine matrix units are rational combinations of pseudoroot words", 1.0):
        rq = example2_matrix_ring(parse_ring_spec("Q"))
        gens = example2_matrices(rq)
        words = []
        for length in range(1, 5):
            for word in itertools.product(gens, repeat=length):
                prod = rq.one()
                for a in word:
                    prod = prod * a
                words.append(prod)
        assert len(words) == 120
        # oracle: an elimination written independently of cyclesplit.linalg;
        # each unit's coefficient vector is then checked by ring arithmetic
        rows = [[w.payload[i][j] for w in words] for i in range(3) for j in range(3)]
        for k, unit in enumerate(rq.module_basis()):
            coeffs = solve_rational(rows, [int(k == m) for m in range(9)])
            assert coeffs is not None, unit
            total = rq.zero()
            for c, w in zip(coeffs, words):
                total = total + rq.from_base_scalar(c) * w
            assert total == rq.element(unit)


def test_criterion_05_example2_centralizer():
    with _Budget(5, "centralizer shape over Z/6 and scalars over Q", 30.0):
        r6 = example2_matrix_ring(parse_ring_spec("Zmod:6"))
        gens = example2_matrices(r6)
        desc = centralizer_of_set(r6, gens)
        # exhaustive oracle over the displayed shape: alpha, beta, gamma all
        # range over Z/6, commutation decides membership
        shape_members = set()
        for alpha in range(6):
            for beta in range(6):
                for gamma in range(6):
                    x = example2_centralizer_element(r6, alpha, beta, gamma)
                    if all(commutator(x, g).is_zero for g in gens):
                        shape_members.add(x.payload)
                        assert (3 * beta) % 6 == 0
                        assert (6 * gamma) % 6 == 0
        # constraint count: 6 alphas x 3 betas x 6 gammas, 18 beyond alpha
        assert desc.count == 108 == 6 * 3 * 6
        assert len(shape_members) == 108
        assert {e.payload for e in desc.elements} == shape_members

        rq = example2_matrix_ring(parse_ring_spec("Q"))
        descq = centralizer_of_set(rq, example2_matrices(rq))
        assert descq.basis is not None and len(descq.basis) == 1
        assert descq.basis[0] in (rq.one(), -rq.one())


@pytest.mark.parametrize("modulus", [2, 3])
def test_criterion_06_cyclic_law_exhaustive(modulus):
    with _Budget(
        6, f"cyclic law on every commuting triple over UT:2:Zmod:{modulus}", 60.0
    ):
        ring = parse_ring_spec(f"UT:2:Zmod:{modulus}")
        cache = CayleyTables(ring)
        n = len(cache)
        hypothesis_hits = 0
        violations = 0
        spot = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    coeffs = cache.linear_factor_product((i, j, k))
                    if not all(
                        cache.commutes(c, r)
                        for c in coeffs
                        for r in (i, j, k)
                    ):
                        continue
                    hypothesis_hits += 1
                    rot1 = cache.linear_factor_product((k, i, j))
                    rot2 = cache.linear_factor_product((j, k, i))
                    if coeffs != rot1 or coeffs != rot2:
                        violations += 1
                        continue
                    for r in (i, j, k):
                        if _divide_linear(cache, coeffs, r, True)[1] != cache._zero:
                            violations += 1
                        if _divide_linear(cache, coeffs, r, False)[1] != cache._zero:
                            violations += 1
                    if len(spot) < 20:
                        spot.append((i, j, k))
        assert violations == 0
        assert hypothesis_hits >= modulus**3  # central triples at least
        # spot-check the index-space route against the Element-level checker
        for i, j, k in spot:
            w = SplittingWitness(
                ring,
                ring.one(),
                (cache.elements[i], cache.elements[j], cache.elements[k]),
            )
            report = verify_cyclic_splitting(w)
            assert report.commutation_ok
            assert report.rotations_equal and report.all_roots_zero


def test_criterion_07_quotient_commutation_exhaustive():
    with _Budget(
        7, "quotients inherit commutation for all deg <= 3 over UT:2:Zmod:2", 60.0
    ):
        ring = parse_ring_spec("UT:2:Zmod:2")
        cache = CayleyTables(ring)
        n = len(cache)
        checked = 0
        violations = 0
        for a in range(n):
            commuting = cache.centralizer_indices(a)
            for coeffs in itertools.product(commuting, repeat=4):
                q, r = _divide_linear(cache, coeffs, a, True)
                if r != cache._zero:
                    continue
                checked += 1
                if not all(cache.commutes(c, a) for c in q):
                    violations += 1
        assert violations == 0
        assert checked > 0


def test_criterion_08_negative_control():
    with _Budget(
        8, "a splitting with a non-root pseudoroot exists only noncommutatively", 30.0
    ):
        ring = parse_ring_spec("Mat:2:Zmod:2")
        a = ring.element(((1, 0), (0, 0)))
        b = ring.element(((0, 1), (0, 0)))
        f = x_minus(a) * x_minus(b)
        w = counterexample_hunt(f)
        assert w is not None
        assert expand(w) == f
        leftmost = w.pseudoroots[0]
        assert not right_eval(f, leftmost).is_zero
        assert right_eval(f, w.pseudoroots[-1]).is_zero

        for spec in ("Zmod:4", "Zmod:6", "Zmod:9"):
            cring = parse_ring_spec(spec)
            m = cring.cardinality
            for c0 in range(m):
                for c1 in range(m):
                    target = poly(
                        cring,
                        [cring.from_int(c0), cring.from_int(c1), cring.one()],
                    )
                    assert counterexample_hunt(target) is None


def test_criterion_09_endomorphism_suite():
    with _Budget(9, "endomorphism monoid and actions over Z/2, Z/3, Z/5", 60.0):
        for p in (2, 3, 5):
            monoid = endo.verify_monoid_table(p)
            assert monoid.endo_count == p * p + p + 2
            assert monoid.automorphism_count == p * (p - 1)
            assert monoid.unclassified == ()
            assert monoid.mismatches == ()
            assert monoid.frozen_order_agreement == monoid.total_pairs
            assert monoid.neutral_ok and monoid.invertibles_ok
            actions = endo.verify_action_tables(p)
            assert actions.passed


def test_criterion_10_root_cycle_suite():
    with _Budget(10, "root and cycle families over Z/2 and Z/3", 60.0):
        for p in (2, 3):
            records = endo.classify_roots(p)
            assert len(records) == (p + 1) ** 2
            suite = endo.verify_cycle_suite(p)
            assert suite.passed
            assert suite.roots_are_union_of_supports
            assert suite.basis_classes_ok
            translate = endo.verify_translate_properties(p)
            assert translate.passed


def test_criterion_11_poset_suite():
    with _Budget(11, "minimal-polynomial poset and its exceptions", 30.0):
        for p in (2, 3, 5):
            report = endo.minpoly_and_poset(p)
            assert report.minpoly_table_ok
            assert report.monotone_ok
            assert set(report.failing_kinds) == {"eps", "eps_prime"}
            assert report.exception_pattern_ok
            assert report.automorphisms_preserve_ok
            assert report.level_order_ok


DUALITY_RINGS = [
    "Z",
    "Q",
    "Zmod:4",
    "Zmod:5",
    "Zmod:6",
    "UT:2:Z",
    "UT:2:Zmod:3",
    "Mat:2:Zmod:6",
    "Mat:3:Zmod:5",
    "Mat:2:Q",
]


def test_criterion_12_division_evaluation_duality():
    with _Budget(12, "evaluation equals division remainder, 1000 pairs per ring", 30.0):
        rings = [parse_ring_spec(s) for s in DUALITY_RINGS]
        rings.append(example1_algebra(ResidueRing(5)))
        for ring in rings:
            rng = random.Random(0xC0DE)
            for _ in range(1000):
                f = random_poly(ring, rng, 6)
                a = random_element(ring, rng)
                q, r = right_divide_linear(f, a)
                assert right_eval(f, a) == r == eval_reference(f, a, "right")
                assert q * x_minus(a) + poly(ring, [r]) == f
                ql, rl = left_divide_linear(f, a)
                assert left_eval(f, a) == rl == eval_reference(f, a, "left")
                assert x_minus(a) * ql + poly(ring, [rl]) == f
