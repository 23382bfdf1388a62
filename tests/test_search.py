import random
import zlib

import pytest

from cyclesplit.examples import (
    example1_algebra,
    example1_algebra_witness,
    example1_cubic,
    example2_cubic,
    example2_matrices,
    example2_matrix_ring,
)
from cyclesplit.ncpoly import (
    MAX_DEGREE,
    constant,
    from_int_coeffs,
    poly,
    right_divide_linear,
    right_eval,
    x_minus,
    x_power,
)
from cyclesplit.rings import MatrixRing, ResidueRing, commutator, parse_ring_spec
import cyclesplit.search as search_mod
from cyclesplit.search import (
    SearchSpaceTooLargeError,
    SearchTask,
    counterexample_hunt,
    enumerate_splittings,
    find_roots,
)
from cyclesplit.splitting import SplittingWitness, expand, verify_cyclic_splitting
from helpers import CayleyTables, brute_force_census, eval_reference, random_element


def test_find_roots_example1_algebra_z2():
    algebra = example1_algebra(ResidueRing(2))
    f = example1_cubic(algebra)
    roots = find_roots(f)
    # 3p+1 distinct root elements at p=2 (the four families overlap in
    # parameters, not in elements)
    assert len(roots) == 7
    payloads = {r.payload for r in roots}
    assert (0, 0, 0) in payloads and (1, 1, 1) in payloads
    e1, e2, e3 = (e.payload for e in algebra.basis_elements())
    assert {e1, e2, e3} <= payloads


def test_find_roots_linear():
    ring = parse_ring_spec("Zmod:6")
    c = ring.from_int(4)
    assert find_roots(x_minus(c)) == [c]


def test_find_roots_example2_mod3():
    ring = example2_matrix_ring(parse_ring_spec("Zmod:3"))
    common = example2_matrices(ring)[0]
    f = example2_cubic(ring)
    roots = find_roots(f)
    assert common in roots


def test_enumerate_splittings_example1_commuting_mode():
    algebra = example1_algebra(ResidueRing(2))
    f = example1_cubic(algebra)
    outcome = enumerate_splittings(
        SearchTask(algebra, f, 3, "commuting_splittings_only")
    )
    # scalar coefficients commute with everything, so the commuting filter
    # keeps every splitting
    base = example1_algebra_witness(algebra)
    witnesses = set(outcome.witnesses)
    assert base in witnesses
    ids = {
        w: cid for w, cid in zip(outcome.witnesses, outcome.cycle_ids)
    }
    from cyclesplit.splitting import rotate

    assert ids[rotate(base, 1)] == ids[base] == ids[rotate(base, 2)]
    assert outcome.cycle_count == 8  # p^2 + 2p classes at p = 2
    assert len(outcome.witnesses) == 24


def test_enumerate_splittings_x_squared_mod4():
    ring = parse_ring_spec("Zmod:4")
    f = from_int_coeffs(ring, [0, 0, 1])
    outcome = enumerate_splittings(SearchTask(ring, f, 2, "all_splittings"))
    tuples = {
        tuple(a.payload for a in w.pseudoroots) for w in outcome.witnesses
    }
    assert tuples == {(0, 0), (2, 2)}


def test_enumerate_splittings_degree_one():
    ring = parse_ring_spec("Zmod:5")
    c = ring.from_int(2)
    outcome = enumerate_splittings(SearchTask(ring, x_minus(c), 1, "all_splittings"))
    assert [w.pseudoroots for w in outcome.witnesses] == [(c,)]


def _differential_cases():
    ut3 = parse_ring_spec("UT:2:Zmod:3")
    shift = x_minus(ut3.from_int(2))  # X - c with c central: X^2 - X at X - c
    mat2 = parse_ring_spec("Mat:2:Zmod:2")
    z5 = parse_ring_spec("Zmod:5")
    ut4 = parse_ring_spec("UT:2:Zmod:4")
    z6 = parse_ring_spec("Zmod:6")
    z4 = parse_ring_spec("Zmod:4")
    a, b = ut3.element(((1, 0), (0, 0))), ut3.element(((0, 1), (0, 0)))
    u = ut3.element(((1, 1), (0, 2)))  # a unit that commutes with neither
    # is_unit raises UnsupportedOperationError here: no determinant over a table algebra
    undecided = MatrixRing(1, example1_algebra(ResidueRing(2)))
    ut2 = parse_ring_spec("UT:2:Zmod:2")
    # diagonal coefficients: their centralizer is the 9 diagonal matrices,
    # three times the centre
    d, e = ut3.element(((1, 0), (0, 0))), ut3.element(((0, 0), (0, 2)))
    return [
        ("shifted monic, UT:2:Zmod:3", ut3, shift * shift - shift, 2),
        ("noncentral coefficients, UT:2:Zmod:3", ut3, x_minus(a) * x_minus(b), 2),
        ("noncentral unit leading, UT:2:Zmod:3", ut3, constant(u) * x_minus(a) * x_minus(b), 2),
        ("X^3 - X, Mat:2:Zmod:2", mat2, from_int_coeffs(mat2, [0, -1, 0, 1]), 3),
        ("unit non-monic leading 2, Zmod:5", z5, from_int_coeffs(z5, [1, 3, 2]), 2),
        ("non-unit leading 2, UT:2:Zmod:4", ut4, from_int_coeffs(ut4, [0, 2, 2]), 2),
        ("non-unit leading 3, Zmod:6", z6, from_int_coeffs(z6, [0, 3, 0, 3]), 3),
        ("non-unit leading 2, Zmod:6", z6, from_int_coeffs(z6, [4, 0, 2]), 2),
        ("n < deg f, Zmod:4", z4, from_int_coeffs(z4, [0, 0, 1]), 1),
        ("n > deg f, Zmod:4", z4, from_int_coeffs(z4, [0, 0, 1]), 3),
        ("n > deg f, unit leading, Zmod:5", z5, from_int_coeffs(z5, [1, 3, 2]), 3),
        ("undecidable unit, Mat:1 over a table algebra", undecided,
         from_int_coeffs(undecided, [0, -1, 1]), 2),
        ("closed-form candidate outside the centralizer, UT:2:Zmod:3", ut3,
         _noncentral_closed_form_target(ut3), 2),
        # 8 witnesses in 4 classes, among them the periodic (0,0,0,0) and (0,n,0,n)
        ("X^4, periodic classes, UT:2:Zmod:2", ut2, x_power(ut2, 4), 4),
        ("diagonal coefficients, centralizer above the centre, UT:2:Zmod:3", ut3,
         x_minus(d) * x_minus(e), 2),
    ]


def _noncentral_closed_form_target(ring):
    """diag(1,2) X^2 + [[1,2],[0,1]] X over UT:2:Zmod:3. It splits as
    ([[2,1],[0,1]], 0), and that closed-form last factor commutes with
    neither nonzero coefficient, so commuting mode must reject the splitting."""
    return poly(ring, [ring.zero(), ring.element(((1, 2), (0, 1))), ring.element(((1, 0), (0, 2)))])


@pytest.mark.parametrize("mode", ["all_splittings", "commuting_splittings_only"])
def test_search_matches_brute_force_census(mode):
    """The search, with its closed-form last factor where the leading
    coefficient is a unit and its sweep elsewhere, equals the plain
    |A|^n product sweep."""
    for label, ring, f, n in _differential_cases():
        outcome = enumerate_splittings(SearchTask(ring, f, n, mode))
        witnesses, cycle_ids, cycle_count = brute_force_census(ring, f, n, mode)
        assert outcome.witnesses == witnesses, label
        assert outcome.cycle_ids == cycle_ids, label
        assert outcome.cycle_count == cycle_count, label


@pytest.mark.parametrize("mode", ["all_splittings", "commuting_splittings_only"])
def test_closed_form_candidate_is_held_to_the_centralizer(mode):
    ring = parse_ring_spec("UT:2:Zmod:3")
    f = _noncentral_closed_form_target(ring)
    split = (ring.element(((2, 1), (0, 1))), ring.zero())
    witnesses, _, _ = brute_force_census(ring, f, 2, mode)
    outcome = enumerate_splittings(SearchTask(ring, f, 2, mode))
    expected = mode == "all_splittings"
    assert (split in [w.pseudoroots for w in witnesses]) == expected
    assert (split in [w.pseudoroots for w in outcome.witnesses]) == expected


def test_commuting_mode_sweeps_only_the_centralizer():
    ring = parse_ring_spec("UT:2:Zmod:3")
    a, b = ring.element(((1, 0), (0, 0))), ring.element(((0, 1), (0, 0)))
    f = x_minus(a) * x_minus(b)
    every = enumerate_splittings(SearchTask(ring, f, 2, "all_splittings"))
    commuting = enumerate_splittings(SearchTask(ring, f, 2, "commuting_splittings_only"))
    assert 0 < commuting.nodes < every.nodes
    # a unit leading coefficient: one sweep of the ring, one closed-form
    # division per survivor
    survivors = sum(1 for x in ring.elements() if right_eval(f, x).is_zero)
    assert every.nodes == ring.cardinality + survivors


def test_central_target_sweeps_roots_only(monkeypatch):
    """A target with central coefficients: the top level divides by every
    element once, and below it only roots are swept, one rotation per class.
    The plain sweep's count is derived independently: |A| divisions at the
    top, |A| more under each right root a, and one closed-form division
    under each right root of the quotient by X - a."""
    ring = parse_ring_spec("Mat:2:Zmod:3")
    f = from_int_coeffs(ring, [0, -1, 0, 1])
    elems = list(ring.elements())
    top = [a for a in elems if right_eval(f, a).is_zero]
    second = sum(
        1 for a in top for b in elems if right_eval(right_divide_linear(f, a)[0], b).is_zero
    )
    plain = len(elems) * (1 + len(top)) + second

    by_degree = {}

    def counting(g, a):
        by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        return right_divide_linear(g, a)

    monkeypatch.setattr(search_mod, "right_divide_linear", counting)
    for mode in ("all_splittings", "commuting_splittings_only"):
        by_degree.clear()
        outcome = enumerate_splittings(SearchTask(ring, f, 3, mode))
        assert by_degree[3] == len(elems)
        assert outcome.nodes == sum(by_degree.values())
        assert 2 * outcome.nodes <= plain
        assert len(outcome.witnesses) == 330 and outcome.cycle_count == 110


def test_factor_count_cap():
    ring = parse_ring_spec("Zmod:2")
    f = x_power(ring, MAX_DEGREE)
    outcome = enumerate_splittings(SearchTask(ring, f, MAX_DEGREE, "all_splittings"))
    assert [w.pseudoroots for w in outcome.witnesses] == [(ring.zero(),) * MAX_DEGREE]
    with pytest.raises(ValueError):
        SearchTask(ring, f, MAX_DEGREE + 1, "all_splittings")


def test_commuting_mode_witnesses_satisfy_the_cyclic_law():
    ring = parse_ring_spec("UT:2:Zmod:2")
    rng = random.Random(3)
    for _ in range(12):
        target = expand(
            SplittingWitness(
                ring, ring.one(), tuple(random_element(ring, rng) for _ in range(2))
            )
        )
        outcome = enumerate_splittings(
            SearchTask(ring, target, 2, "commuting_splittings_only")
        )
        for w in outcome.witnesses:
            report = verify_cyclic_splitting(w)
            assert report.commutation_ok
            assert report.rotations_equal and report.all_roots_zero


def test_rightmost_pseudoroot_is_always_a_right_root():
    ring = parse_ring_spec("Mat:2:Zmod:2")
    rng = random.Random(4)
    for _ in range(8):
        target = expand(
            SplittingWitness(
                ring, ring.one(), tuple(random_element(ring, rng) for _ in range(2))
            )
        )
        outcome = enumerate_splittings(SearchTask(ring, target, 2, "all_splittings"))
        assert outcome.witnesses
        for w in outcome.witnesses:
            assert right_eval(target, w.pseudoroots[-1]).is_zero


def test_counterexample_hunt_mat2_z2():
    ring = parse_ring_spec("Mat:2:Zmod:2")
    a = ring.element(((1, 0), (0, 0)))
    b = ring.element(((0, 1), (0, 0)))
    assert not commutator(a, b).is_zero
    f = x_minus(a) * x_minus(b)
    w = counterexample_hunt(f, ring)
    assert w is not None
    assert expand(w) == f
    values = [right_eval(f, x) for x in w.pseudoroots]
    assert any(not v.is_zero for v in values)
    assert values[-1].is_zero  # the rightmost factor is always a right root


def test_counterexample_hunt_commutative_rings_find_nothing():
    for spec in ("Zmod:4", "Zmod:6", "Zmod:9"):
        ring = parse_ring_spec(spec)
        rng = random.Random(5)
        for _ in range(6):
            a, b = random_element(ring, rng), random_element(ring, rng)
            f = x_minus(a) * x_minus(b)
            assert counterexample_hunt(f, ring) is None


def test_example1_witness_is_not_a_counterexample():
    algebra = example1_algebra(ResidueRing(2))
    f = example1_cubic(algebra)
    w = counterexample_hunt(f, algebra)
    # pseudoroots of every splitting of this scalar cubic are roots
    assert w is None


def test_search_is_deterministic():
    algebra = example1_algebra(ResidueRing(3))
    f = example1_cubic(algebra)
    task = SearchTask(algebra, f, 3, "all_splittings")
    first = enumerate_splittings(task)
    second = enumerate_splittings(task)
    assert first.witnesses == second.witnesses
    assert first.cycle_ids == second.cycle_ids

    ring = parse_ring_spec("UT:2:Zmod:2")
    ftarget = from_int_coeffs(ring, [0, 0, -1, 1])
    t2 = SearchTask(ring, ftarget, 3, "all_splittings")
    lines = list(enumerate_splittings(t2).to_json_lines())
    assert lines == list(enumerate_splittings(t2).to_json_lines())


def test_run_task_dispatch():
    ring = parse_ring_spec("Zmod:4")
    f = from_int_coeffs(ring, [0, 0, 1])
    # 2*2 = 4 = 0, so 2 is a root of X^2 alongside 0
    assert find_roots(f, ring) == [
        ring.zero(),
        ring.from_int(2),
    ]
    assert counterexample_hunt(f, ring) is None
    outcome = enumerate_splittings(SearchTask(ring, f, 2, "all_splittings"))
    assert outcome.cycle_count == 2


@pytest.mark.parametrize("spec", ["Zmod:6", "UT:2:Zmod:3", "Mat:2:Zmod:2", "example1:Zmod:3"])
def test_find_roots_matches_reference_scan(spec):
    # two-sided roots against a scan with the power-sum evaluation; targets
    # g (X - a) and (X - a) g with non-central g have roots on one side only
    if spec == "example1:Zmod:3":
        ring = example1_algebra(ResidueRing(3))
    else:
        ring = parse_ring_spec(spec)
    elems = list(ring.elements())
    rng = random.Random(zlib.crc32(spec.encode()))
    targets = [poly(ring, []), from_int_coeffs(ring, [0, -1, 1]), from_int_coeffs(ring, [0, -1, 0, 1])]
    for _ in range(12):
        g = poly(ring, [random_element(ring, rng) for _ in range(2)])
        a = random_element(ring, rng)
        h = poly(ring, [random_element(ring, rng) for _ in range(3)])
        targets += [g * x_minus(a), x_minus(a) * g, h]
    right_only = left_only = 0
    for f in targets:
        right = {a.payload for a in elems if eval_reference(f, a, "right").is_zero}
        left = {a.payload for a in elems if eval_reference(f, a, "left").is_zero}
        assert find_roots(f) == [a for a in elems if a.payload in right & left]
        right_only += bool(right - left)
        left_only += bool(left - right)
    if not ring.is_commutative:
        assert right_only and left_only


def test_size_guards():
    with pytest.raises(Exception):
        SearchTask(parse_ring_spec("Z"), from_int_coeffs(parse_ring_spec("Z"), [1, 1]), 1, "all_splittings")
    big = parse_ring_spec("Mat:3:Zmod:101")  # 101^9 elements
    f = from_int_coeffs(big, [0, 0, 1])
    with pytest.raises(SearchSpaceTooLargeError):
        find_roots(f, big)


def test_finite_ring_cache_matches_element_arithmetic():
    ring = parse_ring_spec("UT:2:Zmod:3")
    cache = CayleyTables(ring)
    rng = random.Random(6)
    elems = cache.elements
    for _ in range(300):
        i, j = rng.randrange(len(elems)), rng.randrange(len(elems))
        assert elems[cache.add[i][j]] == elems[i] + elems[j]
        assert elems[cache.mul[i][j]] == elems[i] * elems[j]
        assert elems[cache.neg[i]] == -elems[i]
        assert cache.commutes(i, j) == commutator(elems[i], elems[j]).is_zero
    # the division kernel on indices agrees with the Element-level division
    from cyclesplit.ncpoly import _divide_linear, left_divide_linear, right_divide_linear

    for _ in range(100):
        coeffs = tuple(rng.randrange(len(elems)) for _ in range(4))
        a = rng.randrange(len(elems))
        f = poly(ring, [elems[c] for c in coeffs])
        for right, divide in ((True, right_divide_linear), (False, left_divide_linear)):
            q, r = divide(f, elems[a])
            qi, ri = _divide_linear(cache, coeffs, a, right)
            assert elems[ri] == r
            assert [elems[c] for c in qi] == list(q.coeffs) + [ring.zero()] * (
                len(qi) - len(q.coeffs)
            )
        assert elems[_divide_linear(cache, coeffs, a, True)[1]] == right_eval(f, elems[a])


def test_cache_linear_factor_product():
    ring = parse_ring_spec("UT:2:Zmod:2")
    cache = CayleyTables(ring)
    rng = random.Random(7)
    for _ in range(60):
        idxs = tuple(rng.randrange(len(cache)) for _ in range(3))
        w = SplittingWitness(
            ring, ring.one(), tuple(cache.elements[i] for i in idxs)
        )
        expected = expand(w)
        got = cache.linear_factor_product(idxs)
        padded = list(expected.coeffs) + [ring.zero()] * (
            len(got) - len(expected.coeffs)
        )
        assert [cache.elements[c] for c in got] == padded
