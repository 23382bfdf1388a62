import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclesplit import endo, splitting
from cyclesplit.examples import (
    example1_cubic,
    example1_matrix_ring,
    example1_witness,
    example2_cubic,
    example2_matrix_ring,
    example2_witness,
)
from cyclesplit.ncpoly import CommutationError, from_int_coeffs, poly, poly_from_json, x_minus
from cyclesplit.rings import Record, commutator, parse_ring_spec
from cyclesplit.search import SearchTask
from cyclesplit.splitting import (
    FactorCommutationError,
    NotAFactorError,
    SplittingWitness,
    check_evaluation_homomorphism,
    commutation_hypothesis,
    expand,
    factor_out_commuting_root,
    rotate,
    vandermonde,
    verify_cyclic_splitting,
    witness_from_json,
)
from helpers import flatten_blocks, product_commutation_check, random_element

Z = parse_ring_spec("Z")

EXPECTED_VANDERMONDE = (
    (0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 1),
    (0, 1, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
)


def test_expand_examples():
    w1 = example1_witness(example1_matrix_ring(Z))
    assert expand(w1) == example1_cubic(w1.ring)
    w2 = example2_witness(example2_matrix_ring(Z))
    assert expand(w2) == example2_cubic(w2.ring)

    ring = parse_ring_spec("Mat:2:Zmod:5")
    rng = random.Random(0)
    c, a = random_element(ring, rng), random_element(ring, rng)
    w = SplittingWitness(ring, c, (a,))
    assert expand(w) == poly(ring, [-(c * a), c])


def test_rotate_convention_and_laws():
    w = example1_witness(example1_matrix_ring(Z))
    a1, a2, a3 = w.pseudoroots
    assert rotate(w, 1).pseudoroots == (a3, a1, a2)
    assert rotate(w, 0) == w
    assert rotate(w, 3) == w
    for j in range(-3, 4):
        for k in range(-3, 4):
            assert rotate(rotate(w, j), k) == rotate(w, j + k)


def test_commutation_hypothesis_examples():
    w1 = example1_witness(example1_matrix_ring(Z))
    ok, violations = commutation_hypothesis(expand(w1), w1.pseudoroots)
    assert ok and violations == ()

    ring = parse_ring_spec("Mat:2:Zmod:2")
    a = ring.element(((0, 1), (0, 0)))
    b = ring.element(((1, 0), (0, 0)))
    f = poly(ring, [ring.zero(), a])  # a X
    ok, violations = commutation_hypothesis(f, [b])
    assert not ok
    assert violations == ((1, 1),)


def test_verify_cyclic_splitting_on_examples():
    for w in (
        example1_witness(example1_matrix_ring(Z)),
        example2_witness(example2_matrix_ring(Z)),
    ):
        report = verify_cyclic_splitting(w)
        assert report.commutation_ok
        assert report.rotations_equal
        assert report.first_differing_rotation is None
        assert report.root_mode == "commuting"
        assert report.all_roots_zero
        assert report.passed and report.consistent_with_cyclic_law
        assert all(not o.is_zero for o in report.obstructions)


def test_verify_cyclic_splitting_central_repeated_root():
    ring = parse_ring_spec("Mat:2:Zmod:5")
    c = ring.from_int(3)
    w = SplittingWitness(ring, ring.one(), (c, c))
    report = verify_cyclic_splitting(w)
    assert report.rotations_equal and report.all_roots_zero
    assert all(o.is_zero for o in report.obstructions)


def test_verify_cyclic_splitting_negative_control():
    ring = example1_matrix_ring(Z)
    w = example1_witness(ring)
    a1, a2, a3 = w.pseudoroots
    perturbed = SplittingWitness(ring, ring.one(), (a1, a2, a3 + a2))
    report = verify_cyclic_splitting(perturbed)
    assert not report.passed
    assert report.consistent_with_cyclic_law  # hypothesis fails, so no claim
    assert not report.commutation_ok
    assert report.root_mode == "right"


def test_factor_out_commuting_root():
    ring = example1_matrix_ring(Z)
    w = example1_witness(ring)
    a1, a2, a3 = w.pseudoroots
    f = example1_cubic(ring)
    g = factor_out_commuting_root(f, a3)
    assert g == x_minus(a1) * x_minus(a2)
    assert all(commutator(c, a3).is_zero for c in g.coeffs)

    c = ring.from_int(4)
    assert factor_out_commuting_root(x_minus(c), c) == from_int_coeffs(ring, [1])

    with pytest.raises(NotAFactorError):
        factor_out_commuting_root(f, ring.from_int(7))
    with pytest.raises(CommutationError) as err:
        factor_out_commuting_root(poly(ring, [a1, ring.one()]), a2)
    assert err.value.index == 0
    # the first offending degree is named, not a later one
    with pytest.raises(CommutationError) as err:
        factor_out_commuting_root(poly(ring, [ring.one(), a1, a1]), a2)
    assert err.value.index == 1


def test_factor_out_commuting_root_reports_a_noncommuting_quotient(monkeypatch):
    # the quotient check cannot fail on correct arithmetic: feed it a bad
    # quotient, noncommuting first at degree 1, through the division
    ring = example1_matrix_ring(Z)
    a1, a2, _ = example1_witness(ring).pseudoroots
    bad = poly(ring, [ring.one(), a1, a1])
    monkeypatch.setattr(splitting, "right_divide_linear", lambda f, a: (bad, ring.zero()))
    with pytest.raises(FactorCommutationError, match="degree 1 "):
        factor_out_commuting_root(x_minus(ring.zero()), a2)


def test_factor_out_commuting_root_exhaustive_ut2_z3():
    # quadratics (X-a)(X-b) whose coefficients commute with b: the quotient
    # coefficients must commute with b
    ring = parse_ring_spec("UT:2:Zmod:3")
    elems = list(ring.elements())
    hits = 0
    for a in elems:
        for b in elems:
            f = x_minus(a) * x_minus(b)
            if not all(commutator(c, b).is_zero for c in f.coeffs):
                continue
            hits += 1
            q = factor_out_commuting_root(f, b)
            assert all(commutator(c, b).is_zero for c in q.coeffs)
    assert hits > 0


def test_product_commutation_check():
    ring = example1_matrix_ring(Z)
    a1, _, a3 = example1_witness(ring).pseudoroots
    assert product_commutation_check(x_minus(a1), a3)  # vacuously true
    assert product_commutation_check(from_int_coeffs(ring, [2, 0, 1]), ring.from_int(5))


def test_vandermonde_example1_exact_grid():
    w = example1_witness(example1_matrix_ring(Z))
    report = vandermonde(w)
    assert report.size == 6
    assert report.rows == EXPECTED_VANDERMONDE
    assert report.det == 0
    assert not report.invertible


def test_vandermonde_trivial_and_table_algebra():
    ring = parse_ring_spec("Mat:2:Z")
    w = SplittingWitness(ring, ring.one(), (ring.one(),))
    report = vandermonde(w)
    assert report.size == 2 and report.invertible and report.det == 1

    from cyclesplit.examples import example1_algebra

    algebra = example1_algebra(Z)
    wt = SplittingWitness(algebra, algebra.one(), algebra.basis_elements())
    rt = vandermonde(wt)
    # the left-regular flattening must agree with the matrix picture:
    # singular there, singular here
    assert not rt.invertible

    with pytest.raises(Exception):
        vandermonde(SplittingWitness(Z, Z.one(), (Z.one(),)))


def test_vandermonde_of_a_tower_matches_the_flat_ring():
    ring = parse_ring_spec("Mat:2:Mat:2:Zmod:2")
    flat = parse_ring_spec("Mat:4:Zmod:2")

    def flatten(x):
        return flat.element(flatten_blocks(x.payload))

    rng = random.Random(9)
    verdicts = set()
    for n in (1, 2, 3):
        for _ in range(4):
            roots = tuple(random_element(ring, rng) for _ in range(n))
            report = vandermonde(SplittingWitness(ring, ring.one(), roots))
            flat_report = vandermonde(
                SplittingWitness(flat, flat.one(), tuple(map(flatten, roots)))
            )
            assert report.base == flat_report.base == parse_ring_spec("Zmod:2")
            assert report.size == flat_report.size == 4 * n
            assert report.rows == flat_report.rows
            assert (report.det, report.invertible) == (flat_report.det, flat_report.invertible)
            verdicts.add(report.invertible)
    assert verdicts == {True, False}


def test_evaluation_homomorphism_example1_z5():
    ring = example1_matrix_ring(parse_ring_spec("Zmod:5"))
    w = example1_witness(ring)
    samples = [
        from_int_coeffs(ring, [0, 1]),        # X
        from_int_coeffs(ring, [0, 0, 1]),     # X^2
        from_int_coeffs(ring, [-1, 1]),       # X - 1
        expand(w),
        from_int_coeffs(ring, [1]),           # 1
    ]
    report = check_evaluation_homomorphism(w, samples)
    assert report.passed
    assert report.additive_ok and report.multiplicative_ok
    assert report.zero_tuple_ok and report.rotation_permutes_ok
    # the unit sample evaluates to a tuple of units
    unit_tuple = report.sample_values[4]
    assert all(v == ring.one() for v in unit_tuple)


def test_evaluation_homomorphism_catches_a_wrong_value(monkeypatch):
    # an evaluation off by one at one pseudoroot breaks the sums and the
    # products; a check that compared values with themselves would pass
    ring = example1_matrix_ring(parse_ring_spec("Zmod:5"))
    w = example1_witness(ring)
    bad, right_eval = w.pseudoroots[1], splitting.right_eval
    monkeypatch.setattr(
        splitting, "right_eval", lambda f, a: right_eval(f, a) + (ring.one() if a == bad else 0)
    )
    samples = [from_int_coeffs(ring, [0, 1]), from_int_coeffs(ring, [-1, 1])]
    report = check_evaluation_homomorphism(w, samples)
    assert not report.additive_ok and not report.multiplicative_ok


def test_evaluation_homomorphism_rejects_bad_samples():
    ring = example1_matrix_ring(Z)
    w = example1_witness(ring)
    a1 = w.pseudoroots[0]
    with pytest.raises(CommutationError):
        check_evaluation_homomorphism(w, [poly(ring, [a1, ring.one()])])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjacent_swap_changes_product_iff_commutator_nonzero(data):
    ring = parse_ring_spec("UT:2:Zmod:3")
    elems = st.sampled_from(list(ring.elements()))
    roots = tuple(data.draw(elems) for _ in range(3))
    w = SplittingWitness(ring, ring.one(), roots)
    f = expand(w)
    for i in range(2):
        swapped = list(roots)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        same = expand(SplittingWitness(ring, ring.one(), tuple(swapped))) == f
        local_same = x_minus(roots[i]) * x_minus(roots[i + 1]) == x_minus(
            roots[i + 1]
        ) * x_minus(roots[i])
        assert same == local_same
        assert local_same == commutator(roots[i], roots[i + 1]).is_zero


def test_cyclic_law_on_seeded_samples():
    # random triples over Mat:2:Zmod:5 and the bundled example rings: the
    # report must never contradict the cyclic law (hypothesis-satisfying
    # witnesses rotate invariantly and have only roots as pseudoroots)
    from cyclesplit.examples import example1_algebra

    rings = [
        parse_ring_spec("Mat:2:Zmod:5"),
        example1_matrix_ring(parse_ring_spec("Zmod:5")),
        example1_algebra(parse_ring_spec("Zmod:3")),
        example2_matrix_ring(parse_ring_spec("Zmod:2")),
    ]
    rng = random.Random(20_25)
    hypothesis_hits = 0
    for ring in rings:
        for _ in range(800):
            w = SplittingWitness(
                ring, ring.one(), tuple(random_element(ring, rng) for _ in range(3))
            )
            report = verify_cyclic_splitting(w)
            assert report.consistent_with_cyclic_law
            if report.commutation_ok:
                hypothesis_hits += 1
    # scalar-ish triples do appear in the samples
    assert hypothesis_hits > 0


def test_witness_json_round_trip(tmp_path):
    w = example1_witness(example1_matrix_ring(Z))
    blob = json.dumps(w.to_json())
    assert witness_from_json(json.loads(blob)) == w


def test_report_json_shape():
    w = example2_witness(example2_matrix_ring(Z))
    blob = verify_cyclic_splitting(w).to_json()
    assert list(blob) == [
        "witness",
        "expanded",
        "commutation_ok",
        "commutation_violations",
        "rotations_equal",
        "first_differing_rotation",
        "root_mode",
        "roots_ok",
        "obstructions",
        "passed",
    ]
    json.dumps(blob)  # serializable

    # a polynomial writes its ring and its coefficients' payload JSON
    ring = example1_matrix_ring(parse_ring_spec("Zmod:5"))
    w1 = example1_witness(ring)
    f = expand(w1)
    assert f.to_json() == {
        "ring": "UT:2:Zmod:5",
        "coeffs": [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[4, 0], [0, 4]], [[1, 0], [0, 1]]],
    }
    assert list(f.to_json()) == ["ring", "coeffs"]
    assert poly_from_json(json.loads(json.dumps(f.to_json()))) == f

    # every record serializes to exactly its field names, in declaration
    # order, then ``passed`` where the class defines it
    suite = endo.full_suite(2)
    records = [
        w1,
        verify_cyclic_splitting(w1),
        check_evaluation_homomorphism(w1, [from_int_coeffs(ring, [0, 1])]),
        SearchTask(ring, expand(w1), 3, "all_splittings"),
        suite,
        suite.monoid,
        suite.cycles,
        suite.actions,
        suite.poset,
        suite.translate,
    ]
    assert {type(r) for r in records} == set(Record.__subclasses__())
    # the field names of each record, pinned: they are its JSON keys
    fields = {
        "SplittingWitness": "ring leading pseudoroots",
        "CyclicSplittingReport": "witness expanded commutation_ok commutation_violations "
        "rotations_equal first_differing_rotation root_mode roots_ok obstructions",
        "EvaluationHomReport": "witness sample_values additive_ok multiplicative_ok "
        "zero_tuple_ok rotation_permutes_ok",
        "SearchTask": "ring target n mode",
        "EndoSuiteReport": "p monoid cycles actions poset translate",
        "MonoidTableReport": "p endo_count automorphism_count unclassified mismatches "
        "total_pairs frozen_order_agreement reversed_order_agreement neutral_ok "
        "invertibles_ok composition_order",
        "CycleSuiteReport": "p root_record_count distinct_root_count cycle_class_count "
        "splitting_count roots_are_union_of_supports basis_classes_ok",
        "ActionTablesReport": "p root_action_checks root_action_mismatches "
        "cycle_action_checks cycle_action_mismatches images_are_roots",
        "PosetReport": "p minpoly_table_ok monotone_ok automorphisms_preserve_ok "
        "level_order_ok failing_kinds exception_patterns exception_pattern_ok "
        "failing_pair_count",
        "TranslateReport": "p roots_from_seeds roots_to_sinks cycles_from_seeds "
        "cycles_to_sink closure_needed",
    }
    for record in records:
        cls = type(record)
        assert cls._fields == tuple(fields[cls.__name__].split()), cls.__name__
        keys = list(cls._fields)
        if hasattr(cls, "passed"):
            keys.append("passed")
        blob = record.to_json()
        assert list(blob) == keys, cls.__name__
        assert "to_json" not in vars(cls), cls.__name__
        assert json.loads(json.dumps(blob)) == blob, cls.__name__
