"""The one value protocol (``rings.Value``) on every value type of the library:
equality, hashing, immutability, construction and ``repr``."""

import pytest

from cyclesplit import endo, rings, search, splitting
from cyclesplit.examples import EXAMPLE1_DESCRIPTOR
from cyclesplit.ncpoly import NCPoly
from cyclesplit.rings import Value

Z3 = rings.ResidueRing(3)
ALGEBRA = rings.TableAlgebra(EXAMPLE1_DESCRIPTOR, Z3)
X = NCPoly(Z3, (0, 1))
WITNESS = splitting.SplittingWitness(Z3, Z3.one(), (Z3.zero(),))
TASK = search.SearchTask(Z3, X, 1, "roots_only")
UNIT = EXAMPLE1_DESCRIPTOR.unit_vector


def _ints(cls):
    # records that check nothing at construction take any field values
    return tuple(range(len(cls._fields)))


# each class with field values for one instance, and its repr
CASES = {
    "Element": (rings.Element, (Z3, 2), "Element(Zmod:3, 2)"),
    "NCPoly": (NCPoly, (Z3, (0, 1)), "NCPoly(degree=1, coeffs=[0, 1])"),
    "IntegerRing": (rings.IntegerRing, (), "IntegerRing()"),
    "RationalRing": (rings.RationalRing, (), "RationalRing()"),
    "ResidueRing": (rings.ResidueRing, (3,), "ResidueRing(modulus=3)"),
    "MatrixRing": (
        rings.MatrixRing, (2, Z3, True),
        "MatrixRing(size=2, base=ResidueRing(modulus=3), upper_triangular=True)",
    ),
    "TableAlgebraDescriptor": (
        rings.TableAlgebraDescriptor, (1, [[[1]]], [1]),
        "TableAlgebraDescriptor(basis_size=1, structure_constants=(((1,),),), unit_vector=(1,))",
    ),
    "TableAlgebra": (
        rings.TableAlgebra, (rings.TableAlgebraDescriptor(1, [[[1]]], [1]), Z3, "t.json"),
        "TableAlgebra(descriptor=TableAlgebraDescriptor(basis_size=1, structure_constants="
        "(((1,),),), unit_vector=(1,)), base=ResidueRing(modulus=3), source_path='t.json')",
    ),
    "CentralizerDescription": (
        rings.CentralizerDescription, (Z3, (), None, None, 3),
        "CentralizerDescription(ring=ResidueRing(modulus=3), gens=(), elements=None, "
        "basis=None, count=3)",
    ),
    "SearchTask": (
        search.SearchTask, (Z3, X, 1, "roots_only"),
        "SearchTask(ring=ResidueRing(modulus=3), target=NCPoly(degree=1, coeffs=[0, 1]), "
        "n=1, mode='roots_only')",
    ),
    "SearchOutcome": (
        search.SearchOutcome, (TASK, (WITNESS,), (0,), 1, 4),
        "SearchOutcome(task=SearchTask(ring=ResidueRing(modulus=3), target=NCPoly(degree=1, "
        "coeffs=[0, 1]), n=1, mode='roots_only'), witnesses=(SplittingWitness(ring="
        "ResidueRing(modulus=3), leading=Element(Zmod:3, 1), pseudoroots=(Element(Zmod:3, 0),)),),"
        " cycle_ids=(0,), cycle_count=1, nodes=4)",
    ),
    "SplittingWitness": (
        splitting.SplittingWitness, (Z3, Z3.one(), (Z3.zero(),)),
        "SplittingWitness(ring=ResidueRing(modulus=3), leading=Element(Zmod:3, 1), "
        "pseudoroots=(Element(Zmod:3, 0),))",
    ),
    "CyclicSplittingReport": (
        splitting.CyclicSplittingReport, _ints(splitting.CyclicSplittingReport),
        "CyclicSplittingReport(witness=0, expanded=1, commutation_ok=2, "
        "commutation_violations=3, rotations_equal=4, first_differing_rotation=5, "
        "root_mode=6, roots_ok=7, obstructions=8)",
    ),
    "VandermondeReport": (
        splitting.VandermondeReport, (Z3, 1, ((1,),), 1, True),
        "VandermondeReport(base=ResidueRing(modulus=3), size=1, rows=((1,),), det=1, "
        "invertible=True)",
    ),
    "EvaluationHomReport": (
        splitting.EvaluationHomReport, _ints(splitting.EvaluationHomReport),
        "EvaluationHomReport(witness=0, sample_values=1, additive_ok=2, multiplicative_ok=3, "
        "zero_tuple_ok=4, rotation_permutes_ok=5)",
    ),
    "_Family": (endo._Family, ("r_t", (2,)), "_Family(kind='r_t', params=(2,))"),
    "EndoFamily": (endo.EndoFamily, ("eps_s", (1,)), "EndoFamily(kind='eps_s', params=(1,))"),
    "EndoMap": (
        endo.EndoMap, (ALGEBRA, (UNIT, (0, 0, 0), (0, 0, 0)), endo.EndoFamily("eps")),
        f"EndoMap(algebra={ALGEBRA!r}, images=((1, 1, 1), (0, 0, 0), (0, 0, 0)), "
        "family=EndoFamily(kind='eps', params=()))",
    ),
    "RootRecord": (
        endo.RootRecord, ((1, 1, 1), endo.RootFamily("r"), "X - 1"),
        "RootRecord(element=(1, 1, 1), family=RootFamily(kind='r', params=()), minpoly='X - 1')",
    ),
    "CycleRecord": (
        endo.CycleRecord, (ALGEBRA, ((0, 0, 0),) * 3, endo.CycleFamily("c_t", (0,))),
        f"CycleRecord(algebra={ALGEBRA!r}, roots=((0, 0, 0), (0, 0, 0), (0, 0, 0)), "
        "family=CycleFamily(kind='c_t', params=(0,)))",
    ),
    "MonoidTableReport": (
        endo.MonoidTableReport, _ints(endo.MonoidTableReport),
        "MonoidTableReport(p=0, endo_count=1, automorphism_count=2, unclassified=3, "
        "mismatches=4, total_pairs=5, frozen_order_agreement=6, reversed_order_agreement=7, "
        "neutral_ok=8, invertibles_ok=9, composition_order=10)",
    ),
    "CycleSuiteReport": (
        endo.CycleSuiteReport, _ints(endo.CycleSuiteReport),
        "CycleSuiteReport(p=0, root_record_count=1, distinct_root_count=2, "
        "cycle_class_count=3, splitting_count=4, roots_are_union_of_supports=5, "
        "basis_classes_ok=6)",
    ),
    "ActionTablesReport": (
        endo.ActionTablesReport, _ints(endo.ActionTablesReport),
        "ActionTablesReport(p=0, root_action_checks=1, root_action_mismatches=2, "
        "cycle_action_checks=3, cycle_action_mismatches=4, images_are_roots=5)",
    ),
    "PosetReport": (
        endo.PosetReport, _ints(endo.PosetReport),
        "PosetReport(p=0, minpoly_table_ok=1, monotone_ok=2, automorphisms_preserve_ok=3, "
        "level_order_ok=4, failing_kinds=5, exception_patterns=6, exception_pattern_ok=7, "
        "failing_pair_count=8)",
    ),
    "TranslateReport": (
        endo.TranslateReport, _ints(endo.TranslateReport),
        "TranslateReport(p=0, roots_from_seeds=1, roots_to_sinks=2, cycles_from_seeds=3, "
        "cycles_to_sink=4, closure_needed=5)",
    ),
    "EndoSuiteReport": (
        endo.EndoSuiteReport, _ints(endo.EndoSuiteReport),
        "EndoSuiteReport(p=0, monoid=1, cycles=2, actions=3, poset=4, translate=5)",
    ),
}

# the fields with a default, and the default
DEFAULTS = {
    rings.MatrixRing: ("upper_triangular", False),
    rings.TableAlgebra: ("source_path", None),
    search.SearchOutcome: ("nodes", 0),
    endo._Family: ("params", ()),
    endo.EndoFamily: ("params", ()),
    endo.MonoidTableReport: ("composition_order", endo.COMPOSITION_ORDER),
}


@pytest.mark.parametrize("name", CASES)
def test_value_protocol(name):
    cls, values, want_repr = CASES[name]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    # hashed like the tuple of the compared fields, which also fixes the
    # iteration order of a set of values
    compared = cls._fields[:2] if cls is rings.TableAlgebra else cls._fields
    assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in compared))
    assert repr(a) == want_repr

    # the same fields in another class give another value
    other = type("Other", (Value,), {"_fields": cls._fields})(*(getattr(a, n) for n in cls._fields))
    assert a != other and other != a

    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    # slots for elements, polynomials and family tags; the rings keep an
    # instance dict for their cached properties
    slotted = cls in (rings.Element, NCPoly) or issubclass(cls, endo._Family)
    assert hasattr(a, "__dict__") != slotted

    # keyword construction, defaults and the argument checks
    assert cls(**dict(zip(cls._fields, values))) == a
    if cls in DEFAULTS:
        field, default = DEFAULTS[cls]
        assert cls._fields[-1] == field
        assert getattr(cls(*values[:-1]), field) == default
    with pytest.raises(TypeError):
        cls(*values, None)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1], **{cls._fields[-1]: values[-1], "nonsense": 1})
    if cls is rings.TableAlgebra:
        moved = cls(*values[:2], source_path="elsewhere.json")
        assert moved == a and hash(moved) == hash(a) and moved.source_path == "elsewhere.json"
