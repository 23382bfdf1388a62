"""Exact computer algebra for cyclic splittings of polynomials whose
coefficients need not commute."""

__version__ = "0.1.0"

from .rings import (
    CentralizerDescription,
    Element,
    IntegerRing,
    InfiniteRingError,
    MatrixRing,
    NotInvertibleError,
    RationalRing,
    ResidueRing,
    Ring,
    RingError,
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
from .ncpoly import (
    CommutationError,
    NCPoly,
    eval_commuting,
    from_int_coeffs,
    left_divide_linear,
    left_eval,
    poly,
    right_divide_linear,
    right_eval,
    x_minus,
    x_power,
)
from .splitting import (
    CyclicSplittingReport,
    SplittingWitness,
    check_evaluation_homomorphism,
    commutation_hypothesis,
    expand,
    factor_out_commuting_root,
    rotate,
    vandermonde,
    verify_cyclic_splitting,
    witness,
)
from .search import (
    SearchOutcome,
    SearchSpaceTooLargeError,
    SearchTask,
    counterexample_hunt,
    enumerate_splittings,
    find_roots,
)
