"""Bundled worked examples driving the ``example1`` and ``example2`` CLI suites.

Example 1 splits the cubic X^3 - X^2, which has a double root over the
scalars, into three distinct monic linear factors inside the upper
triangular 2x2 matrices. The same splitting lives in an abstract rank-3
table algebra on the three pseudoroots; the two presentations are
isomorphic via a_1 -> E22, a_2 -> -E12, a_3 -> E11 + E12.

Example 2 splits X^3 - 4 over 3x3 integer matrices. Reduced modulo 3 the
three pseudoroots collapse to a single matrix and the cubic becomes a
perfect cube, while over the rationals the pseudoroots generate the whole
matrix algebra, which ``rings.generated_subalgebra`` computes.
"""

from __future__ import annotations

from .ncpoly import NCPoly, from_int_coeffs
from .rings import (
    Element,
    MatrixRing,
    Ring,
    TableAlgebra,
    TableAlgebraDescriptor,
)
from .splitting import SplittingWitness

# -- Example 1: X^3 - X^2 over upper triangular 2x2 matrices -----------------

EXAMPLE1_GRIDS = (
    ((0, 0), (0, 1)),
    ((0, -1), (0, 0)),
    ((1, 1), (0, 0)),
)

# e_i * e_j as coefficient vectors over the basis (e_1, e_2, e_3); the unit
# of the algebra is e_1 + e_2 + e_3.
EXAMPLE1_DESCRIPTOR = TableAlgebraDescriptor(
    basis_size=3,
    structure_constants=(
        ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
        ((0, -1, 0), (0, 1, 0), (0, 0, 1)),
    ),
    unit_vector=(1, 1, 1),
)

def example1_cubic(ring: Ring) -> NCPoly:
    """X^3 - X^2 with scalar coefficients embedded into ``ring``."""
    return from_int_coeffs(ring, [0, 0, -1, 1])


def example1_matrix_ring(base: Ring) -> MatrixRing:
    return MatrixRing(2, base, upper_triangular=True)


def example1_matrices(ring: Ring) -> tuple[Element, Element, Element]:
    """The three pseudoroots as elements of a 2x2 matrix ring over any base."""
    return tuple(ring.element(grid) for grid in EXAMPLE1_GRIDS)


def example1_witness(ring: Ring) -> SplittingWitness:
    a1, a2, a3 = example1_matrices(ring)
    return SplittingWitness(ring, ring.one(), (a1, a2, a3))


def example1_algebra(base: Ring) -> TableAlgebra:
    """The rank-3 table algebra generated by the three pseudoroots."""
    return TableAlgebra(EXAMPLE1_DESCRIPTOR, base)


def verify_example1_isomorphism(base: Ring) -> bool:
    """Check that basis -> (E22, -E12, E11+E12) extends to a unital ring
    isomorphism from the table algebra onto UT(2, base).

    The map is base-linear on the basis; multiplicativity is checked on all
    basis pairs, the unit goes to the identity, and for finite bases
    bijectivity follows from injectivity on coordinates (the images are a
    module basis of UT(2)).
    """
    algebra = example1_algebra(base)
    ring = example1_matrix_ring(base)
    images = example1_matrices(ring)  # the basis goes to the pseudoroots
    basis = algebra.basis_elements()

    def phi(x: Element) -> Element:
        acc = ring.zero()
        for coord, img in zip(x.payload, images):
            acc = acc + ring.from_base_scalar(coord) * img
        return acc

    multiplicative = all(phi(x * y) == phi(x) * phi(y) for x in basis for y in basis)
    # the three images span UT(2) freely: E22, -E12, E11+E12 have unimodular
    # coordinates over (E11, E12, E22), so phi is bijective over any base
    return multiplicative and phi(algebra.one()) == ring.one()


# -- plain-text tables, for example 1's multiplication table and endo's -------


def render_vec(v) -> str:
    """A coordinate vector over (a_1, a_2, a_3) as a sum of named terms."""
    terms = []
    for coeff, name in zip(v, ("a1", "a2", "a3")):
        if coeff == 0:
            continue
        terms.append(name if coeff == 1 else f"{coeff}*{name}")
    return " + ".join(terms) if terms else "0"


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    cols = [headers] + rows
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)


# -- Example 2: X^3 - 4 over 3x3 matrices -------------------------------------

EXAMPLE2_GRIDS = (
    ((0, 2, 0), (0, 0, 2), (1, 0, 0)),
    ((0, -1, 0), (0, 0, 2), (-2, 0, 0)),
    ((0, -1, 0), (0, 0, -4), (1, 0, 0)),
)

EXAMPLE2_COMMUTATOR_GRID = ((0, 0, 6), (-6, 0, 0), (0, 3, 0))


def example2_cubic(ring: Ring) -> NCPoly:
    """X^3 - 4 with scalar coefficients embedded into ``ring``."""
    return from_int_coeffs(ring, [-4, 0, 0, 1])


def example2_matrix_ring(base: Ring) -> MatrixRing:
    return MatrixRing(3, base)


def example2_matrices(ring: Ring) -> tuple[Element, Element, Element]:
    return tuple(ring.element(grid) for grid in EXAMPLE2_GRIDS)


def example2_witness(ring: Ring) -> SplittingWitness:
    a1, a2, a3 = example2_matrices(ring)
    return SplittingWitness(ring, ring.one(), (a1, a2, a3))


def example2_centralizer_element(ring: MatrixRing, alpha, beta, gamma) -> Element:
    """The centralizer shape: rows (a, b, 2c), (-2c, a, b), (-b, c, a)."""
    b = ring.base
    al, be, ga = b._canon(alpha), b._canon(beta), b._canon(gamma)
    two_ga = b._mul(b._from_int(2), ga)
    return ring.element(
        (
            (al, be, two_ga),
            (b._neg(two_ga), al, be),
            (b._neg(be), ga, al),
        )
    )
