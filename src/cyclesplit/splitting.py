"""Cyclic splittings of polynomials into monic linear factors.

A splitting witness is a leading coefficient together with an ordered tuple
of pseudoroots (a_1, ..., a_n); it expands to f_n (X - a_1) ... (X - a_n).
When every coefficient of the expanded polynomial commutes with every
pseudoroot, cyclically rotating the factors leaves the product unchanged and
every pseudoroot is a two-sided root. The checker below reports all of that,
plus the commutators that obstruct transposing adjacent factors.

Witnesses and reports serialize by the one ``rings.Record`` rule, except
``VandermondeReport``: its rows and determinant are scalar payloads.
"""

from __future__ import annotations

from .ncpoly import (
    CommutationError,
    NCPoly,
    _point,
    constant,
    right_divide_linear,
    right_eval,
    x_minus,
)
from .rings import (
    Element,
    FreeModuleRing,
    MatrixRing,
    Record,
    Ring,
    RingMismatchError,
    UnsupportedOperationError,
    Value,
    _noncommuting,
    commutator,
    json_list,
    parse_ring_spec,
)


class NotAFactorError(Exception):
    """Right division left a nonzero remainder."""


class FactorCommutationError(Exception):
    """A checked conclusion about quotient commutation failed. Seeing this
    error means the arithmetic itself is broken; it should never fire."""


class SplittingWitness(Record):
    _fields = ("ring", "leading", "pseudoroots")

    def _validate(self):
        if len(self.pseudoroots) < 1:
            raise ValueError("a witness needs at least one pseudoroot")
        if self.leading.ring != self.ring:
            raise RingMismatchError("leading coefficient belongs to a different ring")
        for a in self.pseudoroots:
            if a.ring != self.ring:
                raise RingMismatchError("pseudoroot belongs to a different ring")


def witness(ring: Ring, leading: Element, pseudoroots) -> SplittingWitness:
    return SplittingWitness(ring, leading, tuple(pseudoroots))


def witness_from_json(obj) -> SplittingWitness:
    ring = parse_ring_spec(obj["ring"])
    roots = json_list(obj["pseudoroots"], "pseudoroots")
    return SplittingWitness(
        ring, ring.element_from_json(obj["leading"]), tuple(map(ring.element_from_json, roots))
    )


def expand(w: SplittingWitness) -> NCPoly:
    """Left-to-right product f_n (X - a_1) ... (X - a_n)."""
    acc = constant(w.leading)
    for a in w.pseudoroots:
        acc = acc * x_minus(a)
    return acc


def rotate(w: SplittingWitness, k: int) -> SplittingWitness:
    """Cyclic shift of the factor tuple; k = 1 moves the last factor to the
    front, k = n is the identity."""
    n = len(w.pseudoroots)
    k %= n
    if k == 0:
        return w
    return SplittingWitness(w.ring, w.leading, w.pseudoroots[-k:] + w.pseudoroots[:-k])


def commutation_hypothesis(f: NCPoly, pseudoroots) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Does every coefficient of f commute with every pseudoroot?

    Violations are (coefficient degree, pseudoroot position) pairs, the
    position counted from 1.
    """
    violations = sorted(
        (i, k)
        for k, a in enumerate(pseudoroots, start=1)
        for i in _noncommuting(f.ring, f.payloads, _point(f, a, "pseudoroot"))
    )
    return not violations, tuple(violations)


class CyclicSplittingReport(Record):
    """Everything the rotation/root check finds about one witness.

    ``roots_ok`` lists (position, right value of f at that pseudoroot).
    ``root_mode`` is "commuting" when the hypothesis holds, where that value
    is the commuting substitution, and "right" otherwise.
    """

    _fields = (
        "witness", "expanded", "commutation_ok", "commutation_violations", "rotations_equal",
        "first_differing_rotation", "root_mode", "roots_ok", "obstructions",
    )

    @property
    def all_roots_zero(self) -> bool:
        return all(v.is_zero for _, v in self.roots_ok)

    @property
    def passed(self) -> bool:
        return self.commutation_ok and self.rotations_equal and self.all_roots_zero

    @property
    def consistent_with_cyclic_law(self) -> bool:
        """Hypothesis implies conclusions; vacuously true without it."""
        return (not self.commutation_ok) or (self.rotations_equal and self.all_roots_zero)


def verify_cyclic_splitting(w: SplittingWitness) -> CyclicSplittingReport:
    """Expand a witness and check rotation invariance and the root property.

    The commutation hypothesis is checked against the expanded polynomial's
    own coefficients. All findings are reported; nothing raises.
    """
    f = expand(w)
    ok, violations = commutation_hypothesis(f, w.pseudoroots)
    n = len(w.pseudoroots)

    first_diff = next((k for k in range(1, n) if expand(rotate(w, k)) != f), None)

    root_mode = "commuting" if ok else "right"
    values = tuple((k, right_eval(f, a)) for k, a in enumerate(w.pseudoroots, start=1))

    obstructions = tuple(
        commutator(w.pseudoroots[i], w.pseudoroots[(i + 1) % n]) for i in range(n)
    )
    return CyclicSplittingReport(
        witness=w,
        expanded=f,
        commutation_ok=ok,
        commutation_violations=violations,
        rotations_equal=first_diff is None,
        first_differing_rotation=first_diff,
        root_mode=root_mode,
        roots_ok=values,
        obstructions=obstructions,
    )


def factor_out_commuting_root(f: NCPoly, a: Element) -> NCPoly:
    """Divide f by (X - a) on the right, given that every coefficient of f
    commutes with a and the remainder vanishes.

    The quotient's coefficients then also commute with a; that conclusion is
    re-checked at runtime and a failure raises FactorCommutationError.
    """
    for i in _noncommuting(f.ring, f.payloads, _point(f, a, "point")):
        raise CommutationError(i)
    q, r = right_divide_linear(f, a)
    if not r.is_zero:
        raise NotAFactorError("X - a does not divide f on the right")
    for i in _noncommuting(q.ring, q.payloads, a.payload):
        raise FactorCommutationError(f"quotient coefficient at degree {i} fails to commute")
    return q


# ---------------------------------------------------------------------------
# Vandermonde block matrix
# ---------------------------------------------------------------------------


class VandermondeReport(Value):
    """Flattened block Vandermonde matrix of a witness.

    Row block i holds the (n-1-i)-th powers of the pseudoroots, so the top
    block row has the highest powers and the bottom one is all ones.
    Flattening is block-row-major. ``base`` is the innermost scalar ring,
    and ``det`` and ``invertible`` refer to the flattened matrix over it.
    """

    _fields = ("base", "size", "rows", "det", "invertible")

    def to_json(self):
        return {
            "base": self.base.spec_string(),
            "size": self.size,
            "rows": [[self.base.payload_to_json(e) for e in row] for row in self.rows],
            "det": self.base.payload_to_json(self.base._canon(self.det)),
            "invertible": self.invertible,
        }


def vandermonde(w: SplittingWitness) -> VandermondeReport:
    """The block Vandermonde matrix (a_j^(n-1-i)), each block the scalar matrix
    of the power (the matrix itself over Z, Q or Z/n, left multiplication in a
    table algebra), with its determinant over the innermost scalar ring."""
    ring = w.ring
    if not isinstance(ring, FreeModuleRing):
        raise UnsupportedOperationError("vandermonde needs a matrix ring or table algebra")
    n = len(w.pseudoroots)
    # the scalar matrix of an n x n matrix over the ring is its flattening
    powers = tuple(tuple((a ** (n - 1 - i)).payload for a in w.pseudoroots) for i in range(n))
    rows = MatrixRing(n, ring).scalar_matrix(powers)
    s = ring.scalar_ring
    det = s.det(rows)
    return VandermondeReport(
        base=s,
        size=len(rows),
        rows=tuple(map(tuple, rows)),
        det=det,
        invertible=s._is_unit(s._canon(det)),
    )


# ---------------------------------------------------------------------------
# evaluation homomorphism of a splitting
# ---------------------------------------------------------------------------


class EvaluationHomReport(Record):
    """Pointwise check that p -> (p(a_1), ..., p(a_n)) behaves like a ring
    homomorphism on the samples, kills the expanded polynomial, and commutes
    with cyclic rotation of the witness."""

    _fields = (
        "witness", "sample_values", "additive_ok", "multiplicative_ok", "zero_tuple_ok",
        "rotation_permutes_ok",
    )

    @property
    def passed(self) -> bool:
        return (
            self.additive_ok
            and self.multiplicative_ok
            and self.zero_tuple_ok
            and self.rotation_permutes_ok
        )


def check_evaluation_homomorphism(w: SplittingWitness, samples) -> EvaluationHomReport:
    """Verify the simultaneous-evaluation map on a list of sample polynomials.

    Preconditions (raised as CommutationError when violated): the expanded
    polynomial and every sample have coefficients commuting with every
    pseudoroot.
    """
    samples = list(samples)
    f = expand(w)
    for p, what in [(f, "witness"), *((p, "sample polynomial") for p in samples)]:
        ok, violations = commutation_hypothesis(p, w.pseudoroots)
        if not ok:
            raise CommutationError(violations[0][0], f"{what} violates the commutation hypothesis")

    # sums and products of commuting coefficients commute too, so every
    # polynomial below meets the hypothesis and evaluates on the right
    def ev(p, points=w.pseudoroots):
        return tuple(right_eval(p, a) for a in points)

    values = tuple(map(ev, samples))
    pairs = [(p, q, x, y) for p, x in zip(samples, values) for q, y in zip(samples, values)]
    additive_ok = all(ev(p + q) == tuple(a + b for a, b in zip(x, y)) for p, q, x, y in pairs)
    multiplicative_ok = all(ev(p * q) == tuple(a * b for a, b in zip(x, y)) for p, q, x, y in pairs)
    zero_tuple_ok = all(v.is_zero for v in ev(f))
    # rotation 0 is the witness itself
    rotation_permutes_ok = all(
        ev(p, rotate(w, k).pseudoroots) == x[-k:] + x[:-k]
        for k in range(1, len(w.pseudoroots))
        for p, x in zip(samples, values)
    )

    return EvaluationHomReport(
        witness=w,
        sample_values=values,
        additive_ok=additive_ok,
        multiplicative_ok=multiplicative_ok,
        zero_tuple_ok=zero_tuple_ok,
        rotation_permutes_ok=rotation_permutes_ok,
    )
