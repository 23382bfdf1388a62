"""Polynomials over a possibly noncommutative ring with a central variable.

Coefficients are stored low to high: ``coeffs[i]`` multiplies X^i, with no
trailing zero above the degree. The variable commutes with everything, so
products convolve coefficients while preserving their order:
(f*g)_k = sum over i+j=k of f_i * g_j, with f's coefficient on the left.

The degree of the zero polynomial is ``None`` (a bona fide "minus infinity"
marker), never an integer sentinel.

Division by X - a, on either side, is one synthetic-division kernel over
payload lists (``_divide_linear``): ``right_divide_linear`` and
``left_divide_linear`` wrap it for ``NCPoly`` and ``Element`` values, so a
division runs its Horner loop on payloads and wraps only the quotient and the
remainder. Evaluation is that remainder: right_eval(f, a) = sum f_i a^i is
the remainder of right division by X - a and left_eval the remainder of left
division, so a is a root exactly when X - a divides f on that side. Products
and ``expand`` still work on elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Element, Record, Ring, RingMismatchError

# The largest exponent the polynomial parser accepts and the largest factor
# count a splitting search takes (the search recurses once per factor).
MAX_DEGREE = 256


class CommutationError(Exception):
    """A coefficient fails to commute with the evaluation point."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(
            message or f"coefficient at degree {index} does not commute with the point"
        )


@dataclass(frozen=True)
class NCPoly(Record):
    ring: Ring
    coeffs: tuple[Element, ...]

    def __post_init__(self):
        ring = self.ring
        for c in self.coeffs:
            if c.ring is not ring and c.ring != ring:
                raise RingMismatchError("coefficient belongs to a different ring")
        if self.coeffs and self.coeffs[-1].is_zero:
            raise ValueError("coefficients must be normalized (use poly())")

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return poly(
            self.ring, [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return NCPoly(self.ring, ())
        out = [self.ring.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, fi in enumerate(self.coeffs):
            if fi.is_zero:
                continue
            for j, gj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + fi * gj
        return poly(self.ring, out)

    def _check(self, other):
        if not isinstance(other, NCPoly):
            raise TypeError(f"expected NCPoly, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("polynomials over different rings")

    def __repr__(self):
        return f"NCPoly(degree={self.degree}, coeffs={[c.payload for c in self.coeffs]})"


def poly(ring: Ring, coeffs) -> NCPoly:
    """Build a normalized polynomial from a low-to-high coefficient sequence."""
    cs = list(coeffs)
    for c in cs:
        if not isinstance(c, Element):
            raise TypeError("coefficients must be ring elements")
    while cs and cs[-1].is_zero:
        cs.pop()
    return NCPoly(ring, tuple(cs))


def from_int_coeffs(ring: Ring, ints) -> NCPoly:
    """Polynomial with scalar coefficients given as integers, embedded via n*1."""
    return poly(ring, [ring.from_int(n) for n in ints])


def x_power(ring: Ring, k: int) -> NCPoly:
    return poly(ring, [ring.zero()] * k + [ring.one()])


def x_minus(a: Element) -> NCPoly:
    """The monic linear polynomial X - a."""
    return poly(a.ring, [-a, a.ring.one()])


def constant(a: Element) -> NCPoly:
    return poly(a.ring, [a])


def poly_from_json(obj, ring: Ring | None = None) -> NCPoly:
    from .rings import parse_ring_spec

    r = ring if ring is not None else parse_ring_spec(obj["ring"])
    return poly(r, [r.element_from_json(c) for c in obj["coeffs"]])


def _divide_linear(ring: Ring, coeffs, a, right: bool):
    """Synthetic division of sum(coeffs[i] X^i) by X - a on payloads.

    ``coeffs`` lists payloads low to high; an empty list, the zero
    polynomial, divides with empty quotient and remainder 0. Horner's
    partial sums are the quotient: q_{n-1} = f_n, then q_{j-1} = f_j + q_j a
    going down, and the last sum f_0 + q_0 a is the remainder. ``right``
    puts a on the right of each partial sum (f = q (X - a) + r); otherwise
    on the left (f = (X - a) q + r). Returns (quotient payloads low to high,
    remainder payload); the quotient's top is f_n, so it stays normalized.
    """
    add, mul = ring._add, ring._mul
    times = mul if right else (lambda p, b: mul(b, p))
    acc = coeffs[-1] if coeffs else ring._zero
    partial = []
    for j in range(len(coeffs) - 2, -1, -1):
        partial.append(acc)
        acc = add(coeffs[j], times(acc, a))
    partial.reverse()
    return partial, acc


def _divide_payloads(f: NCPoly, a: Element, right: bool, point: str):
    """``_divide_linear`` on f's coefficient payloads, after checking that a
    lies in f's ring (``point`` names a in the error)."""
    if a.ring is not f.ring and a.ring != f.ring:
        raise RingMismatchError(f"{point} belongs to a different ring")
    return _divide_linear(f.ring, [c.payload for c in f.coeffs], a.payload, right)


def _divide_element(f: NCPoly, a: Element, right: bool) -> tuple[NCPoly, Element]:
    ring = f.ring
    q, r = _divide_payloads(f, a, right, "divisor point")
    return NCPoly(ring, tuple([Element(ring, p) for p in q])), Element(ring, r)


def right_divide_linear(f: NCPoly, a: Element) -> tuple[NCPoly, Element]:
    """Unique (q, r) with f = q * (X - a) + r.

    Synthetic division (``_divide_linear``), total for any a since X - a is
    monic.
    """
    return _divide_element(f, a, right=True)


def left_divide_linear(f: NCPoly, a: Element) -> tuple[NCPoly, Element]:
    """Unique (q, r) with f = (X - a) * q + r (the same recurrence with a
    on the left)."""
    return _divide_element(f, a, right=False)


def right_eval(f: NCPoly, a: Element) -> Element:
    """Sum of f_i * a^i (coefficients on the left): the remainder of right
    division by X - a."""
    return Element(f.ring, _divide_payloads(f, a, True, "evaluation point")[1])


def left_eval(f: NCPoly, a: Element) -> Element:
    """Sum of a^i * f_i: the remainder of left division by X - a."""
    return Element(f.ring, _divide_payloads(f, a, False, "evaluation point")[1])


def eval_commuting(f: NCPoly, a: Element) -> Element:
    """Substitution X -> a, legal only when every coefficient commutes with a.

    Raises CommutationError naming the offending coefficient degree otherwise.
    """
    for i, c in enumerate(f.coeffs):
        if not (c * a - a * c).is_zero:
            raise CommutationError(i)
    return right_eval(f, a)
