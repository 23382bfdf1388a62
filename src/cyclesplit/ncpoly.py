"""Polynomials over a possibly noncommutative ring with a central variable.

A polynomial is its ring and its coefficients' canonical payloads, low to
high: ``payloads[i]`` multiplies X^i, with no trailing zero above the
degree. ``coeffs`` builds the ``Element`` tuple when it is read; nothing
else does. The variable commutes with everything, so products convolve
coefficients while preserving their order:
(f*g)_k = sum over i+j=k of f_i * g_j, with f's coefficient on the left.

The degree of the zero polynomial is ``None`` (a bona fide "minus infinity"
marker), never an integer sentinel.

All arithmetic runs on the ring's payload ops (``_add``, ``_mul``, ``_neg``).
Division by X - a, on either side, is one synthetic-division kernel
(``_divide_linear``), and evaluation is its remainder: right_eval(f, a) =
sum f_i a^i is the remainder of right division by X - a and left_eval the
remainder of left division, so a is a root exactly when X - a divides f on
that side. The kernel skips identities on canonical payloads: a partial
sum that is 0 or 1 takes no product and a zero summand takes no sum, so a
division of the monic, sparse X^3 - X takes two products and one sum, not
three of each. Whether a coefficient commutes with a point is the ring
layer's one payload test, ``rings._noncommuting``.
"""

from __future__ import annotations

from itertools import zip_longest

from .rings import Element, Ring, RingMismatchError, Value, _noncommuting, _require_int, json_list

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


class NCPoly(Value):
    """Unchecked like ``Element``: ``poly()`` is the checked builder."""

    __slots__ = _fields = ("ring", "payloads")

    def __init__(self, ring: Ring, payloads: tuple):
        if payloads and payloads[-1] == ring._zero:
            raise ValueError("coefficients must be normalized (use poly())")
        _set_ring(self, ring)
        _set_payloads(self, payloads)

    @property
    def coeffs(self) -> tuple[Element, ...]:
        """The coefficients as elements, low to high."""
        return tuple([Element(self.ring, p) for p in self.payloads])

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.payloads) - 1 if self.payloads else None

    @property
    def is_zero(self) -> bool:
        return not self.payloads

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        add = self.ring._add
        pairs = zip_longest(self.payloads, other.payloads, fillvalue=self.ring._zero)
        return _from_payloads(self.ring, [add(x, y) for x, y in pairs])

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return _from_payloads(self.ring, list(map(self.ring._neg, self.payloads)))

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        ring = self.ring
        f, g = self.payloads, other.payloads
        if not f or not g:
            return NCPoly(ring, ())
        add, mul, zero = ring._add, ring._mul, ring._zero
        out = [zero] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            if fi == zero:
                continue
            for j, gj in enumerate(g):
                out[i + j] = add(out[i + j], mul(fi, gj))
        return _from_payloads(ring, out)

    def _check(self, other):
        if not isinstance(other, NCPoly):
            raise TypeError(f"expected NCPoly, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("polynomials over different rings")

    def __repr__(self):
        return f"NCPoly(degree={self.degree}, coeffs={list(self.payloads)})"

    def to_json(self) -> dict:
        payload_json = self.ring.payload_to_json
        return {"ring": self.ring.spec_string(), "coeffs": list(map(payload_json, self.payloads))}


_set_ring, _set_payloads = NCPoly.ring.__set__, NCPoly.payloads.__set__


def poly(ring: Ring, coeffs) -> NCPoly:
    """A normalized polynomial from a low-to-high sequence of ``ring``'s elements."""
    payloads = []
    for c in coeffs:
        if not isinstance(c, Element):
            raise TypeError("coefficients must be ring elements")
        if c.ring is not ring and c.ring != ring:
            raise RingMismatchError("coefficient belongs to a different ring")
        payloads.append(c.payload)
    return _from_payloads(ring, payloads)


def _from_payloads(ring: Ring, payloads: list) -> NCPoly:
    """``poly`` on a list of canonical payloads, which it trims in place."""
    while payloads and payloads[-1] == ring._zero:
        payloads.pop()
    return NCPoly(ring, tuple(payloads))


def from_int_coeffs(ring: Ring, ints) -> NCPoly:
    """Polynomial with scalar coefficients given as integers, embedded via n*1."""
    return _from_payloads(ring, [ring._from_int(n) for n in ints])


def x_power(ring: Ring, k: int) -> NCPoly:
    if _require_int(k) < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k}")
    return _from_payloads(ring, [ring._zero] * k + [ring._one])


def x_minus(a: Element) -> NCPoly:
    """The monic linear polynomial X - a."""
    ring = a.ring
    return _from_payloads(ring, [ring._neg(a.payload), ring._one])


def constant(a: Element) -> NCPoly:
    return _from_payloads(a.ring, [a.payload])


def poly_from_json(obj, ring: Ring | None = None) -> NCPoly:
    """The polynomial of a JSON object, over ``ring`` or, when that is None,
    over the ring its ``"ring"`` key names. A ``"ring"`` key that names
    another ring than ``ring`` is a ValueError, and so are more than
    ``MAX_DEGREE + 1`` coefficients, the cap polynomial text has too."""
    from .rings import parse_ring_spec

    if ring is None or "ring" in obj:
        named = parse_ring_spec(obj["ring"])
        if ring is not None and named != ring:
            raise ValueError(f"the polynomial's ring {obj['ring']!r} is not {ring.spec_string()}")
        ring = named
    coeffs = json_list(obj["coeffs"], "coeffs")
    if len(coeffs) > MAX_DEGREE + 1:
        raise ValueError(f"{len(coeffs)} coefficients are above the cap of {MAX_DEGREE + 1}")
    return poly(ring, [ring.element_from_json(c) for c in coeffs])


def _divide_linear(ring: Ring, coeffs, a, right: bool):
    """Synthetic division of sum(coeffs[i] X^i) by X - a on payloads.

    ``coeffs`` lists payloads low to high; an empty list, the zero
    polynomial, divides with empty quotient and remainder 0. Horner's
    partial sums are the quotient: q_{n-1} = f_n, then q_{j-1} = f_j + q_j a
    going down, and the last sum f_0 + q_0 a is the remainder. ``right``
    puts a on the right of each partial sum (f = q (X - a) + r); otherwise
    on the left (f = (X - a) q + r). Returns (quotient payloads low to high,
    remainder payload); the quotient's top is f_n, so it stays normalized.

    Identities on canonical payloads cost nothing: a partial sum that is 0
    or 1 takes no product, and a summand that is 0 takes no sum.
    """
    add, mul, zero, one = ring._add, ring._mul, ring._zero, ring._one
    acc = coeffs[-1] if coeffs else zero
    partial = []
    for j in range(len(coeffs) - 2, -1, -1):
        partial.append(acc)
        if acc == zero:
            acc = coeffs[j]
            continue
        if acc == one:
            t = a
        else:
            t = mul(acc, a) if right else mul(a, acc)
        c = coeffs[j]
        acc = t if c == zero else c if t == zero else add(c, t)
    partial.reverse()
    return partial, acc


def _point(f: NCPoly, a: Element, what: str):
    """a's payload, after checking that a lies in f's ring."""
    if a.ring is not f.ring and a.ring != f.ring:
        raise RingMismatchError(f"{what} belongs to a different ring")
    return a.payload


def right_divide_linear(f: NCPoly, a: Element) -> tuple[NCPoly, Element]:
    """Unique (q, r) with f = q * (X - a) + r.

    Synthetic division (``_divide_linear``), total for any a since X - a is
    monic.
    """
    q, r = _divide_linear(f.ring, f.payloads, _point(f, a, "divisor point"), True)
    return _from_payloads(f.ring, q), Element(f.ring, r)


def left_divide_linear(f: NCPoly, a: Element) -> tuple[NCPoly, Element]:
    """Unique (q, r) with f = (X - a) * q + r (the same recurrence with a
    on the left)."""
    q, r = _divide_linear(f.ring, f.payloads, _point(f, a, "divisor point"), False)
    return _from_payloads(f.ring, q), Element(f.ring, r)


def right_eval(f: NCPoly, a: Element) -> Element:
    """Sum of f_i * a^i (coefficients on the left): the remainder of right
    division by X - a."""
    _, r = _divide_linear(f.ring, f.payloads, _point(f, a, "evaluation point"), True)
    return Element(f.ring, r)


def left_eval(f: NCPoly, a: Element) -> Element:
    """Sum of a^i * f_i: the remainder of left division by X - a."""
    _, r = _divide_linear(f.ring, f.payloads, _point(f, a, "evaluation point"), False)
    return Element(f.ring, r)


def eval_commuting(f: NCPoly, a: Element) -> Element:
    """Substitution X -> a, legal only when every coefficient commutes with a.

    Raises CommutationError naming the offending coefficient degree otherwise.
    """
    for i in _noncommuting(f.ring, f.payloads, _point(f, a, "evaluation point")):
        raise CommutationError(i)
    return right_eval(f, a)
