"""Exact arithmetic for a small tower of concrete rings.

Supported rings: the integers ``Z``, the rationals ``Q``, residue rings
``Zmod:n``, full and upper-triangular matrix rings over any supported base,
and finite-basis table algebras given by structure constants. Multiplication
is never assumed commutative. All values are immutable after construction
and every operation is a pure function, so elements can be shared freely.

The scalar rings Z, Q and Z/n decide exact linear algebra over themselves
(``det`` and ``kernel``); every other ring refuses it. Matrix rings and
table algebras are free modules over their base (``FreeModuleRing``:
coordinates, a module basis and a base matrix per element), so every tower
such as ``Mat:2:Mat:2:Zmod:2`` is one over its innermost scalar ring, where
``scalar_coords`` and ``scalar_matrix`` flatten it. Units, inverses and
centralizers hand their linear algebra to that ring in one call: an element
is a unit exactly when the determinant of its scalar matrix is a unit, and
the adjugate gives its inverse.

Commutativity and centrality are one rule on a ring's ``_generators``:
``_central`` tests payloads against each of them with the one predicate
``_noncommuting``, and ``is_commutative`` is ``_central(_generators)``, so a
ring over a noncommutative base is never commutative, even at rank 1.

Ring spec grammar (exact, case sensitive):

    Z | Q | Zmod:<n> | Mat:<k>:<base> | UT:<k>:<base> | Table:<path>

where ``<path>`` names a JSON file with keys ``basis_size``,
``structure_constants`` (an m x m array of length-m integer vectors),
``unit_vector`` and ``base`` (a ring spec string). Elements serialize to
JSON as integers, strings ``"p/q"`` or nested arrays matching the payload
shape. A payload decodes, from Python values or from JSON, by one shape
check per ring (``_shaped``) that maps the base's own rule over the leaves:
every level must be a list or tuple of the right length, so a string or a
dict is never read as a list (``json_list`` is the same rule for the lists
of a witness or polynomial). A scalar embeds by one rule, ``_embed``: itself
in a scalar ring, the scalar times the unit in every ring above it.

Elements, polynomials, rings and result records are ``Value``s: a class
lists its fields once in ``_fields``, and that tuple drives equality (same
class, equal fields), hashing, the ``repr``, the refusal of assignment and
the keyword and default handling of the constructor. Result records
(witnesses, search tasks, reports) share one JSON rule, ``Record.to_json``:
the fields in ``_fields`` order, each through ``json_value``, then
``passed`` when the class defines it. A polynomial writes its own, because
its coefficients are stored as payloads.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import attrgetter

from . import linalg


class RingError(Exception):
    """Base class for ring arithmetic errors."""


class RingMismatchError(RingError):
    """Operands belong to different rings."""


class InfiniteRingError(RingError):
    """The operation needs a finite ring."""


class UnsupportedOperationError(RingError):
    """The ring does not support the requested operation."""


class NotInvertibleError(RingError):
    """Inverse requested for a non-unit."""


class SpecParseError(RingError):
    """A ring spec string does not match the grammar."""


# Explicit centralizer enumeration is refused above this size.
ENUM_LIMIT = 1 << 14


_setattr = object.__setattr__


class Value:
    """An immutable value with the fields ``_fields``, in order: equal to
    another exactly when both have the same class and equal fields (those in
    ``_compared``, by default all), hashed like the tuple of those fields,
    and printed as ``Class(field=value, ...)``. The constructor takes the
    fields positionally or by keyword, sets them and runs ``_validate``; a
    class attribute named like a trailing field is its default. A class with
    ``__slots__`` defines its own ``__init__``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = getattr(cls, "_compared", cls._fields)
        if len(names) > 1:
            key = attrgetter(*names)  # the tuple of the fields, in C
        else:  # attrgetter of one name returns the bare value
            key = lambda obj: tuple([getattr(obj, n) for n in names])
        cls._key = staticmethod(key)
        # the number of fields before the first one with a default
        fields = cls._fields
        cls._required = next((i for i, n in enumerate(fields) if hasattr(cls, n)), len(fields))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or not self._required <= len(args) <= len(names):
            _check_arguments(type(self), args, kwargs)
        # object.__setattr__ keeps the attributes in the object's inline
        # values; reading or writing ``__dict__`` would turn them into a
        # dict and slow every later attribute read (the rings' ``_add``)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        for name, value in kwargs.items():
            _setattr(self, name, value)
        self._validate()

    def _validate(self):
        pass

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_arguments(cls, args, kwargs):
    """TypeError unless ``args`` and ``kwargs`` give each field of ``cls`` at
    most once, name no other, and leave out only fields with a default."""
    names = cls._fields
    rest = names[len(args):]
    unknown = sorted(kwargs.keys() - set(rest))
    missing = [n for n in rest[:cls._required - len(args)] if n not in kwargs]
    if len(args) > len(names) or unknown or missing:
        raise TypeError(
            f"{cls.__name__}() takes the fields {names}: got {len(args)} positional, "
            f"unexpected {unknown}, missing {missing}"
        )


class Element(Value):
    """A value of a concrete ring. Arithmetic is exact and never commutative
    by assumption; ``a * b`` keeps the operand order."""

    __slots__ = _fields = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        _set_ring(self, ring)
        _set_payload(self, payload)

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatchError(
                f"elements of {self.ring.describe()} and {other.ring.describe()} cannot be combined"
            )
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.ring, self.ring._add(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.ring, self.ring._add(self.payload, self.ring._neg(other.payload)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Element(self.ring, self.ring._neg(self.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.ring, self.ring._mul(self.payload, other.payload))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int):
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return self.payload == self.ring._zero

    def __repr__(self):
        return f"Element({self.ring.describe()}, {self.payload!r})"

    def to_json(self):
        return self.ring.payload_to_json(self.payload)


# the slots' own setters: a construction skips the refusing __setattr__
_set_ring, _set_payload = Element.ring.__set__, Element.payload.__set__

# values that are their own JSON: most fields of a report, tested first
_PLAIN_JSON = frozenset({bool, int, str, type(None)})


def json_value(value):
    """The JSON form of a value: a ring's spec string, an element's payload
    JSON, a list for a tuple or list, a dict for a dict, and ``to_json()``
    of anything else that has one. Other values are their own JSON."""
    kind = type(value)
    if kind in _PLAIN_JSON:
        return value
    if kind is Element:
        return value.ring.payload_to_json(value.payload)
    if kind is tuple or kind is list:
        return [json_value(v) for v in value]
    if isinstance(value, Ring):
        return value.spec_string()
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    to_json = getattr(value, "to_json", None)
    return value if to_json is None else to_json()


class Record(Value):
    """A result value. Its JSON is its ``_fields`` in order, each through
    ``json_value``, followed by ``passed`` when the class defines it."""

    def to_json(self) -> dict:
        keys = self._fields + ("passed",) if hasattr(type(self), "passed") else self._fields
        return {k: json_value(getattr(self, k)) for k in keys}


class Ring(Value):
    """Abstract base. Subclasses implement exact payload-level arithmetic."""

    # -- payload primitives -------------------------------------------------
    def _canon(self, payload):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    # every ring defines ``_zero`` and ``_one``, its zero and one payloads,
    # and ``_generators``: payloads that generate it as a ring together with
    # the image of its scalar ring, which is central. So an element is
    # central exactly when it commutes with each generator, a test of
    # O(rank) products instead of one per element.
    def _central(self, payloads) -> bool:
        """Whether every payload in the collection commutes with each of
        ``_generators``, that is, with the whole ring."""
        return all(next(_noncommuting(self, payloads, g), None) is None for g in self._generators)

    def _embed(self, scalar):
        """The payload of a value of the innermost scalar ring (Z, Q or Z/n):
        the value itself in a scalar ring, the scalar times the unit above."""
        return self._canon(scalar)

    def _from_int(self, n: int):
        return self._embed(_require_int(n))

    # -- element API ---------------------------------------------------------
    def element(self, payload) -> Element:
        return Element(self, self._canon(payload))

    def zero(self) -> Element:
        return Element(self, self._zero)

    def one(self) -> Element:
        return Element(self, self._one)

    def from_int(self, n: int) -> Element:
        return Element(self, self._from_int(n))

    def from_base_scalar(self, scalar) -> Element:
        return Element(self, self._embed(scalar))

    # -- structure ------------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.cardinality is not None

    @property
    def cardinality(self) -> int | None:
        raise NotImplementedError

    @property
    def is_commutative(self) -> bool:
        return self._central(self._generators)

    def module_basis(self):
        """Payloads of a basis of the ring as a module over its base; Z, Q
        and Z/n are their own base, with the unit as basis."""
        return (self._one,)

    def payloads(self):
        """Every payload exactly once, lexicographically. Finite rings only."""
        raise InfiniteRingError(f"{self.describe()} is not finite")

    def elements(self):
        for p in self.payloads():
            yield Element(self, p)

    # -- units ------------------------------------------------------------------
    def _is_unit(self, payload) -> bool:
        raise NotImplementedError

    def _inverse(self, payload):
        raise NotImplementedError

    # -- coordinates over the innermost scalar ring ---------------------------
    # ``scalar_coords`` and ``scalar_matrix`` (an injective ring homomorphism)
    # represent a payload over ``scalar_ring``. A scalar ring (Z, Q or Z/n) is
    # its own, of rank one; ``FreeModuleRing`` recurses through its base.
    @property
    def scalar_ring(self) -> "Ring":
        return self

    def scalar_coords(self, payload):
        return [payload]

    def from_scalar_coords(self, vec):
        return vec[0]

    def scalar_matrix(self, payload):
        return [[payload]]

    def from_scalar_matrix(self, rows):
        return rows[0][0]

    # -- exact linear algebra over a commutative scalar ring ----------------------
    # Matrices are lists of row lists of payloads. Only Z, Q and Z/n decide
    # these; every other ring refuses here.
    def det(self, rows):
        """Determinant of a square matrix."""
        raise UnsupportedOperationError(f"determinant over {self.describe()} is not supported")

    def kernel(self, rows, ncols):
        """The solutions of rows . x = 0 in ``ncols`` unknowns, as
        ``(basis, count, solutions)``: a basis or None, the number of
        solutions or None when infinite, and an iterable of every solution
        once or None when they are not enumerable. Over Q and Z/p the basis
        spans the solutions; over Z it is primitive integer vectors that
        form a basis over Q, and their integer combinations need not reach
        every integer solution."""
        raise UnsupportedOperationError(f"kernel over {self.describe()} is not supported")

    def _field(self):
        """The ``linalg`` field pair (normal, inverse) of this scalar ring,
        for spans that need a basis."""
        raise UnsupportedOperationError(f"{self.describe()} is not a field")

    # -- serialization ------------------------------------------------------------
    def spec_string(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable name, total even when no grammar form exists."""
        try:
            return self.spec_string()
        except UnsupportedOperationError:
            return type(self).__name__

    # Z and Z/n payloads are their own JSON; Q and the free-module rings override
    def payload_to_json(self, payload):
        return payload

    def payload_from_json(self, obj):
        return self._canon(obj)

    def element_from_json(self, obj) -> Element:
        return self.element(self.payload_from_json(obj))


def _noncommuting(ring: Ring, coeffs, a):
    """The positions i, in order, at which the payload ``coeffs[i]`` does not
    commute with the payload a (c a and a c differ), lazily: the first one
    is found without testing the rest."""
    mul = ring._mul
    return (i for i, c in enumerate(coeffs) if mul(c, a) != mul(a, c))


def _require_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _is_list(value, length: int | None = None) -> bool:
    # the one list rule: a string or a dict never stands in for a list
    return isinstance(value, (list, tuple)) and (length is None or len(value) == length)


def json_list(value, what: str):
    """``value`` if it is a list or tuple; ValueError for anything else."""
    if not _is_list(value):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


class IntegerRing(Ring):
    def _canon(self, payload):
        return _require_int(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    _zero = 0
    _one = 1
    _generators = ()

    @property
    def cardinality(self):
        return None

    def _is_unit(self, payload):
        return payload in (1, -1)

    def _inverse(self, payload):
        if payload in (1, -1):
            return payload
        raise NotInvertibleError(f"{payload} is not a unit in Z")

    def det(self, rows):
        return linalg.det_int(rows)

    def kernel(self, rows, ncols):
        basis = [
            linalg.primitive_integer_vector(v)
            for v in linalg.nullspace_rational(rows, ncols)
        ]
        return basis, None, None

    def spec_string(self):
        return "Z"


class RationalRing(Ring):
    def _canon(self, payload):
        if isinstance(payload, bool):
            raise ValueError("booleans are not ring values")
        if isinstance(payload, (int, Fraction)):
            return Fraction(payload)
        raise ValueError(f"expected int or Fraction, got {payload!r}")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    _zero = Fraction(0)
    _one = Fraction(1)
    _generators = ()

    @property
    def cardinality(self):
        return None

    def _is_unit(self, payload):
        return payload != 0

    def _inverse(self, payload):
        if payload == 0:
            raise NotInvertibleError("0 is not a unit in Q")
        return 1 / payload

    def det(self, rows):
        return linalg.det_fraction(rows)

    def kernel(self, rows, ncols):
        return linalg.nullspace_rational(rows, ncols), None, None

    def _field(self):
        return linalg._RATIONALS

    def spec_string(self):
        return "Q"

    def payload_to_json(self, payload):
        if payload.denominator == 1:
            return payload.numerator
        return f"{payload.numerator}/{payload.denominator}"

    def payload_from_json(self, obj):
        if isinstance(obj, str):
            # an optional "-", ASCII digits, then optionally "/" and ASCII digits
            negative = obj.startswith("-")
            num, slash, den = (obj[1:] if negative else obj).partition("/")
            n, d = _decimal(num), _decimal(den) if slash else 1
            if n is None or not d:
                raise ValueError(f"bad rational literal {obj!r}")
            return Fraction(-n if negative else n, d)
        return self._canon(obj)


# Miller-Rabin over the primes 2 to 41 is exact below PRIMALITY_BOUND, the least
# strong pseudoprime to all of them (2 to 37 pass 318665857834031151167461).
_PRIMALITY_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


class ResidueRing(Ring):
    """Z/n with least nonnegative representatives."""

    _fields = ("modulus",)

    def _validate(self):
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ValueError("modulus must be an integer >= 2")

    def _canon(self, payload):
        return _require_int(payload) % self.modulus

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    _zero = 0
    _one = 1  # the modulus is at least 2
    _generators = ()

    @property
    def cardinality(self):
        return self.modulus

    @property
    def is_prime(self) -> bool:
        """Deterministic Miller-Rabin, exact below ``PRIMALITY_BOUND``; from
        there on a modulus that passes every base raises
        UnsupportedOperationError."""
        n = self.modulus
        for b in _PRIMALITY_BASES:
            if n % b == 0:
                return n == b
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for b in _PRIMALITY_BASES:
            x = pow(b, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n >= PRIMALITY_BOUND:
            raise UnsupportedOperationError(
                f"primality is decided only for moduli below {PRIMALITY_BOUND}"
            )
        return True

    def payloads(self):
        return iter(range(self.modulus))

    def _is_unit(self, payload):
        return gcd(payload, self.modulus) == 1

    def _inverse(self, payload):
        try:
            return pow(payload, -1, self.modulus)
        except ValueError as exc:
            raise NotInvertibleError(
                f"{payload} is not a unit in Z/{self.modulus}"
            ) from exc

    def det(self, rows):
        return linalg.det_mod(rows, self.modulus)

    def kernel(self, rows, ncols):
        n = self.modulus
        if not self.is_prime:
            return (None, *linalg.kernel_mod(rows, ncols, n))
        basis = linalg.nullspace_mod_prime(rows, ncols, n)
        return basis, n ** len(basis), linalg.span_mod(basis, ncols, n)

    def _field(self):
        if self.is_prime:
            return linalg._prime_field(self.modulus)
        # a span over a composite Z/n is a module that may have no basis
        return super()._field()

    def spec_string(self):
        return f"Zmod:{self.modulus}"


class FreeModuleRing(Ring):
    """A ring that is a free module of finite rank over its ``base``, with
    coordinates on a distinguished basis: the matrix units of the allowed
    positions for matrix rings, the table basis for table algebras."""

    base: Ring

    @property
    def rank(self) -> int:
        """The number of coordinates."""
        raise NotImplementedError

    def coords(self, payload):
        """Coordinates of ``payload`` on the distinguished basis."""
        raise NotImplementedError

    def from_coords(self, vec):
        """The payload with coordinates ``vec``."""
        raise NotImplementedError

    def base_matrix(self, payload):
        """A square matrix of base payloads representing ``payload``;
        products go to products."""
        raise NotImplementedError

    def from_base_matrix(self, rows):
        """The payload whose ``base_matrix`` is ``rows``."""
        raise NotImplementedError

    def module_basis(self):
        """Payloads of the distinguished basis, built from the base's own
        one and zero, so a base that is itself a matrix ring works too."""
        one, zero = self.base._one, self.base._zero
        rank = self.rank
        return tuple(
            self.from_coords([one if j == i else zero for j in range(rank)])
            for i in range(rank)
        )

    def _shaped(self, obj, leaf):
        """The payload of the nested lists ``obj``, each leaf through ``leaf``;
        ValueError unless every level is a list or tuple of the right length."""
        raise NotImplementedError

    def _canon(self, payload):
        return self._shaped(payload, self.base._canon)

    def payload_from_json(self, obj):
        return self._shaped(obj, self.base.payload_from_json)

    def _lift(self, b):
        """The base payload b times one."""
        bmul = self.base._mul
        return self.from_coords([bmul(b, c) for c in self.coords(self._one)])

    def _embed(self, scalar):
        return self._lift(self.base._embed(scalar))

    @cached_property
    def _generators(self):
        # every element is a sum of base payloads times basis payloads, and
        # b e_i = (b * 1) e_i; the base is generated by its own generators
        return self.module_basis() + tuple(map(self._lift, self.base._generators))

    @cached_property
    def _zero(self):
        # built once per ring, like ``_one``; stored in the instance dict, so
        # it is not one of ``_fields`` and takes no part in __eq__ or __hash__.
        # The scalar rings keep class attributes instead: a write to their
        # instance dict would slow every later attribute read in their arithmetic.
        return self.from_coords([self.base._zero] * self.rank)

    @property
    def cardinality(self):
        n = self.base.cardinality
        return None if n is None else n ** self.rank

    def payloads(self):
        base_payloads = list(self.base.payloads())
        for combo in itertools.product(base_payloads, repeat=self.rank):
            yield self.from_coords(combo)

    @property
    def scalar_ring(self):
        return self.base.scalar_ring

    def scalar_coords(self, payload):
        return [s for c in self.coords(payload) for s in self.base.scalar_coords(c)]

    def from_scalar_coords(self, vec):
        d = len(vec) // self.rank  # scalar coordinates per base coordinate
        fsc = self.base.from_scalar_coords
        return self.from_coords([fsc(vec[i:i + d]) for i in range(0, len(vec), d)])

    def scalar_matrix(self, payload):
        # the base matrix with each entry replaced by its own scalar matrix
        sm = self.base.scalar_matrix
        rows = []
        for row in self.base_matrix(payload):
            blocks = [sm(e) for e in row]
            rows.extend([s for b in blocks for s in b[r]] for r in range(len(blocks[0])))
        return rows

    def from_scalar_matrix(self, rows):
        base = self.base
        d = len(base.scalar_matrix(base._zero))  # the side of one block
        cuts = range(0, len(rows), d)
        return self.from_base_matrix([
            [base.from_scalar_matrix([row[c:c + d] for row in rows[r:r + d]]) for c in cuts]
            for r in cuts
        ])

    # ``scalar_matrix`` is an injective ring homomorphism, and by Cayley-
    # Hamilton its image holds the adjugate of each member. So in every tower
    # x is a unit exactly when det(scalar_matrix(x)) is a unit of the scalar
    # ring, and the adjugate scaled by det^-1 is the scalar matrix of x^-1.
    def _is_unit(self, payload):
        s = self.scalar_ring
        return s._is_unit(s.det(self.scalar_matrix(payload)))

    def _inverse(self, payload):
        s = self.scalar_ring
        m = self.scalar_matrix(payload)
        det = s.det(m)
        if not s._is_unit(det):
            raise NotInvertibleError(f"determinant {det} is not a unit in {s.describe()}")
        det_inv = s._inverse(det)

        def adjugate_entry(r, c):  # the signed minor without row c and column r
            minor = s.det([row[:r] + row[r + 1:] for i, row in enumerate(m) if i != c])
            return s._mul(s._neg(minor) if (r + c) % 2 else minor, det_inv)

        k = len(m)
        return self.from_scalar_matrix([[adjugate_entry(r, c) for c in range(k)] for r in range(k)])


class MatrixRing(FreeModuleRing):
    """k x k matrices over a base ring; optionally upper triangular.

    Payloads are tuples of row tuples of base payloads.
    """

    _fields = ("size", "base", "upper_triangular")
    upper_triangular = False

    def _validate(self):
        if _require_int(self.size) < 1:
            raise ValueError("matrix size must be an integer >= 1")
        if not isinstance(self.upper_triangular, bool):
            raise ValueError(f"upper_triangular must be a bool, got {self.upper_triangular!r}")

    @cached_property
    def _positions(self):
        # the entries a payload may fill, in coordinate order
        k = self.size
        if self.upper_triangular:
            return tuple((r, c) for r in range(k) for c in range(r, k))
        return tuple((r, c) for r in range(k) for c in range(k))

    @property
    def rank(self):
        return len(self._positions)

    def coords(self, payload):
        return [payload[r][c] for r, c in self._positions]

    def from_coords(self, vec):
        k = self.size
        zero = self.base._zero
        grid = [[zero] * k for _ in range(k)]
        for (r, c), v in zip(self._positions, vec):
            grid[r][c] = v
        return tuple(tuple(row) for row in grid)

    def payloads(self):
        # coordinates are row-major, so their lexicographic order is the
        # product of each row's payloads in lexicographic order
        base_payloads = list(self.base.payloads())
        k, zero = self.size, self.base._zero
        rows = []
        for r in range(k):
            pad = (zero,) * r if self.upper_triangular else ()
            rows.append([pad + t for t in itertools.product(base_payloads, repeat=k - len(pad))])
        return itertools.product(*rows)

    def base_matrix(self, payload):
        return [list(row) for row in payload]

    def from_base_matrix(self, rows):
        return tuple(tuple(row) for row in rows)

    def _shaped(self, obj, leaf):
        k = self.size
        if not _is_list(obj, k) or not all(_is_list(row, k) for row in obj):
            raise ValueError(f"payload is not a {k}x{k} matrix")
        rows = tuple(tuple(map(leaf, row)) for row in obj)
        if self.upper_triangular:
            zero = self.base._zero
            for r in range(k):
                for c in range(r):
                    if rows[r][c] != zero:
                        raise ValueError("strictly lower entries must be zero")
        return rows

    def _add(self, a, b):
        return tuple(
            tuple(self.base._add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    def _neg(self, a):
        return tuple(tuple(self.base._neg(x) for x in row) for row in a)

    def _mul(self, a, b):
        k = self.size
        badd, bmul, bzero = self.base._add, self.base._mul, self.base._zero
        out = []
        for r in range(k):
            row = []
            for c in range(k):
                acc = bzero
                for t in range(k):
                    acc = badd(acc, bmul(a[r][t], b[t][c]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def _one(self):
        z, one = self.base._zero, self.base._one
        return tuple(
            tuple(one if r == c else z for c in range(self.size)) for r in range(self.size)
        )

    def spec_string(self):
        prefix = "UT" if self.upper_triangular else "Mat"
        return f"{prefix}:{self.size}:{self.base.spec_string()}"

    def payload_to_json(self, payload):
        to_json = self.base.payload_to_json
        if to_json.__func__ is Ring.payload_to_json:
            # the base's payloads are their own JSON (Z, Z/n): a list per row
            return [list(row) for row in payload]
        return [[to_json(e) for e in row] for row in payload]


class TableAlgebraDescriptor(Value):
    """A finite-rank free algebra presented by structure constants.

    ``structure_constants[i][j]`` is the coefficient vector of e_i * e_j over
    the distinguished basis; entries are integers, embedded into the base.
    """

    _fields = ("basis_size", "structure_constants", "unit_vector")

    def _validate(self):
        m = _require_int(self.basis_size)
        if m < 1:
            raise ValueError(f"basis size must be at least 1 (rank 0 is the zero ring), got {m}")
        sc = tuple(
            tuple(tuple(_require_int(c) for c in vec) for vec in row)
            for row in self.structure_constants
        )
        if len(sc) != m or any(len(row) != m for row in sc):
            raise ValueError("structure constants must form an m x m table")
        if any(len(vec) != m for row in sc for vec in row):
            raise ValueError("structure constant vectors must have length m")
        unit = tuple(_require_int(c) for c in self.unit_vector)
        if len(unit) != m:
            raise ValueError("unit vector must have length m")
        object.__setattr__(self, "structure_constants", sc)
        object.__setattr__(self, "unit_vector", unit)

    def to_json(self, base_spec: str) -> dict:
        return {
            "basis_size": self.basis_size,
            "structure_constants": [
                [list(vec) for vec in row] for row in self.structure_constants
            ],
            "unit_vector": list(self.unit_vector),
            "base": base_spec,
        }


class TableAlgebra(FreeModuleRing):
    """Free module of rank m over a base ring with table multiplication.

    Payloads are length-m tuples of base payloads. Associativity and the
    two-sided unit law are checked on all basis triples at construction.
    The file it was read from, ``source_path``, names it but takes no part
    in equality or hashing.
    """

    _fields = ("descriptor", "base", "source_path")
    _compared = ("descriptor", "base")
    source_path = None

    def _validate(self):
        self._check_table()

    @cached_property
    def _plan(self):
        # the product plan: the nonzero structure constants as (i, j, k, c),
        # where e_i * e_j has coefficient c on e_k. Zeros are dropped after
        # embedding into the base, where a nonzero integer can vanish (2 over
        # Z/2), and c is None where it is the base's one. An embedded integer
        # is central, so dropping that factor is exact on a noncommutative
        # base too.
        base = self.base
        plan = []
        for i, row in enumerate(self.descriptor.structure_constants):
            for j, vec in enumerate(row):
                for k, n in enumerate(vec):
                    c = base._from_int(n)
                    if c != base._zero:
                        plan.append((i, j, k, None if c == base._one else c))
        return tuple(plan)

    @cached_property
    def _product(self):
        # the plan and the base ops it runs, read once per product
        base = self.base
        return self._plan, base._add, base._mul, base._zero

    def basis_elements(self):
        return tuple(Element(self, b) for b in self.module_basis())

    def _check_table(self):
        m = self.descriptor.basis_size
        basis = self.module_basis()
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    left = self._mul(self._mul(basis[i], basis[j]), basis[k])
                    right = self._mul(basis[i], self._mul(basis[j], basis[k]))
                    if left != right:
                        raise ValueError(
                            f"structure constants are not associative at basis triple ({i}, {j}, {k})"
                        )
        unit = self._one
        for i in range(m):
            if self._mul(unit, basis[i]) != basis[i] or self._mul(basis[i], unit) != basis[i]:
                raise ValueError(f"unit vector fails the unit law on basis element {i}")

    def _shaped(self, obj, leaf):
        m = self.descriptor.basis_size
        if not _is_list(obj, m):
            raise ValueError(f"payload must be a vector of length {m}")
        return tuple(map(leaf, obj))

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        plan, badd, bmul, zero = self._product
        out = [zero] * len(a)
        for i, j, k, c in plan:
            ai = a[i]
            if ai == zero:
                continue
            bj = b[j]
            if bj == zero:
                continue
            term = bmul(ai, bj) if c is None else bmul(bmul(ai, bj), c)
            # zero + term is term: add only into a nonzero sum
            out[k] = term if out[k] == zero else badd(out[k], term)
        return tuple(out)

    @cached_property
    def _one(self):
        return tuple(self.base._from_int(c) for c in self.descriptor.unit_vector)

    @property
    def rank(self):
        return self.descriptor.basis_size

    def coords(self, payload):
        return list(payload)

    def from_coords(self, vec):
        return tuple(vec)

    def base_matrix(self, payload):
        """Left multiplication by ``payload``, columns indexed by the basis; a
        homomorphism because the table is associative (checked at construction)."""
        cols = [self._mul(payload, b) for b in self.module_basis()]
        m = len(cols)
        return [[cols[j][i] for j in range(m)] for i in range(m)]

    def from_base_matrix(self, rows):
        # left multiplication by x sends the unit to x
        badd, bmul = self.base._add, self.base._mul
        one = self._one
        out = []
        for row in rows:
            acc = self.base._zero
            for a, u in zip(row, one):
                acc = badd(acc, bmul(a, u))
            out.append(acc)
        return tuple(out)

    def spec_string(self):
        if self.source_path is not None:
            return f"Table:{self.source_path}"
        raise UnsupportedOperationError(
            "table algebra was built programmatically; write its descriptor to a "
            "file to obtain a ring spec string"
        )

    def payload_to_json(self, payload):
        return [self.base.payload_to_json(e) for e in payload]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def equals(x: Element, y: Element) -> bool:
    """Exact equality; raises on ring mismatch (unlike ``==``)."""
    if x.ring != y.ring:
        raise RingMismatchError(
            f"cannot compare elements of {x.ring.describe()} and {y.ring.describe()}"
        )
    return x.payload == y.payload


def commutator(x: Element, y: Element) -> Element:
    """x*y - y*x."""
    return x * y - y * x


def is_unit(x: Element) -> bool:
    return x.ring._is_unit(x.payload)


def inverse(x: Element) -> Element:
    return Element(x.ring, x.ring._inverse(x.payload))


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


class CentralizerDescription(Value):
    """The subring of elements commuting with the given generators.

    ``elements`` is the explicit list when the centralizer is finite and
    small enough to enumerate; ``basis`` is a module basis over the base for
    a commutative ring or no generators, else the scalar ring's ``kernel``
    basis, which over Z spans over Q but need not generate the integer
    centralizer. Both may be present. ``count`` is None when infinite.
    """

    _fields = ("ring", "gens", "elements", "basis", "count")


def _commutation_system(ring: FreeModuleRing, gens):
    """The system x*g - g*x = 0 for all gens, in coordinates over the
    innermost scalar ring: its rows and its number of unknowns."""
    s = ring.scalar_ring
    dim = len(ring.scalar_coords(ring._zero))
    # the unknowns' unit vectors: the rows of the identity matrix over s
    basis = [ring.from_scalar_coords(row) for row in MatrixRing(dim, s)._one]
    rows = []
    for g in gens:
        g = g.payload
        cols = [
            ring.scalar_coords(ring._add(ring._mul(b, g), ring._neg(ring._mul(g, b))))
            for b in basis
        ]
        rows.extend(list(row) for row in zip(*cols))
    return rows, dim


def centralizer_of_set(ring: Ring, gens) -> CentralizerDescription:
    """Centralizer of a set of elements.

    A commutative ring, or an empty set, is its own centralizer. Otherwise
    the ring is a matrix ring or table algebra, over any tower of bases, and
    the centralizer is the kernel of the linear system x*g = g*x, which the
    innermost scalar ring decides with its own ``kernel``: over Q a rational
    basis; over Z primitive integer vectors that are a basis over Q, though
    not always over Z; over Z/p a basis and its span; over composite Z/n a
    count and an enumeration by elimination mod n. The explicit element list
    is also produced whenever the kernel is enumerable with at most
    ``ENUM_LIMIT`` members; a larger one is refused when it has no basis
    either.
    """
    gens = tuple(gens)
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generator does not belong to the ring")

    if ring.is_commutative or not gens:
        card = ring.cardinality
        elems = tuple(ring.elements()) if card is not None and card <= ENUM_LIMIT else None
        basis = tuple(Element(ring, b) for b in ring.module_basis())
        return CentralizerDescription(ring, gens, elems, basis, card)

    # every noncommutative ring here is a FreeModuleRing
    rows, dim = _commutation_system(ring, gens)
    vecs, count, solutions = ring.scalar_ring.kernel(rows, dim)
    from_sc = ring.from_scalar_coords
    basis = None if vecs is None else tuple(Element(ring, from_sc(v)) for v in vecs)
    elems = None
    if solutions is not None:
        if count <= ENUM_LIMIT:
            elems = tuple(Element(ring, p) for p in sorted(from_sc(v) for v in solutions))
        elif basis is None:
            raise UnsupportedOperationError(
                f"centralizer has more than {ENUM_LIMIT} elements, above the enumeration limit"
            )
    return CentralizerDescription(ring, gens, elems, basis, count)


def generated_subalgebra(ring: Ring, elements) -> tuple[Element, ...]:
    """A basis of the unital subalgebra that ``elements`` generate: the span
    of every word in them, 1 included, over the innermost scalar ring.

    The span of 1 is closed under right multiplication by the elements,
    one level of products at a time, until a level adds nothing or the span
    is the whole ring. The basis is the reduced row echelon form of the span
    in scalar coordinates, so it is canonical. Only a field (Q or Z/p) has
    one; any other scalar ring refuses with UnsupportedOperationError.
    """
    gens = tuple(elements)
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generator does not belong to the ring")
    field = ring.scalar_ring._field()
    coords = ring.scalar_coords  # canonical scalars are canonical in the field
    dim = len(coords(ring._zero))
    span, rows = [], [coords(ring._one)]
    while True:
        rows = rows[: len(linalg._rref(rows, field))]
        if len(rows) in (len(span), dim):
            return tuple(Element(ring, ring.from_scalar_coords(r)) for r in rows)
        span = rows
        payloads = [ring.from_scalar_coords(r) for r in span]
        rows = span + [coords(ring._mul(p, g.payload)) for p in payloads for g in gens]


# ---------------------------------------------------------------------------
# ring spec grammar
# ---------------------------------------------------------------------------

_Z = IntegerRing()
_Q = RationalRing()

# Bases nest at most this deep in one spec, Table: files included, so a
# self-referencing descriptor is refused instead of recursing without end.
MAX_SPEC_DEPTH = 16
# A Mat: or UT: spec spans at most this many scalars (k^2, or k(k+1)/2 for
# UT, times the base's count), so no payload of it grows past 256 entries.
MAX_SCALAR_RANK = 256


def parse_ring_spec(text: str, _depth: int = 0) -> Ring:
    """Parse the exact, case-sensitive ring spec grammar."""
    if not isinstance(text, str):
        raise SpecParseError(f"a ring spec is a string, got {text!r}")
    if _depth > MAX_SPEC_DEPTH:
        raise SpecParseError(f"ring spec nests bases more than {MAX_SPEC_DEPTH} deep")
    if text == "Z":
        return _Z
    if text == "Q":
        return _Q
    if text.startswith("Zmod:"):
        n = _decimal(text[len("Zmod:"):])
        if n is None:
            raise SpecParseError(f"bad modulus in {text!r}")
        if n < 2:
            raise SpecParseError("modulus must be >= 2")
        return ResidueRing(n)
    for prefix, ut in (("Mat:", False), ("UT:", True)):
        if text.startswith(prefix):
            k_str, sep, base_str = text[len(prefix):].partition(":")
            k = _decimal(k_str)
            if not sep or k is None or k < 1:
                raise SpecParseError(f"bad matrix spec {text!r}")
            base = parse_ring_spec(base_str, _depth + 1)
            rank = (k * (k + 1) // 2 if ut else k * k) * len(base.scalar_coords(base._zero))
            if rank > MAX_SCALAR_RANK:
                raise SpecParseError(f"{text!r} spans more than {MAX_SCALAR_RANK} scalars")
            return MatrixRing(k, base, upper_triangular=ut)
    if text.startswith("Table:"):
        path = text[len("Table:"):]
        if not path:
            raise SpecParseError("Table: needs a file path")
        return load_table_algebra(path, _depth)
    raise SpecParseError(f"unrecognized ring spec {text!r}")


def _decimal(digits: str) -> int | None:
    """The value of an ASCII decimal numeral, or None, also when it has more
    digits than ``int`` converts."""
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(digits)
    except ValueError:
        return None


def load_table_algebra(path: str, _depth: int = 0) -> TableAlgebra:
    """The table algebra of a descriptor file. A file that cannot be read, or
    does not hold an associative unital algebra over a valid base, is a
    parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        descriptor = TableAlgebraDescriptor(
            data["basis_size"], data["structure_constants"], data["unit_vector"]
        )
        base = parse_ring_spec(data["base"], _depth + 1)
        return TableAlgebra(descriptor, base, source_path=path)
    except OSError as exc:
        reason = exc.strerror or exc
        raise SpecParseError(f"cannot read table algebra file {path!r}: {reason}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError(f"bad table algebra file {path!r}: {exc}") from exc
