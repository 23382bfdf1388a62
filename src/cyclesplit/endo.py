"""The Galois-style apparatus of the bundled cubic splitting algebra.

Over a prime field K = Z/p, the rank-3 algebra A generated by the three
pseudoroots of X^3 - X^2 carries a monoid of unital algebra endomorphisms
that falls into four families:

    eps            a_1 -> 1,            a_2 -> 0,        a_3 -> 0
    eps'           a_1 -> 0,            a_2 -> 0,        a_3 -> 1
    eps^s_v        a_1 -> a_1 + v a_2,  a_2 -> s a_2,    a_3 -> (1-s-v) a_2 + a_3
    eps_v          a_1 -> (1-v) a_2 + a_3,  a_2 -> 0,    a_3 -> a_1 + v a_2

(with a scale parameter s and a shift parameter v ranging over K). This
module enumerates the monoid by brute force, classifies the members,
verifies the composition table against the triangular 2x2 matrix model
M(eps^s_v) = ((s, 0), (v, 1)), classifies the roots and the rotation
classes of splittings of X^3 - X^2 into their parameter families, checks
both monoid actions entrywise, and verifies the minimal-polynomial poset
and the translation properties.

Elements, root records and cycle supports are handled as their payloads,
the coordinate tuples over (a_1, a_2, a_3). The enumeration, the root scan
and the minimal polynomials multiply with the payload operations of the
``TableAlgebra`` over ``ResidueRing(p)``, the engine the splitting search
uses too. An endomorphism is the payload triple of its basis images;
``EndoMap.apply_vec`` is that linear map, written out mod p. It is an
automorphism exactly when the base determinant of the triple is a unit
(``FreeModuleRing``'s unit rule).

Every public entry point builds one private context, ``_Battery(p)``, and
``full_suite`` hands its one context to all five phases. Each field of the
context is computed on first read, once, and dies with the call:

* one sweep of A squares each element once and yields the idempotents, the
  square-zero elements and the roots (x^3 = x^2) in payload order;
* the endomorphisms, enumerated from that sweep;
* the image maps, a list aligned with the endomorphisms: ``{x: e(x)}`` over
  the 3p+1 roots, which hold every basis image; each entry is one
  ``apply_vec``;
* the root records, with one minimal polynomial per distinct root;
* each cycle family's key, the canonical rotation of its support;
* the splitting census of X^3 - X^2 and its rotation classes.

A family, of an endomorphism, a root or a rotation class, is the plain
tuple (kind, params); :func:`label` names it. A composite
``compose_endos(r, c)`` is r's basis images read off c's map, and the root
and cycle action tables, the poset and the translation checks read the maps
too, so each endomorphism is applied once per root. Each table of
compositions, root images or cycle images is one loop that streams a row
per endomorphism (the monoid rows refuse an unclassified endomorphism
before the first row); the table's check and its export both read it. A
check predicts a whole row at once: a row rule maps the row's family to the
family predicted in every column, and the check compares the row with the
brute force as lists of tuples, building a label only for a cell that
disagrees. The exports format each distinct label once per table. The
context refuses a prime whose monoid table has more than
``search.NODE_BUDGET`` ordered pairs (p > 97) with
``SearchSpaceTooLargeError``, before any enumeration.

Composition order (frozen): ``compose_endos(e1, e2)`` applies e1 first and
e2 second. Under this order the matrix model is a monoid homomorphism:
M(compose(e1, e2)) = M(e1) M(e2). The evidence for freezing this order over
the alternative is ``MonoidTableReport.evidence()``, which
:func:`composition_order_evidence` returns and the ``endos`` report embeds.

The five phase reports and ``EndoSuiteReport``, which nests them, serialize
by the one ``rings.Record`` rule: fields in order, then ``passed``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import eq

from .examples import EXAMPLE1_DESCRIPTOR, example1_algebra, example1_cubic
# endo's names too, for the report scripts and the tests
from .examples import format_table, render_vec
from .rings import Record, ResidueRing, TableAlgebra, Value
from .search import (
    NODE_BUDGET,
    SearchOutcome,
    SearchSpaceTooLargeError,
    SearchTask,
    canonical_rotation,
    enumerate_splittings,
)

COMPOSITION_ORDER = "left-operand-first"

Vec = tuple[int, int, int]
Key = tuple[str, tuple[int, ...]]

_UNIT: Vec = EXAMPLE1_DESCRIPTOR.unit_vector
_ZERO: Vec = (0, 0, 0)


class ClassificationError(Exception):
    """An enumerated object does not fit the predicted families; seeing this
    means the family tables are falsified for this base."""


def _require_prime(modulus: int) -> int:
    # ResidueRing rejects a non-int and a modulus below 2 (True included)
    if not ResidueRing(modulus).is_prime:
        raise ValueError(f"modulus {modulus} is not prime")
    return modulus


def _algebra_for(modulus: int) -> TableAlgebra:
    # validated before the cache: 5.0 equals 5 and hashes alike, so the
    # cache alone would hand it the algebra over Z/5
    return _cubic_algebra(_require_prime(modulus))


@lru_cache(maxsize=None)
def _cubic_algebra(p: int) -> TableAlgebra:
    return example1_algebra(ResidueRing(p))


# label formats by family kind, filled by ``%`` from the parameters; one line
# each for the endomorphism, root and cycle families
_LABELS = {
    "eps": "eps", "eps_prime": "eps'", "eps_sigma_s": "eps^%s_%s", "eps_s": "eps_%s",
    "unclassified": "unclassified",
    "r_tau": "r^%s", "r_tau_t": "r^%s_%s", "r_t": "r_%s", "r": "r",
    "c_tau": "c^%s", "c_tau_t": "c^%s_%s", "c_t": "c_%s",
}


def label(family: Key) -> str:
    """The name of a family: its kind's format, filled from its parameters."""
    kind, params = family
    return _LABELS[kind] % params


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------


def classify_endo_images(images: tuple[Vec, Vec, Vec], p: int) -> Key:
    """eps, eps_prime, eps_sigma_s(scale, shift), eps_s(shift) or unclassified."""
    u, v, w = images
    if u == _UNIT and v == _ZERO and w == _ZERO:
        return ("eps", ())
    if u == _ZERO and v == _ZERO and w == _UNIT:
        return ("eps_prime", ())
    if u[0] == 1 and u[2] == 0 and v[0] == 0 and v[2] == 0:
        scale, shift = v[1], u[1]
        if w == (0, (1 - scale - shift) % p, 1):
            return ("eps_sigma_s", (scale, shift))
    if v == _ZERO and u[0] == 0 and u[2] == 1 and w[0] == 1 and w[2] == 0:
        shift = w[1]
        if u[1] == (1 - shift) % p:
            return ("eps_s", (shift,))
    return ("unclassified", ())


class EndoMap(Value):
    """A unital algebra endomorphism of K c A, stored by basis image payloads."""

    _fields = ("algebra", "images", "family")

    def apply_vec(self, x: Vec) -> Vec:
        (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = self.images
        p = self.algebra.base.modulus
        a, b, c = x
        return (
            (a * u0 + b * v0 + c * w0) % p,
            (a * u1 + b * v1 + c * w1) % p,
            (a * u2 + b * v2 + c * w2) % p,
        )


def _mk_endo(algebra: TableAlgebra, vecs: tuple[Vec, Vec, Vec]) -> EndoMap:
    return EndoMap(algebra, vecs, classify_endo_images(vecs, algebra.base.modulus))


def enumerate_endos(modulus: int) -> list[EndoMap]:
    """All unital algebra endomorphisms by brute force over image pairs
    (``_Battery.endos``)."""
    return _Battery(modulus).endos


def compose_endos(e1: EndoMap, e2: EndoMap) -> EndoMap:
    """Apply e1 first, then e2 (the frozen composition order)."""
    if e1.algebra != e2.algebra:
        raise ValueError("endomorphisms of different algebras")
    if e1.family[0] == "unclassified" or e2.family[0] == "unclassified":
        raise ClassificationError("cannot compose unclassified endomorphisms")
    vecs = tuple(e2.apply_vec(im) for im in e1.images)
    return _mk_endo(e1.algebra, vecs)


def _composition_row(first: Key, columns: list[Key], p: int) -> list[Key]:
    """The family key of compose(first, c) for each key c in ``columns``,
    by the matrix model M(first) M(c)."""
    kind, params = first
    if kind == "eps" or kind == "eps_prime":
        return [first] * len(columns)
    if kind == "eps_sigma_s":
        s, v = params
        return [
            ("eps_sigma_s", (s * q[0] % p, (v * q[0] + q[1]) % p)) if k == "eps_sigma_s"
            else (k, q)
            for k, q in columns
        ]
    if kind == "eps_s":
        (v,) = params
        swap = {"eps": ("eps_prime", ()), "eps_prime": ("eps", ())}
        return [
            ("eps_s", ((v * q[0] + q[1]) % p,)) if k == "eps_sigma_s"
            else ("eps_sigma_s", (0, q[0])) if k == "eps_s" else swap[k]
            for k, q in columns
        ]
    raise ClassificationError(f"no prediction for {first!r}")


def _reversed_row(second: Key, columns: list[Key], p: int) -> list[Key]:
    """The family key of compose(c, second) for each key c in ``columns``,
    by M(c) M(second): the prediction under the reversed order."""
    kind, params = second
    if kind == "eps_sigma_s":
        t, u = params
        return [
            ("eps_sigma_s", (q[0] * t % p, (q[1] * t + u) % p)) if k == "eps_sigma_s"
            else ("eps_s", ((q[0] * t + u) % p,)) if k == "eps_s" else (k, q)
            for k, q in columns
        ]
    if kind == "eps_s":
        after_shift = ("eps_sigma_s", (0, params[0]))
    elif kind == "eps" or kind == "eps_prime":
        after_shift = ("eps_prime" if kind == "eps" else "eps", ())
    else:
        raise ClassificationError(f"no prediction for {second!r}")
    # a scale-shift first leaves second as it is; a constant first stays
    return [
        second if k == "eps_sigma_s" else after_shift if k == "eps_s" else (k, q)
        for k, q in columns
    ]


def _cell_mismatches(row: Key, columns: list[Key], expected: list, got: list, show=str) -> list:
    """(row, column, expected, got) of each cell that disagrees: the row's and
    the column's family labels, then the last two by ``show``."""
    return [
        (label(row), label(c), show(want), show(img))
        for c, want, img in zip(columns, expected, got)
        if want != img
    ]


def identity_endo(modulus: int) -> EndoMap:
    algebra = _algebra_for(modulus)
    return _mk_endo(algebra, algebra.module_basis())


def automorphisms(endos: list[EndoMap]) -> list[EndoMap]:
    """Members with a two-sided compositional inverse: an endomorphism of
    the finite algebra is invertible exactly when its linear map is, that
    is when the base determinant of its image triple is a unit."""
    return [e for e in endos if e.algebra.base._is_unit(e.algebra.base.det(e.images))]


class MonoidTableReport(Record):
    _fields = (
        "p", "endo_count", "automorphism_count", "unclassified", "mismatches", "total_pairs",
        "frozen_order_agreement", "reversed_order_agreement", "neutral_ok", "invertibles_ok",
        "composition_order",
    )
    composition_order = COMPOSITION_ORDER

    @property
    def passed(self) -> bool:
        return (
            not self.unclassified
            and not self.mismatches
            and self.neutral_ok
            and self.invertibles_ok
            and self.frozen_order_agreement == self.total_pairs
        )

    def evidence(self) -> dict:
        """Agreement counts of both candidate composition orders against the
        matrix-model prediction; the frozen order must win outright."""
        return {
            "p": self.p,
            "total_pairs": self.total_pairs,
            "left_operand_first": self.frozen_order_agreement,
            "right_operand_first": self.reversed_order_agreement,
            "frozen": self.composition_order,
        }


def verify_monoid_table(modulus: int) -> MonoidTableReport:
    """Check every composition against the family the matrix model predicts,
    under the frozen order, and collect the evidence for that order.

    Each ordered pair is composed once: summed over all pairs, compose(c, r)
    against the prediction for (r, c) counts as compose(r, c) against the
    prediction for (c, r), so the reversed order needs no second composite.
    """
    return _monoid_report(_Battery(modulus))


def _monoid_report(battery: _Battery) -> MonoidTableReport:
    p, endos = battery.p, battery.endos
    unclassified = tuple(str(e.images) for e in endos if e.family[0] == "unclassified")
    ident = battery.algebra.module_basis()
    families = [e.family for e in endos]
    at_ident = next((i for i, e in enumerate(endos) if e.images == ident), None)
    mismatches = []
    frozen_hits = reversed_hits = 0
    neutral_ok = at_ident is not None
    for i, (r, row) in enumerate(battery.composite_rows()):
        actual = [x.family for x in row]
        predicted = _composition_row(r.family, families, p)
        frozen_hits += sum(map(eq, actual, predicted))
        if actual != predicted:
            mismatches += _cell_mismatches(r.family, families, predicted, actual, label)
        reversed_hits += sum(map(eq, actual, _reversed_row(r.family, families, p)))
        # the identity column repeats r, and the identity row is ``endos``
        if at_ident is not None and (row[at_ident] != r or i == at_ident and row != endos):
            neutral_ok = False

    autos = battery.automorphisms
    expected_autos = {("eps_sigma_s", (s, v)) for s in range(1, p) for v in range(p)}
    invertibles_ok = {e.family for e in autos} == expected_autos

    return MonoidTableReport(
        p=p,
        endo_count=len(endos),
        automorphism_count=len(autos),
        unclassified=unclassified,
        mismatches=tuple(mismatches),
        total_pairs=len(endos) ** 2,
        frozen_order_agreement=frozen_hits,
        reversed_order_agreement=reversed_hits,
        neutral_ok=neutral_ok,
        invertibles_ok=invertibles_ok,
    )


def composition_order_evidence(modulus: int) -> dict:
    """The composition-order evidence of ``verify_monoid_table(modulus)``."""
    return verify_monoid_table(modulus).evidence()


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def root_element(family: Key, p: int) -> Vec:
    """The element of a root family: r_tau(t), r_tau_t(t, u), r_t(u) or r
    (the unit)."""
    kind, params = family
    if kind == "r_tau":
        return (0, params[0] % p, 0)
    if kind == "r_tau_t":
        t, u = params
        return (0, (1 - t - u) % p, 1)
    if kind == "r_t":
        return (1, params[0] % p, 0)
    if kind == "r":
        return (1, 1, 1)
    raise ValueError(f"no element for {family!r}")


class RootRecord(Value):
    _fields = ("element", "family", "minpoly")


# the six monic divisors of X^2 (X - 1), as scalar coefficient tuples and a
# divisibility table (proper divisors only)
MINPOLY_LATTICE = {
    "1": (1,),
    "X": (0, 1),
    "X-1": (-1, 1),
    "X^2": (0, 0, 1),
    "X(X-1)": (0, -1, 1),
    "X^2(X-1)": (0, 0, -1, 1),
}

_PROPER_DIVISORS = {
    "1": frozenset(),
    "X": frozenset({"1"}),
    "X-1": frozenset({"1"}),
    "X^2": frozenset({"1", "X"}),
    "X(X-1)": frozenset({"1", "X", "X-1"}),
    "X^2(X-1)": frozenset({"1", "X", "X-1", "X^2", "X(X-1)"}),
}

# every (divisor, multiple) pair of labels, each label dividing itself: the
# poset checks test divisibility by one set lookup
_DIVIDES = frozenset((d, m) for m, proper in _PROPER_DIVISORS.items() for d in proper | {m})


def minpoly_divides(a: str, b: str) -> bool:
    return (a, b) in _DIVIDES


def minpoly_label(x: Vec, p: int) -> str:
    """Divisibility-least label in the lattice that annihilates x.

    Raises ClassificationError when no unique least annihilator exists.
    """
    algebra = _algebra_for(p)
    mul, add = algebra._mul, algebra._add
    x2 = mul(x, x)
    powers = (algebra._one, x, x2, mul(x2, x))
    annihilating = set()
    for label, coeffs in MINPOLY_LATTICE.items():
        value = algebra._zero
        for c, power in zip(coeffs, powers):
            if c:
                value = add(value, mul(algebra._from_int(c), power))
        if value == algebra._zero:
            annihilating.add(label)
    minimal = [
        label
        for label in annihilating
        if not any(d in annihilating for d in _PROPER_DIVISORS[label])
    ]
    if len(minimal) != 1:
        raise ClassificationError(
            f"no unique minimal annihilator for {x}: candidates {sorted(minimal)}"
        )
    return minimal[0]


def _all_root_families(p: int) -> list[Key]:
    fams = [("r_tau", (t,)) for t in range(p)]
    fams += [("r_tau_t", (t, u)) for t in range(p) for u in range(p)]
    fams += [("r_t", (u,)) for u in range(p)]
    fams.append(("r", ()))
    return fams


def classify_element_as_root(x: Vec, p: int) -> Key:
    """Canonical family of a root element (r_tau_t is normalized to tau = 0)."""
    if x == (1, 1, 1):
        return ("r", ())
    if x[0] == 1 and x[2] == 0:
        return ("r_t", (x[1],))
    if x[0] == 0 and x[2] == 1:
        return ("r_tau_t", (0, (1 - x[1]) % p))
    if x[0] == 0 and x[2] == 0:
        return ("r_tau", (x[1],))
    raise ClassificationError(f"{x} does not match any root family")


def classify_roots(modulus: int) -> list[RootRecord]:
    """One record per family parameter instance, (p+1)^2 in all.

    Every record's element is verified to be a root, and every root of the
    exhaustive scan to be some record's element (hard failure otherwise),
    so the records' element set equals the scan: 3p+1 distinct elements,
    the r_tau_t family depending only on t+u. Each root has one family kind,
    since the four kinds' elements differ in their first and last
    coordinates.
    """
    return _Battery(modulus).root_records


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycle_support(family: Key, p: int) -> tuple[Vec, Vec, Vec]:
    """The three roots of a cycle family, c_tau(t), c_tau_t(t, u) or c_t(u),
    in the order of its splitting."""
    kind, params = family
    if kind == "c_tau":
        (t,) = params
        roots = ("r_tau", (t,)), ("r_tau", ((-t) % p,)), ("r", ())
    elif kind == "c_tau_t":
        t, u = params
        roots = ("r_tau", (t,)), ("r_tau_t", (t, u)), ("r_t", (u,))
    else:
        (u,) = params
        roots = ("r_tau", (0,)), ("r_t", (u,)), ("r_tau_t", (0, u))
    return tuple(root_element(root, p) for root in roots)


class CycleRecord(Value):
    _fields = ("algebra", "roots", "family")  # roots in canonical rotation


def _all_cycle_families(p: int) -> list[Key]:
    fams = [("c_tau", (t,)) for t in range(p)]
    fams += [("c_tau_t", (t, u)) for t in range(p) for u in range(p)]
    fams += [("c_t", (u,)) for u in range(p)]
    return fams


def classify_cycles(modulus: int) -> list[CycleRecord]:
    """Exhaustively enumerate splittings of X^3 - X^2 with leading 1, group
    them into rotation classes and match each class to a family.

    Hard failure when a found class matches no family or a predicted family
    instance is not found: either falsifies the classification for this p.
    """
    return _Battery(modulus).cycle_records


def cycle_is_basis(record: CycleRecord) -> bool:
    base = record.algebra.base
    return base._is_unit(base.det(record.roots))


class CycleSuiteReport(Record):
    _fields = (
        "p", "root_record_count", "distinct_root_count", "cycle_class_count", "splitting_count",
        "roots_are_union_of_supports", "basis_classes_ok",
    )

    @property
    def passed(self) -> bool:
        return self.roots_are_union_of_supports and self.basis_classes_ok


def verify_cycle_suite(modulus: int) -> CycleSuiteReport:
    """Classification plus the two structural facts: the roots are exactly
    the union of cycle supports, and the classes whose roots form a module
    basis are exactly c_tau_t with invertible first parameter."""
    return _cycle_report(_Battery(modulus))


def _cycle_report(battery: _Battery) -> CycleSuiteReport:
    p, records, cycles = battery.p, battery.root_records, battery.cycle_records
    roots = battery.roots  # root_records has proved that its elements are these
    union_ok = {v for rec in cycles for v in rec.roots} == set(roots)

    basis_ok = all(
        cycle_is_basis(rec)
        == (rec.family[0] == "c_tau_t" and rec.family[1][0] % p != 0)
        for rec in cycles
    )
    return CycleSuiteReport(
        p=p,
        root_record_count=len(records),
        distinct_root_count=len(roots),
        cycle_class_count=len(cycles),
        splitting_count=len(battery.census.witnesses),
        roots_are_union_of_supports=union_ok,
        basis_classes_ok=basis_ok,
    )


# ---------------------------------------------------------------------------
# the per-call context
# ---------------------------------------------------------------------------


class _Battery:
    """What the phases share over Z/p, each field computed on first read.

    One context serves one call: nothing here is cached beyond the object,
    so every call still does all of its own work, once.
    """

    def __init__(self, modulus: int):
        p = _require_prime(modulus)
        pairs = (p * p + p + 2) ** 2
        if pairs > NODE_BUDGET:
            raise SearchSpaceTooLargeError(
                f"the monoid table over Z/{p} has {pairs} ordered pairs, "
                f"more than the {NODE_BUDGET} search budget"
            )
        self.p = p
        self.algebra = _cubic_algebra(p)

    @cached_property
    def _sweep(self) -> tuple[list[Vec], list[Vec], list[Vec]]:
        """The idempotents, the square-zero elements and the roots
        (x^3 = x^2), each in payload order, from one square per element.
        0 is all three; an idempotent or square-zero x is a root without a
        cube, since x^3 = x^2 x is then x^2."""
        mul, zero = self.algebra._mul, self.algebra._zero
        idempotents, square_zero, roots = [], [], []
        for x in self.algebra.payloads():
            x2 = mul(x, x)
            idempotent, nil = x2 == x, x2 == zero
            if idempotent:
                idempotents.append(x)
            if nil:
                square_zero.append(x)
            if idempotent or nil or mul(x2, x) == x2:
                roots.append(x)
        return idempotents, square_zero, roots

    @property
    def roots(self) -> list[Vec]:
        return self._sweep[2]

    @cached_property
    def endos(self) -> list[EndoMap]:
        """The image of a_3 is forced by unitality (the unit is a_1 + a_2 +
        a_3), so only the images of a_1 (an idempotent) and a_2 (square
        zero) are searched, with multiplicativity pruning as early as
        possible."""
        algebra = self.algebra
        mul, add, neg = algebra._mul, algebra._add, algebra._neg
        one, zero = algebra._one, algebra._zero
        idempotents, square_zero, _ = self._sweep
        found = []
        for u in idempotents:
            for v in square_zero:
                if mul(u, v) != zero or mul(v, u) != v:
                    continue
                w = add(one, neg(add(u, v)))
                if mul(u, w) != zero or mul(v, w) != zero:
                    continue
                if mul(w, u) != neg(v) or mul(w, v) != v:
                    continue
                if mul(w, w) != w:
                    continue
                found.append((u, v, w))
        found.sort()
        return [_mk_endo(algebra, vecs) for vecs in found]

    @cached_property
    def maps(self) -> list[dict[Vec, Vec]]:
        """Per endomorphism, in ``endos`` order, its value on every root.
        The roots hold every basis image (a_1 and a_3 go to idempotents,
        a_2 to a square-zero element), and an endomorphism maps roots to
        roots, so these maps are all the phases apply."""
        roots = self.roots
        return [{x: e.apply_vec(x) for x in roots} for e in self.endos]

    @cached_property
    def _endo_at(self) -> dict[tuple[Vec, Vec, Vec], EndoMap]:
        return {e.images: e for e in self.endos}

    def composite_row(self, r: EndoMap) -> list[EndoMap]:
        """``compose_endos(r, c)`` for each c in ``endos``: r's basis images
        read off c's map."""
        endo_at, algebra = self._endo_at, self.algebra
        u, v, w = r.images
        return [
            endo_at.get(images) or _mk_endo(algebra, images)
            for images in [(m[u], m[v], m[w]) for m in self.maps]
        ]

    def composite_rows(self):
        """Stream one row per endomorphism r: r and its ``composite_row``.
        An unclassified endomorphism cannot be composed: it is refused once,
        before the first row."""
        if any(e.family[0] == "unclassified" for e in self.endos):
            raise ClassificationError("cannot compose unclassified endomorphisms")
        for r in self.endos:
            yield r, self.composite_row(r)

    def root_image_rows(self, vecs: list[Vec]):
        """Stream one row per endomorphism e: e and its image of each root
        in ``vecs``."""
        for e, m in zip(self.endos, self.maps):
            yield e, [m[v] for v in vecs]

    def cycle_image_rows(self, supports: list[tuple[Vec, Vec, Vec]]):
        """Stream one row per endomorphism e: e and, for each support of
        three roots, the canonical rotation of its image under e."""
        for e, m in zip(self.endos, self.maps):
            yield e, [
                min((x, y, z), (y, z, x), (z, x, y))  # the canonical rotation
                for x, y, z in [(m[a], m[b], m[c]) for a, b, c in supports]
            ]

    @cached_property
    def automorphisms(self) -> list[EndoMap]:
        return automorphisms(self.endos)

    @cached_property
    def root_records(self) -> list[RootRecord]:
        """One record per family parameter instance, checked against the
        root scan (see ``classify_roots``); each distinct root's minimal
        polynomial is computed once."""
        p, scan = self.p, self.roots
        scan_set = set(scan)
        minpolys = {}
        records = []
        for fam in _all_root_families(p):
            vec = root_element(fam, p)
            if vec not in scan_set:
                raise ClassificationError(f"family instance {label(fam)} is not a root")
            if vec not in minpolys:
                minpolys[vec] = minpoly_label(vec, p)
            records.append(RootRecord(vec, fam, minpolys[vec]))
        for x in scan:
            if x not in minpolys:
                raise ClassificationError(f"root {x} matched no family")
        return records

    @cached_property
    def cycle_key_at(self) -> dict[Key, tuple[Vec, Vec, Vec]]:
        """Each cycle family's key, the canonical rotation of its support.
        A rotation of a support has the key's canonical image under every
        endomorphism, so ``cycle_image_rows`` takes the keys as supports."""
        keys, family_at = {}, {}
        for fam in _all_cycle_families(self.p):
            key = canonical_rotation(cycle_support(fam, self.p))
            if key in family_at:
                raise ClassificationError(
                    f"cycle families {label(family_at[key])} and {label(fam)} collide"
                )
            family_at[key] = fam
            keys[fam] = key
        return keys

    @cached_property
    def census(self) -> SearchOutcome:
        """Every splitting of X^3 - X^2 with leading 1 over the algebra."""
        f = example1_cubic(self.algebra)
        return enumerate_splittings(SearchTask(self.algebra, f, 3, "all_splittings"))

    @cached_property
    def cycle_records(self) -> list[CycleRecord]:
        """The census's rotation classes, each matched to its family (see
        ``classify_cycles``)."""
        found_keys = {
            canonical_rotation(tuple(a.payload for a in w.pseudoroots))
            for w in self.census.witnesses
        }
        for key in found_keys.difference(self.cycle_key_at.values()):
            raise ClassificationError(f"splitting class {key} matched no family")
        records = []
        for fam, key in self.cycle_key_at.items():
            if key not in found_keys:
                raise ClassificationError(
                    f"family instance {label(fam)} was not found by the search"
                )
            records.append(CycleRecord(self.algebra, key, fam))
        return records


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def _root_action_row(e: Key, columns: list[Key], p: int) -> list[Key]:
    """The family key of an image under e of a root of family c, for each
    root family key c in ``columns``."""
    kind, params = e
    if kind == "eps_sigma_s":
        s, v = params
        return [
            ("r_tau", (q[0] * s % p,)) if k == "r_tau"
            else ("r_tau_t", (q[0] * s % p, (q[1] * s + v) % p)) if k == "r_tau_t"
            else ("r_t", ((q[0] * s + v) % p,)) if k == "r_t" else (k, q)
            for k, q in columns
        ]
    low, unit = ("r_tau", (0,)), ("r", ())
    if kind == "eps_s":
        (v,) = params
        image = {"r_tau": low, "r_tau_t": ("r_t", (v,)), "r_t": ("r_tau_t", (0, v)), "r": unit}
    elif kind == "eps" or kind == "eps_prime":
        # eps sends x to x_1 times the unit, eps' to x_3 times it
        a, b = (low, unit) if kind == "eps" else (unit, low)
        image = {"r_tau": low, "r_tau_t": a, "r_t": b, "r": unit}
    else:
        raise ClassificationError(f"no action rule for {e!r}")
    return [image[k] for k, _ in columns]


def _cycle_action_row(e: Key, columns: list[Key], p: int) -> list[Key]:
    """The family key of the image under e of a cycle class of family c,
    for each cycle family key c in ``columns``."""
    kind, params = e
    if kind == "eps_sigma_s":
        s, v = params
        return [
            ("c_tau", (q[0] * s % p,)) if k == "c_tau"
            else ("c_tau_t", (q[0] * s % p, (q[1] * s + v) % p)) if k == "c_tau_t"
            # the shift parameter moves: c_t(u) -> c_t(u*s + v)
            else ("c_t", ((q[0] * s + v) % p,))
            for k, q in columns
        ]
    if kind == "eps_s":
        (v,) = params
        image = {"c_tau": ("c_tau", (0,)), "c_tau_t": ("c_t", (v,)), "c_t": ("c_tau_t", (0, v))}
        return [image[k] for k, _ in columns]
    if kind == "eps" or kind == "eps_prime":
        return [("c_tau", (0,))] * len(columns)
    raise ClassificationError(f"no action rule for {e!r}")


class ActionTablesReport(Record):
    _fields = (
        "p", "root_action_checks", "root_action_mismatches", "cycle_action_checks",
        "cycle_action_mismatches", "images_are_roots",
    )

    @property
    def passed(self) -> bool:
        return (
            not self.root_action_mismatches
            and not self.cycle_action_mismatches
            and self.images_are_roots
        )


def verify_action_tables(modulus: int) -> ActionTablesReport:
    """Entrywise check of both action tables over all parameter values."""
    return _action_report(_Battery(modulus))


def _action_report(battery: _Battery) -> ActionTablesReport:
    p, endos, records = battery.p, battery.endos, battery.root_records
    cycle_key_at = battery.cycle_key_at
    roots = set(battery.roots)
    root_families, cycle_families = [rec.family for rec in records], list(cycle_key_at)
    vec_at = {rec.family: rec.element for rec in records}
    root_mismatches = []
    cycle_mismatches = []
    images_are_roots = True
    for e, images in battery.root_image_rows([rec.element for rec in records]):
        if not roots.issuperset(images):
            images_are_roots = False
        expected = [vec_at[k] for k in _root_action_row(e.family, root_families, p)]
        if expected != images:
            root_mismatches += _cell_mismatches(e.family, root_families, expected, images)
    for e, got_keys in battery.cycle_image_rows(list(cycle_key_at.values())):
        expected = [cycle_key_at[k] for k in _cycle_action_row(e.family, cycle_families, p)]
        if expected != got_keys:
            cycle_mismatches += _cell_mismatches(e.family, cycle_families, expected, got_keys)
    return ActionTablesReport(
        p=p,
        root_action_checks=len(endos) * len(records),
        root_action_mismatches=tuple(root_mismatches),
        cycle_action_checks=len(endos) * len(cycle_key_at),
        cycle_action_mismatches=tuple(cycle_mismatches),
        images_are_roots=images_are_roots,
    )


# ---------------------------------------------------------------------------
# minimal polynomials and the poset
# ---------------------------------------------------------------------------

# family kind -> label; r_tau depends on whether its parameter is zero
EXPECTED_MINPOLY = {"r_tau_t": "X(X-1)", "r_t": "X(X-1)", "r": "X-1"}


def _expected_minpoly(fam: Key, p: int) -> str:
    kind, params = fam
    if kind == "r_tau":
        return "X" if params[0] % p == 0 else "X^2"
    return EXPECTED_MINPOLY[kind]


class PosetReport(Record):
    _fields = (
        "p", "minpoly_table_ok", "monotone_ok", "automorphisms_preserve_ok", "level_order_ok",
        "failing_kinds", "exception_patterns", "exception_pattern_ok", "failing_pair_count",
    )

    @property
    def passed(self) -> bool:
        return (
            self.minpoly_table_ok
            and self.monotone_ok
            and self.automorphisms_preserve_ok
            and self.level_order_ok
            and set(self.failing_kinds) == {"eps", "eps_prime"}
            and self.exception_pattern_ok
        )


# the four exception patterns: which endomorphism breaks which strict pair
EXPECTED_EXCEPTION_PATTERNS = frozenset(
    {
        ("eps_prime", "r^0", "r_tau_t"),
        ("eps", "r^0", "r_t"),
        ("eps", "r", "r_tau_t"),
        ("eps_prime", "r", "r_t"),
    }
)


def minpoly_and_poset(modulus: int) -> PosetReport:
    """Verify the minimal-polynomial table, that every endomorphism moves
    roots weakly upward (divisibility of minimal polynomials), that
    automorphisms preserve the order, that exactly eps and eps' break
    order preservation (in the four known patterns), and that the weaker
    degree-level order is always preserved."""
    return _poset_report(_Battery(modulus))


def _poset_report(battery: _Battery) -> PosetReport:
    p, records = battery.p, battery.root_records
    autos = {id(e) for e in battery.automorphisms}

    minpoly_table_ok = all(
        rec.minpoly == _expected_minpoly(rec.family, p) for rec in records
    )

    strict_pairs = [
        (i, j)
        for i, x in enumerate(records)
        for j, y in enumerate(records)
        # x is above y when x's minimal polynomial properly divides y's
        if x.minpoly in _PROPER_DIVISORS[y.minpoly]
    ]
    # every image is a root, and the records label each root once
    labels = {rec.element: rec.minpoly for rec in records}
    record_mps = [rec.minpoly for rec in records]
    monotone_ok = True
    level_order_ok = True
    failing_kinds = set()
    patterns = set()
    failing_pair_count = 0
    automorphisms_preserve_ok = True
    for e, images in battery.root_image_rows([rec.element for rec in records]):
        image_mps = [labels[img] for img in images]
        if image_mps == record_mps:
            continue  # every label kept: each check below holds
        for mp_img, mp in zip(image_mps, record_mps):
            if (mp_img, mp) not in _DIVIDES:
                monotone_ok = False
                # degree: coefficient count less one (a divisor's is no higher)
                if len(MINPOLY_LATTICE[mp_img]) > len(MINPOLY_LATTICE[mp]):
                    level_order_ok = False
        for i, j in strict_pairs:
            if (image_mps[i], image_mps[j]) not in _DIVIDES:
                x, y = records[i], records[j]
                failing_pair_count += 1
                failing_kinds.add(e.family[0])
                if id(e) in autos:
                    automorphisms_preserve_ok = False
                patterns.add((e.family[0], label(x.family), y.family[0]))

    exception_pattern_ok = patterns == set(EXPECTED_EXCEPTION_PATTERNS)

    return PosetReport(
        p=p,
        minpoly_table_ok=minpoly_table_ok,
        monotone_ok=monotone_ok,
        automorphisms_preserve_ok=automorphisms_preserve_ok,
        level_order_ok=level_order_ok,
        failing_kinds=tuple(sorted(failing_kinds)),
        exception_patterns=tuple(sorted(patterns)),
        exception_pattern_ok=exception_pattern_ok,
        failing_pair_count=failing_pair_count,
    )


# ---------------------------------------------------------------------------
# translation properties
# ---------------------------------------------------------------------------


class TranslateReport(Record):
    """Single-application translation checks, with the reachability-closure
    reading computed alongside (they agree on the checked primes)."""

    _fields = (
        "p", "roots_from_seeds", "roots_to_sinks", "cycles_from_seeds", "cycles_to_sink",
        "closure_needed",
    )

    @property
    def passed(self) -> bool:
        return (
            self.roots_from_seeds
            and self.roots_to_sinks
            and self.cycles_from_seeds
            and self.cycles_to_sink
        )


def verify_translate_properties(modulus: int) -> TranslateReport:
    """Every root is the image of r^1 or r^1_0; every root maps into
    {r^0, r}; every cycle class is the image of the c^1 or c^1_0 class; and
    every cycle class maps to the c^0 class. "Image" means a single
    endomorphism application; the reachability closure is also computed to
    confirm single application already suffices."""
    return _translate_report(_Battery(modulus))


def _translate_report(battery: _Battery) -> TranslateReport:
    p, roots = battery.p, battery.roots
    maps = battery.maps

    seed_roots = [root_element(("r_tau", (1,)), p), root_element(("r_tau_t", (1, 0)), p)]
    one_step_images = {m[v] for m in maps for v in seed_roots}
    roots_from_seeds = set(roots) <= one_step_images

    sinks = {root_element(("r_tau", (0,)), p), root_element(("r", ()), p)}
    roots_to_sinks = all(any(m[v] in sinks for m in maps) for v in roots)

    cycle_key_at = battery.cycle_key_at
    seeds = [cycle_key_at[("c_tau", (1,))], cycle_key_at[("c_tau_t", (1, 0))]]
    one_step_cycle_images = {key for _, keys in battery.cycle_image_rows(seeds) for key in keys}
    cycles_from_seeds = one_step_cycle_images.issuperset(cycle_key_at.values())

    sink_key = cycle_key_at[("c_tau", (0,))]
    cycles_to_sink = all(
        any(canonical_rotation((m[a], m[b], m[c])) == sink_key for m in maps)
        for a, b, c in cycle_key_at.values()
    )

    # reachability closure of the seeds; single application must already
    # cover it, so the closure adds nothing new
    closure = set(seed_roots) | one_step_images
    frontier = list(closure)
    while frontier:
        v = frontier.pop()
        for m in maps:
            img = m[v]
            if img not in closure:
                closure.add(img)
                frontier.append(img)
    closure_needed = not (closure <= one_step_images | set(seed_roots))

    return TranslateReport(
        p=p,
        roots_from_seeds=roots_from_seeds,
        roots_to_sinks=roots_to_sinks,
        cycles_from_seeds=cycles_from_seeds,
        cycles_to_sink=cycles_to_sink,
        closure_needed=closure_needed,
    )


# ---------------------------------------------------------------------------
# the whole battery
# ---------------------------------------------------------------------------


class EndoSuiteReport(Record):
    _fields = ("p", "monoid", "cycles", "actions", "poset", "translate")

    @property
    def passed(self) -> bool:
        return (
            self.monoid.passed
            and self.cycles.passed
            and self.actions.passed
            and self.poset.passed
            and self.translate.passed
        )


def full_suite(modulus: int) -> EndoSuiteReport:
    """The five phase reports, all read off one context."""
    battery = _Battery(modulus)
    return EndoSuiteReport(
        p=battery.p,
        monoid=_monoid_report(battery),
        cycles=_cycle_report(battery),
        actions=_action_report(battery),
        poset=_poset_report(battery),
        translate=_translate_report(battery),
    )


# ---------------------------------------------------------------------------
# tables (``render_vec`` and ``format_table`` live in ``examples``)
# ---------------------------------------------------------------------------


def endo_images_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    endos = enumerate_endos(modulus)
    headers = ["endo", "a1 ->", "a2 ->", "a3 ->"]
    rows = [
        [label(e.family), *(render_vec(v) for v in e.images)] for e in endos
    ]
    return headers, rows


def monoid_table_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    # each label formatted once (a composite outside ``endos`` labels itself)
    names = {id(e): label(e.family) for e in battery.endos}
    headers = ["first, then:"] + list(names.values())
    rows = [
        [names[id(r)]] + [names.get(id(x)) or label(x.family) for x in row]
        for r, row in battery.composite_rows()
    ]
    return headers, rows


def root_action_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    p = battery.p
    fams = _all_root_families(p)
    headers = ["endo \\ root"] + [label(f) for f in fams]
    # each root's label formatted once; an image that is no root is refused
    names = {x: label(classify_element_as_root(x, p)) for x in battery.roots}
    rows = [
        [label(e.family)]
        + [names.get(img) or label(classify_element_as_root(img, p)) for img in images]
        for e, images in battery.root_image_rows([root_element(f, p) for f in fams])
    ]
    return headers, rows


def cycle_action_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    cycle_key_at = battery.cycle_key_at
    names = {key: label(fam) for fam, key in cycle_key_at.items()}
    headers = ["endo \\ cycle"] + list(names.values())
    rows = [
        [label(e.family)] + [names[key] for key in keys]
        for e, keys in battery.cycle_image_rows(list(cycle_key_at.values()))
    ]
    return headers, rows


def minpoly_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    records = classify_roots(modulus)
    headers = ["root", "element", "minpoly"]
    rows = [
        [label(r.family), render_vec(r.element), r.minpoly]
        for r in records
    ]
    return headers, rows


TABLE_BUILDERS = {
    "images": endo_images_rows,
    "monoid": monoid_table_rows,
    "action-roots": root_action_rows,
    "action-cycles": cycle_action_rows,
    "minpoly": minpoly_rows,
}
