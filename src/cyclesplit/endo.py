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
* an image map per endomorphism, ``{x: e(x)}`` over the 3p+1 roots, which
  hold every basis image; each entry is one ``apply_vec``;
* the root records, with one minimal polynomial per distinct root;
* each cycle family's key, the canonical rotation of its support;
* the splitting census of X^3 - X^2 and its rotation classes.

A composite ``compose_endos(r, c)`` is r's basis images read off c's map,
and the root and cycle action tables, the poset and the translation checks
read the maps too, so each endomorphism is applied once per root. The
checks index roots by the root records and cycles by their keys. Each
table of compositions, root images or cycle images is one loop that
streams a row per endomorphism, and the table's check and its export both
read it; the monoid check composes each ordered pair once. A row is built
inline: a monoid row reads r's basis images off the column maps, one list
aligned with ``endos`` that the context builds once (refusing an
unclassified endomorphism there, once), and a cycle row takes the least of
each image triple's three rotations. The checks read the families and the
identity flags once per row and once per column, not per cell. The context
refuses a prime whose monoid table has more than ``search.NODE_BUDGET``
ordered pairs (p > 97) with ``SearchSpaceTooLargeError``, before any
enumeration.

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


class _Family(Value):
    """A family tag: its kind and parameters; ``_LABELS`` names it."""

    # the battery builds tens of thousands of tags: slots and a plain __init__
    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        _set_kind(self, kind)
        _set_params(self, params)

    # the Value protocol on the two slots, without its key getter: the tables
    # compare and hash a tag per cell
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self):
        return hash((self.kind, self.params))

    def label(self) -> str:
        return _LABELS[self.kind] % self.params


_set_kind, _set_params = _Family.kind.__set__, _Family.params.__set__


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------


class EndoFamily(_Family):
    """Family tag: eps, eps_prime, eps_sigma_s(scale, shift) or eps_s(shift)."""

    __slots__ = ()


def classify_endo_images(images: tuple[Vec, Vec, Vec], p: int) -> EndoFamily:
    u, v, w = images
    if u == _UNIT and v == _ZERO and w == _ZERO:
        return EndoFamily("eps")
    if u == _ZERO and v == _ZERO and w == _UNIT:
        return EndoFamily("eps_prime")
    if u[0] == 1 and u[2] == 0 and v[0] == 0 and v[2] == 0:
        scale, shift = v[1], u[1]
        if w == (0, (1 - scale - shift) % p, 1):
            return EndoFamily("eps_sigma_s", (scale, shift))
    if v == _ZERO and u[0] == 0 and u[2] == 1 and w[0] == 1 and w[2] == 0:
        shift = w[1]
        if u[1] == (1 - shift) % p:
            return EndoFamily("eps_s", (shift,))
    return EndoFamily("unclassified")


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

    def label(self) -> str:
        return self.family.label()


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
    if e1.family.kind == "unclassified" or e2.family.kind == "unclassified":
        raise ClassificationError("cannot compose unclassified endomorphisms")
    vecs = tuple(e2.apply_vec(im) for im in e1.images)
    return _mk_endo(e1.algebra, vecs)


def predicted_composition(f1: EndoFamily, f2: EndoFamily, p: int) -> EndoFamily:
    """Family of compose(e1, e2) predicted by the matrix model M(e1) M(e2)."""
    if f1.kind == "eps" or f1.kind == "eps_prime":
        return EndoFamily(f1.kind)
    if f1.kind == "eps_sigma_s":
        s, v = f1.params
        if f2.kind == "eps":
            return EndoFamily("eps")
        if f2.kind == "eps_prime":
            return EndoFamily("eps_prime")
        if f2.kind == "eps_sigma_s":
            t, u = f2.params
            return EndoFamily("eps_sigma_s", ((s * t) % p, (v * t + u) % p))
        (u,) = f2.params
        return EndoFamily("eps_s", (u,))
    if f1.kind == "eps_s":
        (v,) = f1.params
        if f2.kind == "eps":
            return EndoFamily("eps_prime")
        if f2.kind == "eps_prime":
            return EndoFamily("eps")
        if f2.kind == "eps_sigma_s":
            t, u = f2.params
            return EndoFamily("eps_s", ((v * t + u) % p,))
        (u,) = f2.params
        return EndoFamily("eps_sigma_s", (0, u))
    raise ClassificationError(f"no prediction for {f1!r}")


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
    unclassified = tuple(str(e.images) for e in endos if e.family.kind == "unclassified")
    ident = battery.algebra.module_basis()
    families = [e.family for e in endos]
    is_ident = [e.images == ident for e in endos]
    mismatches = []
    frozen_hits = 0
    reversed_hits = 0
    neutral_ok = any(is_ident)
    for (r, row), r_family, r_ident in zip(battery.composite_rows(), families, is_ident):
        if r_ident and any(x.images != c.images for x, c in zip(row, endos)):
            neutral_ok = False
        for c, c_family, c_ident, composite in zip(endos, families, is_ident, row):
            predicted = predicted_composition(r_family, c_family, p)
            actual = composite.family
            if actual == predicted:
                frozen_hits += 1
            else:
                mismatches.append(
                    (r.label(), c.label(), predicted.label(), actual.label())
                )
            if actual == predicted_composition(c_family, r_family, p):
                reversed_hits += 1
            if c_ident and composite.images != r.images:
                neutral_ok = False

    autos = battery.automorphisms
    expected_autos = {
        EndoFamily("eps_sigma_s", (s, v)) for s in range(1, p) for v in range(p)
    }
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


class RootFamily(_Family):
    """Tag: r_tau(t), r_tau_t(t, u), r_t(u) or r (the unit)."""

    __slots__ = ()

    def element_vec(self, p: int) -> Vec:
        if self.kind == "r_tau":
            return (0, self.params[0] % p, 0)
        if self.kind == "r_tau_t":
            t, u = self.params
            return (0, (1 - t - u) % p, 1)
        if self.kind == "r_t":
            return (1, self.params[0] % p, 0)
        if self.kind == "r":
            return (1, 1, 1)
        raise ValueError(f"no element for {self!r}")


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

def minpoly_divides(a: str, b: str) -> bool:
    return a == b or a in _PROPER_DIVISORS[b]


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


def _all_root_families(p: int) -> list[RootFamily]:
    fams = [RootFamily("r_tau", (t,)) for t in range(p)]
    fams += [RootFamily("r_tau_t", (t, u)) for t in range(p) for u in range(p)]
    fams += [RootFamily("r_t", (u,)) for u in range(p)]
    fams.append(RootFamily("r"))
    return fams


def classify_element_as_root(x: Vec, p: int) -> RootFamily:
    """Canonical family of a root element (r_tau_t is normalized to tau = 0)."""
    if x == (1, 1, 1):
        return RootFamily("r")
    if x[0] == 1 and x[2] == 0:
        return RootFamily("r_t", (x[1],))
    if x[0] == 0 and x[2] == 1:
        return RootFamily("r_tau_t", (0, (1 - x[1]) % p))
    if x[0] == 0 and x[2] == 0:
        return RootFamily("r_tau", (x[1],))
    raise ClassificationError(f"{x} does not match any root family")


def classify_roots(modulus: int) -> list[RootRecord]:
    """One record per family parameter instance, (p+1)^2 in all.

    Every record's element is verified to be a root; the records' element
    set is verified to equal the exhaustive root scan (3p+1 distinct
    elements, the r_tau_t family depends only on t+u); and every scanned
    root must classify into exactly one family kind (hard failure
    otherwise).
    """
    return _Battery(modulus).root_records


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


class CycleFamily(_Family):
    """Tag: c_tau(t), c_tau_t(t, u) or c_t(u)."""

    __slots__ = ()

    def support_vecs(self, p: int) -> tuple[Vec, Vec, Vec]:
        if self.kind == "c_tau":
            (t,) = self.params
            return (
                RootFamily("r_tau", (t,)).element_vec(p),
                RootFamily("r_tau", ((-t) % p,)).element_vec(p),
                RootFamily("r").element_vec(p),
            )
        if self.kind == "c_tau_t":
            t, u = self.params
            return (
                RootFamily("r_tau", (t,)).element_vec(p),
                RootFamily("r_tau_t", (t, u)).element_vec(p),
                RootFamily("r_t", (u,)).element_vec(p),
            )
        (u,) = self.params
        return (
            RootFamily("r_tau", (0,)).element_vec(p),
            RootFamily("r_t", (u,)).element_vec(p),
            RootFamily("r_tau_t", (0, u)).element_vec(p),
        )


class CycleRecord(Value):
    _fields = ("algebra", "roots", "family")  # roots in canonical rotation


def _all_cycle_families(p: int) -> list[CycleFamily]:
    fams = [CycleFamily("c_tau", (t,)) for t in range(p)]
    fams += [CycleFamily("c_tau_t", (t, u)) for t in range(p) for u in range(p)]
    fams += [CycleFamily("c_t", (u,)) for u in range(p)]
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
        == (rec.family.kind == "c_tau_t" and rec.family.params[0] % p != 0)
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
    def maps(self) -> dict[tuple[Vec, Vec, Vec], dict[Vec, Vec]]:
        """Per endomorphism, by its basis images, its value on every root.
        The roots hold every basis image (a_1 and a_3 go to idempotents,
        a_2 to a square-zero element), and an endomorphism maps roots to
        roots, so these maps are all the phases apply."""
        roots = self.roots
        return {e.images: {x: e.apply_vec(x) for x in roots} for e in self.endos}

    @cached_property
    def _endo_at(self) -> dict[tuple[Vec, Vec, Vec], EndoMap]:
        return {e.images: e for e in self.endos}

    @cached_property
    def _column_maps(self) -> list[dict[Vec, Vec]]:
        """The image map of each endomorphism, in ``endos`` order: the
        columns of the monoid table. An unclassified endomorphism cannot be
        composed, and the battery refuses it here, once."""
        if any(e.family.kind == "unclassified" for e in self.endos):
            raise ClassificationError("cannot compose unclassified endomorphisms")
        maps = self.maps
        return [maps[e.images] for e in self.endos]

    def composite_row(self, r: EndoMap) -> list[EndoMap]:
        """``compose_endos(r, c)`` for each c in ``endos``: r's basis images
        read off c's map."""
        endo_at, algebra = self._endo_at, self.algebra
        u, v, w = r.images
        return [
            endo_at.get(images) or _mk_endo(algebra, images)
            for images in [(m[u], m[v], m[w]) for m in self._column_maps]
        ]

    def composite_rows(self):
        """Stream one row per endomorphism r: r and its ``composite_row``."""
        for r in self.endos:
            yield r, self.composite_row(r)

    def root_image_rows(self, vecs: list[Vec]):
        """Stream one row per endomorphism e: e and its image of each root
        in ``vecs``."""
        for e in self.endos:
            m = self.maps[e.images]
            yield e, [m[v] for v in vecs]

    def cycle_image_rows(self, supports: list[tuple[Vec, Vec, Vec]]):
        """Stream one row per endomorphism e: e and, for each support of
        three roots, the canonical rotation of its image under e."""
        for e in self.endos:
            m = self.maps[e.images]
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
            vec = fam.element_vec(p)
            if vec not in scan_set:
                raise ClassificationError(f"family instance {fam.label()} is not a root")
            if vec not in minpolys:
                minpolys[vec] = minpoly_label(vec, p)
            records.append(RootRecord(vec, fam, minpolys[vec]))
        for x in scan:
            if x not in minpolys:
                raise ClassificationError(f"root {x} matched no family")
            classify_element_as_root(x, p)  # raises if shape-ambiguous
        return records

    @cached_property
    def cycle_keys(self) -> dict[CycleFamily, tuple[Vec, Vec, Vec]]:
        """Each cycle family's key, the canonical rotation of its support.
        A rotation of a support has the key's canonical image under every
        endomorphism, so ``cycle_image_rows`` takes the keys as supports."""
        keys, family_at = {}, {}
        for fam in _all_cycle_families(self.p):
            key = canonical_rotation(fam.support_vecs(self.p))
            if key in family_at:
                raise ClassificationError(
                    f"cycle families {family_at[key].label()} and {fam.label()} collide"
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
        for key in found_keys.difference(self.cycle_keys.values()):
            raise ClassificationError(f"splitting class {key} matched no family")
        records = []
        for fam, key in self.cycle_keys.items():
            if key not in found_keys:
                raise ClassificationError(
                    f"family instance {fam.label()} was not found by the search"
                )
            records.append(CycleRecord(self.algebra, key, fam))
        return records


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def predicted_root_action(e: EndoFamily, r: RootFamily, p: int) -> RootFamily:
    if e.kind == "eps":
        if r.kind in ("r_tau", "r_tau_t"):
            return RootFamily("r_tau", (0,))
        return RootFamily("r")
    if e.kind == "eps_prime":
        if r.kind in ("r_tau", "r_t"):
            return RootFamily("r_tau", (0,))
        return RootFamily("r")
    if e.kind == "eps_sigma_s":
        s, v = e.params
        if r.kind == "r_tau":
            return RootFamily("r_tau", ((r.params[0] * s) % p,))
        if r.kind == "r_tau_t":
            t, u = r.params
            return RootFamily("r_tau_t", ((t * s) % p, (u * s + v) % p))
        if r.kind == "r_t":
            return RootFamily("r_t", ((r.params[0] * s + v) % p,))
        return RootFamily("r")
    if e.kind == "eps_s":
        (v,) = e.params
        if r.kind == "r_tau":
            return RootFamily("r_tau", (0,))
        if r.kind == "r_tau_t":
            return RootFamily("r_t", (v,))
        if r.kind == "r_t":
            return RootFamily("r_tau_t", (0, v))
        return RootFamily("r")
    raise ClassificationError(f"no action rule for {e!r}")


def predicted_cycle_action(e: EndoFamily, c: CycleFamily, p: int) -> CycleFamily:
    if e.kind in ("eps", "eps_prime"):
        return CycleFamily("c_tau", (0,))
    if e.kind == "eps_sigma_s":
        s, v = e.params
        if c.kind == "c_tau":
            return CycleFamily("c_tau", ((c.params[0] * s) % p,))
        if c.kind == "c_tau_t":
            t, u = c.params
            return CycleFamily("c_tau_t", ((t * s) % p, (u * s + v) % p))
        # the shift parameter moves: c_t(u) -> c_t(u*s + v)
        return CycleFamily("c_t", ((c.params[0] * s + v) % p,))
    if e.kind == "eps_s":
        (v,) = e.params
        if c.kind == "c_tau":
            return CycleFamily("c_tau", (0,))
        if c.kind == "c_tau_t":
            return CycleFamily("c_t", (v,))
        return CycleFamily("c_tau_t", (0, v))
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
    cycle_keys = battery.cycle_keys
    roots = set(battery.roots)
    root_families = [rec.family for rec in records]
    root_mismatches = []
    cycle_mismatches = []
    images_are_roots = True
    for e, images in battery.root_image_rows([rec.element for rec in records]):
        if not roots.issuperset(images):
            images_are_roots = False
        e_family = e.family
        for fam, img in zip(root_families, images):
            expected = predicted_root_action(e_family, fam, p).element_vec(p)
            if img != expected:
                root_mismatches.append(
                    (e.label(), fam.label(), str(expected), str(img))
                )
    for e, got_keys in battery.cycle_image_rows(list(cycle_keys.values())):
        e_family = e.family
        for fam, got in zip(cycle_keys, got_keys):
            expected = cycle_keys[predicted_cycle_action(e_family, fam, p)]
            if got != expected:
                cycle_mismatches.append(
                    (e.label(), fam.label(), str(expected), str(got))
                )
    return ActionTablesReport(
        p=p,
        root_action_checks=len(endos) * len(records),
        root_action_mismatches=tuple(root_mismatches),
        cycle_action_checks=len(endos) * len(cycle_keys),
        cycle_action_mismatches=tuple(cycle_mismatches),
        images_are_roots=images_are_roots,
    )


# ---------------------------------------------------------------------------
# minimal polynomials and the poset
# ---------------------------------------------------------------------------

# family kind -> label; r_tau depends on whether its parameter is zero
EXPECTED_MINPOLY = {"r_tau_t": "X(X-1)", "r_t": "X(X-1)", "r": "X-1"}


def _expected_minpoly(fam: RootFamily, p: int) -> str:
    if fam.kind == "r_tau":
        return "X" if fam.params[0] % p == 0 else "X^2"
    return EXPECTED_MINPOLY[fam.kind]


def _strictly_above(mp_x: str, mp_y: str) -> bool:
    # x is above y when x's minimal polynomial properly divides y's
    return mp_x != mp_y and minpoly_divides(mp_x, mp_y)


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
        if _strictly_above(x.minpoly, y.minpoly)
    ]
    # every image is a root, and the records label each root once
    labels = {rec.element: rec.minpoly for rec in records}
    monotone_ok = True
    level_order_ok = True
    failing_kinds = set()
    patterns = set()
    failing_pair_count = 0
    automorphisms_preserve_ok = True
    for e, images in battery.root_image_rows([rec.element for rec in records]):
        image_mps = []
        for rec, img in zip(records, images):
            mp_img = labels[img]
            image_mps.append(mp_img)
            if not minpoly_divides(mp_img, rec.minpoly):
                monotone_ok = False
            # a label's degree is its coefficient count less one
            if len(MINPOLY_LATTICE[mp_img]) > len(MINPOLY_LATTICE[rec.minpoly]):
                level_order_ok = False
        for i, j in strict_pairs:
            if not minpoly_divides(image_mps[i], image_mps[j]):
                x, y = records[i], records[j]
                failing_pair_count += 1
                failing_kinds.add(e.family.kind)
                if id(e) in autos:
                    automorphisms_preserve_ok = False
                patterns.add((e.family.kind, x.family.label(), y.family.kind))

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
    maps = battery.maps.values()

    seed_roots = [
        RootFamily("r_tau", (1,)).element_vec(p),
        RootFamily("r_tau_t", (1, 0)).element_vec(p),
    ]
    one_step_images = {m[v] for m in maps for v in seed_roots}
    roots_from_seeds = set(roots) <= one_step_images

    sinks = {RootFamily("r_tau", (0,)).element_vec(p), RootFamily("r").element_vec(p)}
    roots_to_sinks = all(any(m[v] in sinks for m in maps) for v in roots)

    cycle_keys = battery.cycle_keys
    seeds = [cycle_keys[CycleFamily("c_tau", (1,))], cycle_keys[CycleFamily("c_tau_t", (1, 0))]]
    one_step_cycle_images = {key for _, keys in battery.cycle_image_rows(seeds) for key in keys}
    cycles_from_seeds = one_step_cycle_images.issuperset(cycle_keys.values())

    sink_key = cycle_keys[CycleFamily("c_tau", (0,))]
    cycles_to_sink = all(
        any(canonical_rotation((m[a], m[b], m[c])) == sink_key for m in maps)
        for a, b, c in cycle_keys.values()
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
        [e.label(), *(render_vec(v) for v in e.images)] for e in endos
    ]
    return headers, rows


def monoid_table_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    headers = ["first, then:"] + [e.label() for e in battery.endos]
    rows = [
        [r.label()] + [x.label() for x in row] for r, row in battery.composite_rows()
    ]
    return headers, rows


def root_action_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    p = battery.p
    fams = _all_root_families(p)
    headers = ["endo \\ root"] + [f.label() for f in fams]
    rows = [
        [e.label()] + [classify_element_as_root(img, p).label() for img in images]
        for e, images in battery.root_image_rows([f.element_vec(p) for f in fams])
    ]
    return headers, rows


def cycle_action_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    battery = _Battery(modulus)
    cycle_keys = battery.cycle_keys
    family_at = {key: fam for fam, key in cycle_keys.items()}
    headers = ["endo \\ cycle"] + [f.label() for f in cycle_keys]
    rows = [
        [e.label()] + [family_at[key].label() for key in keys]
        for e, keys in battery.cycle_image_rows(list(cycle_keys.values()))
    ]
    return headers, rows


def minpoly_rows(modulus: int) -> tuple[list[str], list[list[str]]]:
    records = classify_roots(modulus)
    headers = ["root", "element", "minpoly"]
    rows = [
        [r.family.label(), render_vec(r.element), r.minpoly]
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
