"""Exhaustive discovery of roots, splittings and counterexamples over finite
rings. This is the brute-force oracle the rest of the library leans on.

The splitting search fixes the rightmost factor first: a candidate a_n
survives only if right division by (X - a_n) leaves remainder zero, and the
search recurses on the quotient. That turns the naive |A|^n sweep into
iterated root finding. Every quotient keeps the target's leading coefficient
f_n, because X - a is monic, so the last dividend is f_n X + c_0. When f_n is
a unit the last factor is solved in closed form, a_1 = -f_n^{-1} c_0 (a
monic target needs no inversion: f_n = 1 is its own inverse); when it is
not, the last factor is swept over the ring like the others. Results are
canonically ordered and therefore identical across runs regardless of how
the work is partitioned.

A splitting f_n (X - a_1) ... (X - a_n) has degree exactly n, so a search
with n != deg f returns no witnesses before it divides anything. When
n = deg f each division lowers the degree by one, and the quotient chain
f = q_1 (X - a_n), q_1 = q_2 (X - a_{n-1}), ... ends in the constant f_n:
every tuple that reaches depth 0 is a splitting by construction, and no
product re-checks it. ``test_every_witness_expands_to_its_target`` in
``tests/test_search.py`` expands every witness of its differential targets
and of the census grid, and compares it with f.

Each candidate division is one ``right_divide_linear`` call, on elements
built once per candidate before the sweep; only its remainder is an element.
The closed form, the membership test, the quotients and the canonical order
are payloads, and a ``SplittingWitness`` is built only for tuples that reach
depth 0. Root finding sweeps payloads too: both evaluations are remainders
of the division kernel ``ncpoly._divide_linear``, and only roots become
elements. In mode ``commuting_splittings_only`` with a non-central
coefficient the candidates are narrowed once, before the sweep, to the
payloads that commute with every coefficient of the target; the
closed-form candidate is held to the same membership test.

Whether every coefficient is central is decided once per search by the
ring's centrality test ``Ring._central``, the rule behind ``is_commutative``:
an element that commutes with each of the ring's ``_generators`` commutes
with the whole ring. The test costs O(rank) products, not O(|A|).

The paper's theorem prunes the search where it applies: in mode
``commuting_splittings_only`` always, and in ``all_splittings`` when every
coefficient of the target is central. A splitting whose factors all commute
with the coefficients has every factor a root of f, and each of its
rotations is a splitting again. So:

- roots first: the top-level sweep is the plain one, and its survivors are
  exactly the roots R of f among the candidates, because right and left
  evaluation agree at a point that commutes with the coefficients. Every
  deeper level sweeps R, and the closed-form last factor must lie in R;
- one rotation per class: a survivor a_n recurses only over the roots
  b >= a_n in payload order, since every class has a rotation whose
  rightmost factor is its least element. Each tuple found contributes all
  of its rotations, as a set, so a periodic tuple appears once.

The rotations are splittings by the theorem, whose hypothesis both pruned
cases meet, and the witnesses are sorted as before, so the output does not
depend on the pruning. In ``all_splittings`` with a non-central
coefficient the factors need not be roots, and the full sweep stays.
"""

from __future__ import annotations

from .ncpoly import MAX_DEGREE, NCPoly, _divide_linear, right_divide_linear, right_eval
from .rings import (
    Element,
    InfiniteRingError,
    Record,
    Ring,
    RingError,
    RingMismatchError,
    Value,
    _noncommuting,
    _require_int,
)
from .splitting import SplittingWitness

NODE_BUDGET = 10**8

MODES = ("all_splittings", "commuting_splittings_only", "roots_only", "counterexample_hunt")


class SearchSpaceTooLargeError(RingError):
    """The task would visit more than NODE_BUDGET candidates."""


class SearchTask(Record):
    _fields = ("ring", "target", "n", "mode")

    def _validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.ring.is_finite:
            raise InfiniteRingError("search needs a finite ring")
        if self.target.ring != self.ring:
            raise RingMismatchError("target polynomial is over a different ring")
        if self.target.is_zero:
            raise ValueError("target polynomial must be nonzero")
        if not 1 <= _require_int(self.n) <= MAX_DEGREE:
            raise ValueError(f"factor count must be between 1 and {MAX_DEGREE}, got {self.n}")


def task_from_json(obj) -> SearchTask:
    from .rings import parse_ring_spec
    from .ncpoly import poly_from_json

    ring = parse_ring_spec(obj["ring"])
    return SearchTask(ring, poly_from_json(obj["target"], ring=ring), obj["n"], obj["mode"])


class SearchOutcome(Value):
    """Witnesses in canonical (payload-lexicographic) order. ``cycle_ids[i]``
    is the cycle class of ``witnesses[i]``; classes are numbered in order of
    their canonical representatives. ``nodes`` counts the candidate
    divisions the search made."""

    _fields = ("task", "witnesses", "cycle_ids", "cycle_count", "nodes")
    nodes = 0

    def to_json_lines(self):
        for w, cid in zip(self.witnesses, self.cycle_ids):
            yield {"witness": w.to_json(), "cycle_class": cid}
        yield {
            "summary": {
                "mode": self.task.mode,
                "witness_count": len(self.witnesses),
                "cycle_class_count": self.cycle_count,
            }
        }


class _NodeCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self):
        self.count += 1
        if self.count > NODE_BUDGET:
            raise SearchSpaceTooLargeError(
                f"search exceeded the {NODE_BUDGET} candidate budget"
            )


def _require_desk_scale(ring: Ring):
    card = ring.cardinality
    if card is None:
        raise InfiniteRingError(f"{ring.describe()} is not finite")
    if card > NODE_BUDGET:
        raise SearchSpaceTooLargeError(
            f"{ring.describe()} has more than {NODE_BUDGET} elements, the search budget"
        )


def find_roots(f: NCPoly, ring: Ring | None = None) -> list[Element]:
    """All two-sided roots: a is a root iff X - a divides f on the right and
    on the left, i.e. right_eval(f, a) = 0 and left_eval(f, a) = 0. Both
    remainders are computed on payloads; canonical enumeration order."""
    ring = ring if ring is not None else f.ring
    if f.ring != ring:
        raise RingError("polynomial is not over the requested ring")
    _require_desk_scale(ring)
    coeffs = f.payloads
    zero = ring._zero
    return [
        Element(ring, a)
        for a in ring.payloads()
        if _divide_linear(ring, coeffs, a, True)[1] == zero
        and _divide_linear(ring, coeffs, a, False)[1] == zero
    ]


def _survivors(f: NCPoly, depth: int, candidates: dict, counter: _NodeCounter, lead_inv):
    """The pairs (a, q) with a drawn from ``candidates`` and f = q (X - a),
    for a search with ``depth`` factors left. ``candidates`` maps each
    payload to its element, so it is the sweep order and the membership test
    at once.

    ``lead_inv`` is the payload of the inverse of the target's leading
    coefficient when it is a unit, else None. Since a search runs only with
    n = deg f, f has degree ``depth``; at depth 1 it is leading * X + c_0,
    and -lead_inv * c_0 is its one candidate in place of the sweep, kept
    only if it is one of ``candidates``.
    """
    ring = f.ring
    if depth == 1 and lead_inv is not None:
        a = ring._neg(ring._mul(lead_inv, f.payloads[0]))
        sweep = (candidates[a],) if a in candidates else ()
    else:
        sweep = candidates.values()
    zero = ring._zero
    for a in sweep:
        counter.tick()
        # the public name, not the payload kernel: bench/tracer.py counts
        # the search's divisions where it is looked up here
        q, r = right_divide_linear(f, a)
        if r.payload == zero:
            yield a, q


def _splitting_tuples(
    f: NCPoly, depth: int, candidates: dict, counter: _NodeCounter, lead_inv
):
    """All payload tuples (a_1, ..., a_depth) drawn from ``candidates`` with
    f = q * (X-a_1)...(X-a_depth), where q has degree deg f - depth. The
    caller passes depth = deg f, so q is the leading coefficient of f and
    every tuple is a splitting."""
    if depth == 0:
        yield ()
        return
    for a, q in _survivors(f, depth, candidates, counter, lead_inv):
        for prefix in _splitting_tuples(q, depth - 1, candidates, counter, lead_inv):
            yield prefix + (a.payload,)


def _rotation_closed_tuples(
    f: NCPoly, n: int, candidates: dict, counter: _NodeCounter, lead_inv
) -> set:
    """``_splitting_tuples`` for candidates that all commute with every
    coefficient of f, pruned by the theorem (see the module docstring): the
    survivors of the plain top-level sweep are the roots R, a survivor a_n
    recurses only over the roots b >= a_n, and each tuple found brings its
    whole rotation class, as a set."""
    top = list(_survivors(f, n, candidates, counter, lead_inv))
    roots = {a.payload: a for a, _ in top}
    found = set()
    for a, q in top:
        later = {b: e for b, e in roots.items() if b >= a.payload}
        for prefix in _splitting_tuples(q, n - 1, later, counter, lead_inv):
            tup = prefix + (a.payload,)
            found.update(tup[k:] + tup[:k] for k in range(n))
    return found


def canonical_rotation(payloads: tuple) -> tuple:
    """The lexicographically least cyclic rotation of a tuple."""
    return min([payloads[k:] + payloads[:k] for k in range(len(payloads))])


def enumerate_splittings(task: SearchTask) -> SearchOutcome:
    """Every ordered pseudoroot tuple whose expansion equals the target.

    The leading coefficient is pinned to the target's own leading
    coefficient. A task whose n is not the degree of the target has no
    splitting and returns an empty outcome at 0 nodes, after the same size
    check as any other search. Otherwise each tuple of the quotient chain is
    a splitting as it stands and is not expanded (see the module docstring).

    In mode ``commuting_splittings_only`` every pseudoroot must also commute
    with every coefficient of the target (the commutation hypothesis), so
    only the centralizer of the coefficients is swept, and below the top
    level only its roots, one rotation per class (see the module
    docstring); ``all_splittings`` prunes the same way when every
    coefficient is central. Witnesses related by rotation share a cycle id
    (lexicographically minimal rotation is the class representative).
    """
    if task.mode not in ("all_splittings", "commuting_splittings_only"):
        raise ValueError(f"enumerate_splittings does not handle mode {task.mode!r}")
    ring = task.ring
    _require_desk_scale(ring)
    f = task.target
    if task.n != f.degree:
        # f_n (X - a_1) ... (X - a_n) has degree n, since f_n is nonzero
        return SearchOutcome(task, (), (), 0)
    lead = f.payloads[-1]
    if lead == ring._one:
        lead_inv = lead
    else:
        lead_inv = ring._inverse(lead) if ring._is_unit(lead) else None
    leading = Element(ring, lead)
    counter = _NodeCounter()
    # 0 and 1 commute with everything, and a repeated coefficient needs one test
    coeffs = set(f.payloads) - {ring._zero, ring._one}

    def commutes(a):  # with every coefficient
        return next(_noncommuting(ring, coeffs, a), None) is None

    central = ring._central(coeffs)
    commuting = task.mode == "commuting_splittings_only"
    sweep = ring.payloads()
    if commuting and not central:
        sweep = filter(commutes, sweep)
    candidates = {a: Element(ring, a) for a in sweep}
    # central coefficients: every splitting meets the hypothesis
    pruned = central or commuting
    search = _rotation_closed_tuples if pruned else _splitting_tuples

    found = sorted(search(f, task.n, candidates, counter, lead_inv))
    class_of: dict[tuple, int] = {}
    cycle_ids = []
    for tup in found:
        key = canonical_rotation(tup)
        if key not in class_of:
            class_of[key] = len(class_of)
        cycle_ids.append(class_of[key])
    witnesses = tuple(
        SplittingWitness(ring, leading, tuple(candidates[a] for a in tup)) for tup in found
    )
    return SearchOutcome(task, witnesses, tuple(cycle_ids), len(class_of), counter.count)


def counterexample_hunt(f: NCPoly) -> SplittingWitness | None:
    """First splitting of f (canonical order, commutation filter off) in which
    some pseudoroot is not a right root of f; None when no splitting misses.

    The rightmost pseudoroot always is a right root (it has remainder zero by
    construction), so any hit comes from an earlier factor.
    """
    if f.degree is None or f.degree < 1:
        raise ValueError("target must have degree at least 1")
    task = SearchTask(f.ring, f, f.degree, "all_splittings")
    outcome = enumerate_splittings(task)
    for w in outcome.witnesses:
        if any(not right_eval(f, a).is_zero for a in w.pseudoroots):
            return w
    return None
