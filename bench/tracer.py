"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of ``cyclesplit`` at the module boundaries
where their callers look them up, runs a pass, and restores every original.
Nothing under ``src/`` is edited. Three kinds of wrapper exist:

* ``span``  - coarse boundaries (operation, search, endo phase, linalg call,
  cli command): every call is recorded as a span with its parent.
* ``hot``   - the inner-loop calls of ``rings``, ``ncpoly`` and ``splitting``:
  calls and self time are aggregated per (parent span, name), so a traced
  pass over a 343-element ring stays bounded in memory.
* ``count`` - a call counter only (no timing), for generators such as
  ``Ring.elements`` whose call returns before the work is done.

A layer's self time is the duration of its calls minus the time covered by
the wrapped calls made inside them, so the self times of all names in a pass
add up to the duration of the outermost span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPAN, HOT, COUNT = "span", "hot", "count"

_ARITH_NAMESPACES = (
    "cyclesplit",
    "cyclesplit.ncpoly",
    "cyclesplit.search",
    "cyclesplit.splitting",
    "cyclesplit.cli",
)


def _targets():
    """(metric, kind, owner, attribute, observer name) for every wrap site.

    ``owner`` is "module" or "module:Class" or "module:DICT[]" (each entry of
    a module-level dict). A name is wrapped in every namespace that imports
    it, because callers look it up there.
    """
    t = [
        ("rings.mul", HOT, "cyclesplit.rings:Element", "__mul__", None),
        ("rings.add", HOT, "cyclesplit.rings:Element", "__add__", None),
        ("rings.add", HOT, "cyclesplit.rings:Element", "__radd__", None),
        ("rings.add", HOT, "cyclesplit.rings:Element", "__sub__", None),
        ("rings.is_zero", HOT, "cyclesplit.rings:Element", "is_zero", None),
        ("rings.elements", COUNT, "cyclesplit.rings:Ring", "elements", None),
        ("ncpoly.polymul", HOT, "cyclesplit.ncpoly:NCPoly", "__mul__", None),
    ]
    for ns in _ARITH_NAMESPACES:
        observer = "search_division" if ns == "cyclesplit.search" else None
        t.append(("ncpoly.right_divide", HOT, ns, "right_divide_linear", observer))
        for name in ("right_eval", "left_eval", "eval_commuting"):
            t.append(("ncpoly.eval", HOT, ns, name, None))
        t.append(("splitting.expand", HOT, ns, "expand", None))
        t.append(("splitting.commutation", HOT, ns, "commutation_hypothesis", None))
        t.append(("splitting.verify", HOT, ns, "verify_cyclic_splitting", None))
        t.append(("splitting.vandermonde", HOT, ns, "vandermonde", None))
    for ns in ("cyclesplit", "cyclesplit.search", "cyclesplit.cli", "cyclesplit.endo"):
        observer = "endo_census" if ns == "cyclesplit.endo" else None
        t.append(("search.enumerate", SPAN, ns, "enumerate_splittings", observer))
        t.append(("search.find_roots", SPAN, ns, "find_roots", None))
    for name, attr in (
        ("endo.monoid", "verify_monoid_table"),
        ("endo.cycles", "verify_cycle_suite"),
        ("endo.actions", "verify_action_tables"),
        ("endo.poset", "minpoly_and_poset"),
        ("endo.translate", "verify_translate_properties"),
        ("endo.evidence", "composition_order_evidence"),
    ):
        t.append((name, SPAN, "cyclesplit.endo", attr, None))
    t.append(("endo.tables", SPAN, "cyclesplit.endo:TABLE_BUILDERS[]", None, None))
    for attr in ("det_int", "det_fraction", "det_mod"):
        t.append(("linalg.det", SPAN, "cyclesplit.linalg", attr, None))
    for attr in ("nullspace_rational", "nullspace_mod_prime", "smith_diagonalize", "kernel_mod"):
        t.append(("linalg.kernel", SPAN, "cyclesplit.linalg", attr, None))
    t.append(("cli.run", SPAN, "cyclesplit.cli", "run", None))
    return t


TARGETS = _targets()

# Every metric a wrap target can feed, in report order.
LAYER_NAMES = tuple(dict.fromkeys(m for m, *_ in TARGETS))


class Tracer:
    """Span stack, aggregated hot calls and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # frames: [name, start, covered_by_children, span_id]
        self._last_id = 0
        self.spans = []  # (id, parent_id, name, start, end, self_s)
        self.hot = {}  # (parent name, name) -> [calls, self_s]
        self.counts = Counter()
        self._patches = []  # restore callables, in install order

    # -- recording ---------------------------------------------------------

    def _push(self, name, span_id=None):
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _pop(self, frame):
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        self_s = duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return end, self_s

    @contextmanager
    def span(self, name):
        """Record one span around a block (used for the harness's own phases)."""
        self._last_id += 1
        span_id = self._last_id
        parent_id = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        frame = self._push(name, span_id)
        try:
            yield
        finally:
            end, self_s = self._pop(frame)
            self.spans.append((span_id, parent_id, name, frame[1], end, self_s))

    def _wrap_span(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_hot(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                _, self_s = tracer._pop(frame)
                parent = tracer._stack[-1][0] if tracer._stack else None
                slot = tracer.hot.get((parent, name))
                if slot is None:
                    slot = tracer.hot[(parent, name)] = [0, 0.0]
                slot[0] += 1
                slot[1] += self_s
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_count(self, name, fn, observe):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing --------------------------------------------------------

    def _wrap(self, kind, name, fn, observe):
        maker = {SPAN: self._wrap_span, HOT: self._wrap_hot, COUNT: self._wrap_count}[kind]
        if isinstance(fn, property):
            return property(maker(name, fn.fget, observe))
        return maker(name, fn, observe)

    def install(self):
        """Wrap every target whose module is loaded and whose name still
        exists; a target that has gone is skipped."""
        for metric, kind, owner, attr, observer in TARGETS:
            found = _resolve(owner, attr, sys.modules.get)
            if found is None:
                continue
            holder, original = found
            observe = OBSERVERS.get(observer)
            if isinstance(holder, dict):
                for key, fn in list(holder.items()):
                    holder[key] = self._wrap(kind, metric, fn, observe)
                    self._patches.append(lambda t=holder, k=key, f=fn: t.__setitem__(k, f))
            else:
                setattr(holder, attr, self._wrap(kind, metric, original, observe))
                self._patches.append(lambda h=holder, a=attr, o=original: setattr(h, a, o))

    def restore(self):
        while self._patches:
            self._patches.pop()()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """name -> {"calls": n, "self_s": s} over spans and hot aggregates."""
        out = {}
        for _id, _parent, name, _start, _end, self_s in self.spans:
            slot = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += 1
            slot["self_s"] += self_s
        for (_parent, name), (calls, self_s) in self.hot.items():
            slot = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += calls
            slot["self_s"] += self_s
        return out

    def to_json(self):
        return {
            "spans": [list(s) for s in self.spans],
            "hot": [[parent, name, calls, self_s] for (parent, name), (calls, self_s) in self.hot.items()],
            "counts": dict(self.counts),
            "totals": self.totals(),
        }


def _resolve(owner, attr, load):
    """(holder, original) for one wrap site, or None when it has gone.

    A class attribute is patched where it is defined, not where it is
    inherited; a dict owner yields the dict itself.
    """
    module_name, _, inner = owner.partition(":")
    module = load(module_name)
    if module is None:
        return None
    if inner.endswith("[]"):
        table = getattr(module, inner[:-2], None)
        return (table, None) if isinstance(table, dict) else None
    if inner:
        holder = getattr(module, inner, None)
        original = None if holder is None else holder.__dict__.get(attr)
    else:
        holder, original = module, getattr(module, attr, None)
    return None if original is None else (holder, original)


def available_layers():
    """Metrics with at least one wrap site in the current source tree."""
    def load(name):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    return sorted({t[0] for t in TARGETS if _resolve(t[2], t[3], load) is not None})


def _observe_search_division(tracer, args, result):
    """Divisions made by the splitting search, by degree of the dividend,
    and how many left remainder zero."""
    f = args[0]
    counts = tracer.counts
    counts[f"search.divisions.deg{f.degree}"] += 1
    counts["search.divisions"] += 1
    remainder = result[1]
    # compare payloads: the wrapped is_zero would count this check as work
    if remainder.payload == remainder.ring.zero().payload:
        counts["search.divisions.zero_remainder"] += 1


def _observe_endo_census(tracer, args, result):
    tracer.counts["endo.census.calls"] += 1


OBSERVERS = {
    "search_division": _observe_search_division,
    "endo_census": _observe_endo_census,
}
