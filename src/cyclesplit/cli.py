"""Command-line front end.

Commands: expand, rotate, divide, eval, verify, search, roots, centralizer,
endos, example1, example2, export. Exit status 0 when all checks pass, 1 on
a failed check or a failed write to the output, 2 on a parse error (one
line, with a column in polynomial text only), a missing or unknown command,
flag or argument, an example ring of the wrong shape, a file argument that
cannot be opened or written, an ``--n``, ``--p`` or ``--k`` that is no ASCII
decimal numeral (``rings._decimal``; ``--k`` alone may carry a leading "-"),
an out-of-range ``--n`` or ``--p``, a matrix spec above
``rings.MAX_SCALAR_RANK`` scalars, a polynomial file whose ``"ring"`` is
not ``--ring``, ``search --task`` with ``--ring``, ``--poly``, ``--n`` or
``--mode``, a search target that is zero (or constant, for
``counterexample_hunt``), ``--n`` in search mode ``roots_only`` or
``counterexample_hunt`` (or, in those modes, a task whose ``n`` is not the
degree of its target), or an ``export --table`` that names no table, all
refused while the command line parses or before any work. The output is
written once, when the command ends, so a refused invocation writes nothing,
not even to ``--out``.

``endo`` and ``examples`` are imported only by the commands that use them,
so the other commands start without them; ``example1`` imports ``endo`` only
for ``--p``.

Polynomial text is a sum of terms, each an optional sign (required between
terms), an optional integer or rational (``p/q``) coefficient with an
optional ``*``, then ``X`` or ``X^k``: ``c``, ``c*X^k``, ``cX``, ``X^k``.
Digits are ASCII, and only ASCII whitespace (space, tab, LF, CR, FF, VT)
may separate tokens. Scalars embed as c times the unit of the coefficient
ring; other coefficients enter through the JSON schema (``--poly @file``).

Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction

from .ncpoly import (
    MAX_DEGREE,
    CommutationError,
    NCPoly,
    eval_commuting,
    left_divide_linear,
    left_eval,
    poly,
    poly_from_json,
    right_divide_linear,
    right_eval,
    x_minus,
)
from .rings import (
    MatrixRing,
    Ring,
    RingError,
    SpecParseError,
    UnsupportedOperationError,
    _decimal,
    centralizer_of_set,
    generated_subalgebra,
    json_list,
    json_value,
    parse_ring_spec,
)
from .search import (
    MODES,
    SearchTask,
    counterexample_hunt,
    enumerate_splittings,
    find_roots,
    task_from_json,
)
from .splitting import (
    expand,
    rotate,
    vandermonde,
    verify_cyclic_splitting,
    witness_from_json,
)

class ParseError(Exception):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message if position is None else f"col {position}: {message}")


class _Parser(argparse.ArgumentParser):
    """argparse's own usage errors are parse errors too: one line, exit 2.
    The subcommand parsers are of this class as well."""

    def error(self, message):
        raise ParseError(message)


class CheckFailure(Exception):
    """A verification item failed; carries the failing item's name."""


# ---------------------------------------------------------------------------
# polynomial surface parser
# ---------------------------------------------------------------------------


# One term: an optional sign, an optional coefficient p or p/q with an
# optional "*" after it, then an optional X or X^k. Under re.ASCII, \d is
# [0-9] and \s is [ \t\n\r\f\v]. q and k may match empty, so that a "/" or
# "^" without digits is refused where its digits belong.
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>\d+)(?:/(?P<den>\d*))?\s*(?P<star>\*\s*)?)?"
    r"(?P<x>X(?:\^(?P<exp>\d*))?)?",
    re.ASCII,
)


def parse_poly(text: str, ring: Ring) -> NCPoly:
    """Parse the plain scalar-coefficient syntax, e.g. ``X^3 - 4``, one
    ``_TERM`` match at a time."""

    def numeral(m, group):
        value = _decimal(m[group])
        if value is None:  # no digits, or more than int() converts
            raise ParseError("numeral too long" if m[group] else "expected a digit", m.start(group) + 1)
        return value

    coeffs: dict[int, Fraction] = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        pos = m.end()
        if not (m["num"] or m["x"]):
            if pos < len(text):
                raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
            if m["sign"]:
                raise ParseError("dangling sign", pos)
            break
        if coeffs and not m["sign"]:
            at = m.start("sign")
            raise ParseError(f"unexpected character {text[at]!r}", at + 1)
        num = numeral(m, "num") if m["num"] else 1
        den = numeral(m, "den") if m["den"] is not None else 1
        if den == 0:
            raise ParseError("zero denominator", m.end("den"))
        if m["star"] and not m["x"]:
            raise ParseError("expected 'X' after '*'", pos + 1)
        power = numeral(m, "exp") if m["exp"] is not None else 1 if m["x"] else 0
        if power > MAX_DEGREE:
            raise ParseError(f"exponent {power} is above the cap of {MAX_DEGREE}", m.start("exp") + 1)
        coeffs[power] = coeffs.get(power, 0) + Fraction(-num if m["sign"] == "-" else num, den)
    if not coeffs:
        raise ParseError("empty polynomial", 1)

    out = []
    for k in range(max(coeffs) + 1):
        c = coeffs.get(k, 0)
        try:  # an integer embeds in every ring, a fraction only over Q scalars
            out.append(ring.from_base_scalar(int(c) if c.denominator == 1 else c))
        except ValueError as exc:
            raise ParseError(f"coefficient {c} is not representable over {ring.spec_string()}") from exc
    return poly(ring, out)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_json(value: str):
    """The JSON value of an argument, or of the file it names after ``@``."""
    body = value
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                body = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {value[1:]!r}: {exc.strerror or exc}") from exc
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as exc:  # or nesting deeper than its stack
        raise ParseError(f"bad JSON: {exc}") from exc


def _decoded(what: str, decode, *args):
    """``decode(*args)``; a value it cannot decode is a parse error, not a
    failed check."""
    try:
        return decode(*args)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {exc!r}") from exc


# argparse ``type=`` converters. They raise ParseError or SpecParseError
# only: argparse drops the message of a ValueError or TypeError for its own
# "invalid value" text.


def _numeral(flag: str, text: str, signed: bool = False) -> int:
    """The value of an ASCII decimal numeral (``rings._decimal``), with a
    leading "-" only if ``signed``: no other digits, signs, spaces or "_"."""
    negative = signed and text.startswith("-")
    n = _decimal(text[1:] if negative else text)
    if n is None:
        raise ParseError(f"{flag} must be a decimal numeral, got {text!r}")
    return -n if negative else n


def _prime(text: str) -> int:
    from . import endo

    p = _numeral("--p", text)
    try:
        return endo._require_prime(p)
    except (ValueError, UnsupportedOperationError) as exc:
        raise ParseError(f"--p must be a prime: {exc}") from exc


def _factor_count(n: int) -> int:
    """A factor count, from ``--n`` or from the target's degree."""
    if not 1 <= n <= MAX_DEGREE:
        raise ParseError(f"the factor count must be between 1 and {MAX_DEGREE}, got {n}")
    return n


def _example_ring(size: int, triangular: bool):
    """A converter of a ``--ring`` spec to a ``size`` x ``size`` matrix ring
    over Z, Q or Z/n, upper triangular only if ``triangular``."""

    def convert(spec: str) -> MatrixRing:
        ring = parse_ring_spec(spec)
        if isinstance(ring, MatrixRing) and ring.size == size and ring.base.scalar_ring is ring.base:
            if triangular or not ring.upper_triangular:
                return ring
        kinds = "Mat or UT" if triangular else "Mat"
        raise ParseError(f"--ring must be a {size}x{size} {kinds} ring over Z, Q or Z/n")

    return convert


def _json_arg(what: str, decode):
    """A converter of JSON text or an @file through ``decode``."""
    return lambda value: _decoded(what, decode, _load_json(value))


def _writable(path: str) -> str:
    """``path`` if it can be written; neither creates nor truncates it."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ParseError(f"cannot write --out {path!r}")
    return path


def _poly_from_arg(value: str, ring: Ring | None) -> NCPoly:
    if value.startswith("@"):
        return _decoded("polynomial", poly_from_json, _load_json(value), ring)
    if ring is None:
        raise ParseError("--poly text syntax needs --ring")
    return parse_poly(value, ring)


def _element(obj, ring: Ring):
    return _decoded(f"element payload for {ring.describe()}", ring.element_from_json, obj)


def _emit(payload, fmt: str, out):
    """Write records, elements and plain values as JSON or as text."""
    payload = json_value(payload)
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2))
        out.write("\n")
    else:
        out.write(_as_text(payload))


def _as_text(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        return "\n".join(
            _as_text(v, indent + 1) if isinstance(v, (dict, list)) else f"{pad}- {v}"
            for v in payload
        )
    return f"{pad}{payload}\n"


def _check(out, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    out.write(f"[{status}] {label}{(': ' + detail) if detail else ''}\n")
    if not ok:
        raise CheckFailure(label)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_expand(ns, out):
    _emit(expand(ns.witness), ns.format, out)
    return 0


def _cmd_rotate(ns, out):
    _emit(rotate(ns.witness, ns.k), ns.format, out)
    return 0


def _cmd_divide(ns, out):
    f = _poly_from_arg(ns.poly, ns.ring)
    a = _element(_load_json(ns.element), f.ring)
    divide = right_divide_linear if ns.side == "right" else left_divide_linear
    q, r = divide(f, a)
    _emit({"quotient": q, "remainder": r, "side": ns.side}, ns.format, out)
    return 0


def _cmd_eval(ns, out):
    f = _poly_from_arg(ns.poly, ns.ring)
    a = _element(_load_json(ns.element), f.ring)
    fn = {"right": right_eval, "left": left_eval, "commuting": eval_commuting}[ns.mode]
    _emit({"value": fn(f, a), "mode": ns.mode}, ns.format, out)
    return 0


def _cmd_verify(ns, out):
    report = verify_cyclic_splitting(ns.witness)
    _emit(report, ns.format, out)
    if report.passed:
        return 0
    if not report.rotations_equal:
        out.write(f"first failing rotation: {report.first_differing_rotation}\n")
    else:
        bad = next((k for k, v in report.roots_ok if not v.is_zero), None)
        if bad is not None:
            out.write(f"first failing root: position {bad}\n")
        else:
            out.write("commutation hypothesis violated\n")
    return 1


def _roots_payload(f, ring):
    roots = find_roots(f, ring)
    return {"count": len(roots), "roots": roots}


def _cmd_roots(ns, out):
    _emit(_roots_payload(_poly_from_arg(ns.poly, ns.ring), ns.ring), ns.format, out)
    return 0


def _cmd_search(ns, out):
    if ns.task is not None:
        if (ns.ring, ns.poly, ns.n, ns.mode) != (None, None, None, None):
            raise ParseError("--task takes none of --ring, --poly, --n and --mode")
        ring, f, n, mode = ns.task.ring, ns.task.target, ns.task.n, ns.task.mode
    elif ns.ring is not None and ns.poly is not None:
        ring, f, n, mode = ns.ring, _poly_from_arg(ns.poly, ns.ring), ns.n, ns.mode or "all_splittings"
    else:
        raise ParseError("search needs --task or both --ring and --poly")
    if f.is_zero:
        raise ParseError("the target polynomial must be nonzero")
    if mode in ("roots_only", "counterexample_hunt"):
        # neither mode takes a factor count: --n is refused, and a task's n
        # must restate the target's degree
        if ns.n is not None:
            raise ParseError(f"--n does not apply to mode {mode}")
        if ns.task is not None and n != f.degree:
            raise ParseError(
                f"a {mode} task's n must be the degree of its target, {f.degree}, got {n}"
            )
    if mode == "roots_only":
        _emit(_roots_payload(f, ring), "text", out)
        return 0
    if mode == "counterexample_hunt":
        if f.degree < 1:
            raise ParseError("counterexample_hunt needs a target of degree at least 1")
        w = counterexample_hunt(f)
        out.write(json.dumps(json_value({"counterexample": w}), sort_keys=True) + "\n")
        return 0
    task = SearchTask(ring, f, n if n is not None else _factor_count(f.degree or 0), mode)
    outcome = enumerate_splittings(task)
    for line in outcome.to_json_lines():
        out.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def _cmd_centralizer(ns, out):
    objs = _decoded("element list", json_list, _load_json(ns.elements), "--elements")
    desc = centralizer_of_set(ns.ring, [_element(obj, ns.ring) for obj in objs])
    elements, basis = desc.elements, desc.basis
    kind = "elements" if elements is not None else "basis"
    _emit({"count": desc.count, "kind": kind, "elements": elements, "basis": basis}, ns.format, out)
    return 0


def _cmd_endos(ns, out):
    from . import endo

    report = endo.full_suite(ns.p)
    evidence = report.monoid.evidence()
    _emit({**report.to_json(), "composition_order_evidence": evidence}, ns.format, out)
    return 0 if report.passed else 1


def _cmd_export(ns, out):
    if ns.table == "descriptor":
        if ns.format == "csv":
            raise ParseError("the descriptor exports as JSON; csv is for the endomorphism tables")
        parse_ring_spec(ns.base)  # refuse a base no reader could parse back
        from . import examples as ex

        _emit(ex.EXAMPLE1_DESCRIPTOR.to_json(ns.base), "json", out)
        return 0
    from . import endo

    if ns.table not in endo.TABLE_BUILDERS:
        names = ", ".join(sorted(endo.TABLE_BUILDERS))
        raise ParseError(
            f"--table must be descriptor or an endomorphism table ({names}), got {ns.table!r}"
        )
    headers, rows = endo.TABLE_BUILDERS[ns.table](ns.p)
    if ns.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
    elif ns.format == "json":
        _emit({"headers": headers, "rows": rows}, "json", out)
    else:
        out.write(endo.format_table(headers, rows) + "\n")
    return 0


def _cmd_example1(ns, out):
    from . import examples as ex

    # the battery first: a --p over its budget is refused before any output;
    # without --p, endo is not imported
    suite = None
    if ns.p is not None:
        from . import endo

        suite = endo.full_suite(ns.p)
    ring = ns.ring
    w = ex.example1_witness(ring)
    f = expand(w)
    target = ex.example1_cubic(ring)
    _check(out, "expansion equals X^3 - X^2", f == target)
    report = verify_cyclic_splitting(w)
    _check(out, "commutation hypothesis", report.commutation_ok)
    _check(out, "all rotations expand identically", report.rotations_equal)
    _check(out, "every pseudoroot is a root", report.all_roots_zero)
    a1, a2, a3 = w.pseudoroots
    minus_a2 = -a2
    _check(
        out,
        "adjacent commutators all equal -a2 and are nonzero",
        all(o == minus_a2 for o in report.obstructions) and not minus_a2.is_zero,
    )
    swaps_change = all(
        expand(_swap_first_two(rotate(w, k))) != f for k in range(3)
    )
    _check(out, "every adjacent transposition changes the product", swaps_change)
    v = vandermonde(w)
    _check(out, "block Vandermonde matrix is not invertible", not v.invertible, f"det={v.det}")

    algebra = ex.example1_algebra(ring.base)
    e1, e2, e3 = algebra.basis_elements()
    iso_ok = ex.verify_example1_isomorphism(ring.base)
    _check(out, "table algebra is isomorphic to UT(2) via the standard map", iso_ok)
    out.write("multiplication table (row * column):\n")
    headers = ["*", "a1", "a2", "a3"]
    rows = []
    for name, x in (("a1", e1), ("a2", e2), ("a3", e3)):
        rows.append(
            [name]
            + [ex.render_vec((x * y).payload) for y in (e1, e2, e3)]
        )
    out.write(ex.format_table(headers, rows) + "\n")

    if suite is not None:
        _check(out, f"endomorphism count over Z/{ns.p}", suite.monoid.endo_count == ns.p**2 + ns.p + 2)
        _check(out, "monoid table matches the matrix model", suite.monoid.passed)
        _check(out, "root and cycle classification", suite.cycles.passed)
        _check(out, "action tables", suite.actions.passed)
        _check(out, "minimal polynomial poset", suite.poset.passed)
        _check(out, "translation properties", suite.translate.passed)
    return 0


def _swap_first_two(w):
    roots = (w.pseudoroots[1], w.pseudoroots[0]) + w.pseudoroots[2:]
    return type(w)(w.ring, w.leading, roots)


def _cmd_example2(ns, out):
    from . import examples as ex

    ring = ns.ring
    w = ex.example2_witness(ring)
    f = expand(w)
    _check(out, "expansion equals X^3 - 4", f == ex.example2_cubic(ring))
    report = verify_cyclic_splitting(w)
    _check(out, "commutation hypothesis", report.commutation_ok)
    _check(out, "all rotations expand identically", report.rotations_equal)
    _check(out, "every pseudoroot is a root", report.all_roots_zero)
    expected_comm = ring.element(ex.EXAMPLE2_COMMUTATOR_GRID)
    _check(
        out,
        "adjacent commutators equal the displayed matrix",
        all(o == expected_comm for o in report.obstructions),
    )

    r3 = ex.example2_matrix_ring(parse_ring_spec("Zmod:3"))
    b1, b2, b3 = ex.example2_matrices(r3)
    _check(out, "mod 3 the pseudoroots collapse to one matrix", b1 == b2 == b3)
    cube = x_minus(r3.one()) * x_minus(r3.one()) * x_minus(r3.one())
    _check(out, "mod 3 the cubic becomes (X-1)^3", ex.example2_cubic(r3) == cube)

    rq = ex.example2_matrix_ring(parse_ring_spec("Q"))
    gensq = ex.example2_matrices(rq)
    # the closure spans the words in the pseudoroots and 1, and 1 is itself
    # a word: each a_k satisfies a_k^3 = 4, so 1 = a_1^3 / 4 over Q. Its
    # canonical basis is the nine matrix units exactly when they are all
    # rational combinations of words.
    _check(
        out,
        "all nine matrix units are exact words in the pseudoroots over Q",
        generated_subalgebra(rq, gensq) == tuple(rq.element(b) for b in rq.module_basis()),
    )

    r6 = ex.example2_matrix_ring(parse_ring_spec("Zmod:6"))
    gens6 = ex.example2_matrices(r6)
    desc6 = centralizer_of_set(r6, gens6)
    shape6 = {
        ex.example2_centralizer_element(r6, a, b, g).payload
        for a in range(6)
        for b in range(6)
        for g in range(6)
        if (3 * b) % 6 == 0
    }
    _check(
        out,
        "centralizer over Z/6 is exactly the displayed shape with 3b = 0",
        desc6.count == len(shape6)
        and {e.payload for e in desc6.elements} == shape6,
        f"count={desc6.count}",
    )
    descq = centralizer_of_set(rq, gensq)
    _check(
        out,
        "centralizer over Q is exactly the scalars",
        desc_is_scalars(descq, rq),
    )
    vq = vandermonde(ex.example2_witness(rq))
    out.write(f"block Vandermonde over Q: det={vq.det} invertible={vq.invertible}\n")
    return 0


def desc_is_scalars(desc, ring) -> bool:
    if desc.basis is None or len(desc.basis) != 1:
        return False
    b = desc.basis[0]
    return b == ring.one() or b == -ring.one()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclesplit",
        description="exact arithmetic for cyclic splittings of polynomials "
        "with noncommutative coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    witness = _json_arg("witness", witness_from_json)

    def add(name, command, formats=("text", "json"), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(command=command)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", type=_writable, default=None, help="write output to a file")
        return p

    p = add("expand", _cmd_expand, help="expand a splitting witness")
    p.add_argument("--witness", type=witness, required=True, help="@file with witness JSON")

    p = add("rotate", _cmd_rotate, help="cyclically rotate a witness (k=1 moves the last factor first)")
    p.add_argument("--witness", type=witness, required=True)
    p.add_argument("--k", type=lambda text: _numeral("--k", text, signed=True), required=True)

    p = add("divide", _cmd_divide, help="divide by the monic linear factor X - a")
    p.add_argument("--ring", type=parse_ring_spec, default=None)
    p.add_argument("--poly", required=True, help="plain syntax or @file JSON")
    p.add_argument("--element", required=True, help="element JSON or @file")
    p.add_argument("--side", choices=("right", "left"), default="right")

    p = add("eval", _cmd_eval, help="evaluate a polynomial at a point")
    p.add_argument("--ring", type=parse_ring_spec, default=None)
    p.add_argument("--poly", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--mode", choices=("right", "left", "commuting"), default="right")

    p = add("verify", _cmd_verify, help="verify rotation invariance and roots of a witness")
    p.add_argument("--witness", type=witness, required=True)

    p = add("roots", _cmd_roots, help="all two-sided roots over a finite ring")
    p.add_argument("--ring", type=parse_ring_spec, required=True)
    p.add_argument("--poly", required=True)

    p = add("search", _cmd_search, formats=(), help="enumerate splittings (JSON lines output)")
    p.add_argument("--ring", type=parse_ring_spec, default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--task", type=_json_arg("search task", task_from_json), default=None,
                   help="@file with a search task JSON")
    p.add_argument("--n", type=lambda text: _factor_count(_numeral("--n", text)), default=None,
                   help="factor count (default: degree)")
    p.add_argument("--mode", choices=MODES, default=None, help="default: all_splittings")

    p = add("centralizer", _cmd_centralizer, help="centralizer of a set of elements")
    p.add_argument("--ring", type=parse_ring_spec, required=True)
    p.add_argument("--elements", required=True, help="JSON list of elements or @file")

    p = add("endos", _cmd_endos, help="full endomorphism battery over Z/p")
    p.add_argument("--p", type=_prime, required=True)

    p = add(
        "export",
        _cmd_export,
        formats=("text", "json", "csv"),
        help="export an endomorphism table or the algebra descriptor",
    )
    p.add_argument("--p", type=_prime, default=2)
    p.add_argument(
        "--table",
        required=True,
        help="descriptor, or an endomorphism table: a key of cyclesplit.endo.TABLE_BUILDERS",
    )
    p.add_argument("--base", default="Z", help="base ring spec for descriptor export")

    p = add("example1", _cmd_example1, formats=(), help="the X^3 - X^2 splitting suite")
    p.add_argument("--ring", type=_example_ring(2, True), default="UT:2:Z")
    p.add_argument("--p", type=_prime, default=None, help="also run the endomorphism battery over Z/p")

    p = add("example2", _cmd_example2, formats=(), help="the X^3 - 4 splitting suite")
    p.add_argument("--ring", type=_example_ring(3, False), default="Mat:3:Z")

    return parser


def run(argv=None, out=None) -> int:
    buf, ns, error = io.StringIO(), None, None
    try:
        ns = build_parser().parse_args(argv)
        code = ns.command(ns, buf)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParseError, SpecParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        code, error = 1, f"check failed: {exc}"
    except (RingError, ValueError, CommutationError) as exc:
        code, error = 1, f"error: {exc}"
    # the one write of the output, after the work
    try:
        if ns is not None and ns.out:  # None: a converter failed with exit 1
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
        else:
            stream = out or sys.stdout
            stream.write(buf.getvalue())
            stream.flush()
    except OSError as exc:
        code, error = 1, f"error: cannot write the output: {exc.strerror or exc}"
    if error:
        print(error, file=sys.stderr)
    return code


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # run has reported it; silence the interpreter's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
