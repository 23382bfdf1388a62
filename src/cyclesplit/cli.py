"""Command-line front end.

Commands: expand, rotate, divide, eval, verify, search, roots, centralizer,
endos, example1, example2, export. Exit status 0 when all checks pass, 1 on
a failed check or a failed write to the output, 2 on a parse error (with a
position-annotated message), a file argument that cannot be opened, or an
out-of-range ``--n`` or ``--p`` (checked before any work).

Polynomial surface grammar: a sum of signed monomials ``c``, ``c*X^k``,
``X^k``, ``X`` with integer or rational (``p/q``) scalar coefficients;
scalars embed as c times the unit of the coefficient ring. Matrix-valued
coefficients enter through the JSON schema instead (``--poly @file``).

Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import endo as endo_mod
from . import examples as ex
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
)
from .rings import (
    Ring,
    RingError,
    SpecParseError,
    UnsupportedOperationError,
    centralizer_of_set,
    commutator,
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
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"col {position}: {message}")


class CheckFailure(Exception):
    """A verification item failed; carries the failing item's name."""


# ---------------------------------------------------------------------------
# polynomial surface parser
# ---------------------------------------------------------------------------


def parse_poly(text: str, ring: Ring) -> NCPoly:
    """Parse the plain scalar-coefficient syntax, e.g. ``X^3 - 4``."""
    coeffs: dict[int, Fraction] = {}
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_int(j):
        start = j
        while j < n and text[j].isdigit():
            j += 1
        if j == start:
            raise ParseError("expected a digit", start + 1)
        try:
            return int(text[start:j]), j
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(str(exc), start + 1) from exc

    i = skip_ws(i)
    first = True
    while i < n:
        sign = 1
        if not first or text[i] in "+-":
            if i >= n or text[i] not in "+-":
                raise ParseError("expected '+' or '-' between terms", i + 1)
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        first = False
        if i >= n:
            raise ParseError("dangling sign", i)
        coeff = Fraction(1)
        have_coeff = False
        if text[i].isdigit():
            num, i = read_int(i)
            coeff = Fraction(num)
            have_coeff = True
            if i < n and text[i] == "/":
                den, i = read_int(i + 1)
                if den == 0:
                    raise ParseError("zero denominator", i)
                coeff = Fraction(num, den)
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or text[i] != "X":
                    raise ParseError("expected 'X' after '*'", i + 1)
        power = 0
        if i < n and text[i] == "X":
            power = 1
            i += 1
            if i < n and text[i] == "^":
                start = i + 1
                power, i = read_int(start)
                if power > MAX_DEGREE:
                    raise ParseError(f"exponent {power} is above the cap of {MAX_DEGREE}", start + 1)
        elif not have_coeff:
            raise ParseError(f"unexpected character {text[i]!r}", i + 1)
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
        i = skip_ws(i)
        if i < n and text[i] not in "+-":
            raise ParseError(f"unexpected character {text[i]!r}", i + 1)
    if not coeffs:
        raise ParseError("empty polynomial", 1)

    top = max(coeffs)
    out = []
    for k in range(top + 1):
        c = coeffs.get(k, Fraction(0))
        if c.denominator == 1:
            out.append(ring.from_int(int(c)))
        else:
            try:
                out.append(ring.from_base_scalar(c))
            except ValueError as exc:
                raise ParseError(
                    f"coefficient {c} is not representable over {ring.spec_string()}", 1
                ) from exc
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
            reason = exc.strerror or exc
            raise ParseError(f"cannot read {value[1:]!r}: {reason}", 1) from exc
    try:
        return json.loads(body)
    except RecursionError as exc:  # nesting deeper than the decoder's stack
        raise ParseError("JSON nests too deeply", 1) from exc


def _poly_from_arg(value: str, ring: Ring | None) -> NCPoly:
    if value.startswith("@"):
        obj = _load_json(value)
        try:
            return poly_from_json(obj, ring=ring)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial: {exc!r}", 1) from exc
    if ring is None:
        raise CheckFailure("--poly text syntax needs --ring")
    return parse_poly(value, ring)


def _decode_element(obj, ring: Ring):
    """A ring element from its JSON payload; a malformed payload is a
    parse error, not a failed check."""
    try:
        return ring.element_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad element payload for {ring.describe()}: {exc}", 1) from exc


def _element_from_arg(value: str, ring: Ring):
    return _decode_element(_load_json(value), ring)


def _witness_from_arg(value: str):
    """A splitting witness from its JSON or @file; a malformed witness is a
    parse error, not a failed check."""
    obj = _load_json(value)
    try:
        return witness_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad witness: {exc!r}", 1) from exc


def _emit(payload, fmt: str, out):
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
    w = _witness_from_arg(ns.witness)
    f = expand(w)
    _emit(f.to_json(), ns.format, out)
    return 0


def _cmd_rotate(ns, out):
    w = _witness_from_arg(ns.witness)
    _emit(rotate(w, ns.k).to_json(), ns.format, out)
    return 0


def _cmd_divide(ns, out):
    ring = parse_ring_spec(ns.ring) if ns.ring else None
    f = _poly_from_arg(ns.poly, ring)
    a = _element_from_arg(ns.element, f.ring)
    q, r = (
        right_divide_linear(f, a) if ns.side == "right" else left_divide_linear(f, a)
    )
    _emit({"quotient": q.to_json(), "remainder": r.to_json(), "side": ns.side}, ns.format, out)
    return 0


def _cmd_eval(ns, out):
    ring = parse_ring_spec(ns.ring) if ns.ring else None
    f = _poly_from_arg(ns.poly, ring)
    a = _element_from_arg(ns.element, f.ring)
    fn = {"right": right_eval, "left": left_eval, "commuting": eval_commuting}[ns.mode]
    _emit({"value": fn(f, a).to_json(), "mode": ns.mode}, ns.format, out)
    return 0


def _cmd_verify(ns, out):
    w = _witness_from_arg(ns.witness)
    report = verify_cyclic_splitting(w)
    _emit(report.to_json(), ns.format, out)
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


def _cmd_roots(ns, out):
    ring = parse_ring_spec(ns.ring)
    f = _poly_from_arg(ns.poly, ring)
    roots = find_roots(f, ring)
    _emit({"count": len(roots), "roots": [r.to_json() for r in roots]}, ns.format, out)
    return 0


def _check_factor_count_arg(n):
    if not 1 <= n <= MAX_DEGREE:
        raise ParseError(f"--n must be between 1 and {MAX_DEGREE}, got {n}", 1)


def _check_prime_arg(p):
    try:
        endo_mod._require_prime(p)
    except (ValueError, UnsupportedOperationError) as exc:
        raise ParseError(f"--p must be a prime: {exc}", 1) from exc


def _cmd_search(ns, out):
    if ns.n is not None:
        _check_factor_count_arg(ns.n)
    if ns.task:
        obj = _load_json(ns.task)
        try:
            task = task_from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad search task: {exc!r}", 1) from exc
        ring, f = task.ring, task.target
        ns.mode, ns.n, ns.ring = task.mode, task.n, ring.spec_string()
    else:
        if not ns.ring or not ns.poly:
            raise CheckFailure("search needs --task or both --ring and --poly")
        ring = parse_ring_spec(ns.ring)
        f = _poly_from_arg(ns.poly, ring)
    if ns.mode == "roots_only":
        roots = find_roots(f, ring)
        out.write(_as_text({"count": len(roots), "roots": [r.to_json() for r in roots]}))
        return 0
    if ns.mode == "counterexample_hunt":
        w = counterexample_hunt(f, ring)
        if w is None:
            out.write(json.dumps({"counterexample": None}, sort_keys=True) + "\n")
        else:
            out.write(
                json.dumps({"counterexample": w.to_json()}, sort_keys=True) + "\n"
            )
        return 0
    n = ns.n if ns.n is not None else (f.degree or 0)
    task = SearchTask(ring, f, n, ns.mode)
    outcome = enumerate_splittings(task)
    for line in outcome.to_json_lines():
        out.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def _cmd_centralizer(ns, out):
    ring = parse_ring_spec(ns.ring)
    objs = _load_json(ns.elements)
    if not isinstance(objs, list):
        raise ParseError("--elements must be a JSON list of element payloads", 1)
    gens = [_decode_element(obj, ring) for obj in objs]
    desc = centralizer_of_set(ring, gens)
    payload = {
        "count": desc.count,
        "kind": "elements" if desc.elements is not None else "basis",
        "elements": None
        if desc.elements is None
        else [e.to_json() for e in desc.elements],
        "basis": None if desc.basis is None else [b.to_json() for b in desc.basis],
    }
    _emit(payload, ns.format, out)
    return 0


def _cmd_endos(ns, out):
    _check_prime_arg(ns.p)
    report = endo_mod.full_suite(ns.p)
    payload = report.to_json()
    payload["composition_order_evidence"] = report.monoid.evidence()
    _emit(payload, ns.format, out)
    return 0 if report.passed else 1


def _cmd_export(ns, out):
    _check_prime_arg(ns.p)
    builder = endo_mod.TABLE_BUILDERS.get(ns.table)
    if ns.table == "descriptor":
        if ns.format == "csv":
            raise ParseError("the descriptor exports as JSON; csv is for the endomorphism tables", 1)
        parse_ring_spec(ns.base)  # refuse a base no reader could parse back
        payload = ex.EXAMPLE1_DESCRIPTOR.to_json(ns.base)
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    if builder is None:
        raise CheckFailure(f"unknown table {ns.table!r}")
    headers, rows = builder(ns.p)
    if ns.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        out.write(buf.getvalue())
    elif ns.format == "json":
        out.write(
            json.dumps({"headers": headers, "rows": rows}, sort_keys=True, indent=2)
            + "\n"
        )
    else:
        out.write(endo_mod.format_table(headers, rows) + "\n")
    return 0


def _cmd_example1(ns, out):
    if ns.p is not None:
        _check_prime_arg(ns.p)
    ring = parse_ring_spec(ns.ring)
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
            + [endo_mod.render_vec((x * y).payload) for y in (e1, e2, e3)]
        )
    out.write(endo_mod.format_table(headers, rows) + "\n")

    if ns.p is not None:
        suite = endo_mod.full_suite(ns.p)
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
    ring = parse_ring_spec(ns.ring)
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
    from .ncpoly import x_minus

    cube = x_minus(r3.one()) * x_minus(r3.one()) * x_minus(r3.one())
    _check(out, "mod 3 the cubic becomes (X-1)^3", ex.example2_cubic(r3) == cube)

    rq = ex.example2_matrix_ring(parse_ring_spec("Q"))
    identities = ex.example2_matrix_unit_check(rq)
    _check(
        out,
        "all nine matrix units are exact words in the pseudoroots over Q",
        all(ok for _, ok in identities),
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
    gensq = ex.example2_matrices(rq)
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
    parser = argparse.ArgumentParser(
        prog="cyclesplit",
        description="exact arithmetic for cyclic splittings of polynomials "
        "with noncommutative coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, formats=("text", "json"), **kwargs):
        p = sub.add_parser(name, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    p = add("expand", help="expand a splitting witness")
    p.add_argument("--witness", required=True, help="@file with witness JSON")

    p = add("rotate", help="cyclically rotate a witness (k=1 moves the last factor first)")
    p.add_argument("--witness", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("divide", help="divide by the monic linear factor X - a")
    p.add_argument("--ring", default=None)
    p.add_argument("--poly", required=True, help="plain syntax or @file JSON")
    p.add_argument("--element", required=True, help="element JSON or @file")
    p.add_argument("--side", choices=("right", "left"), default="right")

    p = add("eval", help="evaluate a polynomial at a point")
    p.add_argument("--ring", default=None)
    p.add_argument("--poly", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--mode", choices=("right", "left", "commuting"), default="right")

    p = add("verify", help="verify rotation invariance and roots of a witness")
    p.add_argument("--witness", required=True)

    p = add("roots", help="all two-sided roots over a finite ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--poly", required=True)

    p = add("search", formats=(), help="enumerate splittings (JSON lines output)")
    p.add_argument("--ring", default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--task", default=None, help="@file with a search task JSON")
    p.add_argument("--n", type=int, default=None, help="factor count (default: degree)")
    p.add_argument("--mode", choices=MODES, default="all_splittings")

    p = add("centralizer", help="centralizer of a set of elements")
    p.add_argument("--ring", required=True)
    p.add_argument("--elements", required=True, help="JSON list of elements or @file")

    p = add("endos", help="full endomorphism battery over Z/p")
    p.add_argument("--p", type=int, required=True)

    p = add(
        "export",
        formats=("text", "json", "csv"),
        help="export an endomorphism table or the algebra descriptor",
    )
    p.add_argument("--p", type=int, default=2)
    p.add_argument(
        "--table",
        required=True,
        choices=sorted(endo_mod.TABLE_BUILDERS) + ["descriptor"],
    )
    p.add_argument("--base", default="Z", help="base ring spec for descriptor export")

    p = add("example1", formats=(), help="the X^3 - X^2 splitting suite")
    p.add_argument("--ring", default="UT:2:Z")
    p.add_argument("--p", type=int, default=None, help="also run the endomorphism battery over Z/p")

    p = add("example2", formats=(), help="the X^3 - 4 splitting suite")
    p.add_argument("--ring", default="Mat:3:Z")

    return parser


_COMMANDS = {
    "expand": _cmd_expand,
    "rotate": _cmd_rotate,
    "divide": _cmd_divide,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "roots": _cmd_roots,
    "search": _cmd_search,
    "centralizer": _cmd_centralizer,
    "endos": _cmd_endos,
    "export": _cmd_export,
    "example1": _cmd_example1,
    "example2": _cmd_example2,
}


def run(argv=None, out=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    stream = out or sys.stdout
    if ns.out:
        try:
            stream = open(ns.out, "w", encoding="utf-8")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"parse error: cannot open --out {ns.out!r}: {reason}", file=sys.stderr)
            return 2
    try:
        code = _COMMANDS[ns.command](ns, stream)
        stream.flush()
        return code
    except (ParseError, SpecParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (RingError, ValueError, CommutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file argument that fails is a ParseError above
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    finally:
        if ns.out:
            # a write that failed has been reported; closing retries it
            with contextlib.suppress(OSError):
                stream.close()


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
