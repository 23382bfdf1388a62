import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyclesplit
from cyclesplit.cli import ParseError, parse_poly, run
from cyclesplit.examples import (
    EXAMPLE1_DESCRIPTOR,
    example1_algebra,
    example1_matrix_ring,
    example1_witness,
)
from cyclesplit.ncpoly import MAX_DEGREE, from_int_coeffs, poly, poly_from_json, x_minus, x_power
from cyclesplit.rings import parse_ring_spec
from cyclesplit.search import SearchSpaceTooLargeError, find_roots
from cyclesplit.splitting import witness_from_json
from helpers import BAD_NUMERAL_ARGVS, BAD_RATIONAL_LITERALS


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_parse_poly_basic():
    ring = parse_ring_spec("Mat:3:Z")
    f = parse_poly("X^3 - 4", ring)
    assert f == from_int_coeffs(ring, [-4, 0, 0, 1])
    assert parse_poly("X^0", ring) == from_int_coeffs(ring, [1])
    assert parse_poly("2*X^2 - X + 1", ring) == from_int_coeffs(ring, [1, -1, 2])
    assert parse_poly("-X", ring) == from_int_coeffs(ring, [0, -1])


SURFACE_FORMS = ("c*X^k", "cX^k", "c X^k", "X^k", "c")


@st.composite
def rendered_polys(draw):
    """Polynomial text in every accepted surface form, ASCII whitespace
    between its tokens, and the coefficients it stands for, low to high."""

    def ws(min_size=0):
        return draw(st.text(" \t\n\r\f\v", min_size=min_size, max_size=2))

    text, coeffs = ws(), {}
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(("+", "-") if i else ("", "+", "-")))
        num, den = draw(st.integers(0, 40)), draw(st.sampled_from((None, 1, 2, 3, 7)))
        k, form = draw(st.integers(0, 6)), draw(st.sampled_from(SURFACE_FORMS))
        c = str(num) + (f"/{den}" if den else "")
        x = "X" if k == 1 and draw(st.booleans()) else f"X^{k}"
        if form == "c*X^k":
            term = c + ws() + "*" + ws() + x
        elif form == "c X^k":
            term = c + ws(1) + x
        else:
            term = {"cX^k": c + x, "X^k": x, "c": c}[form]
        value = Fraction(1) if form == "X^k" else Fraction(num, den or 1)
        k = 0 if form == "c" else k
        text += sign + ws() + term + ws()
        coeffs[k] = coeffs.get(k, 0) + (-value if sign == "-" else value)
    return text, [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


@settings(max_examples=300, deadline=None)
@given(rendered_polys())
def test_parse_poly_reads_every_surface_form(case):
    text, coeffs = case
    ring = parse_ring_spec("Mat:2:Q")
    assert parse_poly(text, ring) == poly(ring, [ring.from_base_scalar(c) for c in coeffs])


def test_parse_poly_rational_coefficients():
    q = parse_ring_spec("Mat:2:Q")
    f = parse_poly("1/2*X + 1", q)
    assert f.coeffs[1] == q.from_base_scalar(__import__("fractions").Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_poly("1/2*X", parse_ring_spec("Mat:2:Z"))


@pytest.mark.parametrize("ring", [parse_ring_spec("Mat:2:Mat:2:Q"), example1_algebra(parse_ring_spec("Q"))])
def test_parse_poly_embeds_rationals_through_nested_bases(ring):
    f = parse_poly("1/2*X", ring)
    assert f.coeffs[1] * ring.from_int(2) == ring.one()
    assert f.coeffs[1] == ring.from_base_scalar(Fraction(1, 2))


def test_cli_rationals_over_nested_integer_bases_exit_2():
    with pytest.raises(ParseError):
        parse_poly("1/2*X", parse_ring_spec("Mat:2:Mat:2:Z"))
    code, _ = invoke("roots", "--ring", "Mat:2:Mat:2:Z", "--poly", "1/2*X")
    assert code == 2
    # over Q the coefficient parses; the ring is infinite, so roots is a failed check
    code, _ = invoke("roots", "--ring", "Mat:2:Mat:2:Q", "--poly", "1/2*X")
    assert code == 1


@pytest.mark.parametrize("text", BAD_RATIONAL_LITERALS)
def test_cli_bad_rational_literal_exits_2(text, capsys):
    code, out = invoke("eval", "--ring", "Q", "--poly", "X", "--element", json.dumps(text))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("argv", BAD_NUMERAL_ARGVS)
def test_cli_numbers_are_ascii_decimal_numerals(argv, capsys):
    code, out = invoke(*argv)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    # a column only in polynomial text, where roots' bad numerals are
    assert err.startswith("parse error: col ") == (argv[0] == "roots")


def test_cli_rotate_takes_a_signed_k():
    # --k alone of the numeric flags takes a leading "-": a turn backwards
    w = '{"ring":"Zmod:5","leading":1,"pseudoroots":[1,2,3]}'
    back = invoke("rotate", "--witness", w, "--k", "-1", "--format", "json")
    assert back == invoke("rotate", "--witness", w, "--k", "2", "--format", "json")
    assert back[0] == 0 and json.loads(back[1])["pseudoroots"] == [2, 3, 1]


# a string where a list belongs: a polynomial's coefficients, a matrix
# payload and a witness's pseudoroots
HOSTILE_POLY = {"ring": "Q", "coeffs": "12"}
HOSTILE_ELEMENT = "5"
HOSTILE_WITNESS = {"ring": "Q", "leading": 1, "pseudoroots": "12"}


def test_a_string_is_never_read_as_a_list(tmp_path, capsys):
    with pytest.raises(ValueError):
        poly_from_json(HOSTILE_POLY)
    with pytest.raises(ValueError):
        parse_ring_spec("Mat:1:Q").element_from_json(HOSTILE_ELEMENT)
    with pytest.raises(ValueError):
        example1_algebra(parse_ring_spec("Q")).element_from_json("123")
    with pytest.raises(ValueError):
        witness_from_json(HOSTILE_WITNESS)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(HOSTILE_POLY))
    for argv in (
        ("eval", "--poly", f"@{path}", "--element", "1"),
        ("eval", "--ring", "Mat:1:Q", "--poly", "X", "--element", json.dumps(HOSTILE_ELEMENT)),
        ("verify", "--witness", json.dumps(HOSTILE_WITNESS)),
        ("centralizer", "--ring", "Mat:2:Zmod:3", "--elements", '"12"'),
    ):
        code, out = invoke(*argv)
        assert (code, out) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1, argv


def test_parse_poly_rejects_products():
    ring = parse_ring_spec("Z")
    with pytest.raises(ParseError) as err:
        parse_poly("X^2*(X-1)", ring)
    assert "col" in str(err.value)
    for bad in ("", "X +", "* X", "X^", "2**X"):
        with pytest.raises(ParseError):
            parse_poly(bad, ring)


def test_parse_poly_degree_cap():
    ring = parse_ring_spec("Zmod:6")
    assert parse_poly(f"X^{MAX_DEGREE}", ring) == x_power(ring, MAX_DEGREE)
    for text in (f"X^{MAX_DEGREE + 1}", "X^99999999", "1 + X^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_poly(text, ring)
    code, _ = invoke("roots", "--ring", "Zmod:6", "--poly", "X^99999999")
    assert code == 2
    code, _ = invoke("search", "--ring", "Zmod:2", "--poly", "X^1500", "--mode", "all_splittings")
    assert code == 2


def test_poly_file_degree_cap(tmp_path, capsys):
    # a polynomial file or task target has the cap polynomial text has:
    # MAX_DEGREE + 1 coefficients
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ring": "Zmod:5", "coeffs": [1] * (MAX_DEGREE + 1)}))
    code, text = invoke("eval", "--ring", "Zmod:5", "--poly", f"@{path}", "--element", "1")
    assert (code, text) == (0, "value: 2\nmode: right\n")
    for count in (MAX_DEGREE + 2, 1001):
        path.write_text(json.dumps({"ring": "Zmod:5", "coeffs": [1] * count}))
        task = {"ring": "Zmod:5", "target": {"coeffs": [1] * count}, "n": 1, "mode": "roots_only"}
        for argv in (
            ("eval", "--ring", "Zmod:5", "--poly", f"@{path}", "--element", "1"),
            ("divide", "--poly", f"@{path}", "--element", "1"),
            ("search", "--task", json.dumps(task)),
        ):
            assert invoke(*argv) == (2, ""), (count, argv)
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1, (count, argv)


def test_cli_example_suites_pass():
    code, text = invoke("example1", "--ring", "UT:2:Z")
    assert code == 0
    assert "[FAIL]" not in text
    code, text = invoke("example2")
    assert code == 0
    assert "[FAIL]" not in text
    # every ring of the documented shapes runs its suite
    for argv in (
        ("example1", "--ring", "UT:2:Q"),
        ("example1", "--ring", "Mat:2:Z"),
        ("example2", "--ring", "Mat:3:Q"),
        ("example2", "--ring", "Mat:3:Zmod:6"),
    ):
        assert invoke(*argv)[0] == 0, argv


EXAMPLE2_STDOUT = """\
[PASS] expansion equals X^3 - 4
[PASS] commutation hypothesis
[PASS] all rotations expand identically
[PASS] every pseudoroot is a root
[PASS] adjacent commutators equal the displayed matrix
[PASS] mod 3 the pseudoroots collapse to one matrix
[PASS] mod 3 the cubic becomes (X-1)^3
[PASS] all nine matrix units are exact words in the pseudoroots over Q
[PASS] centralizer over Z/6 is exactly the displayed shape with 3b = 0: count=108
[PASS] centralizer over Q is exactly the scalars
block Vandermonde over Q: det=5832 invertible=True
"""


def test_cli_example2_stdout_is_pinned():
    assert invoke("example2") == (0, EXAMPLE2_STDOUT)


def test_cli_example1_with_endo_battery():
    code, text = invoke("example1", "--p", "2")
    assert code == 0
    assert "translation properties" in text


def test_cli_verify_perturbed_witness_fails(tmp_path):
    ring = example1_matrix_ring(parse_ring_spec("Z"))
    w = example1_witness(ring)
    blob = w.to_json()
    # perturb the last pseudoroot
    blob["pseudoroots"][2] = [[1, 2], [0, 0]]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(blob))
    code, text = invoke("verify", "--witness", f"@{path}", "--format", "json")
    assert code == 1

    path2 = tmp_path / "good.json"
    path2.write_text(json.dumps(w.to_json()))
    code, text = invoke("verify", "--witness", f"@{path2}", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True


def test_cli_parse_errors_exit_2(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(EXAMPLE1_DESCRIPTOR.to_json("Zmod:2")))
    code, _ = invoke("roots", "--ring", "Nope", "--poly", "X")
    assert code == 2
    code, _ = invoke("roots", "--ring", "Zmod:6", "--poly", "X^2*(X-1)")
    assert code == 2
    code, _ = invoke("verify", "--witness", "@/no/such/file.json")
    assert code == 2
    # malformed element payloads are parse errors, not failed checks
    code, _ = invoke("divide", "--ring", "Mat:2:Z", "--poly", "X^2", "--element", "[[1,0]]")
    assert code == 2
    code, _ = invoke("centralizer", "--ring", "Mat:2:Zmod:3", "--elements", "[[[1,0]]]")
    assert code == 2
    # so are malformed witnesses
    code, _ = invoke("verify", "--witness", "{}")
    assert code == 2
    code, _ = invoke("expand", "--witness", "[1]")
    assert code == 2
    code, _ = invoke("rotate", "--witness", '{"ring":"Zmod:3"}', "--k", "1")
    assert code == 2
    code, _ = invoke("verify", "--witness", '{"ring":5,"leading":1,"pseudoroots":[1]}')
    assert code == 2
    # and so are malformed search tasks and polynomial files
    code, _ = invoke("search", "--task", "{}")
    assert code == 2
    # out-of-range numbers are refused before any work, with one line
    for argv in (
        ("search", "--ring", "Zmod:3", "--poly", "X", "--n", "0"),
        ("search", "--ring", "Zmod:3", "--poly", "X", "--n", "-1"),
        ("search", "--ring", "Zmod:3", "--poly", "X", "--n", str(MAX_DEGREE + 1)),
        ("endos", "--p", "1"),
        ("export", "--p", "4", "--table", "monoid"),
        # a factor count of 0 from a task file, or from a constant target
        # with no --n, is refused the same way
        ("search", "--task", json.dumps(
            {"ring": "Zmod:3", "target": {"ring": "Zmod:3", "coeffs": [0, 1]}, "n": 0,
             "mode": "all_splittings"})),
        ("search", "--ring", "Zmod:3", "--poly", "2"),
        # a zero target in any mode, and a constant one to counterexample_hunt
        ("search", "--ring", "Zmod:3", "--poly", "0", "--n", "2"),
        ("search", "--ring", "Zmod:3", "--poly", "0", "--mode", "roots_only"),
        ("search", "--ring", "Zmod:3", "--poly", "2", "--mode", "counterexample_hunt"),
        # --n names a factor count, which these two modes do not take
        ("search", "--ring", "Zmod:4", "--poly", "X", "--mode", "roots_only", "--n", "3"),
        ("search", "--ring", "Mat:2:Zmod:2", "--poly", "X^2 - X", "--mode", "counterexample_hunt",
         "--n", "7"),
        # nor a task's n, which must then be the degree of its target
        ("search", "--task", json.dumps(
            {"ring": "Zmod:4", "target": {"coeffs": [0, 1]}, "n": 3, "mode": "roots_only"})),
        ("search", "--task", json.dumps(
            {"ring": "Zmod:4", "target": {"coeffs": [0, 0, 1]}, "n": 7,
             "mode": "counterexample_hunt"})),
        ("search", "--task", json.dumps(
            {"ring": "Zmod:3", "target": {"ring": "Zmod:3", "coeffs": [0]}, "n": 2,
             "mode": "all_splittings"})),
        ("search", "--task", json.dumps(
            {"ring": "Zmod:3", "target": {"ring": "Zmod:3", "coeffs": [2]}, "n": 1,
             "mode": "counterexample_hunt"})),
        # a task's n must be an integer, and its target may not name a
        # different ring
        *(("search", "--task", json.dumps(
            {"ring": "Zmod:3", "target": {"ring": "Zmod:3", "coeffs": [0, 1]}, "n": n,
             "mode": "all_splittings"})) for n in (1.5, "1", True)),
        ("search", "--task", json.dumps(
            {"ring": "Zmod:3", "target": {"ring": "Zmod:5", "coeffs": [0, 1]}, "n": 1,
             "mode": "all_splittings"})),
        # missing arguments: polynomial text without --ring, a search
        # without a target
        ("divide", "--poly", "X", "--element", "1"),
        ("eval", "--poly", "X", "--element", "1"),
        ("search", "--ring", "Zmod:3"),
        # malformed JSON in --witness and --task
        ("verify", "--witness", "{"),
        ("search", "--task", "{"),
        # argparse's own usage errors: no command, an unknown one, a
        # missing required flag, a flag that is not a number
        (),
        ("nope",),
        ("roots", "--ring", "Zmod:3"),
        ("rotate", "--witness", '{"ring":"Zmod:3","leading":1,"pseudoroots":[1,2]}', "--k", "x"),
        # example rings of the wrong shape
        ("example1", "--ring", "Z"),
        ("example1", "--ring", "Mat:2:Mat:2:Zmod:2"),
        ("example1", "--ring", f"Table:{table}"),
        ("example2", "--ring", "UT:3:Z"),
        ("example2", "--ring", "Mat:2:Z"),
        ("example2", "--ring", "Z"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = invoke(*argv)
        assert code == 2 and text == "", argv
        assert err.getvalue().startswith("parse error:") and err.getvalue().count("\n") == 1, argv
    for body in ("{}", "[1]"):
        path = tmp_path / "f.json"
        path.write_text(body)
        code, _ = invoke("divide", "--ring", "Zmod:3", "--poly", f"@{path}", "--element", "1")
        assert code == 2


    # bad ring specs: table files that do not hold an algebra, numbers too
    # long for int(), a spec nested without end, an unparseable export base
    tables = {
        "constant.json": {"structure_constants": [[["x"]]], "basis_size": 1},
        "size.json": {"basis_size": "1"},
        "unit.json": {"unit_vector": [2]},
        # unit e0; (e1 e2) e2 = e1 but e1 (e2 e2) = e1 e1 = 0
        "assoc.json": {
            "basis_size": 3,
            "structure_constants": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 1, 0]],
            ],
            "unit_vector": [1, 0, 0],
        },
        "self.json": {"base": f"Table:{tmp_path / 'self.json'}"},
        # rank 0 is the zero ring, where 1 = 0 and X parses to 0
        "zero.json": {
            "basis_size": 0, "structure_constants": [], "unit_vector": [], "base": "Zmod:5"
        },
    }
    for name, patch in tables.items():
        body = {"basis_size": 1, "structure_constants": [[[1]]], "unit_vector": [1], "base": "Z"}
        body.update(patch)
        (tmp_path / name).write_text(json.dumps(body))
        code, _ = invoke("roots", "--ring", f"Table:{tmp_path / name}", "--poly", "X")
        assert code == 2, name
    # and matrix specs above the cap of 256 scalars
    for spec in ("Zmod:" + "9" * 5000, "Mat:" + "9" * 5000 + ":Z", "Mat:1:" * 40 + "Z", "Mat:400:Zmod:2"):
        code, _ = invoke("roots", "--ring", spec, "--poly", "X")
        assert code == 2
    code, text = invoke("export", "--table", "descriptor", "--base", "Nope")
    assert code == 2 and text == ""
    # JSON nested deeper than the decoder's stack
    code, _ = invoke("centralizer", "--ring", "Z", "--elements", "[" * 5000 + "]" * 5000)
    assert code == 2
    # csv is offered by export only; search and the example suites take no --format
    code, _ = invoke("verify", "--witness", "{}", "--format", "csv")
    assert code == 2
    code, _ = invoke("search", "--ring", "Zmod:4", "--poly", "X^2", "--format", "json")
    assert code == 2


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_file_errors_exit_2_and_write_errors_exit_1(tmp_path, capsys):
    # arguments that name a missing file are parse errors
    missing = tmp_path / "missing"
    code, _ = invoke("export", "--table", "descriptor", "--out", str(missing / "x.json"))
    assert code == 2
    code, _ = invoke("roots", "--ring", f"Table:{missing / 'alg.json'}", "--poly", "X")
    assert code == 2
    code, _ = invoke("verify", "--witness", f"@{missing / 'w.json'}")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("parse error:") for line in err)
    # an output that refuses the write is a failure, reported on one line
    assert run(["export", "--table", "descriptor"], out=_ClosedPipe()) == 1
    assert capsys.readouterr().err == "error: cannot write the output: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ("roots", "--ring", "Nope", "--poly", "X"),
    ("endos", "--p", "4"),
    ("roots", "--ring", "Zmod:3", "--poly", "X^2 +"),
    ("search", "--ring", "Zmod:3", "--poly", "0"),
    ("export", "--table", "nope"),
])
def test_cli_refusal_leaves_out_file_untouched(tmp_path, capsys, argv):
    kept = tmp_path / "kept.txt"
    kept.write_bytes(b"earlier output\n")
    code, text = invoke(*argv, "--out", str(kept))
    assert code == 2 and text == ""
    assert kept.read_bytes() == b"earlier output\n"
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    # nor does a refused invocation create the file
    code, _ = invoke(*argv, "--out", str(tmp_path / "new.txt"))
    assert code == 2 and not (tmp_path / "new.txt").exists()


def test_cli_check_failure_still_writes_the_output(tmp_path, capsys, monkeypatch):
    import cyclesplit.examples

    monkeypatch.setattr(cyclesplit.examples, "verify_example1_isomorphism", lambda base: False)
    path = tmp_path / "out.txt"
    code, text = invoke("example1", "--out", str(path))
    assert code == 1 and text == ""
    lines = path.read_text().splitlines()
    assert lines[-1] == "[FAIL] table algebra is isomorphic to UT(2) via the standard map"
    assert len(lines) == 8 and all(line.startswith("[PASS]") for line in lines[:-1])
    assert capsys.readouterr().err.startswith("check failed: table algebra")


def test_cli_example2_fails_when_a_matrix_unit_is_missing(capsys, monkeypatch):
    from cyclesplit import cli

    full = cli.generated_subalgebra
    monkeypatch.setattr(cli, "generated_subalgebra", lambda ring, gens: full(ring, gens)[:-1])
    code, text = invoke("example2")
    assert code == 1
    lines = text.splitlines()
    assert lines[-1] == "[FAIL] all nine matrix units are exact words in the pseudoroots over Q"
    assert lines[:-1] == EXAMPLE2_STDOUT.splitlines()[:7]
    assert capsys.readouterr().err.startswith("check failed: all nine matrix units")


def test_parse_error_carries_a_column_only_for_polynomial_text():
    assert ParseError("bad witness").position is None
    assert str(ParseError("bad witness")) == "bad witness"
    ring = parse_ring_spec("Zmod:6")
    for bad in ("", "X +", "* X", "X^", "2**X", "X^2*(X-1)", "1/0*X"):
        with pytest.raises(ParseError) as err:
            parse_poly(bad, ring)
        assert err.value.position is not None and "col" in str(err.value), bad
    # every refusal outside polynomial text has no column
    for argv in (
        ("endos", "--p", "4"),
        ("verify", "--witness", "{}"),
        ("search", "--task", "{"),
        ("export", "--table", "descriptor", "--format", "csv"),
        ("export", "--table", "nope"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert invoke(*argv)[0] == 2
        assert not err.getvalue().startswith("parse error: col "), argv


def test_cli_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cyclesplit")


def test_cli_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    src = os.path.dirname(os.path.dirname(cyclesplit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclesplit", "export", "--table", "descriptor"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: cannot write the output: Broken pipe\n"


# Runs each argv of a JSON list through cli.run and prints the exit codes,
# the joint output and the modules that were not loaded at start-up.
_FOOTPRINT = """
import io, json, sys
at_start = set(sys.modules)
from cyclesplit.cli import run
out = io.StringIO()
codes = [run(argv, out=out) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "out": out.getvalue(), "loaded": sorted(set(sys.modules) - at_start)}))
"""


def _in_fresh_interpreter(*argvs):
    src = os.path.dirname(os.path.dirname(cyclesplit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_commands_import_only_what_they_run():
    witness = json.dumps(
        {"ring": "UT:2:Z", "leading": [[1, 0], [0, 1]],
         "pseudoroots": [[[0, 0], [0, 1]], [[0, -1], [0, 0]], [[1, 1], [0, 0]]]}
    )
    result = _in_fresh_interpreter(
        ["roots", "--ring", "Zmod:6", "--poly", "X^2 - X"],
        ["search", "--ring", "UT:2:Zmod:3", "--poly", "X^2"],
        ["verify", "--witness", witness],
        ["rotate", "--witness", witness, "--k", "1"],
        ["divide", "--ring", "Zmod:5", "--poly", "X^3 - 4", "--element", "2"],
        ["eval", "--ring", "Mat:2:Zmod:3", "--poly", "X^2 - X", "--element", "[[1,1],[0,1]]"],
        ["centralizer", "--ring", "Mat:2:Zmod:2", "--elements", "[[[1,1],[0,1]]]"],
        ["roots", "--ring", "Nope", "--poly", "X"],
    )
    assert result["codes"] == [0] * 7 + [2]
    assert "cyclesplit.search" in result["loaded"]
    for name in ("cyclesplit.endo", "cyclesplit.examples", "csv", "dataclasses", "inspect"):
        assert name not in result["loaded"], name
    # a table export loads what it needs, and prints what it prints in-process;
    # no command builds its value types with dataclasses
    argv = ["export", "--p", "3", "--table", "monoid", "--format", "csv"]
    result = _in_fresh_interpreter(argv)
    assert {"cyclesplit.endo", "csv"} <= set(result["loaded"])
    assert not {"dataclasses", "inspect"} & set(result["loaded"])
    assert (result["codes"][0], result["out"]) == invoke(*argv)


def test_cli_example1_loads_endo_only_for_its_battery():
    # example 1's tables render through examples; only --p runs the battery
    for argv, with_endo in (
        (["example1", "--ring", "UT:2:Z"], False),
        (["example1", "--ring", "UT:2:Zmod:3", "--p", "3"], True),
    ):
        result = _in_fresh_interpreter(argv)
        assert "cyclesplit.examples" in result["loaded"]
        assert ("cyclesplit.endo" in result["loaded"]) == with_endo
        assert (result["codes"][0], result["out"]) == invoke(*argv)


def test_cli_search_budget_refusal_is_fast(capsys):
    # the ring has 2^36 elements, over the budget of 10^8 candidates
    ring = parse_ring_spec("Mat:6:Zmod:2")
    with pytest.raises(SearchSpaceTooLargeError, match="search budget"):
        find_roots(x_power(ring, 1), ring)
    start = time.monotonic()
    code, _ = invoke("roots", "--ring", "Mat:6:Zmod:2", "--poly", "X")
    assert code == 1
    assert time.monotonic() - start < 10
    assert "elements, the search budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    (
        ["endos", "--p", "101"],
        ["export", "--p", "1000003", "--table", "images"],
        ["example1", "--p", "101"],
    ),
)
def test_cli_endo_battery_budget_refusal_is_fast(argv):
    # (p^2 + p + 2)^2 ordered pairs in the monoid table, over 10^8 from p = 101
    src = os.path.dirname(os.path.dirname(cyclesplit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cyclesplit", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert time.monotonic() - start < 2
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the monoid table over Z/")
    assert proc.stderr.endswith("search budget\n")
    assert proc.stderr.count("\n") == 1


def test_cli_deterministic_output():
    first = invoke("search", "--ring", "Zmod:4", "--poly", "X^2")
    second = invoke("search", "--ring", "Zmod:4", "--poly", "X^2")
    assert first == second
    code, text = first
    assert code == 0
    lines = [json.loads(line) for line in text.splitlines()]
    assert "summary" in lines[-1]


# sha256 of `python -m cyclesplit search ...` stdout, recorded before the
# search pruned by roots and rotation classes; the pruning must not move a byte
SEARCH_GOLDEN = [
    (("--ring", "Mat:2:Zmod:3", "--poly", "X^3 - X", "--mode", "all_splittings"),
     "43f94fd45da467c209635842551ae50e74ed4cd25feebe72824423392863cd7a"),
    (("--ring", "Mat:2:Zmod:3", "--poly", "X^3 - X", "--mode", "commuting_splittings_only"),
     "a935a8f9026ffc2a2196ef8e8d6c21407f9705375c29f4816b4b86760f4e6ee2"),
    (("--ring", "UT:2:Zmod:4", "--poly", "2X^2 + 2X", "--mode", "all_splittings"),
     "3bb2af700222b083f2f76da60fae94640bf42b4c770975c8aa974a3348f6876b"),
    (("--ring", "Mat:2:Zmod:2", "--poly", "X^4 - X", "--mode", "all_splittings"),
     "dadedebe8402cc33848ee47c5a7ecebc4a5e330ba25258c44d045eac51b83db9"),
]


@pytest.mark.parametrize("args,digest", SEARCH_GOLDEN)
def test_cli_search_stdout_golden(args, digest):
    code, text = invoke("search", *args)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


EXAMPLE1_WITNESS = json.dumps({
    "ring": "UT:2:Z",
    "leading": [[1, 0], [0, 1]],
    "pseudoroots": [[[0, 0], [0, 1]], [[0, -1], [0, 0]], [[1, 1], [0, 0]]],
})
# E12 and E21: the expanded coefficients do not commute with the pseudoroots
NONCOMMUTING_WITNESS = json.dumps({
    "ring": "Mat:2:Z",
    "leading": [[1, 0], [0, 1]],
    "pseudoroots": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
})

# (argv, exit code, sha256 of --format text stdout, of --format json stdout),
# recorded from the per-class serializers the record rule replaced
RECORD_GOLDEN = [
    (("verify", "--witness", EXAMPLE1_WITNESS), 0,
     "13c7d98c1a2891fb6fe96197e23fce5dee1cd2ed8de224ffb4916d1378795b4c",
     "f968428bc44c3ab67debb47fc75aa2387e14971308296e6649510720b58f7a76"),
    (("expand", "--witness", EXAMPLE1_WITNESS), 0,
     "c391ccdaca5714d952c1af11c9c092f4bd588519386b24fa28bdc89ee4a0c145",
     "ebf3185658ab77c45936880f6874ce08288a910dc64533ac46e640a1edd40295"),
    (("rotate", "--witness", EXAMPLE1_WITNESS, "--k", "1"), 0,
     "4f2b60fe5324b2ecd392d3c6b78ad8c1bc741736c072997a5fa91edfaa7b3b73",
     "8cf0266d3c428f1504640f48edb602964c6dd92ed3bd806aee16d32308017d97"),
    (("verify", "--witness", NONCOMMUTING_WITNESS), 1,
     "d9614e2cf406d02a24deb994af0dd7566b41589b1088a2ecfa48c1088f82c000",
     "344fb4c2b24bca54c4e957441179fa9d92f006f7ba8e166440c96fbae0f97a57"),
    (("endos", "--p", "3"), 0,
     "70d02abccdb154e845095896cd9d0435d1e8d920a39cf086c320af986ab6977b",
     "2b9b01a6d1f8a2b66a44443466a36a2e8f43253452e5979af984ffd3f59ca85a"),
    (("divide", "--ring", "Mat:2:Z", "--poly", "X^2 + X", "--element", "[[1,2],[3,4]]"), 0,
     "7beb2e23838883d1152831bb1db21f344aecd7084c1e2ed3ac6933fc03130e99",
     "c6c03081f5cdac4a47ede702de03289ef84eefb48bb1a39e04717099c57d6fc5"),
    (("eval", "--ring", "Mat:2:Q", "--poly", "1/2*X^2 + 1", "--element", "[[1,2],[3,4]]"), 0,
     "8fd1f90ef5438051d2f9b7fe17d6f29ecf32872838e37a9727411022863e2e22",
     "5492d59a1c1d345ed77b60142616aa33f59129335a516dbebf35f6440c350b45"),
    (("roots", "--ring", "Mat:2:Zmod:3", "--poly", "X^2 - X"), 0,
     "cc7767cea325f37fe2cf6d53797ab021d65fe60c9644163880d1bede94785db8",
     "3a3791d66b2dacbd9c8636d0d6079cd85b4461a9f5c3adcb33391c1b473960c6"),
]


@pytest.mark.parametrize("argv,code,text_digest,json_digest", RECORD_GOLDEN,
                         ids=[f"{row[0][0]}-{i}" for i, row in enumerate(RECORD_GOLDEN)])
def test_cli_record_stdout_golden(argv, code, text_digest, json_digest):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        got, text = invoke(*argv, "--format", fmt)
        assert got == code, fmt
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


def test_cli_roots_and_eval_and_divide():
    code, text = invoke("roots", "--ring", "Zmod:6", "--poly", "X^2 - X", "--format", "json")
    assert code == 0
    assert json.loads(text)["count"] == 4

    code, text = invoke(
        "eval", "--ring", "Zmod:7", "--poly", "X^2 + 1", "--element", "3",
        "--mode", "commuting", "--format", "json",
    )
    assert code == 0
    assert json.loads(text)["value"] == 3

    code, text = invoke(
        "divide", "--ring", "Mat:2:Z", "--poly", "X^2",
        "--element", "[[1,0],[0,1]]", "--format", "json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["remainder"] == [[1, 0], [0, 1]]
    assert payload["quotient"]["coeffs"] == [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]


def test_cli_eval_commuting_with_noncommuting_coefficient_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ring": "Mat:2:Zmod:2", "coeffs": [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]}))
    code, text = invoke(
        "eval", "--poly", f"@{path}", "--element", "[[1,1],[0,1]]", "--mode", "commuting"
    )
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not commute" in err
    assert "Traceback" not in err


def test_cli_expand_rotate_round_trip(tmp_path):
    ring = example1_matrix_ring(parse_ring_spec("Z"))
    w = example1_witness(ring)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w.to_json()))
    code, text = invoke("expand", "--witness", f"@{path}", "--format", "json")
    assert code == 0
    expanded = json.loads(text)
    assert expanded["coeffs"][-1] == [[1, 0], [0, 1]]

    code, text = invoke("rotate", "--witness", f"@{path}", "--k", "1", "--format", "json")
    assert code == 0
    rotated = json.loads(text)
    assert rotated["pseudoroots"][0] == w.to_json()["pseudoroots"][2]


def test_a_polynomial_input_has_one_ring(tmp_path, capsys):
    ring = parse_ring_spec("Zmod:5")
    # a file's "ring" must be the ring it is read over; without one it reads
    # over that ring
    with pytest.raises(ValueError):
        poly_from_json({"ring": "Zmod:7", "coeffs": [6, 1]}, ring)
    for obj in ({"coeffs": [6, 1]}, {"ring": "Zmod:5", "coeffs": [6, 1]}):
        assert poly_from_json(obj, ring) == from_int_coeffs(ring, [1, 1])
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ring": "Zmod:7", "coeffs": [6, 1]}))
    # a search task is the search's one source: no flag may override it
    task = json.dumps({"ring": "Zmod:3", "target": {"coeffs": [0, 0, 1]}, "n": 2, "mode": "all_splittings"})
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    for argv in (
        ("eval", "--ring", "Zmod:5", "--poly", f"@{path}", "--element", "1"),
        ("roots", "--ring", "Zmod:5", "--poly", f"@{path}"),
        ("search", "--task", task, "--n", "1", "--ring", "Zmod:5", "--poly", "X", "--mode", "roots_only"),
        ("search", "--task", task, "--ring", "Zmod:3"),
        ("search", "--task", task, "--poly", "X^2"),
        ("search", "--task", task, "--n", "2"),
        ("search", "--task", task, "--mode", "all_splittings"),
    ):
        assert invoke(*argv, "--out", str(out)) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1, argv
        assert out.read_text() == "kept\n", argv
    code, text = invoke("search", "--task", task)
    assert code == 0 and json.loads(text.splitlines()[-1])["summary"]["mode"] == "all_splittings"
    code, text = invoke("eval", "--ring", "Zmod:7", "--poly", f"@{path}", "--element", "1")
    assert (code, text) == (0, "value: 0\nmode: right\n")


def test_cli_search_task_file(tmp_path):
    from cyclesplit.search import SearchTask, task_from_json

    ring = parse_ring_spec("Zmod:4")
    task = SearchTask(ring, from_int_coeffs(ring, [0, 0, 1]), 2, "all_splittings")
    assert task_from_json(task.to_json()) == task
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task.to_json()))
    code, text = invoke("search", "--task", f"@{path}")
    assert code == 0
    assert json.loads(text.splitlines()[-1])["summary"]["witness_count"] == 2
    code, _ = invoke("search", "--poly", "X^2")
    assert code == 2  # needs --task or --ring/--poly


def test_cli_counterexample_hunt_reports_either_outcome(tmp_path):
    code, text = invoke("search", "--ring", "Zmod:4", "--poly", "X^2", "--mode", "counterexample_hunt")
    assert (code, text) == (0, '{"counterexample": null}\n')
    ring = parse_ring_spec("Mat:2:Zmod:2")
    e12, e21 = ring.element(((0, 1), (0, 0))), ring.element(((0, 0), (1, 0)))
    f = x_minus(e12) * x_minus(e21)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    code, text = invoke("search", "--ring", "Mat:2:Zmod:2", "--poly", f"@{path}", "--mode", "counterexample_hunt")
    assert code == 0
    # E12 is no right root of (X - E12)(X - E21); only the rightmost factor is
    assert json.loads(text) == {"counterexample": {
        "ring": "Mat:2:Zmod:2", "leading": [[1, 0], [0, 1]],
        "pseudoroots": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
    }}


def test_cli_task_in_a_mode_without_a_factor_count_restates_the_degree():
    # roots_only and counterexample_hunt run a task whose n is the degree of
    # its target, as they run the same target given by --poly
    for mode, coeffs in (("roots_only", [0, 1]), ("counterexample_hunt", [0, 0, 1])):
        task = {"ring": "Zmod:4", "target": {"coeffs": coeffs}, "n": len(coeffs) - 1, "mode": mode}
        got = invoke("search", "--task", json.dumps(task))
        poly = " + ".join(f"X^{k}" for k, c in enumerate(coeffs) if c)
        assert got == invoke("search", "--ring", "Zmod:4", "--poly", poly, "--mode", mode)
        assert got[0] == 0
        task["n"] += 1
        assert invoke("search", "--task", json.dumps(task)) == (2, "")


def test_cli_centralizer():
    code, text = invoke(
        "centralizer", "--ring", "Zmod:6", "--elements", "[1, 5]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 6  # commutative ring: everything commutes


def test_cli_centralizer_over_large_prime_moduli():
    start = time.perf_counter()
    code, text = invoke(
        "centralizer", "--ring", "Mat:2:Zmod:1000000000000000003", "--elements", "[[[1,1],[0,1]]]"
    )
    assert code == 0 and text.startswith("count: ")
    assert time.perf_counter() - start < 5.0
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code, _ = invoke(
            "centralizer", "--ring", "Mat:2:Zmod:618970019642690137449562111", "--elements", "[[[1,1],[0,1]]]"
        )
    assert code == 1 and "3317044064679887385961981" in err.getvalue()


def test_cli_endos_json():
    code, text = invoke("endos", "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["monoid"]["endo_count"] == 8
    assert payload["composition_order_evidence"]["left_operand_first"] == 64


def test_cli_export_formats(tmp_path):
    code, text = invoke("export", "--p", "2", "--table", "minpoly", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "root,element,minpoly"

    code, text = invoke("export", "--p", "2", "--table", "monoid", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert len(payload["rows"]) == 8

    out_file = tmp_path / "table.txt"
    code, _ = invoke(
        "export", "--p", "3", "--table", "images", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().splitlines()[0].startswith("endo")

    code, text = invoke("export", "--table", "descriptor", "--base", "Zmod:5")
    assert code == 0
    payload = json.loads(text)
    assert payload["basis_size"] == 3 and payload["base"] == "Zmod:5"
    # the descriptor is JSON whatever the format; csv it refuses
    for fmt in ("text", "json"):
        assert invoke("export", "--table", "descriptor", "--base", "Zmod:5", "--format", fmt) == (0, text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke("export", "--table", "descriptor", "--format", "csv")
    assert code == 2 and text == ""
    assert err.getvalue().startswith("parse error:") and err.getvalue().count("\n") == 1


def test_cli_export_descriptor_round_trips_as_ring(tmp_path):
    code, text = invoke("export", "--table", "descriptor", "--base", "Zmod:3")
    path = tmp_path / "alg.json"
    path.write_text(text)
    ring = parse_ring_spec(f"Table:{path}")
    assert ring.cardinality == 27
    # and the search CLI accepts it
    code, text = invoke(
        "search", "--ring", f"Table:{path}", "--poly", "X^3 - X^2",
        "--mode", "commuting_splittings_only",
    )
    assert code == 0
    summary = json.loads(text.splitlines()[-1])["summary"]
    assert summary["cycle_class_count"] == 15


# A fixed pool of small and hostile inputs for the exit-code contract. Rings
# stay small enough (at most 64 elements) for every command to finish at
# once, or are huge and refused at once: the search budget, the primality
# bound for a prime modulus above it (2^89 - 1), and the cap on matrix specs.
FUZZ_SPECS = (
    "Z", "Q", "Zmod:6", "Zmod:1", "Zmod:", "Zmod:²", "Zmod:" + "9" * 5000,
    "Mat:2:Zmod:2", "UT:2:Zmod:4", "UT:2:Z", "Mat:2:Q", "Mat:2:Mat:2:Q", "Mat:1:UT:2:Zmod:2",
    "Mat:2:Mat:2:Z", "Mat:0:Z", "Mat:" + "9" * 5000 + ":Z", "Mat:1:" * 40 + "Z",
    "Mat:2:Zmod:1000000000000000003", "Mat:2:Zmod:618970019642690137449562111",
    "Mat:400:Zmod:2", "Mat:4:Mat:5:Z",
    "UT:2", "Table:", "Table:/no/such/file.json", "Nope", "",
)
FUZZ_POLYS = (
    "X", "X^2 - 1", "2*X^2+2*X", "1/2*X + 1", "X^3 - X^2", "X^257",
    "X^" + "9" * 5000, "X^2*(X-1)", "", "1/0*X", "- X", "X +", "@/no/such/file.json",
)
FUZZ_JSON = (
    "1", "-1", "[]", "[1]", "{}", "null", '"1/2"', '"1/0"', "[[1,0],[0,1]]",
    "[[1,2],[0,1]]", '[[1,"1/2"],[0,1]]', "[[[1,0],[0,1]]]", "[[[1,1],[0,1]],[[0,1],[1,0]]]",
    "[1,0,1]", '{"ring":"Zmod:3","leading":1,"pseudoroots":[1,2]}',
    '{"ring":"UT:2:Zmod:4","leading":[[1,0],[0,1]],"pseudoroots":[[[1,0],[0,0]],[[0,1],[0,1]]]}',
    '{"ring":"Nope","leading":1,"pseudoroots":[1]}', "[" * 5000 + "]" * 5000, "[[1,0]", "nan",
    json.dumps(HOSTILE_ELEMENT), json.dumps(HOSTILE_POLY), json.dumps(HOSTILE_WITNESS),
)


def _fuzz_argv(data, table_specs):
    spec = data.draw(st.sampled_from(FUZZ_SPECS + table_specs))
    poly = data.draw(st.sampled_from(FUZZ_POLYS))
    payload = data.draw(st.sampled_from(FUZZ_JSON))
    command = data.draw(
        st.sampled_from(
            ("roots", "eval", "divide", "search", "centralizer", "verify", "expand", "rotate", "export", "example1")
        )
    )
    if command == "roots":
        return ["roots", "--ring", spec, "--poly", poly]
    if command in ("eval", "divide"):
        return [command, "--ring", spec, "--poly", poly, "--element", payload]
    if command == "search":
        mode = data.draw(
            st.sampled_from(("all_splittings", "commuting_splittings_only", "roots_only", "counterexample_hunt"))
        )
        return ["search", "--ring", spec, "--poly", poly, "--mode", mode]
    if command == "centralizer":
        return ["centralizer", "--ring", spec, "--elements", payload]
    if command in ("verify", "expand"):
        return [command, "--witness", payload]
    if command == "rotate":
        return ["rotate", "--witness", payload, "--k", "1"]
    if command == "export":
        return ["export", "--table", "descriptor", "--base", spec]
    return ["example1", "--ring", spec]


@pytest.fixture(scope="module")
def fuzz_tables(tmp_path_factory):
    """Ring specs of one good and two bad table files."""
    root = tmp_path_factory.mktemp("fuzz")
    good = EXAMPLE1_DESCRIPTOR.to_json("Zmod:2")
    bodies = {"good": good, "bad": dict(good, unit_vector=[2, 0, 0]), "list": [1]}
    for name, body in bodies.items():
        (root / f"{name}.json").write_text(json.dumps(body))
    return tuple(f"Table:{root / name}.json" for name in bodies)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_tables, data):
    argv = _fuzz_argv(data, fuzz_tables)
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(argv, out=io.StringIO())
    assert code in (0, 1, 2), argv
