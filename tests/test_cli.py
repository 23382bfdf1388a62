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
from cyclesplit.ncpoly import MAX_DEGREE, from_int_coeffs, x_power
from cyclesplit.rings import parse_ring_spec
from cyclesplit.search import SearchSpaceTooLargeError, find_roots


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


def test_cli_example_suites_pass():
    code, text = invoke("example1", "--ring", "UT:2:Z")
    assert code == 0
    assert "[FAIL]" not in text
    code, text = invoke("example2")
    assert code == 0
    assert "[FAIL]" not in text


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
    }
    for name, patch in tables.items():
        body = {"basis_size": 1, "structure_constants": [[[1]]], "unit_vector": [1], "base": "Z"}
        body.update(patch)
        (tmp_path / name).write_text(json.dumps(body))
        code, _ = invoke("roots", "--ring", f"Table:{tmp_path / name}", "--poly", "X")
        assert code == 2, name
    for spec in ("Zmod:" + "9" * 5000, "Mat:" + "9" * 5000 + ":Z", "Mat:1:" * 40 + "Z"):
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


def test_cli_search_budget_refusal_is_fast(capsys):
    # the ring has 2^160000 elements, more digits than int() prints
    ring = parse_ring_spec("Mat:400:Zmod:2")
    with pytest.raises(SearchSpaceTooLargeError, match="search budget"):
        find_roots(x_power(ring, 1), ring)
    start = time.monotonic()
    code, _ = invoke("roots", "--ring", "Mat:400:Zmod:2", "--poly", "X")
    assert code == 1
    assert time.monotonic() - start < 10
    assert "elements, the search budget" in capsys.readouterr().err


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
    assert code == 1  # needs --task or --ring/--poly


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
# once, or are huge and refused at once: the search budget, and the primality
# bound for a prime modulus above it (2^89 - 1).
FUZZ_SPECS = (
    "Z", "Q", "Zmod:6", "Zmod:1", "Zmod:", "Zmod:²", "Zmod:" + "9" * 5000,
    "Mat:2:Zmod:2", "UT:2:Zmod:4", "UT:2:Z", "Mat:2:Q", "Mat:2:Mat:2:Q",
    "Mat:2:Mat:2:Z", "Mat:0:Z", "Mat:" + "9" * 5000 + ":Z", "Mat:1:" * 40 + "Z",
    "Mat:2:Zmod:1000000000000000003", "Mat:2:Zmod:618970019642690137449562111",
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
