"""Command-line interface: runs, reports, corpus verification, exit codes."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from whiledt import cli
from whiledt.cli import main, parse_rational, parse_schedule
from whiledt.report import fmt_rational, fmt_value
from whiledt.semantics import DEFAULT_SCHEDULE
from whiledt.syntax import MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(name):
    return str(CORPUS / name)


def test_parse_schedule_forms(capsys):
    assert parse_schedule("0..7") == list(range(8))
    assert parse_schedule("0,3,9") == [0, 3, 9]
    assert parse_schedule("0..15+doubling:3") == list(DEFAULT_SCHEDULE)
    assert parse_schedule("2..4,10") == [2, 3, 4, 10]
    with pytest.raises(ValueError):
        parse_schedule("5,2")
    with pytest.raises(ValueError):
        parse_schedule("")
    with pytest.raises(ValueError):
        parse_schedule("0..3+tripling:2")
    with pytest.raises(ValueError):
        parse_schedule("-1..9")
    # a negative doubling count, or a stage or count that is no integer,
    # is refused by a message that names the schedule, with exit 2
    for spec, message in (
        ("0..3+doubling:-1", "doubling count must be >= 0 in schedule '0..3+doubling:-1'"),
        ("0..x", "bad stage 'x' in schedule '0..x'"),
        ("1..2..3", "bad stage '2..3' in schedule '1..2..3'"),
        ("0..3+doubling:x", "bad doubling count 'x' in schedule '0..3+doubling:x'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_schedule(spec)
        code, out, err = run_cli(
            capsys, "run", corpus_file("floor.whdt"), "--input", "1", "--stages", spec
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parse_rational_forms():
    assert parse_rational("3.7") == Fraction(37, 10)
    assert parse_rational("-2/3") == Fraction(-2, 3)
    assert parse_rational("5") == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational("nope")


def test_run_floor_text(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input", "3.7",
        "--stages", "0..7",
    )
    assert code == 0
    assert "eventually constant 3 from stage 0" in out
    assert "standard part: 3" in out


def test_run_negative_input_equals_form(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input=-23/10",
        "--stages", "0..7", "--report", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["y"]["value"] == "-3"


def test_run_floor_json(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input", "3.7",
        "--stages", "0..7", "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["y"]["class"] == "eventually-constant"
    assert doc["outputs"]["y"]["value"] == "3"
    assert doc["outputs"]["y"]["standard_part"] == "3"
    assert doc["stages"][0]["dt"] == "1"
    assert doc["stages"][3]["outputs"]["y"] == "3"
    # lossless round trip of the JSON document
    assert json.loads(json.dumps(doc)) == doc


def test_run_thomson_reports_both_candidates(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("thomson.whdt"), "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    lamp = doc["outputs"]["lamp"]
    assert lamp["class"] == "periodic" and lamp["period"] == 2
    assert lamp["ultrafilter_candidates"] == [
        {"residue": 0, "value": "1"},
        {"residue": 1, "value": "0"},
    ]
    assert lamp["standard_part"] == {"none": "ultrafilter-dependent"}
    assert lamp["heuristic"] is True
    assert doc["supertask"]["metered"]["class"] == "bad"


def test_run_decide_with_oracle(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "8",
        "--oracle", "A=primes", "--stages", "0..7", "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["y"]["value"] == "0"
    assert doc["oracles"] == {"A": "primes"}


def test_run_missing_oracle_fails(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "8",
    )
    assert code == 1
    assert "unbound oracle" in err


def test_run_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input", "x&y"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input", "1", "--input", "2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "run", "/nonexistent/prog.whdt")
    assert code == 2
    for flag in ("--stages=-1..9", "--cost=assign_cost=1/0", "--cost=assign_cost"):
        code, out, err = run_cli(capsys, "run", corpus_file("thomson.whdt"), flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert err == "error: --cost expects KEY=VAL, got 'assign_cost'\n"
    for spec in ("A=graph:NOPE:3", "A=graph:SQ:x"):
        code, out, err = run_cli(
            capsys, "run", corpus_file("decide.whdt"), "--input", "7", "--oracle", spec
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # a graph oracle's macro must compute the same function at every stage
    prog = tmp_path / "stage_macro.whdt"
    prog.write_text("def F(u) -> w { w := u + infinity }\n"
                    + (CORPUS / "compute.whdt").read_text(encoding="utf-8"))
    # and it runs with no oracle bound
    oracle_prog = tmp_path / "oracle_macro.whdt"
    oracle_prog.write_text("def F(u) -> w { w := u + floor(real3(A)) }\n"
                           + (CORPUS / "compute.whdt").read_text(encoding="utf-8"))
    compute = CORPUS / "compute.whdt"
    finite = "a finite oracle expects finite:N,N,... with naturals N, got"
    graph = "a graph oracle expects graph:MACRO:BOUND with a natural BOUND, got"
    for path, spec, message in (
        (prog, "A=graph:F:10", "macro 'F' reads dt or infinity, so its graph is not fixed"),
        (oracle_prog, "A=graph:F:10",
         "macro 'F' reads oracle A, but a graph macro runs with no oracle bound"),
        # an oracle's numbers are naturals
        (compute, "A=finite:1,x", f"{finite} 'finite:1,x'"),
        (compute, "A=finite:-1", f"{finite} 'finite:-1'"),
        (compute, "A=graph:SQ:x", f"{graph} 'graph:SQ:x'"),
        (compute, "A=graph:SQ:-3", f"{graph} 'graph:SQ:-3'"),
        (CORPUS / "compute.whdt", "A=graph:SQ",
         "a graph oracle expects graph:MACRO:BOUND, got 'graph:SQ'"),
    ):
        code, out, err = run_cli(capsys, "run", str(path), "--input", "3", "--oracle", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_finite_oracle_lists_keep_their_forms(capsys):
    # blanks around and between items are skipped, as is an empty list
    for spec, member in (("finite: 4 , 5", "1"), ("finite:1,,2", "0"), ("finite:", "0")):
        code, out, err = run_cli(capsys, "run", corpus_file("decide.whdt"), "--input", "4",
                                 "--oracle", f"A={spec}", "--stages", "0..7", "--report", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["outputs"]["y"]["value"] == member


def test_nesting_past_the_limit_is_a_usage_error(tmp_path, capsys):
    def parens(n):
        return f"input; output x; x := {'(' * n}1{')' * n}"

    def ifs(n):  # a braced body is one level
        return "input; output x; x := 0; " + "if x < 1 then { " * n + "x := 1" + " }" * n

    def sums(n):  # each operator of a left-deep chain is one level
        return "input; output x; y := 1; x := " + " + ".join(["y"] * (n + 1))

    def ors(n):
        return "input; output x; x := 0; if " + " or ".join(["x < 1"] * (n + 1)) + " then x := 1"

    prog = tmp_path / "deep.whdt"
    for shape in (parens, ifs, sums, ors):
        levels = MAX_NESTING
        prog.write_text(shape(levels))
        assert run_cli(capsys, "run", str(prog), "--stages", "0..3")[0] == 0
        for too_deep in (levels + 1, 250, 400, 989):
            prog.write_text(shape(too_deep))
            code, out, err = run_cli(capsys, "run", str(prog), "--stages", "0..3")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"nesting deeper than {MAX_NESTING} levels" in err


def test_parallel_flag_is_gone(capsys):
    assert run_cli(capsys, "run", corpus_file("thomson.whdt"), "--parallel")[0] == 2
    assert run_cli(capsys, "corpus", "--parallel")[0] == 2


def test_run_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.whdt"
    bad.write_text("input x; output y; y :=")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "expected an expression" in err
    # a repeated parameter used to let the last argument win: y was 2
    bad.write_text("def F(a, a) -> r { r := a }\ninput; output y; y := F(1, 2)\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: {bad}: 1:10: duplicate parameter 'a'\n"


def test_an_oracle_bound_twice_exits_two(tmp_path, capsys):
    # the last binding used to win: y printed as constant 0, exit 0
    decide = corpus_file("decide.whdt")
    for second in ("A=evens", "A=primes", " A = evens"):
        code, out, err = run_cli(capsys, "run", decide, "--input=3",
                                 "--oracle", "A=primes", "--oracle", second)
        assert (code, out, err) == (2, "", "error: oracle 'A' is bound twice\n")
    # a corpus header goes through the same loader
    body = Path(decide).read_text().split("input x;", 1)[1]
    prog = tmp_path / "twice.whdt"
    prog.write_text(
        "# expect-input: 3\n# expect-oracle: A = primes\n# expect-oracle: A = evens\n"
        "# expect-output: y = constant 1\ninput x;" + body
    )
    assert cli.verify_corpus_file(prog) == (None, ["oracle 'A' is bound twice"])
    code, out, err = run_cli(capsys, "corpus", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out == (
        "twice.whdt  FAIL\n            - oracle 'A' is bound twice\n"
        "0/1 corpus programs pass\n"
    )


def test_characters_outside_the_token_classes_exit_one(tmp_path, capsys):
    # `str.isdigit` accepts `²`, which `Fraction` rejects: these runs
    # ended in a ValueError traceback
    prog = tmp_path / "chars.whdt"
    for body, char, col in (("y := ²", "²", 23), ("y := 1²", "²", 24),
                            ("é := 1; y := 1", "é", 18)):
        prog.write_text(f"input; output y; {body}", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert code == 1 and out == ""
        assert err == f"error: {prog}: 1:{col}: unexpected character {char!r}\n"


def test_run_static_diagnostics_exit_one(tmp_path, capsys):
    bad = tmp_path / "ub.whdt"
    bad.write_text("input x; output y; y := z + 1")
    code, _, err = run_cli(capsys, "run", str(bad), "--input", "1")
    assert code == 1
    assert "use-before-assign" in err


def test_declaration_diagnostics_print_no_position(tmp_path, capsys):
    # a diagnostic about the declarations has no statement to point at;
    # these printed the placeholder position 0:0
    for body, message in (
        ("input x, x; output y; y := 1", "duplicate-decl: x"),
        ("input x; output y; while x < 1 do y := 1", "output-never-assigned: y"),
    ):
        prog = tmp_path / "decl.whdt"
        prog.write_text(body)
        code, out, err = run_cli(capsys, "run", str(prog), "--input", "1")
        assert code == 1 and out == ""
        assert err == f"error: {prog}: {message}\n"
    # a use still names the statement that reads the variable
    prog.write_text("input x; output y; y := z + 1")
    code, _, err = run_cli(capsys, "run", str(prog), "--input", "1")
    assert code == 1 and err == f"error: {prog}: use-before-assign: z at 1:20\n"


def test_run_energy_and_clock_flags(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("ball.whdt"),
        "--energy-var", "energy", "--clock-var", "time", "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["supertask"]["metered"]["class"] == "bad"
    assert doc["supertask"]["energy_var"] == "energy"
    assert doc["supertask"]["energy"]["class"] == "good"


def test_a_bad_energy_variable_keeps_the_metered_verdict(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("floor.whdt"), "--input", "5",
        "--energy-var", "nope", "--stages", "0..7",
    )
    assert code == 0
    assert "supertask (metered): good - bounded" in out
    assert out.endswith(
        "warnings:\n  - supertask: energy variable 'nope' is unassigned at stage 0\n"
    )
    prog = tmp_path / "energy.whdt"
    for body, oracle, warning in (
        ("if 1/2 < dt then e := 1", (), "'e' is unassigned at stage 1"),
        ("e := real3(A)", ("--oracle", "A=primes"), "'e' is symbolic at stage 0"),
    ):
        prog.write_text(f"input; output y; y := 0; {body}")
        code, out, err = run_cli(
            capsys, "run", str(prog), "--energy-var", "e", "--stages", "0..7",
            "--report", "json", *oracle,
        )
        doc = json.loads(out)
        assert doc["supertask"]["metered"]["class"] == "good"
        assert doc["supertask"]["energy_var"] == "e"
        assert doc["supertask"]["energy"] is None
        assert doc["warnings"] == [f"supertask: energy variable {warning}"]


def test_cost_overrides_and_config(tmp_path, capsys):
    cfg = tmp_path / "costs.cfg"
    cfg.write_text("assign_cost = 0\nguard_cost = 0\noracle_cost = 5\n")
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "2",
        "--oracle", "A=primes", "--stages", "0..7",
        "--cost-config", str(cfg), "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # only oracle queries cost anything now: 3 queries * 5
    assert doc["stages"][0]["cost_total"] == "15"


def test_finite_and_bitfile_oracles(tmp_path, capsys):
    bits = tmp_path / "a.bits"
    bits.write_text("0101")
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "3",
        "--oracle", f"A=bitfile:{bits}", "--stages", "0..7", "--report", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["y"]["value"] == "1"
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "3",
        "--oracle", "A=finite:1,3,5", "--stages", "0..7", "--report", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["y"]["value"] == "1"


def test_corpus_passes(capsys):
    code, out, err = run_cli(capsys, "corpus")
    assert code == 0
    assert "7/7 corpus programs pass" in out


def test_corpus_empty_dir(tmp_path, capsys):
    code, out, err = run_cli(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert "no .whdt programs" in err


def test_corpus_missing_expectation_header(tmp_path, capsys):
    prog = tmp_path / "naked.whdt"
    prog.write_text("input; output y; y := 1")
    code, out, err = run_cli(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "missing expectation header" in out


def test_corpus_detects_corrupted_expectation(tmp_path, capsys):
    src = (CORPUS / "floor.whdt").read_text()
    (tmp_path / "floor.whdt").write_text(
        src.replace("y = constant 3", "y = constant 4")
    )
    code, out, err = run_cli(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "expected 'constant 4', got 'constant 3'" in out


def test_corpus_headers_match_every_verdict_and_report_each_failure(tmp_path, capsys):
    verdicts = (Path(__file__).parent / "golden" / "verdicts.whdt").read_text()
    (tmp_path / "verdicts.whdt").write_text(
        "# expect-input: 1/2\n# expect-stages: 0..7\n# expect-output: d = unbounded-\n"
        "# expect-output: i = irregular\n# expect-supertask: good\n" + verdicts
    )
    (tmp_path / "short.whdt").write_text(
        "# expect-stages: 0..3\n# expect-output: y = unclassified\n"
        "# expect-supertask: unclassified\ninput; output y; y := dt\n"
    )
    # stage 2 divides by zero, so 7 of 8 stages halt: too few to classify
    (tmp_path / "failing.whdt").write_text(
        "# expect-input: 3\n# expect-stages: 0..7\n# expect-output: y = unclassified\n"
        "# expect-supertask: bad\ninput x; output y; y := 1 / (x - infinity)\n"
    )
    results = {
        p.name: cli.verify_corpus_file(p)[1] for p in sorted(tmp_path.glob("*.whdt"))
    }
    assert results == {
        "failing.whdt": [
            "not all stages halted",
            "supertask: expected 'bad', got 'unclassified'",
        ],
        "short.whdt": [],
        "verdicts.whdt": [],
    }
    code, out, err = run_cli(capsys, "corpus", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out == (
        "failing.whdt   FAIL\n"
        "               - not all stages halted\n"
        "               - supertask: expected 'bad', got 'unclassified'\n"
        "short.whdt     PASS\n"
        "verdicts.whdt  PASS\n"
        "2/3 corpus programs pass\n"
    )


def test_corpus_env_var_override(tmp_path, capsys, monkeypatch):
    (tmp_path / "mini.whdt").write_text(
        "# expect-output: y = constant 1\n# expect-supertask: good\n"
        "input; output y; y := 1\n"
    )
    monkeypatch.setenv("WHDT_CORPUS", str(tmp_path))
    code, out, err = run_cli(capsys, "corpus")
    assert code == 0
    assert "1/1 corpus programs pass" in out


def test_text_and_json_agree(capsys):
    code, text_out, _ = run_cli(
        capsys, "run", corpus_file("thomson.whdt"), "--stages", "0..9",
    )
    code2, json_out, _ = run_cli(
        capsys, "run", corpus_file("thomson.whdt"), "--stages", "0..9",
        "--report", "json",
    )
    assert code == code2 == 0
    doc = json.loads(json_out)
    for row in doc["stages"]:
        assert f'{row["outputs"]["lamp"]}' in text_out
    assert doc["supertask"]["metered"]["class"] in text_out


def test_no_fast_path_flag(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "7",
        "--oracle", "A=primes", "--stages", "0..7",
        "--no-fast-path", "--report", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["y"]["value"] == "1"
    # the flag folds no arithmetic into an Affine, but a bare constant and
    # its negation stay Affine: on both routes the guard reads two digits
    # per stage and the negation prints as an Affine
    prog = tmp_path / "negation.whdt"
    prog.write_text(
        "input; output y, z;\n"
        "if real3(A) >= 1/2 then y := 1 else y := 0;\n"
        "z := -real3(A)\n"
    )
    for route in ((), ("--no-fast-path",)):
        code, out, err = run_cli(
            capsys, "run", str(prog), "--oracle", "A=primes", "--stages", "0..7",
            "--report", "json", *route,
        )
        assert (code, err) == (0, "")
        stages = json.loads(out)["stages"]
        assert {row["outputs"]["z"] for row in stages} == {
            "symbolic:Affine(0 + -1*primes)"
        }
        assert {row["oracle_queries"] for row in stages} == {2}


def test_interval_route_decodes_past_the_recursion_limit(capsys):
    # 1,200 shifts build a chain of SymExpr products deeper than Python's
    # recursion limit; the interval route agrees with the fast path
    ys = []
    for route in ((), ("--no-fast-path",)):
        code, out, err = run_cli(
            capsys, "run", corpus_file("decide.whdt"), "--input", "1200",
            "--oracle", "A=evens", "--stages", "0", "--report", "json", *route,
        )
        assert (code, err) == (0, "")
        ys.append(json.loads(out)["stages"][0]["outputs"]["y"])
    assert ys == ["1", "1"]


def test_graph_macro_with_a_negative_output_is_refused(tmp_path, capsys):
    prog = tmp_path / "negative.whdt"
    prog.write_text("def F(u) -> w { w := 0 - u }\n"
                    + (CORPUS / "compute.whdt").read_text(encoding="utf-8"))
    code, out, err = run_cli(
        capsys, "run", str(prog), "--input", "3", "--oracle", "A=graph:F:10",
        "--stages", "0..3", "--fuel", "2000", "--report", "json",
    )
    assert code == 1
    for stage in json.loads(out)["stages"]:
        assert stage["halt"] == {
            "status": "error", "error": "runtime-error",
            "message": "macro 'F' returned a non-natural on 3",
        }


def test_report_renders_rationals_past_the_int_digit_limit():
    big = 7 * 10**4999 + 3  # 5,000 digits, past str(int)'s default limit
    digits = "7" + "0" * 4998 + "3"
    assert fmt_value(Fraction(big, 9)) == f"{digits}/9"
    assert fmt_value(Fraction(-big)) == f"-{digits}"
    assert fmt_rational(Fraction(2, big)) == f"2/{digits}"
    for q in (Fraction(0), Fraction(-5), Fraction(37, 10), Fraction(-2, 3), 7):
        assert fmt_value(Fraction(q)) == fmt_rational(q) == str(q)


def test_numbers_past_the_int_digit_limit_reach_every_message(tmp_path, capsys):
    # an Affine offset of 3**-9100, and energies of 10**5000 * (n + 1)
    div = tmp_path / "div.whdt"
    div.write_text(
        "input n; output y; a := 1; i := 0;\n"
        "while i < n do { a := a / 3; i := i + 1 };\n"
        "y := real3(A) + a\n"
    )
    energy = tmp_path / "energy.whdt"
    energy.write_text(
        "input; output y; y := 1; e := 10; i := 0;\n"
        "while i < 4999 do { e := e * 10; i := i + 1 };\n"
        "e := e * infinity\n"
    )
    tiny = fmt_rational(Fraction(1, 3**9100))
    for route, shape in (
        ([], f"Affine({tiny} + 1*primes)"),  # the fast path's offset
        (["--no-fast-path"], f"SymExpr(Affine(0 + 1*primes) + Rat({tiny}))"),
    ):
        code, out, err = run_cli(
            capsys, "run", str(div), "--input=9100", "--oracle", "A=primes",
            "--stages", "0..7", *route,
        )
        assert code == 0 and err == ""
        assert shape in out
    code, out, err = run_cli(
        capsys, "run", str(energy), "--energy-var", "e", "--stages", "0..7",
    )
    assert code == 0 and err == ""
    assert f"totals grow from {fmt_rational(Fraction(10**5000))}" in out


# ---------------------------------------------------------------------------
# Fuzzing the argument handling: whatever the flags and corpus headers say,
# `whiledt` ends with exit code 0, 1 or 2 and no exception escapes.

# cheap corpus programs, each with `run` flags under which it halts
FUZZ_PROGRAMS = {
    "floor.whdt": {"input": "3.7"},
    "decide.whdt": {"input": "7", "oracle": "A=primes"},
    "compute.whdt": {"input": "7", "oracle": "A=graph:SQ:40"},
    "limit.whdt": {"input": "5"},
    "thomson.whdt": {},
    "inf-elim.whdt": {},
    "ball.whdt": {},
}
CHEAP_PROGRAMS = tuple(FUZZ_PROGRAMS)

# (valid, malformed) values of every `run` flag.  Schedules and step budgets
# stay small: `decide.whdt --input=3.7` or `compute.whdt` over a finite set
# never halts, and runs until the budget of every stage is spent.
FUZZ_FUEL = "2000"
RUN_FLAG_VALUES = {
    "input": (("0", "7", "5", "-23/10", "3.7", " 5 "), ("2,3", "", "x&y", "1/0")),
    "stages": (("0..7", "0..3", "0,3,9", "2..9+doubling:3", "0..5+doubling:1"),
               ("", "5,2", "-1..9", "0..3+tripling:2", "a..b", "0..", "1.5",
                "0..7+doubling:")),
    "fuel": (("1", "50", FUZZ_FUEL), ("0", "-3", "x")),
    "cmp-fuel": (("1", "10", "4096"), ("0", "x")),
    "oracle": (("A=primes", "A=evens", "A=squares", "A=finite:1,3,5", "A=finite:",
                "A=bitfile:{bits}", "A=graph:SQ:40", "A=graph:SQ:-1", "B=evens"),
               ("A=finite:x", "A=bitfile:{cfg}", "A=bitfile:/nonexistent",
                "A=graph:SQ:x", "A=graph:NOPE:3", "A=graph:SQ", "A", "A=", "=primes",
                "A=nope")),
    "energy-var": (("energy", "y", "u", "nosuch", ""), ()),
    "clock-var": (("time", "y", "", "a,b"), ()),
    "cost": (("assign_cost=1/2", "guard_cost=0", "oracle_cost=5"),
             ("assign_cost=-1", "assign_cost=1/0", "assign_cost", "clock_vars=time",
              "bogus=1")),
    "cost-config": (("{cfg}",), ("{bits}", "/nonexistent.cfg")),
    "report": (("text", "json"), ("xml",)),
    "no-fast-path": ((None,), ()),  # None: a switch without a value
    "parallel": ((), (None,)),  # a removed flag
}


def flag_value(key):
    valid, malformed = RUN_FLAG_VALUES[key]
    # one value in six is malformed, so that many runs reach the evaluator
    return st.integers(0, 5).flatmap(
        lambda i: st.sampled_from(malformed + ("--",) if i == 0 or not valid else valid)
    )


# header keys and values for generated corpus files; a corpus run has the
# default step budget, so every input and oracle here lets the programs halt
# (compute.whdt over primes never halts on 5, whose pair codes are composite)
HEADER_VALUES = {
    "input": ("7", "0", "x", "", "2,3"),
    "oracle": ("A = primes", "A = evens", "A = graph:SQ:40", "A = finite:x", "A",
               "A = nope"),
    "stages": ("0..7", "0..9+doubling:2", "", "3,1"),
    "energy-var": ("energy", "y", ""),
    "clock-var": ("time", "y"),
    "output": ("y = constant 3", "y = constant 1", "lamp = periodic 2", "y = convergent",
               "nosuch = constant 1", "y", ""),
    "supertask": ("good", "bad", "undetermined", ""),
    "energy-supertask": ("good", "bad", "unclassified"),
    "bogus": ("1",),
}


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "a.bits").write_text("0101")
    (d / "costs.cfg").write_text("assign_cost = 0\noracle_cost = 5\n")
    return {"bits": str(d / "a.bits"), "cfg": str(d / "costs.cfg")}


run_flags = st.lists(st.sampled_from(sorted(RUN_FLAG_VALUES)), unique=True, max_size=5).flatmap(
    lambda keys: st.fixed_dictionaries({k: flag_value(k) for k in keys})
)


def test_dashdash_flag_value_is_a_usage_error(capsys):
    # Python 3.11's argparse hands `--flag=--` over as [], not as "--"
    runs = [
        ("run", corpus_file("floor.whdt"), f"{flag}=--")
        for flag in ("--input", "--fuel", "--clock-var", "--stages", "--cost-config")
    ]
    runs += [("run", corpus_file("thomson.whdt"), "--report=--"), ("corpus", "--dir=--")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: `--` is not a flag value\n"), argv


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CHEAP_PROGRAMS + ("missing.whdt",)), run_flags)
def test_fuzzed_run_arguments_exit_cleanly(fuzz_files, program, flags):
    flags = {"fuel": FUZZ_FUEL, **FUZZ_PROGRAMS.get(program, {}), **flags}
    argv = [f"--{k}" if v is None else f"--{k}={v.format(**fuzz_files)}"
            for k, v in flags.items()]
    assert call_main(["run", corpus_file(program), *argv]) in (0, 1, 2)


header_lines = st.lists(
    st.sampled_from(sorted(HEADER_VALUES)).flatmap(
        lambda k: st.sampled_from(HEADER_VALUES[k] + ("--",)).map(
            lambda v: f"# expect-{k}: {v}"
        )
    ),
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(CHEAP_PROGRAMS), header_lines), min_size=1,
             max_size=3),
    st.sampled_from(("text", "json")),
)
def test_fuzzed_corpus_headers_exit_cleanly(files, report):
    with tempfile.TemporaryDirectory() as d:
        for i, (name, header) in enumerate(files):
            body = [
                line for line in (CORPUS / name).read_text().splitlines()
                if not line.startswith("# expect-")
            ]
            Path(d, f"{i}-{name}").write_text("\n".join(header + body) + "\n")
        assert call_main(["corpus", "--dir", d, "--report", report]) in (0, 1, 2)


def test_repeatable_flags_do_not_leak_between_calls(capsys):
    # one argument parser serves every call in a process
    floor = corpus_file("floor.whdt")
    assert run_cli(capsys, "run", floor, "--input=3")[0] == 0
    code, _, err = run_cli(capsys, "run", floor)
    assert code == 2
    assert "program takes 1 input(s), got 0" in err
