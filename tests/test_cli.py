"""Command-line interface: runs, reports, corpus verification, exit codes."""

import json
from fractions import Fraction

import pytest

from conftest import CORPUS
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


def test_parse_schedule_forms():
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


def test_run_usage_errors(capsys):
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


def test_run_static_diagnostics_exit_one(tmp_path, capsys):
    bad = tmp_path / "ub.whdt"
    bad.write_text("input x; output y; y := z + 1")
    code, _, err = run_cli(capsys, "run", str(bad), "--input", "1")
    assert code == 1
    assert "use-before-assign" in err


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


def test_no_fast_path_flag(capsys):
    code, out, err = run_cli(
        capsys, "run", corpus_file("decide.whdt"), "--input", "7",
        "--oracle", "A=primes", "--stages", "0..7",
        "--no-fast-path", "--report", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["y"]["value"] == "1"


def test_report_renders_rationals_past_the_int_digit_limit():
    big = 7 * 10**4999 + 3  # 5,000 digits, past str(int)'s default limit
    digits = "7" + "0" * 4998 + "3"
    assert fmt_value(Fraction(big, 9)) == f"{digits}/9"
    assert fmt_value(Fraction(-big)) == f"-{digits}"
    assert fmt_rational(Fraction(2, big)) == f"2/{digits}"
    for q in (Fraction(0), Fraction(-5), Fraction(37, 10), Fraction(-2, 3), 7):
        assert fmt_value(Fraction(q)) == fmt_rational(q) == str(q)
