"""Reports pinned byte for byte against files under tests/golden/.

The golden files hold the JSON report (`<stem>.json`) and the text report
(`<stem>.txt`) of every corpus program (as `whiledt corpus` verifies it)
and of small programs whose outputs print exact values in their symbolic
and error forms, whose integral and non-integral rationals meet in
division, floor, `J`, `infinity` and comparisons, and whose verdicts
include `irregular` and `unbounded -`.  A change that moves a single byte
of either report fails here.

To rewrite the files after an intended report change:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import CORPUS
from whiledt import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS_PROGRAMS = sorted(p.name for p in CORPUS.glob("*.whdt"))

# golden file stem -> (`whiledt run` arguments after the program path,
# exit code)
RUNS = {
    "symbolic": (["--oracle", "A=primes", "--no-fast-path", "--stages", "0..7"], 0),
    "not_hypernatural": (["--input", "1/2", "--stages", "0..7"], 1),
    "int_arith": (["--input", "3,10/3", "--stages", "0..7"], 0),
    "pair_negative": (["--input", "0", "--stages", "0..7"], 1),
    "div_zero": (["--input", "3", "--stages", "0..7"], 1),
    "chain_error": (["--input", "0", "--stages", "0..7"], 1),
    "chain_fuel": (
        ["--input", "0", "--oracle", "A=primes", "--cmp-fuel", "11", "--stages", "0..7"],
        0,
    ),
    "verdicts": (["--input", "1/2", "--stages", "0..7"], 0),
}
STEMS = sorted([Path(name).stem for name in CORPUS_PROGRAMS] + list(RUNS))


def corpus_report(name):
    report, _ = cli.verify_corpus_file(CORPUS / name)
    return report.to_json()


def run_json(path, flags, form="json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", str(path), *flags, "--report", form])
    return code, out.getvalue()


def run_report(stem):
    return run_json(GOLDEN / f"{stem}.whdt", RUNS[stem][0])


def text_report(stem):
    """The text report of a golden run or of a corpus program."""
    if stem in RUNS:
        return run_json(GOLDEN / f"{stem}.whdt", RUNS[stem][0], "text")[1]
    report, _ = cli.verify_corpus_file(CORPUS / f"{stem}.whdt")
    return report.render_text()


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_corpus_report_matches_golden(name):
    golden = (GOLDEN / f"{Path(name).stem}.json").read_text(encoding="utf-8")
    assert corpus_report(name) == golden


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_run_with_header_flags_matches_corpus_golden(name):
    # `whiledt run FILE <header flags>` is the run `whiledt corpus` verifies
    golden = (GOLDEN / f"{Path(name).stem}.json").read_text(encoding="utf-8")
    flags, _ = cli.parse_expectations((CORPUS / name).read_text(encoding="utf-8"))
    assert run_json(CORPUS / name, flags) == (0, golden)


@pytest.mark.parametrize("stem", sorted(RUNS))
def test_run_report_matches_golden(stem):
    golden = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    code, out = run_report(stem)
    assert out == golden
    assert code == RUNS[stem][1]


@pytest.mark.parametrize("stem", STEMS)
def test_text_report_matches_golden(stem):
    assert text_report(stem) == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


def test_golden_reports_cover_every_verdict_class():
    classes = set()
    for stem in STEMS:
        report = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
        for verdict in report["outputs"].values():
            classes.add((verdict["class"], verdict.get("direction")))
    assert classes == {
        ("eventually-constant", None), ("periodic", None), ("convergent", None),
        ("unbounded", "+"), ("unbounded", "-"), ("irregular", None),
        ("insufficient-stages", None),
    }


def test_golden_reports_show_exact_values_in_both_forms():
    assert "SymExpr(SymExpr(Affine(0 + 1*primes) / Rat(3)) + Rat(1))" in (
        GOLDEN / "symbolic.json"
    ).read_text(encoding="utf-8")
    assert "must be a hypernatural, got Rat(1/2)" in (
        GOLDEN / "not_hypernatural.json"
    ).read_text(encoding="utf-8")
    # an integral -1 prints as a rational too
    assert "must be a hypernatural, got Rat(-1)" in (
        GOLDEN / "pair_negative.json"
    ).read_text(encoding="utf-8")


def test_reports_print_values_deeper_than_the_recursion_limit(tmp_path):
    # `output a` after 1,200 shifts: the value is a chain of 1,200 SymExpr
    # products, which the report prints in full and classifies as constant
    prog = tmp_path / "deep.whdt"
    prog.write_text(
        "input x; output a; a := real3(A);"
        " while x != 0 do { a := 3 * a; x := x - 1 }\n"
    )
    flags = ["--input", "1200", "--oracle", "A=evens", "--no-fast-path", "--stages", "0..7"]
    value = "symbolic:" + "SymExpr(Rat(3) * " * 1200 + "Affine(0 + 1*evens)" + ")" * 1200
    code, out = run_json(prog, flags)
    report = json.loads(out)
    assert code == 0
    assert [stage["outputs"]["a"] for stage in report["stages"]] == [value] * 8
    assert report["outputs"]["a"] == {
        "class": "eventually-constant", "value": value, "stabilization_stage": 0,
        "heuristic": False, "standard_part": {"none": "symbolic value"},
    }
    code, out = run_json(prog, flags, "text")
    assert code == 0
    assert f"  a: eventually constant {value} from stage 0\n" in out


if __name__ == "__main__":
    for name in CORPUS_PROGRAMS:
        (GOLDEN / f"{Path(name).stem}.json").write_text(
            corpus_report(name), encoding="utf-8"
        )
    for stem in RUNS:
        (GOLDEN / f"{stem}.json").write_text(run_report(stem)[1], encoding="utf-8")
    for stem in STEMS:
        (GOLDEN / f"{stem}.txt").write_text(text_report(stem), encoding="utf-8")
    sys.exit(0)
