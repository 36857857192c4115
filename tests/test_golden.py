"""Reports pinned byte for byte against files under tests/golden/.

The golden files hold the JSON report of every corpus program (as
`whiledt corpus` verifies it) and of two small programs whose outputs
print exact values in their symbolic and error forms.  A change that
moves a single byte of a report fails here.

To rewrite the files after an intended report change:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conftest import CORPUS
from whiledt import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS_PROGRAMS = sorted(p.name for p in CORPUS.glob("*.whdt"))

# golden file stem -> `whiledt run` arguments after the program path
RUNS = {
    "symbolic": ["--oracle", "A=primes", "--no-fast-path", "--stages", "0..7"],
    "not_hypernatural": ["--input", "1/2", "--stages", "0..7"],
}


def corpus_report(name):
    report, _ = cli.verify_corpus_file(CORPUS / name)
    return report.to_json()


def run_report(stem):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["run", str(GOLDEN / f"{stem}.whdt"), *RUNS[stem], "--report", "json"]
        )
    return code, out.getvalue()


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_corpus_report_matches_golden(name):
    golden = (GOLDEN / f"{Path(name).stem}.json").read_text(encoding="utf-8")
    assert corpus_report(name) == golden


@pytest.mark.parametrize("stem", sorted(RUNS))
def test_run_report_matches_golden(stem):
    golden = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    code, out = run_report(stem)
    assert out == golden
    assert code == (0 if stem == "symbolic" else 1)


def test_golden_reports_show_exact_values_in_both_forms():
    assert "SymExpr(SymExpr(Affine(0 + 1*primes) / Rat(3)) + Rat(1))" in (
        GOLDEN / "symbolic.json"
    ).read_text(encoding="utf-8")
    assert "must be a hypernatural, got Rat(1/2)" in (
        GOLDEN / "not_hypernatural.json"
    ).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in CORPUS_PROGRAMS:
        (GOLDEN / f"{Path(name).stem}.json").write_text(
            corpus_report(name), encoding="utf-8"
        )
    for stem in RUNS:
        (GOLDEN / f"{stem}.json").write_text(run_report(stem)[1], encoding="utf-8")
    sys.exit(0)
