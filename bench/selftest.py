"""Self-test: every report check rejects a perturbed report.

    python3 bench/selftest.py        (from the root of a whiledt checkout)

Each case runs one real operation through `whiledt.cli.main`, checks
that its report passes, then perturbs one value and checks that the
report is rejected.  Exit code 0 when every case behaves, 1 otherwise.
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import workloads as W  # noqa: E402
from checks import check_report  # noqa: E402
from whiledt import cli  # noqa: E402


def report(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(op["argv"])
    if code != 0:
        raise SystemExit(f"operation failed with exit {code}: {op['argv']}")
    return json.loads(out.getvalue())


def off_by_one(doc):
    row = doc["stages"][3]["outputs"]
    row["y"] = str(int(row["y"]) + 1)


def flip_lamp(doc):
    row = doc["stages"][5]["outputs"]
    row["lamp"] = str(1 - int(row["lamp"]))


def _last_digit(text):
    return text[:-1] + str((int(text[-1]) + 1) % 10)


def energy_output_digit(doc):
    row = doc["stages"][-1]["outputs"]
    row["energy"] = _last_digit(row["energy"])


def energy_column_digit(doc):
    row = doc["stages"][-1]
    row["energy"] = _last_digit(row["energy"])


def one_more_query(doc):
    doc["stages"][0]["oracle_queries"] += 1


CASES = (
    ("floor: y off by one", W.floor_op(Fraction(37, 10)), off_by_one),
    ("thomson: lamp parity flipped",
     W.deep_op("thomson.whdt", 1, 1, W.DEFAULT_STAGES), flip_lamp),
    ("ball: last digit of energy output changed",
     W.deep_op("ball.whdt", 1, 1, W.DEFAULT_STAGES), energy_output_digit),
    ("ball: last digit of energy column changed",
     W.deep_op("ball.whdt", Fraction(2, 3), 5, W.DEFAULT_STAGES), energy_column_digit),
    ("decide: one oracle query too many", W.decide_op("primes", 7, True), one_more_query),
)


def main():
    failures = 0
    for name, op, perturb in CASES:
        doc = report(op)
        clean, _ = check_report(doc, op["expect"])
        bad = copy.deepcopy(doc)
        perturb(bad)
        caught, _ = check_report(bad, op["expect"])
        ok = not clean and bool(caught)
        failures += not ok
        detail = caught[0] if caught else "not rejected"
        print(f"{'PASS' if ok else 'FAIL'} {name}: "
              f"{'clean report accepted' if not clean else clean}; {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
