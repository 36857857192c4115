"""Compare a `whiledt run --report json` report with an operation's
expectations from `workloads`.

`check_report` returns the mismatches (an empty list means the report
agrees with every reference value) and notes.  Nothing here imports
whiledt.
"""

from fractions import Fraction


def descriptor(verdict):
    """Compact verdict form of the corpus `# expect-output:` headers."""
    cls = verdict.get("class")
    if cls == "eventually-constant":
        return f"constant {verdict['value']}"
    if cls == "periodic":
        return f"periodic {verdict['period']}"
    if cls == "unbounded":
        return f"unbounded{verdict['direction']}"
    if cls in ("convergent", "irregular"):
        return cls
    return "unclassified"


def _check_stage(row, want):
    bad = []
    n = want["n"]
    if row.get("n") != n:
        return [f"stage row {row.get('n')!r} where stage {n} was expected"]
    if row["halt"].get("status") != "halted":
        bad.append(f"stage {n}: status {row['halt']}")
    for var, value in want["outputs"].items():
        got = row["outputs"].get(var)
        if got != value:
            bad.append(f"stage {n}: {var} = {_short(got)}, expected {_short(value)}")
    if "oracle_queries" in want and row.get("oracle_queries") != want["oracle_queries"]:
        bad.append(f"stage {n}: {row.get('oracle_queries')} oracle queries,"
                   f" expected {want['oracle_queries']}")
    if "loop_turns" in want:
        turns = sum(row.get("loop_iterations", {}).values())
        if turns != want["loop_turns"]:
            bad.append(f"stage {n}: {turns} loop turns, expected {want['loop_turns']}")
    if "cost_total" in want and row.get("cost_total") != want["cost_total"]:
        bad.append(f"stage {n}: cost {row.get('cost_total')}, expected {want['cost_total']}")
    if "energy" in want:
        if row.get("energy") != want["energy"]:
            bad.append(f"stage {n}: energy {_short(row.get('energy'))},"
                       f" expected {_short(want['energy'])}")
        try:
            above = Fraction(row.get("energy")) > Fraction(want["energy_max"])
        except (TypeError, ValueError):
            above = True
        if above:
            bad.append(f"stage {n}: energy is not <= {want['energy_max']}")
    return bad


def _check_verdicts(report, stated):
    bad = []
    for var, verdict in stated.get("verdicts", {}).items():
        got = descriptor(report["outputs"].get(var, {}))
        if got != verdict:
            bad.append(f"output {var}: verdict {_short(got)}, expected {_short(verdict)}")
    supertask = report.get("supertask") or {}
    for key, field in (("supertask", "metered"), ("energy_supertask", "energy")):
        if key in stated:
            got = (supertask.get(field) or {}).get("class")
            if got != stated[key]:
                bad.append(f"{key}: {got}, expected {stated[key]}")
    return bad


def check_report(report, expect):
    """(mismatches, notes) between a parsed JSON report and expectations.

    A corpus header states its verdicts for the schedule the corpus
    verifier runs.  Where the operation runs that schedule, a differing
    verdict is a mismatch; on another schedule it is returned as a note,
    because the classifier's verdicts are heuristics over the stages seen.
    """
    rows, wants = report.get("stages", []), expect["stages"]
    if len(rows) != len(wants):
        return [f"{len(rows)} stage rows, expected {len(wants)}"], []
    bad = []
    for row, want in zip(rows, wants):
        bad += _check_stage(row, want)
    bad += _check_verdicts(report, expect)
    notes = []
    if "header" in expect:
        header = _check_verdicts(report, expect["header"])
        if expect["header"]["same_schedule"]:
            bad += header
        else:
            notes += [f"corpus header, other schedule: {h}" for h in header]
    return bad, notes


def _short(text, width=60):
    text = str(text)
    return text if len(text) <= width else f"{text[:20]}...{text[-20:]} ({len(text)} chars)"
