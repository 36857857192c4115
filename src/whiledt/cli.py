"""Command-line front end.

    whiledt run PROGRAM [options]     run a program over a stage schedule
    whiledt corpus [options]          verify the bundled program corpus

Exit codes: 0 success, 1 runtime or classification failure, 2 usage.
All numeric flag values are exact rationals (`3.7`, `-2/3`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import hyperreal, oracles, semantics, syntax
from .errors import EvalError, InsufficientStages, MacroError, ParseError, WhdtError
from .report import Report, verdict_descriptor
from .resources import CostModel, classify_supertask, load_cost_config
from .semantics import DEFAULT_SCHEDULE, eval_stages

CORPUS_ENV = "WHDT_CORPUS"


def default_corpus_dir():
    return Path(__file__).parent / "corpus"


def parse_rational(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}")


def parse_schedule(spec) -> list:
    """`0..15` (inclusive), comma lists, and a `+doubling:k` suffix that
    keeps doubling the last stage (n -> 2n+1) k more times."""
    base, _, suffix = spec.partition("+")
    stages = []
    for item in base.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty item in schedule {spec!r}")
        if ".." in item:
            a, _, b = item.partition("..")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError(f"bad range {item!r}")
            stages.extend(range(lo, hi + 1))
        else:
            stages.append(int(item))
    if suffix:
        if not suffix.startswith("doubling:"):
            raise ValueError(f"unknown schedule suffix {suffix!r}")
        k = int(suffix.split(":", 1)[1])
        for _ in range(k):
            stages.append(2 * stages[-1] + 1)
    if not stages:
        raise ValueError("schedule is empty")
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ValueError("schedule must be strictly increasing")
    if stages[0] < 0:
        raise ValueError(f"stage indices must be >= 0 in schedule {spec!r}")
    return stages


def resolve_oracle(name, src, defs):
    """Oracle source: primes|evens|squares, finite:1,2,3, bitfile:PATH,
    or graph:MACRO:BOUND (macro looked up in the program file)."""
    if src in ("primes", "evens", "squares"):
        return oracles.builtin_set(src)
    if src.startswith("finite:"):
        items = [int(v) for v in src[len("finite:"):].split(",") if v.strip()]
        return oracles.finite_set(name, items)
    if src.startswith("bitfile:"):
        return oracles.bitfile_set(name, src[len("bitfile:"):])
    if src.startswith("graph:"):
        _, macro, bound = src.split(":", 2)
        fn = oracles.macro_callable(defs, macro)
        return oracles.graph_oracle(fn, int(bound), name=f"graph:{macro}:{bound}")
    raise ValueError(f"unknown oracle source {src!r}")


def build_run_report(
    program,
    name,
    inputs,
    schedule,
    binding,
    oracle_descr,
    *,
    step_fuel=semantics.DEFAULT_STEP_FUEL,
    cmp_fuel=4096,
    cost_model=None,
    use_fast_path=True,
):
    """Execute the stages and assemble the full report; returns
    (report, all_stages_halted)."""
    model = cost_model or CostModel()
    seq = eval_stages(
        program,
        inputs,
        schedule,
        oracles=binding,
        step_fuel=step_fuel,
        cmp_fuel=cmp_fuel,
        cost_model=model,
        use_fast_path=use_fast_path,
    )
    warnings = []
    for n, st in zip(seq.schedule, seq.statuses):
        if not st.ok:
            what = st.error or st.kind
            extra = f" at {st.location}" if st.location else ""
            warnings.append(f"stage {n}: {what}{extra}: {st.message or ''}".rstrip(": "))
    verdicts = {}
    for var in program.outputs:
        try:
            verdicts[var] = hyperreal.classify_value(seq, var)
        except InsufficientStages as e:
            verdicts[var] = None
            warnings.append(f"output {var}: {e}")
        if verdicts[var] is not None and verdicts[var].heuristic:
            warnings.append(
                f"output {var}: verdict is HEURISTIC (finite stage prefix only)"
            )
    supertask = None
    halted = [i for i, st in enumerate(seq.statuses) if st.ok]
    try:
        totals = [seq.ledgers[i].total for i in halted]
        energy = None
        if seq.energy_values is not None:
            energy = []
            for i in halted:
                v = seq.energy_values[i]
                if not isinstance(v, Fraction):
                    raise InsufficientStages(
                        f"energy variable {seq.energy_var!r} is not rational"
                    )
                energy.append(v)
        supertask = classify_supertask(
            [seq.schedule[i] for i in halted], totals, energy
        )
    except InsufficientStages as e:
        warnings.append(f"supertask: {e}")
    report = Report(
        program=name,
        schedule=schedule,
        inputs=inputs,
        oracles=oracle_descr,
        seq=seq,
        verdicts=verdicts,
        supertask=supertask,
        warnings=warnings,
    )
    return report, len(halted) == len(seq.schedule)


def cmd_run(args) -> int:
    path = Path(args.program)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        defs, main = syntax.parse_module(source)
        program = syntax.expand_macros(defs, main)
    except (ParseError, MacroError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 1
    diags = syntax.check(program)
    if diags:
        for d in diags:
            print(f"error: {path}: {d}", file=sys.stderr)
        return 1
    try:
        if args.fuel <= 0 or args.cmp_fuel <= 0:
            raise ValueError("--fuel and --cmp-fuel must be positive")
        inputs = [parse_rational(v) for f in args.input for v in f.split(",")]
        schedule = parse_schedule(args.stages)
        items = load_cost_config(args.cost_config) if args.cost_config else []
        for kv in args.cost:
            if "=" not in kv:
                raise ValueError(f"--cost expects KEY=VAL, got {kv!r}")
            items.append(tuple(kv.split("=", 1)))
        model = CostModel().with_overrides(items)
        if args.clock_var:
            model = model.with_overrides(
                [("clock_vars", ",".join(sorted(set(args.clock_var) | model.clock_vars)))]
            )
        if args.energy_var:
            model = model.with_overrides([("energy_var", args.energy_var)])
        binding = {}
        descr = {}
        for spec in args.oracle:
            if "=" not in spec:
                raise ValueError(f"--oracle expects NAME=SRC, got {spec!r}")
            oname, src = spec.split("=", 1)
            binding[oname.strip()] = resolve_oracle(oname.strip(), src.strip(), defs)
            descr[oname.strip()] = src.strip()
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(inputs) != len(program.inputs):
        print(
            f"error: program takes {len(program.inputs)} input(s),"
            f" got {len(inputs)}",
            file=sys.stderr,
        )
        return 2
    missing = sorted(program.oracles - set(binding))
    if missing:
        print(
            f"error: program requires unbound oracle(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    try:
        report, ok = build_run_report(
            program,
            path.name,
            inputs,
            schedule,
            binding,
            descr,
            step_fuel=args.fuel,
            cmp_fuel=args.cmp_fuel,
            cost_model=model,
            use_fast_path=not args.no_fast_path,
        )
    except (EvalError, WhdtError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(report.to_json() if args.report == "json" else report.render_text())
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Corpus verification


EXPECT_PREFIX = "# expect-"


def parse_expectations(source):
    """Structured `# expect-key: value` comment header of a corpus file."""
    exp = {"inputs": [], "oracles": {}, "outputs": {}, "clock_vars": []}
    seen_any = False
    for raw in source.splitlines():
        line = raw.strip()
        if not line.startswith(EXPECT_PREFIX):
            continue
        seen_any = True
        body = line[len(EXPECT_PREFIX):]
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()
        if key == "input":
            exp["inputs"].append(parse_rational(value))
        elif key == "oracle":
            oname, _, src = value.partition("=")
            exp["oracles"][oname.strip()] = src.strip()
        elif key == "output":
            var, _, verdict = value.partition("=")
            exp["outputs"][var.strip()] = verdict.strip()
        elif key == "supertask":
            exp["supertask"] = value
        elif key == "energy-supertask":
            exp["energy_supertask"] = value
        elif key == "energy-var":
            exp["energy_var"] = value
        elif key == "clock-var":
            exp["clock_vars"].append(value)
        elif key == "stages":
            exp["stages"] = value
        else:
            raise ValueError(f"unknown expectation key {key!r}")
    if not seen_any:
        raise ValueError("missing expectation header (# expect-... comments)")
    return exp


def verify_corpus_file(path):
    """Run one corpus program against its embedded expectations.

    Returns (report, failures) where failures is a list of mismatch
    descriptions (empty means the file passes).
    """
    source = Path(path).read_text(encoding="utf-8")
    exp = parse_expectations(source)
    defs, main = syntax.parse_module(source)
    program = syntax.expand_macros(defs, main)
    diags = syntax.check(program)
    if diags:
        return None, [f"static check: {d}" for d in diags]
    binding = {
        name: resolve_oracle(name, src, defs) for name, src in exp["oracles"].items()
    }
    schedule = parse_schedule(exp.get("stages", "")) if exp.get("stages") else list(
        DEFAULT_SCHEDULE
    )
    model = CostModel(
        clock_vars=frozenset(exp["clock_vars"]),
        energy_var=exp.get("energy_var"),
    )
    report, ok = build_run_report(
        program,
        Path(path).name,
        exp["inputs"],
        schedule,
        binding,
        dict(exp["oracles"]),
        cost_model=model,
    )
    failures = []
    if not ok:
        failures.append("not all stages halted")
    for var, expected in exp["outputs"].items():
        actual = verdict_descriptor(report.verdicts.get(var))
        if actual != expected:
            failures.append(f"output {var}: expected {expected!r}, got {actual!r}")
    if "supertask" in exp:
        actual = report.supertask.metered.kind if report.supertask else "unclassified"
        if actual != exp["supertask"]:
            failures.append(
                f"supertask: expected {exp['supertask']!r}, got {actual!r}"
            )
    if "energy_supertask" in exp:
        actual = (
            report.supertask.energy.kind
            if report.supertask and report.supertask.energy
            else "unclassified"
        )
        if actual != exp["energy_supertask"]:
            failures.append(
                f"energy supertask: expected {exp['energy_supertask']!r}, got {actual!r}"
            )
    return report, failures


def cmd_corpus(args) -> int:
    corpus_dir = Path(args.dir or os.environ.get(CORPUS_ENV) or default_corpus_dir())
    files = sorted(corpus_dir.glob("*.whdt"))
    if not files:
        print(f"error: no .whdt programs in {corpus_dir}", file=sys.stderr)
        return 2
    results = []
    for path in files:
        try:
            report, failures = verify_corpus_file(path)
        except (WhdtError, ValueError, OSError) as e:
            report, failures = None, [str(e)]
        results.append((path.name, report, failures))
    passed = sum(1 for _, _, f in results if not f)
    if args.report == "json":
        import json

        doc = {
            "corpus": str(corpus_dir),
            "passed": passed,
            "total": len(results),
            "programs": [
                {
                    "name": name,
                    "pass": not failures,
                    "failures": failures,
                    "report": report.to_dict() if report else None,
                }
                for name, report, failures in results
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        width = max(len(name) for name, _, _ in results)
        for name, report, failures in results:
            mark = "PASS" if not failures else "FAIL"
            print(f"{name.ljust(width)}  {mark}")
            for f in failures:
                print(f"{' ' * width}  - {f}")
        print(f"{passed}/{len(results)} corpus programs pass")
    return 0 if passed == len(results) else 1


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="whiledt",
        description="Run While-dt programs over stage schedules and classify"
        " their outputs as hyperreals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a program over a stage schedule")
    run.add_argument("program", help="path to a .whdt source file")
    run.add_argument("--input", action="append", default=[], metavar="RAT",
                     help="input value (exact rational); repeat or comma-separate")
    run.add_argument("--stages", default="0..15+doubling:3", metavar="SPEC",
                     help="stage schedule, e.g. 0..15, 0,3,9, 0..15+doubling:3")
    run.add_argument("--fuel", type=int, default=semantics.DEFAULT_STEP_FUEL,
                     help="step budget per stage")
    run.add_argument("--cmp-fuel", type=int, default=4096,
                     help="digit-query budget per exact comparison")
    run.add_argument("--oracle", action="append", default=[], metavar="NAME=SRC",
                     help="bind an oracle: primes|evens|squares|finite:..|"
                          "bitfile:PATH|graph:MACRO:BOUND")
    run.add_argument("--energy-var", metavar="NAME",
                     help="program variable watched as physical energy")
    run.add_argument("--clock-var", action="append", default=[], metavar="NAME",
                     help="assignment to NAME costs nothing (pure time passage)")
    run.add_argument("--cost", action="append", default=[], metavar="KEY=VAL",
                     help="cost model override (assign_cost, guard_cost, oracle_cost)")
    run.add_argument("--cost-config", metavar="PATH",
                     help="key = value file with cost model settings")
    run.add_argument("--report", choices=("text", "json"), default="text")
    run.add_argument("--no-fast-path", action="store_true",
                     help="disable the digit fast path; pure interval refinement")
    run.set_defaults(func=cmd_run)
    corpus = sub.add_parser("corpus", help="verify the bundled corpus")
    corpus.add_argument("--dir", help=f"corpus directory (or ${CORPUS_ENV})")
    corpus.add_argument("--report", choices=("text", "json"), default="text")
    corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
