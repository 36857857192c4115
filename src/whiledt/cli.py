"""Command-line front end.

    whiledt run PROGRAM [options]     run a program over a stage schedule
    whiledt corpus [options]          verify the bundled program corpus

Exit codes: 0 success, 1 runtime or classification failure, 2 usage (a
program nested deeper than the parser's limit is one).
All numeric flag values are exact rationals (`3.7`, `-2/3`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import exactnum, hyperreal, oracles, semantics, syntax
from .errors import (
    EvalError,
    InsufficientStages,
    MacroError,
    NestingTooDeep,
    ParseError,
    WhdtError,
)
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

    def integer(text, what):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"bad {what} {text.strip()!r} in schedule {spec!r}") from None

    stages = []
    for item in base.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty item in schedule {spec!r}")
        if ".." in item:
            a, _, b = item.partition("..")
            lo, hi = integer(a, "stage"), integer(b, "stage")
            if hi < lo:
                raise ValueError(f"bad range {item!r}")
            stages.extend(range(lo, hi + 1))
        else:
            stages.append(integer(item, "stage"))
    if suffix:
        if not suffix.startswith("doubling:"):
            raise ValueError(f"unknown schedule suffix {suffix!r}")
        k = integer(suffix.split(":", 1)[1], "doubling count")
        if k < 0:
            raise ValueError(f"doubling count must be >= 0 in schedule {spec!r}")
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
        form = "finite:N,N,... with naturals N"
        items = [_natural(v, src, form) for v in src.partition(":")[2].split(",") if v.strip()]
        return oracles.finite_set(name, items)
    if src.startswith("bitfile:"):
        return oracles.bitfile_set(name, src[len("bitfile:"):])
    if src.startswith("graph:"):
        macro, _, bound = src[len("graph:"):].partition(":")
        if not bound:
            raise ValueError(f"a graph oracle expects graph:MACRO:BOUND, got {src!r}")
        fn = oracles.macro_callable(defs, macro)
        n = _natural(bound, src, "graph:MACRO:BOUND with a natural BOUND")
        return oracles.graph_oracle(fn, n, name=f"graph:{macro}:{bound}")
    raise ValueError(f"unknown oracle source {src!r}")


def _natural(text, src, form):
    """int(text) when that is a natural; else a ValueError naming `form`."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"a {src.partition(':')[0]} oracle expects {form}, got {src!r}")
    return n


class Exit(Exception):
    """An early exit of `whiledt`: its exit code and message lines."""

    def __init__(self, code, *lines):
        super().__init__(*lines)
        self.code = code
        self.lines = lines


def load_run(args) -> dict:
    """The one path from `run` arguments to `build_run_report`'s keyword
    arguments: read, parse, expand and check the program, then parse the
    inputs, schedule, cost model and oracle bindings.  Raises Exit."""
    path = Path(args.program)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as e:
        raise Exit(2, f"cannot read {path}: {e}")
    try:
        defs, main = syntax.parse_module(source)
        program = syntax.expand_macros(defs, main)
    except (ParseError, MacroError) as e:
        raise Exit(2 if isinstance(e, NestingTooDeep) else 1, f"{path}: {e}")
    diags = syntax.check(program)
    if diags:
        raise Exit(1, *(f"{path}: {d}" for d in diags))
    try:
        if args.fuel <= 0 or args.cmp_fuel <= 0:
            raise ValueError("--fuel and --cmp-fuel must be positive")
        inputs = [parse_rational(v) for f in args.input or () for v in f.split(",")]
        stages = args.stages
        schedule = parse_schedule(stages) if isinstance(stages, str) else list(stages)
        items = load_cost_config(args.cost_config) if args.cost_config else []
        for kv in args.cost or ():
            if "=" not in kv:
                raise ValueError(f"--cost expects KEY=VAL, got {kv!r}")
            items.append(tuple(kv.split("=", 1)))
        model = CostModel(clock_vars=frozenset(args.clock_var or ())).with_overrides(items)
        binding = {}
        descr = {}
        for spec in args.oracle or ():
            if "=" not in spec:
                raise ValueError(f"--oracle expects NAME=SRC, got {spec!r}")
            oname, src = (part.strip() for part in spec.split("=", 1))
            if oname in binding:
                raise ValueError(f"oracle {oname!r} is bound twice")
            binding[oname] = resolve_oracle(oname, src, defs)
            descr[oname] = src
    except (ValueError, KeyError, OSError, MacroError) as e:
        raise Exit(2, str(e))
    if len(inputs) != len(program.inputs):
        raise Exit(
            2, f"program takes {len(program.inputs)} input(s), got {len(inputs)}"
        )
    missing = sorted(program.oracles - set(binding))
    if missing:
        raise Exit(1, f"program requires unbound oracle(s): {', '.join(missing)}")
    return dict(
        program=program,
        name=path.name,
        inputs=inputs,
        schedule=schedule,
        binding=binding,
        oracle_descr=descr,
        step_fuel=args.fuel,
        cmp_fuel=args.cmp_fuel,
        cost_model=model,
        use_fast_path=not args.no_fast_path,
        energy_var=args.energy_var or None,
    )


def build_run_report(program, name, inputs, schedule, binding, oracle_descr, **run_kw):
    """Execute the stages and assemble the full report; returns
    (report, all_stages_halted).  `run_kw` goes to `eval_stages`."""
    seq = eval_stages(program, inputs, schedule, oracles=binding, **run_kw)
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
    energy = seq.energy_values and [seq.energy_values[i] for i in halted]
    for i, v in zip(halted, energy or ()):
        if not isinstance(v, Fraction):
            what = "unassigned" if v is None else "symbolic"
            warnings.append(f"supertask: energy variable {seq.energy_var!r}"
                            f" is {what} at stage {seq.schedule[i]}")
            energy = None
            break
    try:
        supertask = classify_supertask(
            [seq.schedule[i] for i in halted], [seq.ledgers[i] for i in halted], energy
        )
    except InsufficientStages as e:
        warnings.append(f"supertask: {e}")
    report = Report(
        program=name,
        inputs=inputs,
        oracles=oracle_descr,
        seq=seq,
        verdicts=verdicts,
        supertask=supertask,
        warnings=warnings,
    )
    return report, len(halted) == len(seq.schedule)


def cmd_run(args) -> int:
    try:
        report, ok = build_run_report(**load_run(args))
    except (EvalError, WhdtError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(report.to_json() if args.report == "json" else report.render_text())
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Corpus verification


EXPECT_PREFIX = "# expect-"
# header keys that are the `whiledt run` flag of the same name
RUN_FLAG_KEYS = ("input", "oracle", "stages", "energy-var", "clock-var")


def parse_expectations(source):
    """Structured `# expect-key: value` comment header of a corpus file.

    Returns (flags, expected): the `whiledt run` flags the header names,
    and the verdicts it expects, {"output": {var: descriptor}} plus
    "supertask" and "energy-supertask" when given."""
    flags, expected = [], {"output": {}}
    seen_any = False
    for raw in source.splitlines():
        line = raw.strip()
        if not line.startswith(EXPECT_PREFIX):
            continue
        seen_any = True
        key, _, value = line[len(EXPECT_PREFIX):].partition(":")
        key, value = key.strip(), value.strip()
        if key in RUN_FLAG_KEYS:
            flags.append(f"--{key}={value}")
        elif key == "output":
            var, _, verdict = value.partition("=")
            expected["output"][var.strip()] = verdict.strip()
        elif key in ("supertask", "energy-supertask"):
            expected[key] = value
        else:
            raise ValueError(f"unknown expectation key {key!r}")
    if not seen_any:
        raise ValueError("missing expectation header (# expect-... comments)")
    return flags, expected


def verify_corpus_file(path):
    """Run one corpus program as `whiledt run PATH <header flags>` and
    check the verdicts its header expects.

    Returns (report, failures) where failures is a list of mismatch
    descriptions (empty means the file passes).
    """
    flags, expected = parse_expectations(Path(path).read_text(encoding="utf-8"))
    try:
        # `--` keeps a path that starts with `-` from reading as a flag
        args = parse_argv(["run", *flags, "--", str(path)])
        report, ok = build_run_report(**load_run(args))
    except Exit as e:
        return None, list(e.lines)
    failures = []
    if not ok:
        failures.append("not all stages halted")
    for var, want in expected["output"].items():
        actual = verdict_descriptor(report.verdicts.get(var))
        if actual != want:
            failures.append(f"output {var}: expected {want!r}, got {actual!r}")
    st = report.supertask
    for key, actual in (
        ("supertask", st.metered.kind if st else "unclassified"),
        ("energy-supertask", st.energy.kind if st and st.energy else "unclassified"),
    ):
        if key in expected and actual != expected[key]:
            failures.append(
                f"{key.replace('-', ' ')}: expected {expected[key]!r}, got {actual!r}"
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


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="whiledt",
        description="Run While-dt programs over stage schedules and classify"
        " their outputs as hyperreals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a program over a stage schedule")
    run.add_argument("program", help="path to a .whdt source file")
    # repeatable flags default to None: [] can only be a `--flag=--`
    run.add_argument("--input", action="append", metavar="RAT",
                     help="input value (exact rational); repeat or comma-separate")
    run.add_argument("--stages", default=DEFAULT_SCHEDULE, metavar="SPEC",
                     help="stage schedule, e.g. 0..15, 0,3,9 or 0..7+doubling:2"
                          " (default: 0..15, then doubling 3 times)")
    run.add_argument("--fuel", type=int, default=semantics.DEFAULT_STEP_FUEL,
                     help="step budget per stage")
    run.add_argument("--cmp-fuel", type=int, default=exactnum.DEFAULT_FUEL,
                     help="digit-query budget per exact comparison")
    run.add_argument("--oracle", action="append", metavar="NAME=SRC",
                     help="bind an oracle: primes|evens|squares|finite:..|"
                          "bitfile:PATH|graph:MACRO:BOUND")
    run.add_argument("--energy-var", metavar="NAME",
                     help="program variable watched as physical energy")
    run.add_argument("--clock-var", action="append", metavar="NAME",
                     help="assignment to NAME costs nothing (pure time passage)")
    run.add_argument("--cost", action="append", metavar="KEY=VAL",
                     help="cost model override (assign_cost, guard_cost, oracle_cost)")
    run.add_argument("--cost-config", metavar="PATH",
                     help="key = value file with cost model settings")
    run.add_argument("--report", choices=("text", "json"), default="text")
    run.add_argument("--no-fast-path", action="store_true",
                     help="fold no arithmetic on oracle constants into an Affine; a bare "
                          "constant or its negation still refines digit by digit")
    run.set_defaults(func=cmd_run)
    corpus = sub.add_parser("corpus", help="verify the bundled corpus")
    corpus.add_argument("--dir", help=f"corpus directory (or ${CORPUS_ENV})")
    corpus.add_argument("--report", choices=("text", "json"), default="text")
    corpus.set_defaults(func=cmd_corpus)
    return parser


def parse_argv(argv):
    """Parsed `whiledt` arguments.  Raises Exit for a `--flag=--`, which
    Python 3.11's argparse reads as an empty list where a value should be."""
    args = build_arg_parser().parse_args(argv)
    for value in vars(args).values():
        if value == [] or isinstance(value, list) and [] in value:
            raise Exit(2, "`--` is not a flag value")
    return args


def main(argv=None) -> int:
    try:
        args = parse_argv(argv)
        return args.func(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except Exit as e:
        for line in e.lines:
            print(f"error: {line}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
