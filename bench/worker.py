"""One workload in a fresh, single-threaded interpreter.

    python3 -P -s -S bench/worker.py SRC SPEC PROGRAM...

`run.py` starts this process.  Set-up is what a user of `whiledt run` pays
before the first run: importing `whiledt.cli` from SRC and reading and
parsing the workload's program files.  The moment set-up ends is printed
with the result, on the clock `run.py` read just before starting this
process, so set-up time counts the interpreter's own start as well.

After set-up it runs one warm-up round and then whole rounds of the
operations in SPEC until the requested seconds have passed, each one as
`whiledt.cli.main([...])` with standard output captured, and checks every
report.  With tracing on it alternates an untraced round with a traced one.
The last line of standard output is a JSON result for `run.py`.

A shared host can change speed by a quarter and more from one minute to
the next, and every timing with it.  So the worker also times a
fixed pure-Python loop (`calibrate`) before and after set-up and after every
operation, and the timings it reports are scaled to the speed at which that
loop takes `CAL_REF_S`.  The unscaled figures go into the result as well.
"""

import sys
import time

CAL_TURNS = 20_000
# The calibration loop's time on the host of the README's reference figures
# in a quiet spell; a timing scaled by it reads as it would on that host then.
CAL_REF_S = 0.0012
CAL_SETUP_SAMPLES = 22
CAL_WINDOW = 11


def calibrate():
    """Seconds one fixed loop of small-int arithmetic takes right now.  It
    allocates nothing the garbage collector tracks and calls into no part
    of whiledt, so no change to the program moves it."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_TURNS):
        acc += i * i % 7
    return time.perf_counter() - start


def main():
    # Calibration brackets set-up: half of it before, half after.  The time
    # the first half takes is not set-up, so it is taken off `ready`.
    start = time.monotonic()
    setup_cal = [calibrate() for _ in range(CAL_SETUP_SAMPLES // 2)]
    cal_s = time.monotonic() - start
    src, spec_path, programs = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    from whiledt import cli, syntax
    from whiledt.errors import WhdtError

    for path in programs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            syntax.parse_module(text)
        except (WhdtError, RecursionError):
            pass  # the operations that run this file count the failure
    ready = time.monotonic() - cal_s
    setup_cal += [calibrate() for _ in range(CAL_SETUP_SAMPLES - len(setup_cal))]
    measure(src, spec_path, ready, setup_cal)


def measure(src, spec_path, ready, setup_cal):
    import contextlib
    import io
    import json
    import os
    import resource
    import statistics

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from checks import check_report
    from tracer import Tracer
    import whiledt
    from whiledt import cli, exactnum, hyperreal, oracles, report, resources, semantics, syntax

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops, seconds, trace = spec["ops"], spec["seconds"], spec["trace"]
    holders = {
        "syntax": syntax, "semantics": semantics, "cli": cli, "exactnum": exactnum,
        "hyperreal": hyperreal, "Meter": resources.Meter,
        "OracleReal": exactnum.OracleReal, "OracleSet": oracles.OracleSet,
        "Report": report.Report,
    }
    if not whiledt.__file__.startswith(os.path.abspath(src)):
        raise SystemExit(f"whiledt was imported from {whiledt.__file__}, not from {src}")

    state = {"attempted": 0, "failed": 0, "mismatches": [], "reasons": {}, "notes": {},
             "loop_iterations": 0, "oracle_queries": 0}
    latencies, cals = [], []

    def run_round(tracer=None, timed=True):
        wall = 0.0
        for op in ops:
            elapsed = run_op(op, tracer)
            wall += elapsed
            if timed and tracer is None:
                latencies.append(elapsed)
                cals.append(calibrate())
        return wall

    def run_op(op, tracer):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(" ".join(op["argv"][1:]))
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op["argv"])
        except RecursionError as e:
            code, crash = None, e
        elapsed = time.perf_counter() - start
        state["attempted"] += 1
        text = out.getvalue()
        doc = json.loads(text) if text else None
        if doc is not None:
            for row in doc["stages"]:
                state["loop_iterations"] += sum(row["loop_iterations"].values())
                state["oracle_queries"] += row["oracle_queries"]
        if code != 0:
            state["failed"] += 1
            reason = failure_reason(code, crash, doc, err.getvalue())
            state["reasons"][reason] = state["reasons"].get(reason, 0) + 1
            return elapsed
        bad, notes = check_report(doc, op["expect"])
        for note in notes:
            state["notes"][note] = state["notes"].get(note, 0) + 1
        if tracer is not None and op["expect"].get("fast_path"):
            seen = [len(s) for s in tracer.stage_digits]
            ledger = [row["oracle_queries"] for row in doc["stages"]]
            if seen != ledger:
                bad.append(f"distinct digits read per stage {seen} != ledger {ledger}")
        if bad:
            state["mismatches"].append({"argv": op["argv"], "mismatches": bad[:5]})
        return elapsed

    run_round(timed=False)  # warm-up: checked and counted, not timed
    t0 = time.perf_counter()
    untraced, traced, layers = [], [], []
    while True:
        untraced.append(run_round())
        if trace:
            tracer = Tracer()
            tracer.install(holders)
            before = dict(state)
            try:
                wall = run_round(tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracer, wall, before, state))
            if len(traced) == 1:
                with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                    json.dump(tracer.dump(), fh)
        if time.perf_counter() - t0 >= seconds:
            break
    if trace:
        for op in ops:
            if op["expect"].get("roundtrip"):
                roundtrip(op["argv"][1], syntax, state)

    result = {
        "ready": ready,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "correct": not state["mismatches"],
        "mismatches": state["mismatches"][:10],
        "failure_reasons": state["reasons"],
        "notes": state["notes"],
        "rounds": len(untraced),
        "ops_per_round": len(ops),
    }
    if trace:
        # median_low picks one round's value, so counts stay whole numbers
        metrics = {k: statistics.median_low([m[k] for m in layers]) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["layers"] = metrics
    else:
        # Slowdown: how many times longer than CAL_REF_S the calibration
        # loop took.  Each operation's time is scaled by the median slowdown
        # of the CAL_WINDOW samples around it, since the host's speed
        # changes within a run.
        slowdown = [c / CAL_REF_S for c in cals]
        scaled = []
        for i, elapsed in enumerate(latencies):
            near = slowdown[max(0, i - CAL_WINDOW // 2):i + CAL_WINDOW // 2 + 1]
            scaled.append(elapsed / statistics.median(near))
        result["setup_slowdown"] = statistics.median(setup_cal) / CAL_REF_S
        result["run_slowdown"] = statistics.median(slowdown)
        result["wall_ops_per_s"] = len(latencies) / sum(latencies)
        result["wall_op_p50_ms"] = 1000 * statistics.median(latencies)
        result["ops_per_s"] = len(scaled) / sum(scaled)
        result["op_p50_ms"] = 1000 * statistics.median(scaled)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["latencies_s"], result["calibration_s"] = latencies, cals
    print(json.dumps(result))


def failure_reason(code, crash, doc, err):
    if crash is not None:
        tb = crash.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return f"{type(crash).__name__} in {tb.tb_frame.f_code.co_name}"
    if doc is not None:
        kinds = sorted({row["halt"].get("error") or row["halt"]["status"]
                        for row in doc["stages"] if row["halt"]["status"] != "halted"})
        return f"exit {code}: " + ", ".join(kinds)
    return f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"


def layer_metrics(tr, wall, before, after):
    """Per-layer numbers of one traced round."""
    loops = after["loop_iterations"] - before["loop_iterations"]
    eval_s = tr.seconds("semantics.eval_stage")
    parse_s = tr.seconds("syntax.parse_module")
    return {
        "syntax.parse_module_s": parse_s,
        "syntax.expand_macros_s": tr.seconds("syntax.expand_macros"),
        "syntax.check_s": tr.seconds("syntax.check"),
        "syntax.tokens": tr.tokens,
        "syntax.tokens_per_s": tr.tokens / parse_s if parse_s else 0.0,
        "semantics.eval_stage_calls": tr.calls("semantics.eval_stage"),
        "semantics.eval_stage_self_s": tr.self_seconds("semantics.eval_stage"),
        "semantics.loop_iterations": loops,
        "semantics.loop_iterations_per_s": loops / eval_s if eval_s else 0.0,
        "resources.meter_calls": tr.calls("resources.meter"),
        "resources.meter_s": tr.seconds("resources.meter"),
        "resources.classify_supertask_s": tr.seconds("resources.classify_supertask"),
        "exactnum.cmp_holds_calls": tr.calls("exactnum.cmp_holds"),
        "exactnum.cmp_holds_s": tr.seconds("exactnum.cmp_holds"),
        "exactnum.floor_value_calls": tr.calls("exactnum.floor_value"),
        "exactnum.floor_value_s": tr.seconds("exactnum.floor_value"),
        "exactnum.div_calls": tr.calls("exactnum.div"),
        "exactnum.div_s": tr.seconds("exactnum.div"),
        "exactnum.prefix_sum_calls": tr.calls("exactnum.prefix_sum"),
        "exactnum.digit_calls": tr.calls("exactnum.digit"),
        "oracles.member_calls": tr.calls("oracles.member"),
        "oracles.member_s": tr.seconds("oracles.member"),
        "oracles.queries": after["oracle_queries"] - before["oracle_queries"],
        "hyperreal.classify_value_s": tr.seconds("hyperreal.classify_value"),
        "report.to_json_s": tr.seconds("report.to_json"),
        "report.json_bytes": tr.json_bytes,
        "cli.other_s": wall - tr.top_seconds,
    }


def roundtrip(path, syntax, state):
    """The generated main program prints and parses back to itself."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        _, main_program = syntax.parse_module(source)
    except RecursionError:
        return  # a counted failure of the operation itself
    again = syntax.parse_module(syntax.pretty_print(main_program))[1]
    if not same_tree(again, main_program):
        state["mismatches"].append(
            {"argv": path, "mismatches": ["pretty_print round trip differs"]})


def same_tree(a, b):
    """Dataclass equality (fields with compare=False ignored), walked with
    an explicit stack: the generated programs' right-nested statement
    sequences are deeper than the recursion limit that `==` runs into."""
    import dataclasses

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                if f.compare:
                    stack.append((getattr(x, f.name), getattr(y, f.name)))
        elif isinstance(x, (tuple, list)):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


if __name__ == "__main__":
    main()
