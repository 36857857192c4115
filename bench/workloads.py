"""Seeded workload inputs and the references their reports are checked
against.

Every expected value here is computed without whiledt: floors by integer
division, set membership by trial division, parity and `isqrt`, the dt
loops by closed formulas, the ball by re-running its recurrence in plain
`Fraction` arithmetic, and generated programs by the values the generator
tracks while it emits them.  Each workload function returns one round: the
list of operations every run repeats, plus the program files they read.

An operation is a dict with `argv` (arguments to `whiledt.cli.main`) and
`expect` (what `checks.check_report` compares the JSON report against).
"""

import math
import os
import random
from fractions import Fraction

CORPUS = os.path.join("src", "whiledt", "corpus")
FLOOR_STAGES = "0..7"
DEEP_STAGES = "0..15+doubling:8"  # 24 stages, the last one 4095


def corpus_path(name):
    return os.path.join(CORPUS, name)


def stage_list(spec):
    """Stage indices of a `lo..hi[+doubling:k]` schedule."""
    base, _, suffix = spec.partition("+")
    lo, _, hi = base.partition("..")
    stages = list(range(int(lo), int(hi) + 1))
    if suffix:
        for _ in range(int(suffix.split(":")[1])):
            stages.append(2 * stages[-1] + 1)
    return stages


def read_headers(path):
    """The `# expect-key: value` lines of a corpus file, as (key, value)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# expect-"):
                key, _, value = line[len("# expect-"):].partition(":")
                out.append((key.strip(), value.strip()))
    return out


# The corpus verifier runs a program without `# expect-stages` on this one.
DEFAULT_STAGES = "0..15+doubling:3"


def header_expect(path, inputs, oracles, stages):
    """What the corpus header states, when the header's case is this one.

    Returns {} when the header describes another input or oracle binding.
    Otherwise a dict with the stated `verdicts` (var -> descriptor), the
    stated `supertask` and `energy_supertask` classes, and `same_schedule`:
    whether the operation runs the schedule the header was written for.
    """
    heads = read_headers(path)
    h_inputs = [Fraction(v) for k, v in heads if k == "input"]
    h_oracles = {}
    for k, v in heads:
        if k == "oracle":
            name, _, src = v.partition("=")
            h_oracles[name.strip()] = src.strip()
    if h_inputs != [Fraction(v) for v in inputs] or h_oracles != oracles:
        return {}
    h_stages = dict(heads).get("stages", DEFAULT_STAGES)
    out = {"verdicts": {}, "same_schedule": stage_list(h_stages) == stage_list(stages)}
    for k, v in heads:
        if k == "output":
            var, _, verdict = v.partition("=")
            out["verdicts"][var.strip()] = verdict.strip()
        elif k == "supertask":
            out["supertask"] = v
        elif k == "energy-supertask":
            out["energy_supertask"] = v
    return out


def _merge_header(expect, path, inputs, oracles, stages):
    head = header_expect(path, inputs, oracles, stages)
    if head:
        expect["header"] = head
    return expect


def _run_argv(path, stages, *extra):
    return ["run", path, "--stages", stages, "--report", "json", *extra]


# ---------------------------------------------------------------------------
# floor_sweep


FLOOR_FIXED = (Fraction(37, 10), Fraction(-23, 10), Fraction(0), Fraction(-1))
FLOOR_GROUPS = 25
FLOOR_NUM = 50_000
FLOOR_DEN = 1000


def floor_inputs(rng):
    """The four fixed cases plus 25 groups of four p/q, |p| <= 50,000.

    floor.whdt turns about |x| times per stage, and a turn costs about
    twice as much for x > 0 as for x < 0 (the first comparison chain fails
    on its second test instead of its first).  So a plain uniform draw puts
    most of a round's work into the few draws with a small denominator and
    positive sign, and the round's cost swings with the seed.  Instead the
    denominators sit at the midpoints of 25 equal strata of 1..1000, each
    stratum is paired by a fixed permutation with one of 25 strata of
    0..50,000, the seed draws the numerator a inside its stratum, and each
    group holds a/q and its mirror (50,000 - a)/q, each with both signs.
    Every round then does nearly the same work in both kinds of turn and
    has nearly the same median input, whatever the seed.
    """
    strata = list(range(FLOOR_GROUPS))
    random.Random("floor-strata").shuffle(strata)
    xs = list(FLOOR_FIXED)
    width = FLOOR_NUM // FLOOR_GROUPS
    for j, s in enumerate(strata):
        q = FLOOR_DEN * (2 * j + 1) // (2 * FLOOR_GROUPS)
        a = rng.randrange(s * width, (s + 1) * width)
        for p in (a, FLOOR_NUM - a):
            xs += [Fraction(p, q), Fraction(-p, q)]
    rng.shuffle(xs)
    return xs


def floor_op(x):
    path = corpus_path("floor.whdt")
    y = str(x.numerator // x.denominator)
    expect = {
        "stages": [{"n": n, "outputs": {"y": y}} for n in stage_list(FLOOR_STAGES)],
        "verdicts": {"y": f"constant {y}"},
    }
    _merge_header(expect, path, [x], {}, FLOOR_STAGES)
    return {"argv": _run_argv(path, FLOOR_STAGES, f"--input={x}"), "expect": expect}


def floor_sweep(rng):
    return [floor_op(x) for x in floor_inputs(rng)], [corpus_path("floor.whdt")]


# ---------------------------------------------------------------------------
# oracle_decide


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


MEMBER = {
    "primes": _is_prime,
    "evens": lambda n: n % 2 == 0,
    "squares": lambda n: math.isqrt(n) ** 2 == n,
}

DECIDE_BLOCK = 6  # one fast-path input per block of 6 in 0..89
DECIDE_BLOCKS = 15
# Fast-path inputs from 90 on fail today (the digit budget is spent
# quadratically); they do not depend on the seed, so every run fails the
# same share of its operations.
DECIDE_FIXED = (90, 105)
# Per set, the block whose drawn input also runs on the interval route
# (low, middle and high x across the three sets), and an input past the
# fast path's limit that the interval route resolves.
DECIDE_INTERVAL_BLOCK = {"primes": 2, "evens": 7, "squares": 12}
DECIDE_INTERVAL_FIXED = 105


def decide_inputs(rng):
    """(set, x, fast) triples of one round."""
    out = []
    for name in MEMBER:
        drawn = [DECIDE_BLOCK * b + rng.randrange(DECIDE_BLOCK) for b in range(DECIDE_BLOCKS)]
        for x in drawn + list(DECIDE_FIXED):
            out.append((name, x, True))
        for x in (drawn[DECIDE_INTERVAL_BLOCK[name]], DECIDE_INTERVAL_FIXED):
            out.append((name, x, False))
    rng.shuffle(out)
    return out


def decide_op(name, x, fast):
    """decide.whdt on x with A bound to the named set; on the fast path
    each stage reads exactly the digits 0..x."""
    path = corpus_path("decide.whdt")
    y = "1" if MEMBER[name](x) else "0"
    stages = []
    for n in stage_list(FLOOR_STAGES):
        row = {"n": n, "outputs": {"y": y}}
        if fast:
            row["oracle_queries"] = x + 1
        stages.append(row)
    expect = {"stages": stages, "verdicts": {"y": f"constant {y}"}, "fast_path": fast}
    _merge_header(expect, path, [x], {"A": name}, FLOOR_STAGES)
    extra = [f"--input={x}", "--oracle", f"A={name}"]
    if not fast:
        extra.append("--no-fast-path")
    return {"argv": _run_argv(path, FLOOR_STAGES, *extra), "expect": expect}


def oracle_decide(rng):
    ops = [decide_op(name, x, fast) for name, x, fast in decide_inputs(rng)]
    return ops, [corpus_path("decide.whdt")]


# ---------------------------------------------------------------------------
# deep_dt


def ball_reference(n):
    """ball.whdt at stage n, re-run in Fraction arithmetic.

    Returns (bounces, energy, loop turns, assignments, guards).
    """
    dt = Fraction(1, n + 1)
    time, height, speed, bounces, energy, above = 0, Fraction(1), Fraction(0), 0, Fraction(2), 1
    assigns, guards, turns = 6, 0, 0
    while True:
        guards += 1
        if not time < 4:
            break
        turns += 1
        time += dt
        speed -= 2 * dt
        height += speed * dt
        assigns += 3
        guards += 1
        if height <= 0 and speed < 0:
            guards += 1
            if above == 1:
                bounces += 1
                assigns += 1
            speed = Fraction(-1, 2) * speed
            assigns += 1
        guards += 1
        above = 1 if height > 0 else 0
        energy = 2 * height + speed * speed / 2
        assigns += 2
    return bounces, energy, turns, assigns, guards


def dt_loop_reference(n):
    """thomson.whdt and inf-elim.whdt at stage n: (turns, assigns, guards).

    t (or time) reaches 1 after exactly n+1 steps of 1/(n+1); two
    assignments start the program and two run per turn.
    """
    turns = n + 1
    return turns, 2 + 2 * turns, turns + 1


def _cost(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def deep_op(prog, a_cost, g_cost, schedule=DEEP_STAGES):
    """ball.whdt, thomson.whdt or inf-elim.whdt under the given step costs."""
    path = corpus_path(prog)
    rows = []
    for n in stage_list(schedule):
        if prog == "ball.whdt":
            bounces, energy, turns, assigns, guards = ball_reference(n)
            row = {"n": n, "outputs": {"bounces": str(bounces), "energy": str(energy)},
                   "energy": str(energy), "energy_max": "2"}
        else:
            turns, assigns, guards = dt_loop_reference(n)
            var, value = ("lamp", turns % 2) if prog == "thomson.whdt" else ("u", turns)
            row = {"n": n, "outputs": {var: str(value)}}
        row["loop_turns"] = turns
        row["cost_total"] = str(assigns * a_cost + guards * g_cost)
        rows.append(row)
    extra = ["--cost", f"assign_cost={a_cost}", "--cost", f"guard_cost={g_cost}"]
    if prog == "ball.whdt":
        extra += ["--energy-var", "energy"]
    expect = _merge_header({"stages": rows}, path, [], {}, schedule)
    return {"argv": _run_argv(path, schedule, *extra), "expect": expect}


def deep_dt(rng):
    programs = ("ball.whdt", "thomson.whdt", "inf-elim.whdt")
    ops = [deep_op(prog, _cost(rng), _cost(rng)) for prog in programs]
    rng.shuffle(ops)
    return ops, sorted({op["argv"][1] for op in ops})


# ---------------------------------------------------------------------------
# long_programs


def _deck(rng, items):
    """Endless draw from shuffled copies of items: a seeded order with
    fixed proportions, so every program of a size costs about the same."""
    while True:
        pile = list(items)
        rng.shuffle(pile)
        yield from pile


class _Gen:
    """Emits a random While-dt program and tracks its values while it does.

    Each emitted statement comes with an effect: a Python function on a
    dict of exact values that does what the statement does.  Running the
    effects is how the generator knows every variable's final value; no
    part of whiledt is involved.
    """

    VARS = ("v0", "v1", "v2", "v3", "v4", "v5")
    BOUND = 10**6
    # Top-level statement mix per 25: assignments, macro calls, two-armed
    # ifs and bounded whiles.  Bodies hold assignments and calls only.
    TOP = ("assign",) * 15 + ("call",) * 5 + ("if",) * 3 + ("while",) * 2
    INNER = ("assign",) * 3 + ("call",)

    def __init__(self, rng, straight=False):
        self.rng = rng
        self.count = 0
        self.top = _deck(rng, ("assign",) if straight else self.TOP)
        self.inner = _deck(rng, self.INNER)
        self.trips = _deck(rng, (1, 2, 3))
        self.kinds = _deck(rng, range(7))
        self.macros = self._macros()

    # -- expressions: (text, function of the value dict)

    def expr(self):
        r = self.rng
        a, b = r.choice(self.VARS), r.choice(self.VARS)
        c = r.randint(2, 9)
        kind = next(self.kinds)
        if kind == 0:
            return f"{a} + {b}", lambda s: s[a] + s[b]
        if kind == 1:
            return f"{a} - {c}", lambda s: s[a] - c
        if kind == 2:
            return f"{c} * {a} - {b}", lambda s: c * s[a] - s[b]
        if kind == 3:
            return f"floor({a} / {c})", lambda s: Fraction(math.floor(s[a] / c))
        if kind == 4:
            return f"{a} / {c} + {b}", lambda s: s[a] / c + s[b]
        if kind == 5:
            return f"-{a} + {c}", lambda s: -s[a] + c
        return f"({a} + {c}) * 2", lambda s: (s[a] + c) * 2

    def cond(self):
        a = self.rng.choice(self.VARS)
        c = self.rng.randint(-20, 20)
        op = self.rng.choice(("<", "<=", ">", ">=", "!="))
        test = {"<": lambda x: x < c, "<=": lambda x: x <= c, ">": lambda x: x > c,
                ">=": lambda x: x >= c, "!=": lambda x: x != c}[op]
        return f"{a} {op} {c}" if c >= 0 else f"{a} {op} -{-c}", lambda s: test(s[a])

    # -- macros: def M(p, q) -> r { ... }, effect maps (p, q) to r

    def _macros(self):
        r = self.rng
        out = []
        for k in range(3):
            c1, c2, c3 = r.randint(2, 7), r.randint(1, 9), r.randint(2, 5)
            text = (
                f"def M{k}(p, q) -> r {{\n"
                f"  r := p - {c1} * q;\n"
                f"  if r > {c2} then r := floor(r / {c3}) else r := r + q\n"
                f"}}\n"
            )

            def fn(p, q, c1=c1, c2=c2, c3=c3):
                v = p - c1 * q
                return Fraction(math.floor(v / c3)) if v > c2 else v + q

            out.append((text, fn))
        return out

    # -- statements: (text, effect)

    def simple(self, kind):
        self.count += 1
        r = self.rng
        v = r.choice(self.VARS)
        if kind == "assign":
            text, f = self.expr()
            return f"{v} := {text}", lambda s: s.__setitem__(v, f(s))
        a, b = r.choice(self.VARS), r.choice(self.VARS)
        k = r.randrange(len(self.macros))
        c = r.randint(1, 5)
        fn = self.macros[k][1]
        return f"{v} := M{k}({a} + {c}, {b})", lambda s: s.__setitem__(v, fn(s[a] + c, s[b]))

    def body(self, n):
        stmts = [self.simple(next(self.inner)) for _ in range(n)]

        def run(s):
            for _, f in stmts:
                f(s)

        return "; ".join(t for t, _ in stmts), run

    def statement(self):
        kind = next(self.top)
        if kind in ("assign", "call"):
            return self.simple(kind)
        if kind == "if":
            self.count += 1
            text, test = self.cond()
            t_text, t_run = self.body(2)
            e_text, e_run = self.body(2)
            return (f"if {text} then {{ {t_text} }} else {{ {e_text} }}",
                    lambda s: t_run(s) if test(s) else e_run(s))
        # c := 0; while c < T do { c := c + 1; ... } turns exactly T times
        self.count += 3
        trips = next(self.trips)
        b_text, b_run = self.body(2)
        text = f"c := 0; while c < {trips} do {{ c := c + 1; {b_text} }}"

        def run(s):
            for _ in range(trips):
                b_run(s)

        return text, run

    def reduce(self, state):
        """Statements that pull large or finely divided values back."""
        out = []
        for v in self.VARS:
            x = state[v]
            if x.denominator > 1000:
                self.count += 1
                out.append(f"{v} := floor({v})")
                x = state[v] = Fraction(math.floor(x))
            if abs(x) > self.BOUND:
                self.count += 1
                out.append(f"{v} := {v} - 1000 * floor({v} / 1000)")
                state[v] = x - 1000 * math.floor(x / 1000)
        return out

    def program(self, size):
        state = {v: Fraction(self.rng.randint(-50, 50)) for v in self.VARS}
        lines = [f"{v} := {state[v]}" if state[v] >= 0 else f"{v} := -{-state[v]}"
                 for v in self.VARS]
        self.count = len(lines)
        while self.count < size:
            text, run = self.statement()
            run(state)
            lines.append(text)
            lines.extend(self.reduce(state))
        src = "".join(t for t, _ in self.macros)
        src += "input;\noutput v0, v1, v2;\n" + ";\n".join(lines) + "\n"
        return src, {v: state[v] for v in ("v0", "v1", "v2")}


# Sizes (statements) whose content the seed draws; all parse today.  Five
# of the twelve operations have the same size, so the median operation
# falls among programs of one size.
LONG_SIZES = (40, 40, 80, 160, 160, 160, 160, 160, 320, 600)
# Straight-line programs that exceed the parser's recursion depth today.
# Their content comes from a fixed seed, so every run fails the same ones.
LONG_FAILING = (1200, 2400)


def long_programs(rng, workdir):
    """Writes the generated programs under workdir; returns (ops, paths)."""
    ops, paths = [], []
    cases = [(size, rng, False) for size in LONG_SIZES]
    cases += [(size, random.Random(f"long-failing/{size}"), True) for size in LONG_FAILING]
    for i, (size, g_rng, straight) in enumerate(cases):
        src, values = _Gen(g_rng, straight).program(size)
        path = os.path.join(workdir, f"long{i}-{size}.whdt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        outs = {v: str(x) for v, x in values.items()}
        expect = {
            "stages": [{"n": n, "outputs": outs} for n in stage_list(FLOOR_STAGES)],
            "verdicts": {v: f"constant {x}" for v, x in outs.items()},
            "roundtrip": True,
        }
        ops.append({"argv": _run_argv(path, FLOOR_STAGES), "expect": expect})
        paths.append(path)
    return ops, paths


WORKLOADS = ("floor_sweep", "oracle_decide", "deep_dt", "long_programs")


def build(name, seed, workdir):
    """One round of the named workload for this seed: (ops, program paths)."""
    rng = random.Random(f"{name}/{seed}")
    if name == "long_programs":
        return long_programs(rng, workdir)
    return {"floor_sweep": floor_sweep, "oracle_decide": oracle_decide,
            "deep_dt": deep_dt}[name](rng)
