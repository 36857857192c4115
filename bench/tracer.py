"""Spans around the calls into each whiledt layer, made from outside.

The tracer replaces module attributes and class methods that the program
calls through (`exactnum.cmp_holds`, `OracleReal.digit`,
`Meter.charge_assign`, ...) with wrappers that open a span on entry and
close it on exit, and puts the originals back on `uninstall`.  A span has
a name, a start, an end and a parent (the span open when it started).  A
span's self time is its duration minus the durations of its child spans.

Inner spans run up to millions of times a round (one per metered
statement), so each is folded into per-name totals when it closes; the
top-level spans of the current operation are kept whole.
"""

import time

# (span name, owner, attribute): `install` resolves each owner name to a
# whiledt module or class and wraps the attribute there.
SPANS = (
    ("syntax.parse_module", "syntax", "parse_module"),
    ("syntax.tokenize", "syntax", "tokenize"),
    ("syntax.expand_macros", "syntax", "expand_macros"),
    ("syntax.check", "syntax", "check"),
    ("semantics.eval_stage", "semantics", "eval_stage"),
    ("resources.meter", "Meter", "charge_assign"),
    ("resources.meter", "Meter", "charge_guard"),
    ("resources.meter", "Meter", "charge_oracle"),
    ("resources.meter", "Meter", "note_store"),
    # cli imports classify_supertask by name, so it is wrapped where cli sees it
    ("resources.classify_supertask", "cli", "classify_supertask"),
    ("exactnum.cmp_holds", "exactnum", "cmp_holds"),
    ("exactnum.floor_value", "exactnum", "floor_value"),
    ("exactnum.div", "exactnum", "div"),
    ("exactnum.prefix_sum", "OracleReal", "prefix_sum"),
    ("exactnum.digit", "OracleReal", "digit"),
    ("oracles.member", "OracleSet", "member"),
    ("hyperreal.classify_value", "hyperreal", "classify_value"),
    ("report.to_json", "Report", "to_json"),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.stack = []  # one cell per open span: seconds of its closed children
        self.top = []  # (name, start, end) of closed spans without a parent
        self.top_seconds = 0.0  # their summed durations, over all operations
        self.ops = []  # (operation label, its top-level spans)
        self.tokens = 0
        self.json_bytes = 0
        # distinct (stream, index) digit reads, one set per eval_stage call
        self.stage_digits = []
        self._saved = []

    def begin_op(self, label):
        self.top = []
        self.ops.append((label, self.top))
        self.stage_digits = []

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kw):
            if before is not None:
                before(args)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - children[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top.append((name, start, end))
                    tracer.top_seconds += dur
            if after is not None:
                after(result)
            return result

        return traced

    # hooks that count work at the span boundaries

    def _count_tokens(self, tokens):
        self.tokens += len(tokens)

    def _count_json(self, text):
        self.json_bytes += len(text)

    def _new_stage(self, args):
        self.stage_digits.append(set())

    def _digit(self, args):
        if self.stage_digits:
            self.stage_digits[-1].add((args[0].name, args[1]))

    def _prefix(self, args):
        if self.stage_digits:
            stream = args[0].name
            self.stage_digits[-1].update((stream, i) for i in range(args[1]))

    def install(self, whiledt):
        """Wrap the functions named in SPANS; `whiledt` maps owner names to
        the modules and classes that hold them."""
        hooks = {
            "syntax.tokenize": (None, self._count_tokens),
            "report.to_json": (None, self._count_json),
            "semantics.eval_stage": (self._new_stage, None),
            "exactnum.digit": (self._digit, None),
            "exactnum.prefix_sum": (self._prefix, None),
        }
        for name, owner, attr in SPANS:
            holder = whiledt[owner]
            fn = getattr(holder, attr)
            before, after = hooks.get(name, (None, None))
            self._saved.append((holder, attr, fn))
            setattr(holder, attr, self._wrap(name, fn, before, after))

    def uninstall(self):
        while self._saved:
            holder, attr, fn = self._saved.pop()
            setattr(holder, attr, fn)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def dump(self):
        """Per-name totals and each operation's top-level spans, for a file."""
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": own}
                      for name, (c, s, own) in sorted(self.stats.items())},
            "ops": [{"op": label, "top_spans": [[n, a, b] for n, a, b in spans]}
                    for label, spans in self.ops],
        }
