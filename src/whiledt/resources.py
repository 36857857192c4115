"""Per-stage resource metering and the good/bad supertask verdict.

Every discrete step of a run is charged a positive default cost, so any
loop whose iteration count grows with the stage index shows up as a
diverging cost sequence.  A program may additionally declare an "energy"
variable; its per-stage final values give a second, physical view of the
same run.  Both views are reported: a run can be a bad supertask under
raw step metering while its declared energy stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import trend
from .errors import InsufficientStages

GOOD, BAD, UNDETERMINED = "good", "bad", "undetermined"

MIN_STAGES = 8


@dataclass(frozen=True)
class CostModel:
    assign_cost: Fraction = Fraction(1)
    guard_cost: Fraction = Fraction(1)
    oracle_cost: Fraction = Fraction(1)
    clock_vars: frozenset = frozenset()
    energy_var: str | None = None

    def __post_init__(self):
        for name in ("assign_cost", "guard_cost", "oracle_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def with_overrides(self, items):
        """Apply `key=value` overrides (values parsed as exact rationals)."""
        kw = {}
        for key, value in items:
            if key in ("assign_cost", "guard_cost", "oracle_cost"):
                try:
                    kw[key] = Fraction(value)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"{key} expects an exact rational, got {value!r}"
                    ) from None
            elif key == "clock_vars":
                kw["clock_vars"] = frozenset(
                    v.strip() for v in value.split(",") if v.strip()
                )
            elif key == "energy_var":
                kw["energy_var"] = value.strip() or None
            else:
                raise KeyError(f"unknown cost model key {key!r}")
        return replace(self, **kw)


def load_cost_config(path):
    """Read `key = value` lines (comments with #) into override pairs."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            items.append((key.strip(), value.strip()))
    return items


@dataclass
class ResourceLedger:
    total: Fraction = Fraction(0)
    loop_subtotals: dict = field(default_factory=dict)
    oracle_queries: int = 0
    peak_store: int = 0

    def nonloop_total(self):
        return self.total - sum(self.loop_subtotals.values(), Fraction(0))


class Meter:
    """Receives charge events from the evaluator and aggregates a ledger.

    Metering is write-only: it never influences evaluation, so stores are
    identical with metering on or off.  Events are tallied as integer
    counts and priced exactly once, which keeps the per-instruction
    overhead to an integer increment.
    """

    def __init__(self, model=None):
        self.model = model or CostModel()
        self._counts = [0, 0, 0]  # assigns, guards, oracle queries
        self._loops = {}  # loc -> [assigns, guards, oracle queries]
        self._peak = 0

    def _loop_cell(self, while_stack):
        loc = while_stack[-1]
        cell = self._loops.get(loc)
        if cell is None:
            cell = self._loops[loc] = [0, 0, 0]
        return cell

    def charge_assign(self, var, while_stack):
        if var in self.model.clock_vars:
            return
        self._counts[0] += 1
        if while_stack:
            self._loop_cell(while_stack)[0] += 1

    def charge_guard(self, while_stack):
        self._counts[1] += 1
        if while_stack:
            self._loop_cell(while_stack)[1] += 1

    def charge_oracle(self, n, while_stack):
        self._counts[2] += n
        if while_stack:
            self._loop_cell(while_stack)[2] += n

    def note_store(self, size):
        if size > self._peak:
            self._peak = size

    def _price(self, counts):
        m = self.model
        return (
            counts[0] * m.assign_cost
            + counts[1] * m.guard_cost
            + counts[2] * m.oracle_cost
        )

    def ledger(self) -> ResourceLedger:
        return ResourceLedger(
            total=self._price(self._counts),
            loop_subtotals={
                loc: self._price(c) for loc, c in self._loops.items() if self._price(c)
            },
            oracle_queries=self._counts[2],
            peak_store=self._peak,
        )


@dataclass(frozen=True)
class SupertaskClass:
    kind: str  # good | bad | undetermined
    detail: str = ""
    bound: Fraction | None = None


@dataclass(frozen=True)
class SupertaskVerdicts:
    metered: SupertaskClass
    energy: SupertaskClass | None = None


def classify_cost_sequence(schedule, values) -> SupertaskClass:
    """Good when bounded with settling increments, bad when divergent.

    Heuristic by construction: only the observed schedule is consulted.
    """
    if len(values) < MIN_STAGES:
        raise InsufficientStages(
            f"need at least {MIN_STAGES} stages, got {len(values)}"
        )
    ns = list(schedule)
    vs = [Fraction(v) for v in values]
    if trend.divergent_up(ns, vs):
        return SupertaskClass(
            BAD, detail=f"totals grow from {vs[0]} to {vs[-1]} over the schedule"
        )
    if trend.decaying_increments(vs):
        return SupertaskClass(
            GOOD,
            detail="bounded over the observed schedule with shrinking increments",
            bound=max(vs),
        )
    return SupertaskClass(UNDETERMINED, detail="no clear growth or settling trend")


def classify_supertask(schedule, ledgers, energy_values=None) -> SupertaskVerdicts:
    """Classify metered totals and, when given, the energy-variable view."""
    totals = [
        ledger.total if isinstance(ledger, ResourceLedger) else Fraction(ledger)
        for ledger in ledgers
    ]
    metered = classify_cost_sequence(schedule, totals)
    energy = None
    if energy_values is not None:
        energy = classify_cost_sequence(schedule, energy_values)
    return SupertaskVerdicts(metered=metered, energy=energy)


@dataclass(frozen=True)
class BounceSummary:
    counts: tuple
    nondecreasing: bool
    divergent: bool


def bounce_count(seq, var="bounces") -> BounceSummary:
    """Per-stage bounce totals of a ball run, with their cross-stage trend."""
    pairs = seq.halted_pairs(var)
    ns = [n for n, _ in pairs]
    counts = [int(v) for _, v in pairs]
    nondecr = all(b >= a for a, b in zip(counts, counts[1:]))
    return BounceSummary(
        counts=tuple(counts),
        nondecreasing=nondecr,
        divergent=trend.divergent_up(ns, [Fraction(c) for c in counts]),
    )
