"""Per-stage resource metering and the good/bad supertask verdict.

Every discrete step of a run is charged a positive default cost, so any
loop whose iteration count grows with the stage index shows up as a
diverging cost sequence.  A program may additionally declare an "energy"
variable; its per-stage final values give a second, physical view of the
same run.  Both views are reported: a run can be a bad supertask under
raw step metering while its declared energy stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import trend
from .errors import InsufficientStages
from .exactnum import exact, fmt_rational

GOOD, BAD, UNDETERMINED = "good", "bad", "undetermined"

# the CostModel fields that `--cost` and `--cost-config` set
PRICES = ("assign_cost", "guard_cost", "oracle_cost")


@dataclass(frozen=True)
class CostModel:
    assign_cost: Fraction = Fraction(1)
    guard_cost: Fraction = Fraction(1)
    oracle_cost: Fraction = Fraction(1)
    clock_vars: frozenset = frozenset()

    def __post_init__(self):
        for name in PRICES:
            price = getattr(self, name)
            if type(price) is not Fraction:
                object.__setattr__(self, name, price := exact(price))
            if price < 0:
                raise ValueError(f"{name} must be >= 0")

    def with_overrides(self, items):
        """Apply `key=value` price overrides (values parsed as exact rationals)."""
        kw = {}
        for key, value in items:
            if key not in PRICES:
                raise KeyError(f"unknown cost model key {key!r}")
            try:
                kw[key] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{key} expects an exact rational, got {value!r}") from None
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
    oracle_queries: int = 0
    peak_store: int = 0


class Meter:
    """Receives charge events from the evaluator and aggregates a ledger.

    Metering is write-only: it never influences evaluation, so stores are
    identical with metering on or off.  Events are tallied as integer
    counts and priced exactly once, which keeps the per-instruction
    overhead to an integer increment.
    """

    def __init__(self, model):
        self.model = model
        self.assigns = 0
        self.guards = 0
        self.oracle_queries = 0
        self._peak = 0

    def charge_assign(self, var):
        if var not in self.model.clock_vars:
            self.assigns += 1

    def charge_guard(self):
        self.guards += 1

    def charge_oracle(self, n):
        self.oracle_queries += n

    def note_store(self, size):
        if size > self._peak:
            self._peak = size

    def ledger(self) -> ResourceLedger:
        m = self.model
        return ResourceLedger(
            total=self.assigns * m.assign_cost
            + self.guards * m.guard_cost
            + self.oracle_queries * m.oracle_cost,
            oracle_queries=self.oracle_queries,
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
    if len(values) < trend.MIN_STAGES:
        raise InsufficientStages(
            f"need at least {trend.MIN_STAGES} stages, got {len(values)}"
        )
    ns = list(schedule)
    vs = [Fraction(v) for v in values]
    if trend.divergent_up(ns, vs):
        return SupertaskClass(
            BAD,
            detail=f"totals grow from {fmt_rational(vs[0])} to {fmt_rational(vs[-1])}"
            " over the schedule",
        )
    if trend.decaying_increments(vs):
        return SupertaskClass(
            GOOD,
            detail="bounded over the observed schedule with shrinking increments",
            bound=max(vs),
        )
    return SupertaskClass(UNDETERMINED, detail="no clear growth or settling trend")


def classify_supertask(schedule, ledgers, energy_values=None) -> SupertaskVerdicts:
    """Classify the ledgers' metered totals and, when given, the
    energy-variable view."""
    metered = classify_cost_sequence(schedule, [ledger.total for ledger in ledgers])
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
