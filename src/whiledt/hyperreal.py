"""Classify per-variable stage sequences as hyperreals.

A stage sequence is a finite prefix of the value a program denotes across
ever-finer interpretations of dt, so every verdict except an exactly
constant tail is an extrapolation.  Non-constant verdicts are therefore
labeled heuristic wherever they are reported: the sequence alone cannot
say what a nonprincipal ultrafilter would decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import trend
from .errors import InsufficientStages

MIN_STAGES = 8
UNBOUNDED_ABS_THRESHOLD = Fraction(10**6)
MAX_PERIOD = 8


@dataclass(frozen=True)
class EventuallyConstant:
    value: object  # Fraction | Affine | SymExpr
    stabilization_stage: int
    heuristic: bool = False


@dataclass(frozen=True)
class ConvergentNonconstant:
    limit_estimate: Fraction
    gap_trend: tuple  # successive doubling-tail gaps, as Fractions
    heuristic: bool = True


@dataclass(frozen=True)
class PeriodicPattern:
    period: int
    residues: dict  # n mod period -> value
    heuristic: bool = True

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("period must be >= 2")


@dataclass(frozen=True)
class Unbounded:
    direction: str  # '+' or '-'
    growth_exponent: float | None = None
    heuristic: bool = True


@dataclass(frozen=True)
class Irregular:
    heuristic: bool = True


@dataclass(frozen=True)
class NoStandardPart:
    reason: str


def classify_value(seq, var):
    """Decision ladder: constant tail, exact period, unbounded growth,
    Cauchy trend, else irregular."""
    pairs = seq.halted_pairs(var)
    if len(pairs) < MIN_STAGES:
        raise InsufficientStages(
            f"need at least {MIN_STAGES} halted stages, got {len(pairs)}"
        )
    ns = [n for n, _ in pairs]
    vs = [v for _, v in pairs]

    verdict = _constant_tail(ns, vs)
    if verdict is not None:
        return verdict
    verdict = _periodic(ns, vs)
    if verdict is not None:
        return verdict
    if all(isinstance(v, Fraction) for v in vs):
        verdict = _unbounded(ns, vs)
        if verdict is not None:
            return verdict
        verdict = _convergent(ns, vs)
        if verdict is not None:
            return verdict
    return Irregular()


def _constant_tail(ns, vs):
    # Literal equality over at least half the observed stages (and >= 4).
    last = vs[-1]
    run = 0
    for v in reversed(vs):
        if v != last:
            break
        run += 1
    need = max(4, math.ceil(len(vs) / 2))
    if run < need:
        return None
    return EventuallyConstant(value=last, stabilization_stage=ns[len(vs) - run])


def _periodic(ns, vs):
    for p in range(2, MAX_PERIOD + 1):
        residues = {}
        ok = True
        for n, v in zip(ns, vs):
            r = n % p
            if r in residues:
                if residues[r] != v:
                    ok = False
                    break
            else:
                residues[r] = v
        if not ok or len(residues) < p:
            continue
        if len(set(residues.values())) < 2:
            continue  # all classes equal would have been a constant tail
        if not _has_consecutive_run(ns, 3 * p):
            continue
        return PeriodicPattern(period=p, residues=dict(sorted(residues.items())))
    return None


def _has_consecutive_run(ns, length):
    run = 1
    for a, b in zip(ns, ns[1:]):
        run = run + 1 if b == a + 1 else 1
        if run >= length:
            return True
    return length <= 1


def _unbounded(ns, vs):
    mono = trend.strictly_monotone_tail(vs)
    if mono == 1 and vs[-1] > UNBOUNDED_ABS_THRESHOLD:
        return Unbounded("+", growth_exponent=_growth_exponent(ns, vs))
    if mono == -1 and -vs[-1] > UNBOUNDED_ABS_THRESHOLD:
        return Unbounded("-", growth_exponent=_growth_exponent(ns, [-v for v in vs]))
    if trend.divergent_up(ns, vs):
        return Unbounded("+", growth_exponent=_growth_exponent(ns, vs))
    if trend.divergent_down(ns, vs):
        return Unbounded("-", growth_exponent=_growth_exponent(ns, [-v for v in vs]))
    return None


def _growth_exponent(ns, vs):
    # Informational only: log-log slope over the last doubling-ish pair.
    try:
        mid = len(ns) // 2
        v0, v1 = vs[mid], vs[-1]
        n0, n1 = ns[mid] + 1, ns[-1] + 1
        if v0 <= 0 or v1 <= 0 or n0 == n1:
            return None
        return round(math.log(v1 / v0) / math.log(Fraction(n1, n0)), 3)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _convergent(ns, vs):
    # Gap halving along the doubling tail of the schedule (n -> 2n+1).
    idx = trend.doubling_suffix(ns)
    if len(idx) < 4:
        return None
    tail = [vs[i] for i in idx]
    g = trend.gaps(tail)
    if any(x == 0 for x in g):
        return None
    for a, b in zip(g, g[1:]):
        if 2 * abs(b) > abs(a):
            return None
    # Geometric extrapolation assuming the observed halving continues.
    return ConvergentNonconstant(
        limit_estimate=vs[-1] + g[-1], gap_trend=tuple(g)
    )


def standard_part(cls):
    """Shadow of the classified value: a rational, or a reasoned refusal."""
    if isinstance(cls, EventuallyConstant):
        if isinstance(cls.value, Fraction):
            return cls.value
        return NoStandardPart("symbolic value")
    if isinstance(cls, ConvergentNonconstant):
        return cls.limit_estimate
    if isinstance(cls, PeriodicPattern):
        return NoStandardPart("ultrafilter-dependent")
    if isinstance(cls, Unbounded):
        return NoStandardPart("infinite")
    if isinstance(cls, Irregular):
        return NoStandardPart("unclassified")
    raise TypeError(f"not a hyperreal class: {cls!r}")


def ultrafilter_report(cls):
    """One candidate final value per residue class of the stage index.

    Any nonprincipal ultrafilter concentrates on exactly one class mod p,
    so exactly one of these candidates is "the" value - which one is not
    determined by any finite prefix.
    """
    if not isinstance(cls, PeriodicPattern):
        raise TypeError("ultrafilter candidates exist only for periodic patterns")
    return [(r, cls.residues[r]) for r in sorted(cls.residues)]
