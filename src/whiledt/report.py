"""One internal report value with deterministic text and JSON renderings.

Rationals are serialized as exact `p/q` strings, so the JSON form is
lossless and byte-stable across repeated runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from . import hyperreal
from .hyperreal import (
    ConvergentNonconstant,
    EventuallyConstant,
    Irregular,
    NoStandardPart,
    PeriodicPattern,
    Unbounded,
)


def fmt_rational(q):
    """`p/q` or `p`, as str(Fraction) writes it, but also for numbers past
    Python's int-to-str digit limit, which does not apply to Decimal."""
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def fmt_value(v):
    if v is None:
        return None
    if isinstance(v, Fraction):
        return fmt_rational(v)
    return f"symbolic:{v!r}"


def fmt_schedule(schedule):
    parts = []
    i = 0
    while i < len(schedule):
        j = i
        while j + 1 < len(schedule) and schedule[j + 1] == schedule[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"{schedule[i]}..{schedule[j]}")
        else:
            parts.extend(str(schedule[k]) for k in range(i, j + 1))
        i = j + 1
    return ",".join(parts)


def verdict_descriptor(cls):
    """Compact form used by corpus expectation matching."""
    if cls is None:
        return "unclassified"
    if isinstance(cls, EventuallyConstant):
        return f"constant {fmt_value(cls.value)}"
    if isinstance(cls, PeriodicPattern):
        return f"periodic {cls.period}"
    if isinstance(cls, Unbounded):
        return f"unbounded{cls.direction}"
    if isinstance(cls, ConvergentNonconstant):
        return "convergent"
    if isinstance(cls, Irregular):
        return "irregular"
    raise TypeError(f"not a hyperreal class: {cls!r}")


def _verdict_dict(cls):
    if cls is None:
        return {"class": "insufficient-stages"}
    part = hyperreal.standard_part(cls)
    if isinstance(part, NoStandardPart):
        part_json = {"none": part.reason}
    else:
        part_json = fmt_value(part)
    if isinstance(cls, EventuallyConstant):
        d = {
            "class": "eventually-constant",
            "value": fmt_value(cls.value),
            "stabilization_stage": cls.stabilization_stage,
        }
    elif isinstance(cls, PeriodicPattern):
        d = {
            "class": "periodic",
            "period": cls.period,
            "residues": {str(r): fmt_value(v) for r, v in sorted(cls.residues.items())},
            "ultrafilter_candidates": [
                {"residue": r, "value": fmt_value(v)}
                for r, v in hyperreal.ultrafilter_report(cls)
            ],
            "note": "a nonprincipal ultrafilter concentrates on exactly one residue class",
        }
    elif isinstance(cls, Unbounded):
        d = {
            "class": "unbounded",
            "direction": cls.direction,
            "growth_exponent": cls.growth_exponent,
        }
    elif isinstance(cls, ConvergentNonconstant):
        d = {
            "class": "convergent",
            "limit_estimate": fmt_value(cls.limit_estimate),
            "gap_trend": [fmt_rational(g) for g in cls.gap_trend],
        }
    elif isinstance(cls, Irregular):
        d = {"class": "irregular"}
    else:
        raise TypeError(f"not a hyperreal class: {cls!r}")
    d["heuristic"] = cls.heuristic
    d["standard_part"] = part_json
    return d


def _status_dict(status):
    d = {"status": status.kind}
    if status.location:
        d["location"] = status.location
    if status.error:
        d["error"] = status.error
        d["message"] = status.message
    return d


def _supertask_dict(st):
    if st is None:
        return None
    d = {"class": st.kind, "detail": st.detail}
    if st.bound is not None:
        d["bound"] = fmt_rational(st.bound)
    return d


@dataclass
class Report:
    program: str
    schedule: list
    inputs: list  # Fractions
    oracles: dict  # name -> source descriptor
    seq: object  # StageSequence
    verdicts: dict  # var -> HyperrealClass | None
    supertask: object  # SupertaskVerdicts | None
    warnings: list = field(default_factory=list)

    def to_dict(self):
        seq = self.seq
        stages = []
        for i, n in enumerate(seq.schedule):
            row = {
                "n": n,
                "dt": str(Fraction(1, n + 1)),
                "halt": _status_dict(seq.statuses[i]),
                "outputs": {
                    var: fmt_value(vals[i]) for var, vals in seq.outputs.items()
                },
                "cost_total": fmt_rational(seq.ledgers[i].total),
                "oracle_queries": seq.ledgers[i].oracle_queries,
                "peak_store": seq.ledgers[i].peak_store,
                "loop_iterations": dict(sorted(seq.loop_iterations[i].items())),
            }
            if seq.energy_values is not None:
                row["energy"] = fmt_value(seq.energy_values[i])
            stages.append(row)
        st = self.supertask
        return {
            "program": self.program,
            "schedule": list(seq.schedule),
            "inputs": [fmt_rational(v) for v in self.inputs],
            "oracles": dict(sorted(self.oracles.items())),
            "stages": stages,
            "outputs": {var: _verdict_dict(v) for var, v in self.verdicts.items()},
            "supertask": {
                "metered": _supertask_dict(st.metered) if st else None,
                "energy_var": seq.energy_var,
                "energy": _supertask_dict(st.energy) if st else None,
            },
            "warnings": list(self.warnings),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self):
        d = self.to_dict()
        lines = []
        lines.append(f"program: {d['program']}")
        lines.append(f"schedule: {fmt_schedule(d['schedule'])} ({len(d['schedule'])} stages)")
        lines.append("inputs: " + (", ".join(d["inputs"]) if d["inputs"] else "(none)"))
        lines.append(
            "oracles: "
            + (
                ", ".join(f"{k}={v}" for k, v in d["oracles"].items())
                if d["oracles"]
                else "(none)"
            )
        )
        lines.append("")
        out_vars = list(self.seq.outputs)
        header = ["n", "dt", "status"] + out_vars + ["cost", "queries"]
        rows = []
        for row in d["stages"]:
            status = row["halt"]["status"]
            if status == "error":
                status = row["halt"]["error"]
            rows.append(
                [str(row["n"]), row["dt"], status]
                + [str(row["outputs"][v]) for v in out_vars]
                + [row["cost_total"], str(row["oracle_queries"])]
            )
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
            for c in range(len(header))
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
        lines.append("")
        lines.append("outputs:")
        for var, vd in d["outputs"].items():
            tag = " [HEURISTIC]" if vd.get("heuristic") else ""
            lines.append(f"  {var}: {_verdict_text(vd)}{tag}")
            part = vd.get("standard_part")
            if isinstance(part, dict):
                lines.append(f"    standard part: none ({part['none']})")
            elif part is not None:
                lines.append(f"    standard part: {part}")
            if vd.get("class") == "periodic":
                for cand in vd["ultrafilter_candidates"]:
                    lines.append(
                        f"    candidate: n = {cand['residue']} (mod {vd['period']})"
                        f" -> {cand['value']}"
                    )
                lines.append(f"    note: {vd['note']}")
        st = d["supertask"]
        if st["metered"]:
            lines.append(
                f"supertask (metered): {st['metered']['class']}"
                + (f" - {st['metered']['detail']}" if st["metered"]["detail"] else "")
            )
        if st["energy"]:
            lines.append(
                f"supertask (energy {st['energy_var']}): {st['energy']['class']}"
                + (f" - {st['energy']['detail']}" if st["energy"]["detail"] else "")
            )
        if d["warnings"]:
            lines.append("warnings:")
            for w in d["warnings"]:
                lines.append(f"  - {w}")
        return "\n".join(lines) + "\n"


def _verdict_text(vd):
    c = vd["class"]
    if c == "eventually-constant":
        return f"eventually constant {vd['value']} from stage {vd['stabilization_stage']}"
    if c == "periodic":
        return f"periodic with period {vd['period']}"
    if c == "unbounded":
        exp = vd.get("growth_exponent")
        extra = f", growth exponent ~{exp}" if exp is not None else ""
        return f"unbounded ({vd['direction']}){extra}"
    if c == "convergent":
        return f"convergent, limit estimate {vd['limit_estimate']}"
    if c == "insufficient-stages":
        return "unclassified (insufficient stages)"
    return c

