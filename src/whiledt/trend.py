"""Finite-prefix trend tests over stage-indexed exact-rational sequences.

All verdicts built on these are heuristic: a finite prefix can never
certify behavior at the limit.  The tests are deterministic and exact
(pure Fraction arithmetic).
"""

from fractions import Fraction

TAIL_WINDOW = 6
# fewest stages a verdict is drawn from
MIN_STAGES = 8


def gaps(vs):
    return [vs[i + 1] - vs[i] for i in range(len(vs) - 1)]


def slopes(ns, vs):
    return [
        Fraction(vs[i + 1] - vs[i]) / Fraction(ns[i + 1] - ns[i])
        for i in range(len(vs) - 1)
    ]


def _mean(xs):
    return sum(xs, Fraction(0)) / len(xs)


def growth_persists(ns, vs):
    """Mean slope over the later half stays within 2x of the earlier half.

    Distinguishes sequences that keep climbing (linear trends, with or
    without an intercept) from convergent ones whose slopes decay to zero.
    """
    s = slopes(ns, vs)
    if len(s) < 2:
        return False
    half = len(s) // 2
    head, tail = s[:half], s[len(s) - half:]
    return _mean(tail) > 0 and 2 * _mean(tail) >= _mean(head)


def divergent_up(ns, vs):
    """Nondecreasing over the tail window, net growth, persistent slope."""
    if len(vs) < 3:
        return False
    w = min(TAIL_WINDOW, len(vs) - 1)
    tail = gaps(vs[-(w + 1):])
    if any(g < 0 for g in tail) or vs[-1] <= vs[-(w + 1)]:
        return False
    return growth_persists(ns, vs)


def divergent_down(ns, vs):
    return divergent_up(ns, [-v for v in vs])


def strictly_monotone_tail(vs):
    """+1 / -1 when the last TAIL_WINDOW gaps are all strictly one-signed."""
    if len(vs) < 2:
        return 0
    w = min(TAIL_WINDOW, len(vs) - 1)
    tail = gaps(vs[-(w + 1):])
    if all(g > 0 for g in tail):
        return 1
    if all(g < 0 for g in tail):
        return -1
    return 0


def decaying_increments(vs):
    """Tail increments at most half of the largest increment seen."""
    g = [abs(x) for x in gaps(vs)]
    if not g:
        return True
    peak = max(g)
    if peak == 0:
        return True
    return max(g[-3:]) * 2 <= peak


def doubling_suffix(ns):
    """Longest suffix of stages following the n -> 2n+1 refinement chain."""
    if not ns:
        return []
    idx = [len(ns) - 1]
    while idx[0] > 0 and ns[idx[0]] == 2 * ns[idx[0] - 1] + 1:
        idx.insert(0, idx[0] - 1)
    return idx
