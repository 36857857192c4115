"""Shared fixtures and independent value oracles for the test suite."""

from fractions import Fraction
from pathlib import Path

import pytest

from whiledt.exactnum import Affine, OracleReal, SymExpr

CORPUS = Path(__file__).resolve().parent.parent / "src" / "whiledt" / "corpus"


@pytest.fixture
def corpus_dir():
    return CORPUS


def corpus_source(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def finite_stream(name, digits):
    """Digit stream from a finite 0/1 prefix; all later digits are 0."""
    prefix = list(digits)
    return OracleReal(name, lambda i: prefix[i] if i < len(prefix) else 0)


def stream_value(digits):
    """Brute-force exact value of a finite digit prefix (tail all zero)."""
    return sum(
        (Fraction(d, 3**i) for i, d in enumerate(digits)), Fraction(0)
    )


def true_value(x, prefix_len=64):
    """Independent evaluation of an ExactReal built over finite streams.

    Only valid when every stream involved has all-zero digits beyond
    prefix_len; used as the ground-truth oracle for enclosure soundness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Affine):
        s = sum(
            (Fraction(x.stream.digit(i), 3**i) for i in range(prefix_len)),
            Fraction(0),
        )
        return x.offset + x.coeff * s
    if isinstance(x, SymExpr):
        a = true_value(x.lhs, prefix_len)
        b = true_value(x.rhs, prefix_len)
        if x.op == "+":
            return a + b
        if x.op == "-":
            return a - b
        if x.op == "*":
            return a * b
        if x.op == "/":
            return a / b
    raise TypeError(f"not an ExactReal: {x!r}")
