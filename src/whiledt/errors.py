"""Exception types shared across the package."""


class WhdtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WhdtError):
    def __init__(self, message, line, col, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected or ())
        super().__init__(f"{line}:{col}: {message}")


class EvalError(WhdtError):
    """Base class for runtime errors during stage evaluation."""

    kind = "runtime-error"


class DivisionByZero(EvalError):
    kind = "division-by-zero"


class UnresolvedComparison(EvalError):
    """An exact comparison could not be separated within the refinement fuel.

    Carries the fuel limit that was exhausted.
    """

    kind = "unresolved-comparison"

    def __init__(self, message, fuel=None):
        self.fuel = fuel
        super().__init__(message)


class OracleQueryLimit(EvalError):
    kind = "oracle-query-limit"


class NotHypernatural(EvalError):
    kind = "not-hypernatural"


class UnboundVariable(EvalError):
    kind = "unbound-variable"


class UnknownOracle(EvalError):
    kind = "unknown-oracle"


class BoundExceeded(EvalError):
    kind = "bound-exceeded"


class BitfileRange(EvalError):
    kind = "bitfile-range"


class MacroError(WhdtError):
    pass


class UnknownMacro(MacroError):
    pass


class RecursionNotSupported(MacroError):
    pass


class InsufficientStages(WhdtError):
    pass
