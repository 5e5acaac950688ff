"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input data."""


class ParseError(InputError):
    """Input file could not be parsed; carries a 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SizeRefusalError(InputError):
    """Instance exceeds the documented cap of a brute-force or enumeration routine."""


class UnsupportedInstanceError(InputError):
    """Instance is well formed but outside the supported model fragment."""


class InfeasibleError(Exception):
    """A feasibility-style problem was proven to have no solution."""


class ContractError(RuntimeError):
    """An internal precondition was violated, e.g. a DAG routine fed a cyclic input."""


class SolverError(RuntimeError):
    """Numerical or resource failure inside the LP or branch-and-bound machinery."""


class TimeLimitError(SolverError):
    """The time limit expired before the search could reach a decision.

    `orientation`, when set, is the best acyclic orientation found by then.
    A minimum-spectrum search sets `lower`, its lower bound, and, once it
    holds a certificate, `upper` and `assignment`: the spectrum that
    certificate fits and the certificate itself.
    """

    orientation = None
    lower = None
    upper = None
    assignment = None
