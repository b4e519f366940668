"""Exception types shared across the package."""


class InputError(ValueError):
    """An operation received an unknown vertex or an invalid argument."""


class ParseError(InputError):
    """A graph document failed to parse.  Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ClassViolationError(RuntimeError):
    """The input graph is outside the supported class.

    The `witness` attribute holds a PatternWitness naming the offending
    induced subgraph.
    """

    def __init__(self, witness) -> None:
        super().__init__(f"input contains an induced {witness.kind}")
        self.witness = witness


class StageAssertionError(RuntimeError):
    """A structural invariant the pipeline relies on failed mid-run.

    Signals either an implementation bug or an out-of-class input that
    slipped past verification; never swallowed silently.
    """


class GenerationError(RuntimeError):
    """A generator exhausted its re-sample budget without a valid instance."""
