"""Exception types shared across the package.

The split matters for the CLI: UsageError maps to exit status 2,
CheckFailure (and its decoding subclasses) to 1, InternalError to 3.
"""


class ForcingLabError(Exception):
    """Base class for all package errors."""


class UsageError(ForcingLabError):
    """Bad arguments, missing files, malformed specs."""


class CheckFailure(ForcingLabError):
    """A verification or decoding check did not pass."""


class InternalError(ForcingLabError):
    """An internal invariant was breached; indicates a bug, not bad input."""


class IncompatibleConditions(CheckFailure):
    """Two conditions disagree and have no common strengthening."""

    def __init__(self, detail, cell=None):
        super().__init__(detail)
        self.cell = cell


class FamilyTooSmall(UsageError):
    """The dense family has fewer sets than the run needs."""


class EmptyFamily(FamilyTooSmall):
    """A run that needs a dense set was handed a family with no sets."""


class BadArity(UsageError):
    """Filter count does not match the product carrier arity."""


class PayloadExhausted(CheckFailure):
    """A finite payload source ran out of bits mid-construction."""


class NoMarker(CheckFailure):
    """Decoder found no marker bit within the scan budget."""

    def __init__(self, step, stream=None, budget=None):
        detail = f"no marker for step {step}"
        if stream is not None:
            detail += f" in stream {stream}"
        if budget is not None:
            detail += f" within budget {budget}"
        super().__init__(detail)
        self.step = step
        self.stream = stream


class NoAntichainHit(CheckFailure):
    """No antichain member is hit by the filter within the search budget."""

    def __init__(self, step, side, budget=None):
        super().__init__(f"no antichain hit at step {step} on side {side!r}"
                         + (f" within budget {budget}" if budget is not None else ""))
        self.step = step
        self.side = side


class ConsistencyFailure(CheckFailure):
    """Decoded indices disagree with the recomputed construction state."""

    def __init__(self, step, detail):
        super().__init__(f"consistency failure at step {step}: {detail}")
        self.step = step


class WitnessViolation(CheckFailure):
    """An antichain witness failed a validity check."""

    def __init__(self, detail):
        super().__init__(detail)
        self.detail = detail


class RetryBudgetExceeded(CheckFailure):
    """The reveal-and-retry search for a stage commitment gave up.

    Signals that the inputs were not generic for the family, not a bug.
    """

    def __init__(self, stage, detail=""):
        super().__init__(f"retry budget exceeded at stage {stage}" + (f": {detail}" if detail else ""))
        self.stage = stage


class IncompatibleCommitment(InternalError):
    """A stage commitment disagrees with an already-finalized row."""

    def __init__(self, stage, detail=""):
        super().__init__(f"commitment incompatible with finalized rows at stage {stage}"
                         + (f": {detail}" if detail else ""))
        self.stage = stage


class AmbiguousNat(InternalError):
    """Arithmetic on lazy naturals reached a case it cannot decide exactly."""
