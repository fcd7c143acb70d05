"""Exception types raised by the simulator."""


class OiaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OiaError, ValueError):
    """An argument violates a documented precondition."""


class RedrawError(OiaError):
    """A trial's channel draw was rejected; the trial should be discarded and redrawn.

    ``reason`` names the rejected matrix: ``"direct"`` for a rank-deficient
    primary direct channel; for a trial that sends, ``"cross"`` for a cross
    channel that fails the precoder's rank guard and ``"gram"`` for active
    precoder columns below the gram floor. ``rejected`` is a boolean array
    over the stack of trials marking the trials to redraw; the others passed.
    """

    def __init__(self, reason: str, detail: str, rejected):
        super().__init__(reason, detail, rejected)
        self.reason = reason
        self.rejected = rejected

    def __str__(self) -> str:
        matrix = "precoder gram matrix" if self.reason == "gram" else f"{self.reason} channel"
        return f"{matrix} rejected: {self.args[1]}"


class InternalInvariantError(OiaError):
    """An internal consistency condition that should hold by construction was violated."""
