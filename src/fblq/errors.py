"""Exception hierarchy shared by all fblq modules."""

from __future__ import annotations


class FBLQError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FBLQError):
    """An argument is outside its documented domain (time, shape, index)."""


class ParseError(FBLQError):
    """A problem file could not be parsed; carries a location hint."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{message} (at {location})")


class PreconditionError(FBLQError):
    """A documented precondition of an operation does not hold."""


class SingularCoefficientError(FBLQError):
    """A required inverse is singular or beyond the conditioning gate.

    ``name`` identifies which inverse failed (e.g. ``"L1"``, ``"P3_tilde"``),
    ``time`` the evaluation time where it happened, ``cond`` the estimated
    condition number when available, ``member`` the failing member of a
    batched evaluation.
    """

    def __init__(self, name: str, time: float | None = None, cond: float | None = None,
                 member: int | None = None):
        self.name = name
        self.time = time
        self.cond = cond
        self.member = member
        parts = [f"singular or ill-conditioned inverse {name}"]
        if member is not None:
            parts.append(f"in batch member {member}")
        if time is not None:
            parts.append(f"at t={time:.6g}")
        if cond is not None:
            parts.append(f"(cond~{cond:.3g})")
        super().__init__(" ".join(parts))

    def at_time(self, time: float) -> "SingularCoefficientError":
        return SingularCoefficientError(self.name, time, self.cond, self.member)

    def at_node(self, times) -> "SingularCoefficientError":
        """A failure in a node stack, placed at the time of the failing node."""
        return SingularCoefficientError(self.name, float(times[self.member]), self.cond)


class ConstraintViolatedError(FBLQError):
    """A running positivity side condition failed during integration."""

    def __init__(self, name: str, time: float, min_eig: float):
        self.name = name
        self.time = time
        self.min_eig = min_eig
        super().__init__(
            f"side condition {name} > 0 violated at t={time:.6g} (min eig {min_eig:.3e})"
        )


class DivergedError(FBLQError):
    """Integration or simulation produced non-finite or exploding values.

    ``time`` is the last time at which the state was still good.
    """

    def __init__(self, time: float, detail: str = ""):
        self.time = time
        self.detail = detail
        msg = f"diverged; last good time t={time:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
