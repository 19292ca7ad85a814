"""Exception hierarchy shared across the package."""


class ContcountError(Exception):
    """Base class for all package errors."""


class ParameterError(ContcountError, ValueError):
    """A constructor or operation argument violates its contract."""


class ValidationError(ContcountError, ValueError):
    """Runtime input (update vector, trace, instance file) is malformed."""


class StateError(ContcountError, RuntimeError):
    """An operation was applied to a state that cannot accept it."""


class SizeError(ContcountError):
    """An exact solver was asked for an instance beyond its brute-force budget."""
