"""Exception hierarchy shared by all fragtail modules."""


class FragtailError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FragtailError):
    """Invalid measure definition, parameters, or command configuration."""


class UnsupportedSampling(FragtailError):
    """Operation needs a finite, sampleable dislocation measure."""


class NumericalFailure(FragtailError):
    """A numerical routine did not reach its requested accuracy.

    Carries ``achieved`` (error estimate actually reached) when known.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DomainError(FragtailError):
    """Argument outside the mathematical domain of the operation."""


class InsufficientWindow(FragtailError):
    """Too few survival-curve points inside the requested fit window."""
