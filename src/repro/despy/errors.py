"""Exception hierarchy for the despy simulation kernel."""


class DespyError(Exception):
    """Base class for every error raised by the despy kernel."""


class SchedulingError(DespyError):
    """Raised for invalid scheduling requests (negative or fractional
    delays, fractional run horizons, unsupported process commands...)."""


class ResourceError(DespyError):
    """Raised for invalid resource operations (releasing a resource that
    is not held, non-positive capacity...)."""
