"""Exception types shared across the package."""


class CorridorsimError(ValueError):
    """Base of every error corridorsim raises on bad input."""


class ConfigurationError(CorridorsimError):
    """Invalid scenario or component configuration."""


class GeometryError(CorridorsimError):
    """Degenerate geometric input, e.g. coincident BS/UAV positions."""


class TensorFormatError(CorridorsimError):
    """Channel tensor file is missing, malformed, or inconsistent."""


class InfeasibleAssignmentError(CorridorsimError):
    """More UAVs than available BS-beam pairs."""
