"""Exception hierarchy shared across the package."""


class SkewDiffError(Exception):
    """Base class for all package-specific failures."""


class HorizonError(SkewDiffError):
    """Evaluation requested at or beyond a family's validity horizon."""


class SimulationError(SkewDiffError):
    """A path produced a non-finite value during integration."""

    def __init__(self, message, path_index=None, step_index=None):
        super().__init__(message)
        self.path_index = path_index
        self.step_index = step_index


class PdeInstabilityError(SkewDiffError):
    """The forward-equation solver detected negative mass or mass drift."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SchemaError(SkewDiffError, ValueError):
    """A configuration violated its schema: a CLI parameter, or a grid,
    simulation or drift setting rejected at construction."""
