"""Exception types shared across the package."""


class BranchsimError(Exception):
    """Base class for all library errors."""


class CapacityError(BranchsimError):
    """Requested object exceeds the global qubit cap."""


class ShapeError(BranchsimError):
    """Matrix or vector dimensions do not match the operation's contract."""


class LayoutError(BranchsimError):
    """Register id or memory slot is not present in the layout."""


class ValidationError(BranchsimError):
    """Value violates a documented invariant."""


class ProjectionError(BranchsimError):
    """Forced measurement outcome has (near-)zero probability."""


class ParseError(BranchsimError):
    """Scenario or report document violates the schema."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")
