"""Exception types shared across the package."""


class RailSimError(Exception):
    """Base class for all railsim errors."""


class ConfigurationError(RailSimError):
    """A model, scenario or CLI parameter is invalid or inconsistent."""


class ValidationError(RailSimError):
    """A scenario failed validation; carries every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


class TraceParseError(RailSimError):
    """A trace file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)


class DomainError(RailSimError, ValueError):
    """An analytical model was evaluated outside its domain."""
