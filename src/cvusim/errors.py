"""Exception types shared across the package."""


class RangeError(ValueError):
    """A value does not fit the declared bitwidth/signedness."""


class ShapeError(ValueError):
    """Operand lengths or tile counts do not match."""


class ConfigError(ValueError):
    """A hardware or simulation configuration is invalid or insufficient."""


class CalibrationError(RuntimeError):
    """Cost-model calibration could not fit the anchors within tolerance."""

    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class NetworkFormatError(ValueError):
    """A network description file violates the schema."""
