"""Exception types shared across the package, and the base of the records that raise them."""


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


class Checked:
    """Base of a named-tuple record that checks its values: ``__new__`` runs the record's ``_check``.

    ``_make``, and so ``_replace``, builds through ``__new__`` too, so no record is built unchecked.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)
