"""Exception hierarchy for the I2O layer."""

from __future__ import annotations


class I2OError(Exception):
    """Base class for all errors raised by the reproduction."""


class FrameFormatError(I2OError):
    """A buffer does not hold a well-formed I2O frame."""


class AddressingError(I2OError):
    """TiD allocation or resolution failure."""
