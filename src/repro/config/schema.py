"""Typed parameter schemas for device configuration.

Paper §2 (the system-management dimension): *"A successful scheme has
to allow configuring all cluster components, whether the hardware, the
framework or the applications, according to one common scheme.  The
scheme must be open for future extensions."*

The common scheme is UtilParamsGet/Set carrying string maps; this
module adds the typing and validation layer on top: a device declares
a :class:`ParamSchema` of named, typed, bounded parameters, and the
standard handlers validate updates against it — a malformed
configuration is refused with a failure reply instead of corrupting a
running node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from repro.i2o.errors import I2OError


class SchemaError(I2OError):
    """Declaration or validation failure."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter: name, type, default, optional bounds."""

    name: str
    type: type = str  # str, int, float, bool
    default: Any = ""
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None
    description: str = ""
    read_only: bool = False

    def __post_init__(self) -> None:
        if self.type not in (str, int, float, bool):
            raise SchemaError(
                f"{self.name}: unsupported type {self.type.__name__}"
            )
        if not self.name or "=" in self.name or "\n" in self.name:
            raise SchemaError(f"illegal parameter name {self.name!r}")
        if self.choices is not None and self.type is not str:
            raise SchemaError(f"{self.name}: choices require type str")
        # The default must itself validate.
        self.parse(self.format(self.default))

    # -- conversion ---------------------------------------------------------
    def parse(self, text: str) -> Any:
        """String (wire form) → typed value, validated."""
        try:
            if self.type is bool:
                value: Any = _parse_bool(text)
            elif self.type is int:
                value = int(text)
            elif self.type is float:
                value = float(text)
                # NaN passes every bound below (its comparisons are all
                # false), and no parameter means infinity.
                if not math.isfinite(value):
                    raise ValueError("not finite")
            else:
                value = text
        except ValueError as exc:
            raise SchemaError(
                f"{self.name}: cannot parse {text!r} as {self.type.__name__}"
            ) from exc
        if self.minimum is not None and value < self.minimum:
            raise SchemaError(
                f"{self.name}: {value} below minimum {self.minimum}"
            )
        if self.maximum is not None and value > self.maximum:
            raise SchemaError(
                f"{self.name}: {value} above maximum {self.maximum}"
            )
        if self.choices is not None and value not in self.choices:
            raise SchemaError(
                f"{self.name}: {value!r} not one of {self.choices}"
            )
        return value

    def format(self, value: Any) -> str:
        """Typed value → wire form."""
        if self.type is bool:
            return "true" if value else "false"
        return str(value)


class ParamSchema:
    """An ordered collection of :class:`ParamSpec`."""

    def __init__(self, specs: Iterable[ParamSpec] = ()) -> None:
        self._specs: dict[str, ParamSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: ParamSpec) -> None:
        if spec.name in self._specs:
            raise SchemaError(f"duplicate parameter {spec.name!r}")
        self._specs[spec.name] = spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, name: str) -> ParamSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise SchemaError(f"unknown parameter {name!r}")
        return spec

    def defaults(self) -> dict[str, str]:
        """Wire-form defaults, for seeding ``Listener.parameters``."""
        return {spec.name: spec.format(spec.default) for spec in self}

    def validate_update(self, updates: dict[str, str]) -> dict[str, Any]:
        """Validate a UtilParamsSet payload; returns the typed values.

        Unknown names and writes to read-only parameters are refused —
        the whole update is rejected atomically.
        """
        typed: dict[str, Any] = {}
        for name, text in updates.items():
            spec = self.spec(name)
            if spec.read_only:
                raise SchemaError(f"parameter {name!r} is read-only")
            typed[name] = spec.parse(text)
        return typed

    def describe(self) -> dict[str, str]:
        """Self-description, exportable through the same params channel
        (the "open for future extensions" requirement: a manager can
        discover any device's schema with a standard message)."""
        out = {}
        for spec in self:
            parts = [spec.type.__name__, f"default:{spec.format(spec.default)}"]
            if spec.minimum is not None:
                parts.append(f"min:{spec.minimum}")
            if spec.maximum is not None:
                parts.append(f"max:{spec.maximum}")
            if spec.choices:
                parts.append("choices:" + "|".join(spec.choices))
            if spec.read_only:
                parts.append("ro")
            out[spec.name] = ",".join(parts)
        return out


class SchemaListenerMixin:
    """Mixin for :class:`~repro.core.device.Listener` subclasses that
    declare a typed schema.

    Usage::

        class MyDevice(SchemaListenerMixin, Listener):
            schema = ParamSchema([
                ParamSpec("rate_hz", int, default=100, minimum=1),
                ParamSpec("mode", str, default="run",
                          choices=("run", "test")),
            ])

    ``self.parameters`` is seeded from the defaults at construction;
    ``on_parameters`` validates atomically; ``typed_param(name)``
    returns the parsed value.
    """

    schema: ParamSchema = ParamSchema()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.parameters.update(self.schema.defaults())

    def on_parameters(self, updates: dict[str, str]) -> None:
        self.schema.validate_update(updates)

    def typed_param(self, name: str) -> Any:
        spec = self.schema.spec(name)
        return spec.parse(self.parameters[name])  # type: ignore[attr-defined]
