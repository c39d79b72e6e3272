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

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.durable.segments import COMPACT_LIVE_RATIO, COMPACT_MIN_RECORDS
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


#: Typed schema for the bootstrap spec's ``supervision`` section; also
#: the HeartbeatService's device parameters (``repro.core.liveness``).
SUPERVISION_SCHEMA = ParamSchema([
    ParamSpec("interval_ns", int, default=1_000_000, minimum=1,
              description="beat period"),
    ParamSpec("suspect_after", int, default=2, minimum=1,
              description="consecutive misses before SUSPECT"),
    ParamSpec("dead_after", int, default=4, minimum=2,
              description="consecutive misses before DEAD"),
    ParamSpec("rejoin_after", int, default=3, minimum=1,
              description="consecutive beats a DEAD peer needs back"),
    ParamSpec("policy", str, default="rebind",
              choices=("rebind", "park", "none"),
              description="what to do with a dead peer's routes"),
])

#: Typed schema for the bootstrap spec's ``observability`` section: the
#: whole instrument kit on every node (``repro.flightrec``,
#: ``repro.core.tracing`` / ``metrics`` / ``telemetry``,
#: ``repro.profile``).  Everything else the instruments take keeps its
#: constructor default.
OBSERVABILITY_SCHEMA = ParamSchema([
    ParamSpec("dir", str, default="",
              description="where the rings spill as node<NNN>.flightrec "
                          "(unset = diskless rings, spill is a no-op)"),
    ParamSpec("capacity", int, default=4096, minimum=8,
              description="flight-recorder ring capacity in records per "
                          "node"),
    ParamSpec("hz", float, default=97.0, minimum=1.0, maximum=10_000.0,
              description="stack sampling rate (prime-ish defaults "
                          "avoid lockstep with periodic work)"),
    ParamSpec("dispatch_budget_ns", int, default=0, minimum=0,
              description="slow-frame budget per dispatch; overruns "
                          "record EV_SLOW_FRAME and spill the flight "
                          "recorder (0 = watch off)"),
])

#: Typed schema for the bootstrap spec's ``durability`` section
#: (``repro.durable``).  ``dir`` has no usable default: the bootstrap
#: refuses the section without it.
DURABILITY_SCHEMA = ParamSchema([
    ParamSpec("dir", str, default="",
              description="journal and snapshot directory (required)"),
    ParamSpec("journals", bool, default=True,
              description="attach a send journal to every "
                          "reliable_endpoint device"),
    ParamSpec("snapshots", bool, default=True,
              description="attach a snapshot store to every "
                          "daq_eventmanager device"),
    ParamSpec("flush_every", int, default=1, minimum=1,
              description="group-commit batch size (records per flush)"),
    ParamSpec("fsync", bool, default=False,
              description="fsync the journal file on every flush"),
    ParamSpec("compact_min_records", int, default=COMPACT_MIN_RECORDS,
              minimum=1,
              description="do not rewrite the journal below this many "
                          "records (bounds the file; amortises the rewrite)"),
    ParamSpec("compact_live_ratio", float, default=COMPACT_LIVE_RATIO,
              minimum=0.0, maximum=1.0,
              description="past that floor, rewrite once live/total falls "
                          "to this ratio"),
])

#: Typed schema for the bootstrap spec's ``dataflow`` section
#: (``repro.dataflow``): route tables derived from the devices'
#: consumes/emits declarations, plus backpressure tuning.
DATAFLOW_SCHEMA = ParamSchema([
    ParamSpec("edge_credits", int, default=64, minimum=1,
              description="per-consumer queue capacity (frames) when the "
                          "device class declares no queue_capacity"),
    ParamSpec("park_limit", int, default=256, minimum=0,
              description="bounded parked-emission slots per node"),
    ParamSpec("strict", bool, default=True,
              description="refuse to boot on any analysis diagnostic"),
    ParamSpec("backpressure", bool, default=True,
              description="wire per-edge credit windows (off = routes "
                          "only, uncapped)"),
])


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
