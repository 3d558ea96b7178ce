"""Typed counters: the simulator's metrics substrate.

Two layers:

* :class:`CounterAlgebra` — a mixin giving any counter dataclass a
  field-wise accumulation algebra (``a + b``, ``sum``-compatible
  ``__radd__``, ``Cls.sum``, ``as_dict``).  ``GPUStats`` and
  ``OpCounter`` derive it from this one implementation instead of
  carrying their own copies, so multi-frame runs accumulate every
  counter as a plain sum.
* :class:`CounterRegistry` — named, typed counters
  (``gpu.rbcd.zeb_insertions``, ``cpu.ops.flop``, ...) with the same
  algebra.  Registries are the uniform exchange format: every counter
  dataclass exposes a ``registry()`` view, registries from different
  subsystems (and the per-tenant shards of a service) merge into one
  namespace, and exporters/benches consume the merged registry without
  knowing which dataclass a number came from.

Counter naming scheme (see docs/MODEL.md, "Observability"):
``<subsystem>.<stage>.<quantity>`` — e.g. ``gpu.raster.fragments_produced``,
``gpu.rbcd.zeb_insertions``, ``cpu.ops.cmp``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

__all__ = [
    "CounterAlgebra",
    "CounterRegistry",
    "CounterSpec",
    "registry_from_counters",
]


class CounterAlgebra:
    """Field-wise sum algebra for counter dataclasses: ``a + b`` adds
    every field."""

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = type(self)()
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            setattr(out, f.name, a + b)
        return out

    def __radd__(self, other):
        # Support plain ``sum(iterable)``: the implicit 0 start value
        # (and any int-zero partial accumulator) folds away, so callers
        # can ``sum()`` counters directly.
        if isinstance(other, type(self)):
            return other.__add__(self)
        if isinstance(other, (int, float)) and other == 0:
            return self
        return NotImplemented

    @classmethod
    def sum(cls, items: Iterable):
        """Sum an iterable of counters; an empty iterable yields zeros
        (plain ``sum([])`` would return the int 0)."""
        total = cls()
        for item in items:
            total = total + item
        return total

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class CounterSpec:
    """Declaration of one named counter."""

    name: str
    kind: str = "int"          # "int" | "float"
    unit: str = ""             # "cycles", "bytes", "ops", ... ("" = count)
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float"):
            raise ValueError(f"{self.name}: kind must be 'int' or 'float'")
        if not self.name:
            raise ValueError("counter name must be non-empty")

    def coerce(self, value):
        """Validate/convert a value for this counter's kind."""
        if self.kind == "int":
            # Accept any integral type (including numpy ints); reject
            # bools and floats so a cycle count cannot silently land in
            # an event counter.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"counter {self.name!r} is integral; got {value!r}"
                )
            return int(value)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise TypeError(f"counter {self.name!r} is numeric; got {value!r}")
        return float(value)


class CounterRegistry:
    """Named, typed, mergeable counters.

    The registry preserves registration order (merged registries list
    the left operand's names first), so exported dictionaries are
    deterministic.  Merging is a plain per-name sum — associative and
    commutative up to ordering — so per-tenant registries merge to the
    service's totals in any grouping.
    """

    def __init__(self, specs: Iterable[CounterSpec] = ()) -> None:
        self._specs: dict[str, CounterSpec] = {}
        self._values: dict[str, int | float] = {}
        for spec in specs:
            self.register(spec)

    # -- declaration ---------------------------------------------------------

    def register(self, spec: CounterSpec) -> CounterSpec:
        """Declare a counter (idempotent for identical specs)."""
        existing = self._specs.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise ValueError(
                    f"counter {spec.name!r} re-registered with a different "
                    f"spec ({existing} != {spec})"
                )
            return existing
        self._specs[spec.name] = spec
        self._values[spec.name] = 0 if spec.kind == "int" else 0.0
        return spec

    def counter(self, name: str, kind: str = "int", unit: str = "",
                description: str = "") -> CounterSpec:
        """Shorthand: register (or fetch) a counter by fields."""
        return self.register(CounterSpec(name, kind, unit, description))

    # -- recording -----------------------------------------------------------

    def add(self, name: str, n: int | float = 1) -> None:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(f"unregistered counter {name!r}")
        self._values[name] = self._values[name] + spec.coerce(n)

    def set(self, name: str, value: int | float) -> None:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(f"unregistered counter {name!r}")
        self._values[name] = spec.coerce(value)

    def __getitem__(self, name: str) -> int | float:
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> list[str]:
        return list(self._specs)

    def spec(self, name: str) -> CounterSpec:
        return self._specs[name]

    def specs(self) -> list[CounterSpec]:
        return list(self._specs.values())

    # -- merge algebra ---------------------------------------------------------

    def merge(self, other: "CounterRegistry") -> "CounterRegistry":
        """New registry with the union of specs and summed values."""
        out = CounterRegistry(self.specs())
        out._values.update(self._values)
        for spec in other.specs():
            out.register(spec)  # raises on conflicting re-declaration
            out._values[spec.name] = out._values[spec.name] + other._values[spec.name]
        return out

    def __add__(self, other):
        if not isinstance(other, CounterRegistry):
            return NotImplemented
        return self.merge(other)

    def __radd__(self, other):
        if isinstance(other, (int, float)) and other == 0:
            return self
        return NotImplemented

    @staticmethod
    def sum(items: Iterable["CounterRegistry"]) -> "CounterRegistry":
        total = CounterRegistry()
        for item in items:
            total = total.merge(item)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, CounterRegistry):
            return NotImplemented
        return self._specs == other._specs and self.as_dict() == other.as_dict()

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> dict[str, int | float]:
        """Name -> value, in registration order."""
        return dict(self._values)

    def nonzero(self) -> dict[str, int | float]:
        return {k: v for k, v in self._values.items() if v}

    def __repr__(self) -> str:
        return f"CounterRegistry({len(self._specs)} counters)"


def registry_from_counters(
    obj: CounterAlgebra,
    prefix: str,
    *,
    units: Mapping[str, str] | None = None,
) -> CounterRegistry:
    """Registry view of a counter dataclass, names ``<prefix>.<field>``.

    Float fields become ``float`` counters; everything else ``int``.
    ``units`` optionally maps field names to unit strings (fields named
    ``*_cycles`` default to "cycles", ``*_bytes*`` to "bytes").
    """
    units = dict(units or {})
    registry = CounterRegistry()
    for f in fields(obj):
        value = getattr(obj, f.name)
        unit = units.get(f.name)
        if unit is None:
            if "cycles" in f.name:
                unit = "cycles"
            elif "bytes" in f.name:
                unit = "bytes"
            else:
                unit = ""
        kind = "float" if isinstance(value, float) else "int"
        name = f"{prefix}.{f.name}"
        registry.counter(name, kind=kind, unit=unit)
        registry.set(name, value)
    return registry
