"""One declaration per deployment knob.

:class:`SheriffConfig` is the flat list of values that shape a $heriff
deployment — Fig. 1's Coordinator, N Measurement servers, the Database
server, the IPC fleet and the queue tier in front of them.  Every entry
point reads the same object: :class:`~repro.core.sheriff.PriceSheriff`
takes it (or keyword overrides of it), ``DeploymentConfig`` and the mesh
``WorkerSpec`` extend it with their workload fields, and the CLI's
``--config`` files are its JSON form.

A field is declared once, with its range (:func:`knob`); the generic
:meth:`Config.validate` / :meth:`Config.to_dict` /
:meth:`Config.from_dict` are derived from the annotations and those
bounds, so adding a knob is one line here and nothing anywhere else.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.errors import InvalidConfig
from repro.net.faults import CHAOS_PROFILES

__all__ = ["Config", "SheriffConfig", "knob"]

#: bound key -> (test the value must pass against the bound, how it reads)
_COMPARISONS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
}
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def knob(default: Any, **bounds: Any) -> Any:
    """A config field that carries its own range.

    ``bounds`` are ``ge`` / ``gt`` / ``le`` (numeric limits, applied to
    every number inside a tuple-valued field), ``choices`` (the allowed
    values) and ``min_len`` (of a variable-length tuple).  ``None`` is
    in range exactly when the annotation is ``Optional``.
    """
    unknown = set(bounds) - {*_COMPARISONS, "choices", "min_len"}
    if unknown:
        raise TypeError(f"unknown knob bound(s): {sorted(unknown)}")
    return dataclasses.field(default=default, metadata=bounds)


def _check(path: str, value: Any, hint: Any, bounds: Mapping[str, Any]) -> Any:
    """``value`` checked against its annotation and bounds; returned in
    canonical form (JSON lists as tuples, JSON objects as nested configs)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _check(path, value, args[0], bounds)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{path} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            if len(value) < bounds.get("min_len", 0):
                raise InvalidConfig(
                    f"{path} must have at least {bounds['min_len']} "
                    f"entries, got {value!r}"
                )
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InvalidConfig(
                f"{path} must have {len(args)} entries, got {value!r}"
            )
        return tuple(
            _check(f"{path}[{i}]", item, item_hint, bounds)
            for i, (item, item_hint) in enumerate(zip(value, args))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise InvalidConfig(f"{path} must be a JSON object, got {value!r}")
        return {
            _check(f"{path} key", key, args[0], {}):
                _check(f"{path}[{key!r}]", item, args[1], bounds)
            for key, item in value.items()
        }
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, (hint, dict)):
            raise InvalidConfig(f"{path} must be a JSON object, got {value!r}")
        try:
            return (
                value.validate() if isinstance(value, hint)
                else hint.from_dict(value)
            )
        except InvalidConfig as exc:
            raise InvalidConfig(f"{path}: {exc}") from None
    # bool is an int to isinstance, and never a valid number here
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (
        hint is not bool and isinstance(value, bool)
    ):
        raise InvalidConfig(f"{path} must be {_NOUNS[hint]}, got {value!r}")
    for key, (holds, sign) in _COMPARISONS.items():
        if key in bounds and not holds(value, bounds[key]):
            raise InvalidConfig(
                f"{path} must be {sign} {bounds[key]}, got {value!r}"
            )
    if "choices" in bounds and value not in bounds["choices"]:
        raise InvalidConfig(
            f"{path} must be one of {list(bounds['choices'])}, got {value!r}"
        )
    return value


def _jsonify(value: Any) -> Any:
    """Tuples → lists, nested configs → dicts, so the output survives a
    JSON round trip."""
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


class Config:
    """Validation and JSON (de)serialisation for a dataclass of knobs.

    Everything is derived from the dataclass itself: the annotation of a
    field says what type it holds (scalars, ``Optional``, fixed or
    variable-length tuples, string-keyed dicts, nested :class:`Config`
    dataclasses), its :func:`knob` bounds say what range.
    """

    @classmethod
    @functools.cache  # resolving the string annotations is the slow part
    def _knobs(cls) -> Tuple[Tuple[str, Any, Mapping[str, Any]], ...]:
        """``(name, annotation, bounds)`` of every field.

        A subclass that re-declares a field only to change its default
        keeps the bounds of the declaration it overrides.
        """
        hints = typing.get_type_hints(cls)
        knobs = []
        for field in dataclasses.fields(cls):
            declared = (
                vars(klass).get("__dataclass_fields__", {}).get(field.name)
                for klass in cls.__mro__
            )
            bounds = next((f.metadata for f in declared if f and f.metadata), {})
            knobs.append((field.name, hints[field.name], bounds))
        return tuple(knobs)

    def validate(self):
        """Check every field against its annotation and bounds; raises
        :class:`~repro.core.errors.InvalidConfig` naming the first
        offender.  Returns self so call sites can chain."""
        for name, hint, bounds in self._knobs():
            _check(name, getattr(self, name), hint, bounds)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``from_dict(cfg.to_dict())`` round-trips."""
        return {
            field.name: _jsonify(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Any):
        """Build a validated config from a plain (JSON-loaded) dict.

        Raises :class:`~repro.core.errors.InvalidConfig` on unknown keys
        — nested sections included — and on out-of-range values, each
        with a message naming the key.
        """
        label = cls.__name__.removesuffix("Config").lower()
        if not isinstance(data, dict):
            raise InvalidConfig(
                f"{label} config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        knobs = {name: (hint, bounds) for name, hint, bounds in cls._knobs()}
        unknown = sorted(set(data) - set(knobs))
        if unknown:
            raise InvalidConfig(
                f"unknown {label} config key(s): {', '.join(unknown)}"
            )
        return cls(**{
            name: _check(name, value, *knobs[name])
            for name, value in data.items()
        })


@dataclass
class SheriffConfig(Config):
    """The system knobs of one deployment.

    Set them by keyword (``PriceSheriff(world, quorum=2)``,
    ``DeploymentConfig(quorum=2)``), from a ``--config`` JSON file, or
    in the spec a mesh worker process is launched with.
    """

    n_measurement_servers: int = knob(2, ge=1)
    #: the IPC fleet every check fans out to: (country, city, slowdown)
    ipc_sites: Tuple[Tuple[str, str, float], ...] = DEFAULT_IPC_SITES
    max_ppcs_per_request: int = knob(5, ge=0)
    #: named fault-injection profile from repro.net.faults.CHAOS_PROFILES
    #: (None = clean network) and the seed its RNG runs from
    chaos_profile: Optional[str] = knob(None, choices=tuple(sorted(CHAOS_PROFILES)))
    chaos_seed: int = 0
    #: Measurement-server assignments a job may use up before it fails
    retry_budget: int = knob(3, ge=0)
    #: minimum vantage points per price check before the job is failed
    quorum: int = knob(1, ge=1)
    #: price-check engine knobs (rows are identical whatever their
    #: value; these only shape the simulated timeline / cache behavior)
    max_fetch_workers: int = knob(8, ge=1)
    page_cache_ttl: float = knob(0.0, ge=0)
    #: enable the telemetry plane (metrics registry + sim-clock tracer);
    #: purely observational — rows are identical either way (tested)
    telemetry: bool = False
    #: storage engine behind the one Database server: "sqlite" (an
    #: in-memory sqlite database) or "memory", the value-tuple engine
    #: kept as the equivalence oracle.  Rows are byte-identical across
    #: engines (tested).
    db_backend: str = knob("sqlite", choices=("memory", "sqlite"))
    #: put the queued measurement tier (repro.core.jobqueue) in front of
    #: the Measurement servers: admission control and work stealing.
    #: Rows are identical queued or direct (tested).
    job_queue: bool = False
    #: admission limit of the queue tier's outbox (jobs beyond this are
    #: shed with a typed QueueSaturated carrying a retry-after hint)
    queue_depth: int = knob(256, ge=1)
    #: backlog imbalance (in jobs) that triggers a work steal between
    #: Measurement servers
    queue_steal_threshold: int = knob(16, ge=1)
    #: messaging backend between components: "sim" (deterministic,
    #: in-process — the Tier-1 default) or "socket" (real TCP on the
    #: loopback, blocking sockets and one serving thread per
    #: connection; the row-identity property holds, tested)
    transport: str = knob("sim", choices=("sim", "socket"))
