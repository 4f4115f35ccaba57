"""Experiment specification: INI-style config files plus validation.

A spec file has four sections. Unknown sections or keys are rejected so
typos fail loudly rather than silently running defaults::

    [system]
    arrival_rates = 2, 6
    theta = 0.28
    service = lognormal(loc=-1, scale=1)

    [sweep]
    axis = theta          ; theta | lambda1 | none
    start = 0.0
    stop = 1.0
    points = 21
    policies = probabilistic, non_preemptive, self_preemptive, globally_preemptive
    mode = both           ; analytic | simulate | both

    [simulation]
    horizon = 1e5         ; or: delivered = 100000 (per source)
    warmup_fraction = 0.1
    seed = 12345
    replications = 20
    batches = 10

    [output]
    path = results.csv
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .analytic import SystemConfig
from .service import parse_distribution
from .sim import InvalidConfig, PolicyKind, SimConfig

__all__ = [
    "ExperimentSpec",
    "ParseError",
    "ValidationError",
    "SPEC_KEYS",
    "parse_spec",
    "load_raw",
    "build_spec",
]

# section -> its keys, in the order of the module docstring
SPEC_KEYS = {
    "system": ("arrival_rates", "theta", "service"),
    "sweep": ("axis", "start", "stop", "points", "policies", "mode"),
    "simulation": ("horizon", "delivered", "warmup_fraction", "seed", "replications", "batches"),
    "output": ("path",),
}

_AXES = ("theta", "lambda1", "none")
_MODES = ("analytic", "simulate", "both")


class ParseError(ValueError):
    """Malformed spec text or unknown/ill-typed keys."""


class ValidationError(ValueError):
    """Well-formed spec that breaks an invariant."""


@dataclass(frozen=True)
class ExperimentSpec:
    system: SystemConfig
    axis: str
    grid: tuple[float, float, int] | None
    policies: tuple[PolicyKind, ...]
    mode: str
    sim: SimConfig
    output_path: str


def load_raw(text: str) -> dict[str, dict[str, str]]:
    """Parse INI text into {section: {key: value}}, rejecting unknowns."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SPEC_KEYS:
            raise ParseError(
                f"unknown section [{section}]; expected one of {sorted(SPEC_KEYS)}"
            )
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in SPEC_KEYS[section]:
                raise ParseError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(SPEC_KEYS[section])}"
                )
            raw[section][key] = value
    return raw


def _get(raw, section, key, default=None):
    return raw.get(section, {}).get(key, default)


def _as_float(raw, section, key, default=None):
    value = _get(raw, section, key)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"[{section}] {key} = {value!r} is not a number") from None


def _as_int(raw, section, key, default=None):
    value = _get(raw, section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        pass
    try:
        number = float(value)  # exponent notation, such as 1e5
    except ValueError:
        number = math.nan
    if not number.is_integer():  # nor is inf or nan
        raise ParseError(f"[{section}] {key} = {value!r} is not an integer")
    return int(number)


def build_spec(raw: dict[str, dict[str, str]]) -> ExperimentSpec:
    """Assemble and validate an ExperimentSpec from raw key/value text."""
    rates_text = _get(raw, "system", "arrival_rates")
    if rates_text is None:
        raise ValidationError("[system] arrival_rates is required")
    try:
        rates = tuple(float(p) for p in rates_text.split(",") if p.strip())
    except ValueError:
        raise ParseError(
            f"[system] arrival_rates = {rates_text!r} is not a comma list of numbers"
        ) from None
    service_text = _get(raw, "system", "service")
    if service_text is None:
        raise ValidationError("[system] service is required")
    try:
        service = parse_distribution(service_text)
    except ValueError as exc:
        raise ParseError(f"[system] service: {exc}") from exc
    theta = _as_float(raw, "system", "theta", 0.0)
    try:
        system = SystemConfig(arrival_rates=rates, theta=theta, service=service)
    except ValueError as exc:
        raise ValidationError(f"[system]: {exc}") from exc

    axis = _get(raw, "sweep", "axis", "none").strip().lower()
    if axis not in _AXES:
        raise ValidationError(f"[sweep] axis must be one of {_AXES}, got {axis!r}")
    grid = None
    if axis != "none":
        start = _as_float(raw, "sweep", "start")
        stop = _as_float(raw, "sweep", "stop")
        points = _as_int(raw, "sweep", "points")
        if start is None or stop is None or points is None:
            raise ValidationError(f"[sweep] start/stop/points are required for a {axis} sweep")
        if not start < stop:
            raise ValidationError(f"[sweep] start must be < stop, got {start} >= {stop}")
        if points < 2:
            raise ValidationError(f"[sweep] points must be >= 2, got {points}")
        if axis == "theta" and not (0.0 <= start and stop <= 1.0):
            raise ValidationError(
                f"[sweep] theta grid must lie in [0, 1], got [{start}, {stop}]"
            )
        if axis == "lambda1" and system.num_sources != 2:
            raise ValidationError(
                "[sweep] a lambda1 sweep keeps the total rate fixed by adjusting "
                "the second source and needs exactly two sources, got "
                f"{system.num_sources}"
            )
        grid = (start, stop, points)

    policy_text = _get(raw, "sweep", "policies", "probabilistic")
    policies = []
    for name in policy_text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            policies.append(PolicyKind(name))
        except ValueError:
            raise ValidationError(
                f"[sweep] unknown policy {name!r}; expected "
                f"{[k.value for k in PolicyKind]}"
            ) from None
    if not policies:
        raise ValidationError("[sweep] policies must list at least one policy")
    if len(set(policies)) != len(policies):
        raise ValidationError("[sweep] duplicate policy names")

    mode = _get(raw, "sweep", "mode", "analytic").strip().lower()
    if mode not in _MODES:
        raise ValidationError(f"[sweep] mode must be one of {_MODES}, got {mode!r}")

    horizon = _as_float(raw, "simulation", "horizon")
    delivered = _as_int(raw, "simulation", "delivered")
    if horizon is None and delivered is None:
        horizon = 1e4
    try:
        sim = SimConfig(
            seed=_as_int(raw, "simulation", "seed", 1),
            horizon=horizon,
            delivered_per_source=delivered,
            warmup_fraction=_as_float(raw, "simulation", "warmup_fraction", 0.1),
            replications=_as_int(raw, "simulation", "replications", 1),
            batches=_as_int(raw, "simulation", "batches", 10),
        )
    except InvalidConfig as exc:
        raise ValidationError(f"[simulation]: {exc}") from exc

    return ExperimentSpec(
        system=system,
        axis=axis,
        grid=grid,
        policies=tuple(policies),
        mode=mode,
        sim=sim,
        output_path=_get(raw, "output", "path", "results.csv"),
    )


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate a complete spec document."""
    return build_spec(load_raw(text))
