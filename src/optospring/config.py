"""Run configuration: flat dotted-key files, env overrides, validation.

The config format is plain text, one ``section.key = value`` per line,
``#`` comments allowed. Every key is optional and has a default; unknown
keys and non-finite numbers are rejected. Environment variables override
the file (``OPTOSPRING_SECTION_KEY``; one that names no key is rejected),
and command-line flags override both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .core import (
    NORMALIZED,
    SI,
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    WorkingPoint,
    check_detuning,
)
from .errors import ConfigError
from .finite_bandwidth import DEFAULT_GRID_DECADES, DEFAULT_POINTS_PER_DECADE

ENV_PREFIX = "OPTOSPRING_"


def _parse_float(s: str) -> float:
    try:
        value = float(s)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {s!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {s!r}") from exc


def _parse_float_list(s: str) -> tuple[float, ...]:
    items = [x.strip() for x in s.split(",") if x.strip()]
    return tuple(_parse_float(x) for x in items)


def _parse_range(s: str) -> tuple[float, float, int]:
    """Parse a ``lo:hi:n`` triplet."""
    parts = s.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected lo:hi:n, got {s!r}")
    lo, hi, n = _parse_float(parts[0]), _parse_float(parts[1]), _parse_int(parts[2])
    if not (lo < hi and hi - lo < math.inf and n >= 2):
        raise ConfigError(f"need lo < hi, hi - lo finite and n >= 2 in range {s!r}")
    return lo, hi, n


def _parse_choice(*choices: str):
    def parse(s: str) -> str:
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s

    return parse


# key -> (parser, default as config text)
KNOWN_KEYS: dict[str, tuple] = {
    "units": (_parse_choice("normalized", "si"), "normalized"),
    "oscillator.mass": (_parse_float, "1.0"),
    "oscillator.resonance_freq": (_parse_float, "1.0"),
    "oscillator.damping": (_parse_float, "0.001"),
    "cavity.gamma": (_parse_float, "0.01"),
    "cavity.round_trip": (_parse_float, "0.001"),
    "points.detuning": (_parse_float_list, "0.0"),
    "points.coupling": (_parse_float_list, "0.7071067811865476"),
    "grid.lo": (_parse_float, repr(DEFAULT_GRID_DECADES[0])),
    "grid.hi": (_parse_float, repr(DEFAULT_GRID_DECADES[1])),
    "grid.points_per_decade": (_parse_int, repr(DEFAULT_POINTS_PER_DECADE)),
    "grid.units": (_parse_choice("omega_sql", "rad_s"), "omega_sql"),
    "optimize.mode": (_parse_choice("xi", "detuning", "uql-sweep"), "xi"),
    "optimize.omega": (_parse_float, "0.5"),
    "optimize.detuning": (_parse_float, "0.0"),
    "optimize.omegas": (_parse_float_list, ""),
    "stability.xi2": (_parse_range, "0.01:100:61"),
    "stability.psi": (_parse_range, "-12:2:57"),
    "output.format": (_parse_choice("csv", "json"), "csv"),
    "output.path": (str, ""),
}


def env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "_")


ENV_KEYS = {env_name(key): key for key in KNOWN_KEYS}  # OPTOSPRING_* name -> key


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with the built domain objects.

    A key not built into ``oscillator``, ``cavity`` or ``points`` is the field
    ``key.replace(".", "_")``; ``output_path`` is ``""`` when unset.
    """

    units: str
    constants: Constants
    oscillator: MechanicalOscillator
    cavity: OpticalCavity
    points: tuple[WorkingPoint, ...]
    grid_lo: float
    grid_hi: float
    grid_points_per_decade: int
    grid_units: str
    optimize_mode: str
    optimize_omega: float
    optimize_detuning: float
    optimize_omegas: tuple[float, ...]
    stability_xi2: tuple[float, float, int]
    stability_psi: tuple[float, float, int]
    output_format: str
    output_path: str
    raw: dict

    def param_lines(self) -> list[str]:
        """The data-defining configuration as flat ``key = value`` lines.

        Output destination keys are excluded so that identical physics
        configurations produce byte-identical datasets wherever written.
        """
        return [
            f"{key} = {self.raw[key]}"
            for key in sorted(self.raw)
            if not key.startswith("output.")
        ]


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat key-value text; reject unknown and malformed keys."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def apply_env_overrides(values: dict[str, str], environ=None) -> dict[str, str]:
    environ = os.environ if environ is None else environ
    out = dict(values)
    for name in environ:  # only a prefixed name has its value read
        if name.startswith(ENV_PREFIX):
            if name not in ENV_KEYS:
                raise ConfigError(f"unknown environment variable {name!r}")
            out[ENV_KEYS[name]] = environ[name]
    return out


def build_run_config(
    values: dict[str, str] | None = None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Build and validate a :class:`RunConfig`.

    ``values`` come from the config file (already env-overridden);
    ``overrides`` come from command-line flags and win over everything.
    Every key is checked here, whichever command reads it, so a bad key is
    a :class:`ConfigError` on every command; only ``stability.psi`` times
    ``cavity.gamma``, a rule of two keys, is left to the ``stability`` command.
    """
    raw = {key: default for key, (_, default) in KNOWN_KEYS.items()}
    raw.update(values or {})
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})

    parsed = {}
    for key, text in raw.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            parsed[key] = KNOWN_KEYS[key][0](text)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    detunings = parsed["points.detuning"]
    couplings = parsed["points.coupling"]
    if len(detunings) != len(couplings):
        raise ConfigError(
            "points.detuning and points.coupling must have the same length "
            f"({len(detunings)} vs {len(couplings)})"
        )
    if not detunings:
        raise ConfigError("working-point list is empty")
    if not 0 < parsed["grid.lo"] < parsed["grid.hi"]:
        raise ConfigError("grid bounds must satisfy 0 < lo < hi")
    if parsed["grid.points_per_decade"] < 1:
        raise ConfigError("grid.points_per_decade must be >= 1")
    if not parsed["stability.xi2"][0] > 0:
        raise ConfigError("stability.xi2 bounds must be positive")
    try:
        oscillator = MechanicalOscillator(
            mass=parsed["oscillator.mass"],
            resonance_freq=parsed["oscillator.resonance_freq"],
            damping=parsed["oscillator.damping"],
        )
        cavity = OpticalCavity(
            gamma=parsed["cavity.gamma"],
            round_trip=parsed["cavity.round_trip"],
            wavevector=1.0,  # no output depends on it: the coupling absorbs it
        )
        check_detuning("points.detuning", detunings)
        points = tuple(WorkingPoint(d, c) for d, c in zip(detunings, couplings))
        check_detuning("optimize.detuning", parsed["optimize.detuning"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if not parsed["optimize.omegas"]:  # default sweep: a decade around the resonance
        om = oscillator.resonance_freq
        parsed["optimize.omegas"] = tuple(0.3 * om * (10.0 ** (i / 9.0)) for i in range(10))
    built = ("oscillator.", "cavity.", "points.")
    fields = {k.replace(".", "_"): v for k, v in parsed.items() if not k.startswith(built)}
    constants = NORMALIZED if parsed["units"] == "normalized" else SI
    return RunConfig(
        constants=constants, oscillator=oscillator, cavity=cavity, points=points, raw=raw, **fields
    )


def load_run_config(
    path: str | None, overrides: dict[str, str] | None = None, environ=None
) -> RunConfig:
    """Read, env-override and validate a configuration file."""
    values: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = parse_config_text(fh.read(), source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    values = apply_env_overrides(values, environ)
    return build_run_config(values, overrides)
