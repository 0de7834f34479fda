"""Scenario ingestion and time discretization.

A scenario bundles radio-layer constants with a set of regions, each
carrying a daily traffic profile sampled over a 24 h window. Profiles are
normalized to a peak load of 1 and interpolated at slot midpoints to
produce the per-slot, per-region active-user density matrix that drives
dimensioning.

Every numeric parameter is checked in one place: a field's metadata holds
its bounds, e.g. ``{">": 0, "<=": 1e-6}``, and ``_check_numbers`` rejects a
value outside them with a message naming the field.

Units: everything internal is SI (meters, watts, users per square meter).
Configuration files and exported tables use km^2-based units, which is what
operators quote; conversion happens at the boundary.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
HOURS_PER_DAY = 24.0
M2_PER_KM2 = 1e6

_PROFILE_HEADER = "time_h,normalized_load"
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class ScenarioError(ValueError):
    """Base class for configuration problems."""


class SchemaError(ScenarioError):
    """Structural problem in a config document: missing, unknown, repeated or null keys."""


class ValidationError(ScenarioError):
    """A field value violates a model invariant."""


class _RepeatedKey(dict):
    """A config JSON object in which key ``repeated`` occurs more than once."""


def _json_object(pairs):
    """``object_pairs_hook``: plain ``json`` keeps a repeated key's last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKey(obj)
        obj.repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
    return obj


def _check_keys(mapping, cls, where):
    """Reject ``mapping`` unless its keys are the fields of ``cls``, none null."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object, got {type(mapping).__name__}")
    if isinstance(mapping, _RepeatedKey):
        raise SchemaError(f"{where}: duplicate key {mapping.repeated!r}")
    keys, names = set(mapping), {f.name for f in fields(cls)}
    for problem, bad in (("missing", names - keys), ("unknown", keys - names),
                         ("null", {key for key in keys if mapping[key] is None})):
        if bad:
            raise SchemaError(f"{where}: {problem} keys {sorted(bad)}")


class _NumberToken:
    """A number token from config JSON that no field accepts: ``NaN``,
    ``Infinity`` or ``-Infinity``, which JSON does not have, or an integer
    literal longer than Python converts (4300 digits by default).

    The parser keeps the token as this marker instead of a number, so the
    check of whichever field holds it rejects the config and names that
    field.
    """

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        if self.token[-1:].isdigit():
            return f"an integer literal of {len(self.token.lstrip('-'))} digits"
        return self.token


def _json_int(token: str):
    """``parse_int``: the int, or a marker where it has too many digits."""
    try:
        return int(token)
    except ValueError:
        return _NumberToken(token)


def _number(value, name, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if integer:
        if not isinstance(value, int):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int beyond float range
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _check_numbers(obj, prefix=""):
    """Check each field bounded in its metadata, e.g. ``{">": 0, "<=": 1e-6}``,
    and store it as a number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.metadata:
            value = _number(value, prefix + f.name, integer=f.type in ("int", int))
            for op, bound in f.metadata.items():
                if not _BOUNDS[op](value, bound):
                    raise ValidationError(f"{prefix}{f.name} must be {op} {bound}, got {value!r}")
            object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer constants shared by every region.

    Defaults describe a 10 MHz downlink at 1 GHz with unit reuse, 1 W
    transmit power, urban path loss 3.5 and thermal noise -174 dBm/Hz. The
    path-loss exponent must exceed 2, or the interference integral diverges,
    and be at most 8, past the measured 1.6-6; zero noise is legal
    (interference-limited). The fields are the config's ``radio`` keys, all
    required.
    """

    bandwidth_hz: float = field(default=1e7, metadata={">": 0})
    reuse_factor: int = field(default=1, metadata={">=": 1})
    tx_power_w: float = field(default=1.0, metadata={">": 0})
    antenna_gain: float = field(default=1.0, metadata={">": 0})
    carrier_freq_hz: float = field(default=1e9, metadata={">": 0})
    path_loss_exponent: float = field(default=3.5, metadata={">": 2, "<=": 8})
    noise_psd_w_per_hz: float = field(default=3.98e-21, metadata={">=": 0})
    target_delay_s_per_bit: float = field(default=1e-5, metadata={">": 0})

    def __post_init__(self):
        _check_numbers(self, "radio: ")
        try:  # a float's ** raises OverflowError where its * gives inf
            gain = self.reference_gain
        except OverflowError:
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise ValidationError(
                f"radio: antenna_gain {self.antenna_gain!r} and carrier_freq_hz "
                f"{self.carrier_freq_hz!r} give a received-power gain G (c / 4 pi f)^2 "
                f"of {gain!r}; it must be finite and > 0")

    @property
    def reference_gain(self) -> float:
        """The received-power multiplier at 1 m: the antenna gain G times the
        free-space loss, G (c / 4 pi f)^2."""
        wavelength_term = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * self.carrier_freq_hz)
        return self.antenna_gain * wavelength_term ** 2


@dataclass(frozen=True)
class Region:
    """One district: its area, peak active-user density and daily profile.

    ``profile`` holds (time_h, load) samples: times strictly increasing in
    [0, 24), wrapping around midnight; loads finite, >= 0 and rescaled on
    construction so that the largest is exactly 1.
    """

    id: str
    # At most the Earth's surface, a physical check on the input: the
    # allocation LP sees station counts as shares of the peak, not areas.
    area_km2: float = field(metadata={">": 0, "<=": 5.1e8})
    peak_user_density_per_km2: float = field(metadata={">=": 0})
    profile: tuple

    def __post_init__(self):
        # Ids are written unquoted into CSV rows and column names.
        if not isinstance(self.id, str) or not self.id or any(c in self.id for c in ',"\n\r'):
            raise ValidationError("id must be a non-empty string without ',', '\"' or "
                                  f"line breaks, got {self.id!r}")
        _check_numbers(self)
        try:
            samples = tuple((float(t), float(v)) for t, v in self.profile)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"profile: expected (time_h, load) pairs: {exc}") from exc
        if len(samples) < 2:
            raise ValidationError(f"profile: need at least 2 points, got {len(samples)}")
        times, loads = zip(*samples)
        if not (0.0 <= times[0] and times[-1] < HOURS_PER_DAY
                and all(a < b for a, b in zip(times, times[1:]))):
            raise ValidationError("profile: time_h must increase strictly within [0, 24)")
        if any(not 0.0 <= v < math.inf for v in loads):
            raise ValidationError("profile: normalized_load must be finite and >= 0")
        peak = max(loads)
        if peak <= 0.0:
            raise ValidationError("profile: all-zero profile cannot be normalized")
        object.__setattr__(self, "profile", tuple((t, v / peak) for t, v in samples))

    @property
    def area_m2(self) -> float:
        return self.area_km2 * M2_PER_KM2

    @property
    def peak_user_density_per_m2(self) -> float:
        return self.peak_user_density_per_km2 / M2_PER_KM2


@dataclass(frozen=True)
class Scenario:
    regions: tuple
    # At most one-minute slots, checked before any J x Z array is allocated.
    num_slots: int = field(metadata={">=": 1, "<=": 1440})
    radio: RadioParams

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        _check_numbers(self)
        if len(self.regions) < 1:
            raise ValidationError("regions: need at least one region")
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"region ids must be unique, got {ids}")

    @property
    def region_ids(self) -> tuple:
        return tuple(r.id for r in self.regions)

    def areas_m2(self) -> np.ndarray:
        return np.array([r.area_m2 for r in self.regions])


# Built-in daily shapes, one sample per hour. The office curve tracks a
# business district (ramp-up from 7:00, peak at 10:00, busy afternoon, quiet
# evening); the residential curve mirrors it with an evening peak at 21:00.
# The two are anti-correlated by construction, which is what makes shifting
# capacity between the corresponding regions worthwhile.
_BUILTIN_HOURLY = {
    "office": (
        0.13, 0.11, 0.10, 0.09, 0.09, 0.10, 0.16, 0.32,
        0.63, 0.90, 1.00, 0.97, 0.93, 0.90, 0.91, 0.90,
        0.88, 0.78, 0.60, 0.46, 0.34, 0.25, 0.19, 0.15,
    ),
    "residential": (
        0.42, 0.33, 0.26, 0.22, 0.20, 0.21, 0.24, 0.29,
        0.34, 0.36, 0.33, 0.32, 0.35, 0.37, 0.42, 0.49,
        0.57, 0.65, 0.74, 0.83, 0.93, 1.00, 0.86, 0.60,
    ),
}


def slot_midpoints_h(num_slots: int) -> np.ndarray:
    """Midpoint hour of each slot when the day is split into J equal slots."""
    return ((np.arange(num_slots) + 0.5) * HOURS_PER_DAY) / num_slots


def user_density_matrix(scenario: Scenario) -> np.ndarray:
    """Per-slot, per-region active-user density in users per m^2, a
    read-only J x Z array.

    Each region's profile is interpolated linearly at the slot midpoints.
    The sample grid wraps at 24 h, so a slot before the first sample
    interpolates between the last sample (shifted back a day) and the first.
    """
    slot_times = slot_midpoints_h(scenario.num_slots)
    columns = []
    for region in scenario.regions:
        times, loads = np.array(region.profile).T
        load = np.interp(slot_times, times, loads, period=HOURS_PER_DAY)
        columns.append(load * region.peak_user_density_per_m2)
    users = np.column_stack(columns)
    users.setflags(write=False)
    return users


def _read_profile(spec, base_dir: Path) -> tuple:
    """(time_h, load) samples named by a region's ``profile`` config value:
    ``builtin:<kind>``, or the path of a ``time_h,normalized_load`` CSV."""
    if not isinstance(spec, str) or not spec:
        raise ValidationError(f"profile must be a builtin name or a path, got {spec!r}")
    if spec.startswith("builtin:"):
        kind = spec[len("builtin:"):]
        if kind not in _BUILTIN_HOURLY:
            raise ValidationError(f"profile: unknown builtin kind {kind!r}; expected one of "
                                  f"{sorted(_BUILTIN_HOURLY)}")
        return tuple(enumerate(_BUILTIN_HOURLY[kind]))
    path = base_dir / spec
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"profile: cannot read {path}: {exc}") from exc
    lines = [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not lines or lines[0][1].strip() != _PROFILE_HEADER:
        raise SchemaError(
            f"profile {path}: first line must be '{_PROFILE_HEADER}', got "
            f"{lines[0][1].strip() if lines else '<empty file>'!r}"
        )
    samples = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise SchemaError(f"profile {path}, line {i}: expected 2 fields, got {len(parts)}")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"profile {path}, line {i}: {exc}") from exc
        if not all(map(math.isfinite, samples[-1])):
            raise ValidationError(f"profile {path}, line {i}: values must be finite, "
                                  f"got {line.strip()!r}")
    return tuple(samples)


def load_scenario(document, base_dir=None) -> Scenario:
    """Build a validated Scenario from a JSON config document.

    ``document`` may be an already-parsed dict or raw JSON text. Profile
    paths are resolved relative to ``base_dir`` (default: the working
    directory). Unknown or repeated keys anywhere in the document are
    rejected.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document, object_pairs_hook=_json_object,
                                  parse_constant=_NumberToken, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("config is nested too deeply to parse") from None
    _check_keys(document, Scenario, "config")
    base = Path(base_dir) if base_dir is not None else Path(".")

    radio_doc = document["radio"]
    _check_keys(radio_doc, RadioParams, "radio")
    radio = RadioParams(**radio_doc)

    regions_doc = document["regions"]
    if not isinstance(regions_doc, list) or not regions_doc:
        raise ValidationError("regions must be a non-empty array")
    regions = []
    for i, entry in enumerate(regions_doc):
        where = f"regions[{i}]"
        _check_keys(entry, Region, where)
        try:
            regions.append(Region(**dict(entry, profile=_read_profile(entry["profile"], base))))
        except ScenarioError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    return Scenario(regions=tuple(regions), num_slots=document["num_slots"], radio=radio)


def default_config() -> dict:
    """Two-district demo setup: a compact office core next to a residential
    area ten times its size, with anti-aligned daily peaks and a 24 h day cut
    into 60 slots."""
    return {
        "regions": [
            {
                "id": "office",
                "area_km2": 1.0,
                "peak_user_density_per_km2": 10000.0,
                "profile": "builtin:office",
            },
            {
                "id": "residential",
                "area_km2": 10.0,
                "peak_user_density_per_km2": 1000.0,
                "profile": "builtin:residential",
            },
        ],
        "num_slots": 60,
        "radio": {f.name: f.default for f in fields(RadioParams)},
    }


def default_scenario() -> Scenario:
    return load_scenario(default_config())
