"""Scenario ingestion and time discretization.

A scenario bundles radio-layer constants with a set of regions, each carrying
a daily traffic profile sampled over a 24 h window. Profiles are normalized
to a peak load of 1 and resampled at slot midpoints to produce the per-slot,
per-region active-user density matrix that drives dimensioning.

Units: everything internal is SI (meters, watts, users per square meter).
Configuration files and exported tables use km^2-based units, which is what
operators quote; conversion happens at the boundary.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
HOURS_PER_DAY = 24.0
M2_PER_KM2 = 1e6

_PROFILE_HEADER = "time_h,normalized_load"

_TOP_KEYS = {"regions", "num_slots", "radio", "quadrature"}
_TOP_REQUIRED = {"regions", "num_slots", "radio"}
_REGION_KEYS = {"id", "area_km2", "peak_user_density_per_km2", "profile"}
_RADIO_REQUIRED = {
    "bandwidth_hz",
    "reuse_factor",
    "tx_power_w",
    "antenna_gain",
    "carrier_freq_hz",
    "path_loss_exponent",
    "noise_psd_w_per_hz",
    "target_delay_s_per_bit",
}
_RADIO_KEYS = _RADIO_REQUIRED | {"reference_gain"}
_QUAD_KEYS = {"nodes_r", "nodes_x", "nodes_theta", "tail_mass_epsilon"}


class ScenarioError(ValueError):
    """Base class for configuration problems."""


class SchemaError(ScenarioError):
    """Structural problem in a config document: missing or unknown keys."""


class ValidationError(ScenarioError):
    """A field value violates a model invariant."""


def _check_keys(mapping, allowed, required, where):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object, got {type(mapping).__name__}")
    keys = set(mapping)
    missing = sorted(required - keys)
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    extra = sorted(keys - allowed)
    if extra:
        raise SchemaError(f"{where}: unknown keys {extra}")


class _NonFiniteToken:
    """A ``NaN``/``Infinity``/``-Infinity`` token from config JSON.

    JSON has no such numbers, so the parser keeps the token as this marker
    instead of a float. No field accepts it, so the check of whichever field
    holds it rejects the config and names that field.
    """

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


def _number(mapping, key, where, integer=False):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: {key} must be a number, got {value!r}")
    if integer:
        if not isinstance(value, int):
            raise ValidationError(f"{where}: {key} must be an integer, got {value!r}")
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int beyond float range
        raise ValidationError(f"{where}: {key} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer constants shared by every region.

    Defaults describe a 10 MHz downlink at 1 GHz with unit reuse, 1 W
    transmit power, urban path loss 3.5 and thermal noise -174 dBm/Hz.
    ``reference_gain`` folds the antenna gain G and the 1 m free-space loss
    into one received-power multiplier; left unset it is derived as
    G (c / 4 pi f)^2. An explicit ``reference_gain`` already includes G, so
    it cannot be combined with an ``antenna_gain`` other than 1.
    """

    bandwidth_hz: float = 1e7
    reuse_factor: int = 1
    tx_power_w: float = 1.0
    antenna_gain: float = 1.0
    carrier_freq_hz: float = 1e9
    path_loss_exponent: float = 3.5
    noise_psd_w_per_hz: float = 3.98e-21
    target_delay_s_per_bit: float = 1e-5
    reference_gain: float | None = None

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValidationError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        k = self.reuse_factor
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValidationError(f"reuse_factor must be an integer >= 1, got {k!r}")
        if self.tx_power_w <= 0:
            raise ValidationError(f"tx_power_w must be > 0, got {self.tx_power_w}")
        if self.carrier_freq_hz <= 0:
            raise ValidationError(f"carrier_freq_hz must be > 0, got {self.carrier_freq_hz}")
        if self.path_loss_exponent <= 2.0:
            raise ValidationError(
                "path_loss_exponent must exceed 2 (the interference integral "
                f"diverges otherwise), got {self.path_loss_exponent}"
            )
        if self.noise_psd_w_per_hz < 0:
            raise ValidationError(f"noise_psd_w_per_hz must be >= 0, got {self.noise_psd_w_per_hz}")
        if self.target_delay_s_per_bit <= 0:
            raise ValidationError(
                f"target_delay_s_per_bit must be > 0, got {self.target_delay_s_per_bit}"
            )
        if not self.antenna_gain > 0:
            raise ValidationError(f"radio: antenna_gain must be > 0, got {self.antenna_gain}")
        if self.reference_gain is None:
            gain = (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * self.carrier_freq_hz)) ** 2
            object.__setattr__(self, "reference_gain", self.antenna_gain * gain)
        elif self.antenna_gain != 1.0:
            raise ValidationError(
                "radio: reference_gain already includes the antenna gain; give either "
                f"reference_gain or antenna_gain, not both (antenna_gain {self.antenna_gain})"
            )
        if self.reference_gain <= 0:
            raise ValidationError(f"reference_gain must be > 0, got {self.reference_gain}")


@dataclass(frozen=True)
class Region:
    id: str
    area_km2: float
    peak_user_density_per_km2: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"region id must be a non-empty string, got {self.id!r}")
        if self.area_km2 <= 0:
            raise ValidationError(f"area_km2 must be > 0, got {self.area_km2} (region {self.id!r})")
        if self.peak_user_density_per_km2 < 0:
            raise ValidationError(
                f"peak_user_density_per_km2 must be >= 0, got "
                f"{self.peak_user_density_per_km2} (region {self.id!r})"
            )

    @property
    def area_m2(self) -> float:
        return self.area_km2 * M2_PER_KM2

    @property
    def peak_user_density_per_m2(self) -> float:
        return self.peak_user_density_per_km2 / M2_PER_KM2


@dataclass(frozen=True)
class TrafficProfile:
    """Daily load shape for one region: (time_h, normalized_load) samples.

    Times live in [0, 24) and must be strictly increasing; the profile wraps
    around midnight. Loads are rescaled on construction so the maximum
    sample is exactly 1.
    """

    region_id: str
    samples: tuple

    def __post_init__(self):
        try:
            samples = tuple((float(t), float(v)) for t, v in self.samples)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"samples: expected (time_h, load) pairs: {exc}") from exc
        if len(samples) < 2:
            raise ValidationError(
                f"samples: need at least 2 points, got {len(samples)} (region {self.region_id!r})"
            )
        times = [t for t, _ in samples]
        loads = [v for _, v in samples]
        if any(not 0.0 <= t < HOURS_PER_DAY for t in times):
            raise ValidationError(
                f"samples: time_h must lie in [0, 24), region {self.region_id!r}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(
                f"samples: time_h must be strictly increasing, region {self.region_id!r}"
            )
        if any(v < 0.0 for v in loads):
            raise ValidationError(
                f"samples: normalized_load must be >= 0, region {self.region_id!r}"
            )
        peak = max(loads)
        if peak <= 0.0:
            raise ValidationError(
                f"samples: all-zero profile cannot be normalized, region {self.region_id!r}"
            )
        if abs(peak - 1.0) > 1e-12:
            samples = tuple((t, v / peak) for t, v in samples)
        object.__setattr__(self, "samples", samples)

    @property
    def times_h(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    @property
    def loads(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])


@dataclass(frozen=True)
class Scenario:
    regions: tuple
    profiles: tuple
    num_slots: int
    radio: RadioParams
    quadrature: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not isinstance(self.num_slots, int) or isinstance(self.num_slots, bool) or self.num_slots < 1:
            raise ValidationError(f"num_slots must be an integer >= 1, got {self.num_slots!r}")
        if len(self.regions) < 1:
            raise ValidationError("regions: need at least one region")
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"region ids must be unique, got {ids}")
        if len(self.profiles) != len(self.regions):
            raise ValidationError(
                f"need exactly one profile per region, got {len(self.profiles)} "
                f"profiles for {len(self.regions)} regions"
            )
        for region, profile in zip(self.regions, self.profiles):
            if profile.region_id != region.id:
                raise ValidationError(
                    f"profile order must match regions: expected {region.id!r}, "
                    f"got {profile.region_id!r}"
                )
        if self.quadrature is not None:
            _check_keys(self.quadrature, _QUAD_KEYS, set(), "quadrature")
            object.__setattr__(self, "quadrature", dict(self.quadrature))

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def region_ids(self) -> tuple:
        return tuple(r.id for r in self.regions)

    def areas_m2(self) -> np.ndarray:
        return np.array([r.area_m2 for r in self.regions])


@dataclass(frozen=True)
class UserDensityMatrix:
    """Active-user density per slot and region, in users per m^2."""

    values: np.ndarray
    slot_times_h: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        times = np.asarray(self.slot_times_h, dtype=float)
        if values.ndim != 2:
            raise ValidationError(f"values must be a J x Z matrix, got shape {values.shape}")
        if times.shape != (values.shape[0],):
            raise ValidationError(
                f"slot_times_h length {times.shape} does not match {values.shape[0]} slots"
            )
        if np.any(values < 0):
            raise ValidationError("user densities must be >= 0")
        values.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slot_times_h", times)

    @property
    def num_slots(self) -> int:
        return self.values.shape[0]

    @property
    def num_regions(self) -> int:
        return self.values.shape[1]


# Built-in daily shapes, one sample per hour. The office curve tracks a
# business district (ramp-up from 7:00, peak at 10:00, busy afternoon, quiet
# evening); the residential curve mirrors it with an evening peak at 21:00.
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


def synth_profile(kind: str, region_id: str | None = None) -> TrafficProfile:
    """Deterministic built-in daily profile.

    ``office`` peaks at 10:00 and is quiet in the evening; ``residential``
    peaks at 21:00 and is quiet mid-morning. The two shapes are
    anti-correlated by construction, which is what makes shifting capacity
    between the corresponding regions worthwhile.
    """
    try:
        table = _BUILTIN_HOURLY[kind]
    except KeyError:
        raise ValidationError(
            f"profile: unknown builtin kind {kind!r}; expected one of "
            f"{sorted(_BUILTIN_HOURLY)}"
        ) from None
    samples = tuple((float(hour), load) for hour, load in enumerate(table))
    return TrafficProfile(region_id=region_id if region_id is not None else kind, samples=samples)


def slot_midpoints_h(num_slots: int) -> np.ndarray:
    """Midpoint hour of each slot when the day is split into J equal slots."""
    return ((np.arange(num_slots) + 0.5) * HOURS_PER_DAY) / num_slots


def resample_profile(profile: TrafficProfile, num_slots: int) -> np.ndarray:
    """Load at each slot midpoint, by periodic linear interpolation.

    The sample grid wraps at 24 h, so a query before the first sample
    interpolates between the last sample (shifted back a day) and the first.
    """
    if num_slots < 1:
        raise ValidationError(f"num_slots must be >= 1, got {num_slots}")
    t = slot_midpoints_h(num_slots)
    return np.interp(t, profile.times_h, profile.loads, period=HOURS_PER_DAY)


def user_density_matrix(scenario: Scenario) -> UserDensityMatrix:
    """Per-slot, per-region active-user density in users per m^2."""
    columns = []
    for region, profile in zip(scenario.regions, scenario.profiles):
        load = resample_profile(profile, scenario.num_slots)
        columns.append(load * region.peak_user_density_per_m2)
    values = np.column_stack(columns)
    return UserDensityMatrix(values=values, slot_times_h=slot_midpoints_h(scenario.num_slots))


def _read_profile_csv(path: Path, region_id: str) -> TrafficProfile:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"profile: cannot read {path}: {exc}") from exc
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines or lines[0].strip() != _PROFILE_HEADER:
        raise SchemaError(
            f"profile {path}: first line must be '{_PROFILE_HEADER}', got "
            f"{lines[0].strip() if lines else '<empty file>'!r}"
        )
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise SchemaError(f"profile {path}, line {i}: expected 2 fields, got {len(parts)}")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"profile {path}, line {i}: {exc}") from exc
    return TrafficProfile(region_id=region_id, samples=tuple(samples))


def write_profile_csv(profile: TrafficProfile, path) -> None:
    path = Path(path)
    lines = [_PROFILE_HEADER]
    lines += [f"{t!r},{v!r}" for t, v in profile.samples]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _resolve_profile(spec, region_id: str, base_dir: Path) -> TrafficProfile:
    if not isinstance(spec, str) or not spec:
        raise ValidationError(f"profile must be a builtin name or a path, got {spec!r}")
    if spec.startswith("builtin:"):
        return synth_profile(spec[len("builtin:"):], region_id=region_id)
    return _read_profile_csv(base_dir / spec, region_id)


def load_scenario(document, base_dir=None) -> Scenario:
    """Build a validated Scenario from a JSON config document.

    ``document`` may be an already-parsed dict or raw JSON text. Profile
    paths are resolved relative to ``base_dir`` (default: the working
    directory). Unknown keys anywhere in the document are rejected.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document, parse_constant=_NonFiniteToken)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    _check_keys(document, _TOP_KEYS, _TOP_REQUIRED, "config")
    base = Path(base_dir) if base_dir is not None else Path(".")

    radio_doc = document["radio"]
    _check_keys(radio_doc, _RADIO_KEYS, _RADIO_REQUIRED, "radio")
    radio_kwargs = {
        "bandwidth_hz": _number(radio_doc, "bandwidth_hz", "radio"),
        "reuse_factor": _number(radio_doc, "reuse_factor", "radio", integer=True),
        "tx_power_w": _number(radio_doc, "tx_power_w", "radio"),
        "antenna_gain": _number(radio_doc, "antenna_gain", "radio"),
        "carrier_freq_hz": _number(radio_doc, "carrier_freq_hz", "radio"),
        "path_loss_exponent": _number(radio_doc, "path_loss_exponent", "radio"),
        "noise_psd_w_per_hz": _number(radio_doc, "noise_psd_w_per_hz", "radio"),
        "target_delay_s_per_bit": _number(radio_doc, "target_delay_s_per_bit", "radio"),
    }
    if "reference_gain" in radio_doc:
        radio_kwargs["reference_gain"] = _number(radio_doc, "reference_gain", "radio")
    radio = RadioParams(**radio_kwargs)

    regions_doc = document["regions"]
    if not isinstance(regions_doc, list) or not regions_doc:
        raise ValidationError("regions must be a non-empty array")
    regions = []
    profiles = []
    for i, entry in enumerate(regions_doc):
        where = f"regions[{i}]"
        _check_keys(entry, _REGION_KEYS, _REGION_KEYS, where)
        rid = entry["id"]
        if not isinstance(rid, str) or not rid:
            raise ValidationError(f"{where}: id must be a non-empty string, got {rid!r}")
        region = Region(
            id=rid,
            area_km2=_number(entry, "area_km2", where),
            peak_user_density_per_km2=_number(entry, "peak_user_density_per_km2", where),
        )
        regions.append(region)
        profiles.append(_resolve_profile(entry["profile"], rid, base))

    num_slots = _number(document, "num_slots", "config", integer=True)

    quadrature = None
    if "quadrature" in document:
        quad_doc = document["quadrature"]
        _check_keys(quad_doc, _QUAD_KEYS, set(), "quadrature")
        quadrature = {}
        for key in sorted(quad_doc):
            integer = key.startswith("nodes_")
            quadrature[key] = _number(quad_doc, key, "quadrature", integer=integer)

    return Scenario(
        regions=tuple(regions),
        profiles=tuple(profiles),
        num_slots=num_slots,
        radio=radio,
        quadrature=quadrature,
    )


def load_scenario_file(path) -> Scenario:
    path = Path(path)
    return load_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


def _builtin_kind(profile: TrafficProfile) -> str | None:
    for kind in _BUILTIN_HOURLY:
        if profile.samples == synth_profile(kind).samples:
            return kind
    return None


def scenario_to_config(scenario: Scenario, profile_refs: dict) -> dict:
    """Config dict for a scenario, given a profile reference per region id."""
    radio = scenario.radio
    doc = {
        "regions": [
            {
                "id": r.id,
                "area_km2": r.area_km2,
                "peak_user_density_per_km2": r.peak_user_density_per_km2,
                "profile": profile_refs[r.id],
            }
            for r in scenario.regions
        ],
        "num_slots": scenario.num_slots,
        "radio": {
            "bandwidth_hz": radio.bandwidth_hz,
            "reuse_factor": radio.reuse_factor,
            "tx_power_w": radio.tx_power_w,
            "antenna_gain": radio.antenna_gain,
            "carrier_freq_hz": radio.carrier_freq_hz,
            "path_loss_exponent": radio.path_loss_exponent,
            "noise_psd_w_per_hz": radio.noise_psd_w_per_hz,
            "target_delay_s_per_bit": radio.target_delay_s_per_bit,
        },
    }
    if radio.antenna_gain == 1.0:
        doc["radio"]["reference_gain"] = radio.reference_gain
    if scenario.quadrature is not None:
        doc["quadrature"] = dict(scenario.quadrature)
    return doc


def save_scenario(scenario: Scenario, out_dir, config_name="config.json") -> Path:
    """Write a scenario back to disk so that loading it again is an identity.

    Profiles matching a builtin shape are referenced as ``builtin:<kind>``;
    anything else is written out as a profile CSV next to the config.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = {}
    for region, profile in zip(scenario.regions, scenario.profiles):
        kind = _builtin_kind(profile)
        if kind is not None:
            refs[region.id] = f"builtin:{kind}"
        else:
            name = f"profile_{region.id}.csv"
            write_profile_csv(profile, out_dir / name)
            refs[region.id] = name
    config_path = out_dir / config_name
    doc = scenario_to_config(scenario, refs)
    config_path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return config_path


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
        "radio": {
            "bandwidth_hz": 1e7,
            "reuse_factor": 1,
            "tx_power_w": 1.0,
            "antenna_gain": 1.0,
            "carrier_freq_hz": 1e9,
            "path_loss_exponent": 3.5,
            "noise_psd_w_per_hz": 3.98e-21,
            "target_delay_s_per_bit": 1e-5,
        },
    }


def default_scenario() -> Scenario:
    return load_scenario(default_config())
