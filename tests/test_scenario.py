"""Scenario layer tests: config parsing, profiles and slot interpolation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mbsplan.allocation import CostModel
from mbsplan.qosmodel import QuadratureSpec
from mbsplan.scenario import (RadioParams, Region, Scenario, SchemaError, ValidationError,
                              default_config, default_scenario, load_scenario,
                              slot_midpoints_h, user_density_matrix)

FLAT = ((0.0, 1.0), (12.0, 1.0))


def test_radio_defaults_and_derived_reference_gain():
    params = RadioParams()
    assert params.bandwidth_hz == 1e7
    assert params.reuse_factor == 1
    assert params.path_loss_exponent == 3.5
    # free-space reference gain at 1 m for the default carrier
    c = 299792458.0
    expected = (c / (4.0 * np.pi * params.carrier_freq_hz)) ** 2
    assert params.reference_gain == pytest.approx(expected, rel=1e-12)


def test_radio_antenna_gain_scales_the_derived_reference_gain():
    assert RadioParams(antenna_gain=4.0).reference_gain == 4.0 * RadioParams().reference_gain


@pytest.mark.parametrize("carrier_freq_hz,gain", [(1e300, "0.0"), (1e-200, "inf")])
def test_radio_gain_out_of_float_range_names_its_keys(carrier_freq_hz, gain):
    # The gain underflowing to 0 once failed naming reference_gain, a key
    # the config did not hold; its overflow raised OverflowError.
    with pytest.raises(ValidationError) as excinfo:
        RadioParams(carrier_freq_hz=carrier_freq_hz)
    assert str(excinfo.value) == (
        f"radio: antenna_gain 1.0 and carrier_freq_hz {carrier_freq_hz!r} give a received-power "
        f"gain G (c / 4 pi f)^2 of {gain}; it must be finite and > 0")


@pytest.mark.parametrize("field,value", [
    ("bandwidth_hz", 0.0),
    ("reuse_factor", 0),
    ("tx_power_w", -1.0),
    ("path_loss_exponent", 2.0),   # model needs alpha > 2
    ("noise_psd_w_per_hz", -1e-21),  # zero is legal (interference-limited)
    ("target_delay_s_per_bit", -1e-5),
    ("antenna_gain", 0.0),
    ("antenna_gain", -5.0),
    ("bandwidth_hz", float("nan")),
    ("reuse_factor", 1.5),
])
def test_radio_rejects_bad_values(field, value):
    with pytest.raises(ValidationError):
        RadioParams(**{field: value})


def test_region_validation():
    region = Region(id="office", area_km2=2.0, peak_user_density_per_km2=100.0, profile=FLAT)
    assert region.area_m2 == pytest.approx(2e6)
    assert region.peak_user_density_per_m2 == pytest.approx(1e-4)
    with pytest.raises(ValidationError):
        dataclasses.replace(region, id="")
    with pytest.raises(ValidationError):
        dataclasses.replace(region, area_km2=0.0)
    # ids are written unquoted into CSV rows and column names
    for bad_id in ("off,ice", 'off"ice', "off\nice", "office\r"):
        with pytest.raises(ValidationError, match="^id must be"):
            dataclasses.replace(region, id=bad_id)


def test_profile_normalizes_to_unit_peak():
    region = Region(id="r", area_km2=1.0, peak_user_density_per_km2=1.0,
                    profile=((0.0, 2.0), (12.0, 4.0)))
    assert region.profile == ((0.0, 0.5), (12.0, 1.0))


@pytest.mark.parametrize("peak", [1.0 - 1e-13, 1.0 + 1e-13, np.nextafter(1.0, 2.0)])
def test_profile_peak_near_one_is_rescaled_to_exactly_one(peak):
    # A peak within 1e-12 of 1 was kept as it was.
    region = Region(id="r", area_km2=1.0, peak_user_density_per_km2=1.0,
                    profile=((0.0, 0.5), (12.0, peak)))
    assert region.profile == ((0.0, 0.5 / peak), (12.0, 1.0))


def test_profile_rejects_bad_samples():
    region = Region(id="r", area_km2=1.0, peak_user_density_per_km2=1.0, profile=FLAT)
    for profile in (((0.0, 1.0),),                       # single point
                    ((0.0, 1.0), (24.0, 1.0)),           # 24 h excluded
                    ((5.0, 1.0), (2.0, 1.0)),            # not increasing
                    ((0.0, 0.0), (1.0, 0.0)),            # all zero
                    ((0.0, float("nan")), (1.0, 1.0)),   # max() would skip NaN
                    ((0.0, float("inf")), (1.0, 1.0)),   # inf / inf is NaN
                    ((0.0, 1.0), (float("nan"), 1.0))):
        with pytest.raises(ValidationError, match="^profile"):
            dataclasses.replace(region, profile=profile)


def test_builtin_profiles_shape():
    office, resid = (np.array(r.profile) for r in default_scenario().regions)
    assert office.shape == resid.shape == (24, 2)
    assert office[:, 1].max() == 1.0 and resid[:, 1].max() == 1.0
    # peaks anti-aligned: office mid-morning, residential in the evening
    assert office[np.argmax(office[:, 1]), 0] == 10.0
    assert resid[np.argmax(resid[:, 1]), 0] == 21.0
    assert office[21, 1] < 0.5 and resid[10, 1] < 0.5
    config = default_config()
    config["regions"][1]["profile"] = "builtin:industrial"
    with pytest.raises(ValidationError, match=r"regions\[1\]: profile: unknown builtin"):
        load_scenario(config)


def test_slot_midpoints():
    mids = slot_midpoints_h(4)
    assert np.allclose(mids, [3.0, 9.0, 15.0, 21.0])
    assert slot_midpoints_h(60)[0] == pytest.approx(0.2)


def test_resample_wraps_around_midnight():
    # two samples; midnight gap interpolates between 22 h and 2 h
    scenario = default_scenario()
    region = dataclasses.replace(scenario.regions[0], peak_user_density_per_km2=1e6,
                                 profile=((2.0, 1.0), (22.0, 0.5)))
    load = user_density_matrix(dataclasses.replace(
        scenario, regions=(region,), num_slots=24))[:, 0]
    t = slot_midpoints_h(24)
    k = int(np.argmin(np.abs(t - 0.5)))  # 00:30, inside the wrap segment
    expected = 0.5 + (1.0 - 0.5) * ((0.5 + 24.0 - 22.0) / 4.0)
    assert load[k] == pytest.approx(expected, rel=1e-12)


def test_user_density_matrix_units_and_shape():
    scenario = default_scenario()
    users = user_density_matrix(scenario)
    assert users.shape == (60, 2)
    # each column is the interpolated load scaled by the region's peak density
    times, loads = np.array(scenario.regions[0].profile).T
    expected = np.interp(slot_midpoints_h(60), times, loads, period=24.0) * 1e4 / 1e6
    assert np.allclose(users[:, 0], expected, rtol=1e-12)
    # slot midpoints miss the exact hourly peak, so the max sits just below it
    assert 0.9 * 1e-2 < users[:, 0].max() <= 1e-2
    assert not users.flags.writeable


def test_profile_csv_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("hour,load\n0,1\n12,2\n")
    config = default_config()
    config["regions"][0]["profile"] = str(path)
    with pytest.raises(SchemaError):
        load_scenario(config)


def test_unknown_keys_rejected_everywhere():
    config = default_config()
    config["extra"] = 1
    with pytest.raises(SchemaError):
        load_scenario(config)
    config = default_config()
    config["radio"]["mystery"] = 2.0
    with pytest.raises(SchemaError):
        load_scenario(config)
    config = default_config()
    config["regions"][0]["population"] = 5
    with pytest.raises(SchemaError):
        load_scenario(config)
    # The quadrature block and radio.reference_gain are not config keys, whatever they hold.
    for value in ({}, {"nodes_r": 64}, None):
        config = default_config()
        config["quadrature"] = value
        with pytest.raises(SchemaError, match=r"^config: unknown keys \['quadrature'\]$"):
            load_scenario(config)
    config = default_config()
    config["radio"]["reference_gain"] = 1e-3
    with pytest.raises(SchemaError, match=r"^radio: unknown keys \['reference_gain'\]$"):
        load_scenario(config)
    # JSON alone would keep a repeated key's last value; equal values are rejected too
    text = json.dumps(default_config())
    for entry, where in (('"num_slots": 60', "config"), ('"bandwidth_hz": 10000000.0', "radio"),
                         ('"area_km2": 10.0', r"regions\[1\]")):
        key = entry.split('"')[1]
        with pytest.raises(SchemaError, match=f"^{where}: duplicate key '{key}'$"):
            load_scenario(text.replace(entry, f"{entry}, {entry}"))
    # no field takes null
    config = default_config()
    config["radio"]["bandwidth_hz"] = None
    with pytest.raises(SchemaError, match=r"^radio: null keys \['bandwidth_hz'\]$"):
        load_scenario(config)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   pytest.param(10 ** 400, id="int_past_float_range")])
def test_non_finite_numbers_rejected(value, tmp_path):
    # Parsed documents: the field's own check names it.
    for section, key in (("radio", "target_delay_s_per_bit"), ("radio", "bandwidth_hz"),
                         ("regions", "area_km2")):
        config = default_config()
        target = config["regions"][0] if section == "regions" else config[section]
        target[key] = value
        with pytest.raises(ValidationError, match=key):
            load_scenario(config)
    # JSON text: NaN/Infinity tokens never become numbers, in any field.
    token = json.dumps(value)
    for key in ("peak_user_density_per_km2", "id"):
        config = default_config()
        config["regions"][1][key] = "@"
        text = json.dumps(config).replace('"@"', token)
        with pytest.raises(ValidationError, match=f"regions\\[1\\]: {key} .*{token}"):
            load_scenario(text)
    # Profile CSVs: float() parses "nan", "inf" and "1e400", so each value is checked.
    # Line numbers count blank lines too.
    for row in (f"{value},1", f"12,{value}"):
        (tmp_path / "profile.csv").write_text(f"time_h,normalized_load\n0,0.5\n\n{row}\n")
        config = default_config()
        config["regions"][1]["profile"] = str(tmp_path / "profile.csv")
        with pytest.raises(ValidationError, match=r"^regions\[1\]: profile .*profile\.csv, "
                                                  r"line 4: values must be finite"):
            load_scenario(config)


def test_missing_and_duplicate_regions_rejected():
    config = default_config()
    del config["radio"]["bandwidth_hz"]
    with pytest.raises(SchemaError):
        load_scenario(config)
    config = default_config()
    config["regions"][1]["id"] = config["regions"][0]["id"]
    with pytest.raises(ValidationError):
        load_scenario(config)


def test_relative_profile_path_resolves_against_config_dir(tmp_path):
    (tmp_path / "evening.csv").write_text("time_h,normalized_load\n6,0.5\n21,2\n")
    config = default_config()
    config["regions"][1]["profile"] = "evening.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    scenario = load_scenario(path.read_text(), base_dir=path.parent)
    assert scenario.regions[1].profile == ((6.0, 0.25), (21.0, 1.0))


def test_default_scenario_matches_default_config():
    scenario = default_scenario()
    from_config = load_scenario(default_config())
    assert from_config.radio == scenario.radio
    assert from_config.num_slots == scenario.num_slots == 60
    assert [r.area_km2 for r in scenario.regions] == [1.0, 10.0]
    assert [r.peak_user_density_per_km2 for r in scenario.regions] == [1e4, 1e3]


# Every block whose fields carry bounds, and the prefix its messages use.
_PREFIX = {RadioParams: "radio: ", Region: "regions[0]: ", Scenario: "",
           QuadratureSpec: "quadrature: ", CostModel: ""}


def _build(cls, name, value):
    """``cls`` with field ``name`` set to ``value``; config blocks go through load_scenario."""
    if cls in (CostModel, QuadratureSpec):
        return cls(**{name: value})
    config = default_config()
    block = {RadioParams: config["radio"], Region: config["regions"][0], Scenario: config}[cls]
    block[name] = value
    return load_scenario(config)


@pytest.mark.parametrize("cls,name,integer,op,bound", [
    pytest.param(cls, f.name, f.type == "int", op, bound, id=f"{cls.__name__}.{f.name}{op}{bound}")
    for cls in _PREFIX for f in dataclasses.fields(cls) for op, bound in f.metadata.items()])
def test_value_just_past_a_bound_is_rejected(cls, name, integer, op, bound):
    if integer:
        below, above = bound - 1, bound + 1
    else:
        below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
    past = {">": bound if integer else float(bound), ">=": below, "<=": above}[op]
    with pytest.raises(ValidationError) as excinfo:
        _build(cls, name, past)
    assert str(excinfo.value) == f"{_PREFIX[cls]}{name} must be {op} {bound}, got {past!r}"
    if op != ">":  # an inclusive bound admits the bound itself
        _build(cls, name, bound)
