"""Scenario layer tests: config parsing, profiles, resampling, round trips."""

import dataclasses
import json

import numpy as np
import pytest

from mbsplan.scenario import (RadioParams, Region, Scenario, SchemaError,
                              TrafficProfile, ValidationError, default_config,
                              default_scenario, load_scenario, load_scenario_file,
                              resample_profile, save_scenario, slot_midpoints_h,
                              synth_profile, user_density_matrix, write_profile_csv)


def test_radio_defaults_and_derived_reference_gain():
    params = RadioParams()
    assert params.bandwidth_hz == 1e7
    assert params.reuse_factor == 1
    assert params.path_loss_exponent == 3.5
    # free-space reference gain at 1 m for the default carrier
    c = 299792458.0
    expected = (c / (4.0 * np.pi * params.carrier_freq_hz)) ** 2
    assert params.reference_gain == pytest.approx(expected, rel=1e-12)


def test_radio_explicit_reference_gain_kept():
    params = RadioParams(reference_gain=1e-3)
    assert params.reference_gain == 1e-3


def test_radio_antenna_gain_scales_the_derived_reference_gain():
    assert RadioParams(antenna_gain=4.0).reference_gain == 4.0 * RadioParams().reference_gain
    # an explicit reference gain already includes the antenna gain
    assert RadioParams(antenna_gain=1.0, reference_gain=1e-3).reference_gain == 1e-3
    with pytest.raises(ValidationError, match="reference_gain.*antenna_gain"):
        RadioParams(antenna_gain=4.0, reference_gain=1e-3)


@pytest.mark.parametrize("field,value", [
    ("bandwidth_hz", 0.0),
    ("reuse_factor", 0),
    ("tx_power_w", -1.0),
    ("path_loss_exponent", 2.0),   # model needs alpha > 2
    ("noise_psd_w_per_hz", -1e-21),  # zero is legal (interference-limited)
    ("target_delay_s_per_bit", -1e-5),
    ("antenna_gain", 0.0),
    ("antenna_gain", -5.0),
])
def test_radio_rejects_bad_values(field, value):
    with pytest.raises(ValidationError):
        RadioParams(**{field: value})


def test_region_validation():
    region = Region(id="office", area_km2=2.0, peak_user_density_per_km2=100.0)
    assert region.area_m2 == pytest.approx(2e6)
    assert region.peak_user_density_per_m2 == pytest.approx(1e-4)
    with pytest.raises(ValidationError):
        Region(id="", area_km2=1.0, peak_user_density_per_km2=1.0)
    with pytest.raises(ValidationError):
        Region(id="x", area_km2=0.0, peak_user_density_per_km2=1.0)


def test_profile_normalizes_to_unit_peak():
    profile = TrafficProfile(region_id="r", samples=((0.0, 2.0), (12.0, 4.0)))
    assert profile.loads.max() == pytest.approx(1.0)
    assert profile.loads[0] == pytest.approx(0.5)


def test_profile_rejects_bad_samples():
    with pytest.raises(ValidationError):
        TrafficProfile(region_id="r", samples=((0.0, 1.0),))  # single point
    with pytest.raises(ValidationError):
        TrafficProfile(region_id="r", samples=((0.0, 1.0), (24.0, 1.0)))  # 24 h excluded
    with pytest.raises(ValidationError):
        TrafficProfile(region_id="r", samples=((5.0, 1.0), (2.0, 1.0)))  # not increasing
    with pytest.raises(ValidationError):
        TrafficProfile(region_id="r", samples=((0.0, 0.0), (1.0, 0.0)))  # all zero


def test_builtin_profiles_shape():
    office = synth_profile("office")
    resid = synth_profile("residential")
    assert office.loads.size == 24 and resid.loads.size == 24
    assert office.loads.max() == 1.0 and resid.loads.max() == 1.0
    # peaks anti-aligned: office mid-morning, residential in the evening
    assert office.times_h[np.argmax(office.loads)] == 10.0
    assert resid.times_h[np.argmax(resid.loads)] == 21.0
    assert office.loads[21] < 0.5 and resid.loads[10] < 0.5
    with pytest.raises(ValidationError):
        synth_profile("industrial")


def test_slot_midpoints():
    mids = slot_midpoints_h(4)
    assert np.allclose(mids, [3.0, 9.0, 15.0, 21.0])
    assert slot_midpoints_h(60)[0] == pytest.approx(0.2)


def test_resample_wraps_around_midnight():
    # two samples; midnight gap interpolates between 22 h and 2 h
    profile = TrafficProfile(region_id="r", samples=((2.0, 1.0), (22.0, 0.5)))
    load = resample_profile(profile, 24)
    t = slot_midpoints_h(24)
    k = int(np.argmin(np.abs(t - 0.5)))  # 00:30, inside the wrap segment
    expected = 0.5 + (1.0 - 0.5) * ((0.5 + 24.0 - 22.0) / 4.0)
    assert load[k] == pytest.approx(expected, rel=1e-12)


def test_user_density_matrix_units_and_shape():
    scenario = default_scenario()
    users = user_density_matrix(scenario)
    assert users.values.shape == (60, 2)
    # each column is the resampled load scaled by the region's peak density
    expected = resample_profile(scenario.profiles[0], 60) * 1e4 / 1e6
    assert np.allclose(users.values[:, 0], expected, rtol=1e-12)
    # slot midpoints miss the exact hourly peak, so the max sits just below it
    assert 0.9 * 1e-2 < users.values[:, 0].max() <= 1e-2
    assert not users.values.flags.writeable


def test_profile_csv_round_trip(tmp_path):
    profile = synth_profile("office", region_id="office")
    path = tmp_path / "office.csv"
    write_profile_csv(profile, path)
    text = path.read_text()
    assert text.startswith("time_h,normalized_load\n")
    config = default_config()
    config["regions"][0]["profile"] = str(path)
    scenario = load_scenario(config)
    assert np.allclose(scenario.profiles[0].loads, profile.loads)


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
    config = default_config()
    config["quadrature"] = {"nodes_r": 32, "nodes_q": 16}
    with pytest.raises(SchemaError):
        load_scenario(config)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   pytest.param(10 ** 400, id="int_past_float_range")])
def test_non_finite_numbers_rejected(value):
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
    profile = synth_profile("residential", region_id="residential")
    write_profile_csv(profile, tmp_path / "evening.csv")
    config = default_config()
    config["regions"][1]["profile"] = "evening.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    scenario = load_scenario_file(path)
    assert np.allclose(scenario.profiles[1].loads, profile.loads)


def test_save_load_round_trip(tmp_path):
    scenario = default_scenario()
    config_path = save_scenario(scenario, tmp_path)
    again = load_scenario_file(config_path)
    assert again.num_slots == scenario.num_slots
    assert again.radio == scenario.radio
    assert [r.id for r in again.regions] == [r.id for r in scenario.regions]
    for a, b in zip(again.profiles, scenario.profiles):
        assert a.samples == b.samples
    # a derived reference gain is not written back next to its antenna gain
    gained = dataclasses.replace(scenario, radio=RadioParams(antenna_gain=4.0))
    assert load_scenario_file(save_scenario(gained, tmp_path / "gained")).radio == gained.radio


def test_default_scenario_matches_default_config():
    scenario = default_scenario()
    from_config = load_scenario(default_config())
    assert from_config.radio == scenario.radio
    assert from_config.num_slots == scenario.num_slots == 60
    assert [r.area_km2 for r in scenario.regions] == [1.0, 10.0]
    assert [r.peak_user_density_per_km2 for r in scenario.regions] == [1e4, 1e3]


def test_quadrature_block_accepted():
    config = default_config()
    config["quadrature"] = {"nodes_r": 32, "nodes_x": 32, "nodes_theta": 16,
                            "tail_mass_epsilon": 1e-10}
    scenario = load_scenario(config)
    assert scenario.quadrature["nodes_r"] == 32
