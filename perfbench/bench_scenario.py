"""Seeded random scenarios for the ``sweep-cost-z4`` workload.

Each scenario has four regions and a 36-slot day. The seed sets every
region's daily profile (a periodic bump with a random peak hour, width,
floor and hourly noise), its area and its peak user density, so the 144
per-slot user densities are all distinct and the dimensioning memo never
hits. The program only ever sees the files written here, through
``--config``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

NUM_REGIONS = 4
NUM_SLOTS = 36

# The radio block of the built-in scenario: only the traffic varies.
RADIO = {
    "bandwidth_hz": 1e7,
    "reuse_factor": 1,
    "tx_power_w": 1.0,
    "antenna_gain": 1.0,
    "carrier_freq_hz": 1e9,
    "path_loss_exponent": 3.5,
    "noise_psd_w_per_hz": 3.98e-21,
    "target_delay_s_per_bit": 1e-5,
}


def write_scenario(seed: int, index: int, out_dir: Path) -> tuple[Path, str]:
    """Write scenario ``index`` of run ``seed`` into ``out_dir``.

    Returns the config path and the sha256 of its bytes. The same
    (seed, index) pair always gives byte-identical files.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])
    out_dir.mkdir(parents=True, exist_ok=True)
    hours = np.arange(24.0)
    regions = []
    for z in range(NUM_REGIONS):
        peak_h = rng.uniform(0.0, 24.0)
        width_h = rng.uniform(2.5, 6.0)
        floor = rng.uniform(0.05, 0.35)
        dist_h = np.abs((hours - peak_h + 12.0) % 24.0 - 12.0)
        load = floor + (1.0 - floor) * np.exp(-0.5 * (dist_h / width_h) ** 2)
        load *= rng.uniform(0.9, 1.0, hours.size)
        name = f"profile_z{z}.csv"
        rows = "".join(f"{float(h)!r},{float(v)!r}\n" for h, v in zip(hours, load))
        (out_dir / name).write_text("time_h,normalized_load\n" + rows, encoding="utf-8")
        regions.append({
            "id": f"z{z}",
            "area_km2": float(rng.uniform(0.5, 8.0)),
            "peak_user_density_per_km2": float(math.exp(rng.uniform(math.log(1e3),
                                                                    math.log(1e4)))),
            "profile": name,
        })
    raw = json.dumps({"regions": regions, "num_slots": NUM_SLOTS, "radio": RADIO},
                     sort_keys=True, indent=2).encode()
    config = out_dir / "config.json"
    config.write_bytes(raw)
    return config, hashlib.sha256(raw).hexdigest()
