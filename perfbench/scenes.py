"""Seeded benchmark inputs: 115x108 weather scenes and the files made from them.

Every input is a pure function of the seed. `data.synth_generate` costs tens
of milliseconds per hour at 115x108, so a short run of synthetic hours is
drawn once and repeated in time to the length a workload needs; the power
feed repeats with it, so frames and targets stay paired.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from wxpower import data as D

HEIGHT, WIDTH = 115, 108
BASE_HOURS = 48


def scenes(seed: int, hours: int):
    """(cube, solar, wind): `hours` contiguous raw hourly scenes and their MW."""
    base = D.synth_generate(D.SynthConfig(height=HEIGHT, width=WIDTH,
                                          n_hours=min(hours, BASE_HOURS), seed=seed))
    reps = -(-hours // base.cube.shape[0])
    frames = np.tile(base.cube.frames, (reps, 1, 1, 1))[:hours]
    stamps = base.cube.timestamps[0] + np.arange(hours) * D.HOUR
    cube = D.WeatherCube(frames, stamps, base.cube.bands, base.cube.mask)
    solar = np.tile(base.solar_truth, reps)[:hours]
    wind = np.tile(base.wind_truth, reps)[:hours]
    return cube, solar, wind


def write_power_csv(path, stamps, solar, wind) -> None:
    """The 5-minute feed `wxpower` aggregates: 12 equal readings per hour."""
    minutes = np.arange(12) * np.timedelta64(5, "m")
    subs = np.datetime_as_string((stamps[:, None] + minutes[None, :]).astype("datetime64[s]"))
    with open(path, "w") as fh:
        fh.write("timestamp,source,mw\n")
        for i in range(len(stamps)):
            s, w = f"{solar[i]:.9g}", f"{wind[i]:.9g}"
            fh.writelines(f"{t},solar,{s}\n{t},wind,{w}\n" for t in subs[i])


def write_frames(out_dir, cube) -> None:
    """Raw `.f32` frame files plus `manifest.csv`, NaN at masked pixels."""
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    rows = []
    for i in range(cube.shape[0]):
        frame = cube.frames[i].astype("<f4")
        frame[:, cube.mask] = np.nan
        name = f"frame_{i:05d}.f32"
        frame.tofile(os.path.join(frames_dir, name))
        rows.append((D.format_timestamp(cube.timestamps[i]), f"frames/{name}",
                     cube.shape[2], cube.shape[3], cube.shape[1]))
    with open(os.path.join(out_dir, "manifest.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["timestamp", "path", "height", "width", "channels"])
        wr.writerows(rows)
