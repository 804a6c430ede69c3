"""Golden outputs: the sha256 of the CSVs of three desk-scale preset runs.

A change that is meant to leave results alone must keep these digests.
If a change is meant to alter results, record the new digests here and
say why in CHANGES.md. ``config.json`` and ``manifest.json`` are not
pinned: they embed the output directory.
"""

import hashlib
from dataclasses import replace

import pytest

from culturesim.experiments import (
    PRESET_EXP1,
    PRESET_EXP2,
    PRESET_EXP3,
    execute,
    preset_spec,
)

# name -> (preset, runs per cell, (grid_c, grid_p) or None, {csv: sha256})
GOLDEN = {
    "exp2": (PRESET_EXP2, 2, None, {
        "series_nosr.csv": "34aa9d7c8a21350ce43adcd8692365251dfe90b8360a1b071a2ae7cf60e239b9",
        "series_sr.csv": "e5d35f9a0fd2fa5e693017ffe24eca5d4d276007bcc9d01527f881e46c1e07de",
    }),
    "exp3": (PRESET_EXP3, 2, None, {
        "series_nosr.csv": "d89f8adc7487e23c7aa04cd218daac401b4b0e39300d369104ab0c509236a701",
        "series_sr.csv": "b7c303e6bc75f6d07f1994dfeb9ca0e3687ac62eb92df35b7df740559f21e624",
    }),
    # The grid holds the (1, 1) corner, so it is its own PIV baseline.
    "exp1-grid": (PRESET_EXP1, 1, ((0.4, 1.0), (0.6, 1.0)), {
        "surface.csv": "b8f34cd05d7126a540bcf5ccc25a89cd8a4d1b584e6fbd2be214ddc3d01f60d4",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_desk_scale_csv_digests(name, tmp_path):
    preset, runs, grid, expected = GOLDEN[name]
    spec = preset_spec(preset, runs=runs, seed=0, out=str(tmp_path))
    if grid is not None:
        spec = replace(spec, grid_c=grid[0], grid_p=grid[1])
    execute(spec, workers=1)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert digests == expected
