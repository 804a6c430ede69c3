"""Golden outputs: the sha256 of the CSVs of small preset and custom runs.

A change that is meant to leave results alone must keep these digests.
If a change is meant to alter results, record the new digests here and
say why in CHANGES.md. ``config.json`` and ``manifest.json`` are not
pinned: they embed the output directory.
"""

import hashlib
from dataclasses import replace

import pytest

from culturesim.experiments import (
    PRESET_CUSTOM,
    PRESET_EXP1,
    PRESET_EXP2,
    PRESET_EXP3,
    execute,
    preset_spec,
)
from culturesim.world import MODE_SHARED_P, REGIME_TEMPLATE

# name -> (preset, runs per cell, (grid_c, grid_p) or None, world settings,
# {csv: sha256})
GOLDEN = {
    "exp2": (PRESET_EXP2, 2, None, {}, {
        "series_nosr.csv": "34aa9d7c8a21350ce43adcd8692365251dfe90b8360a1b071a2ae7cf60e239b9",
        "series_sr.csv": "e5d35f9a0fd2fa5e693017ffe24eca5d4d276007bcc9d01527f881e46c1e07de",
    }),
    "exp3": (PRESET_EXP3, 2, None, {}, {
        "series_nosr.csv": "d89f8adc7487e23c7aa04cd218daac401b4b0e39300d369104ab0c509236a701",
        "series_sr.csv": "b7c303e6bc75f6d07f1994dfeb9ca0e3687ac62eb92df35b7df740559f21e624",
    }),
    # The grid holds the (1, 1) corner, so it is its own PIV baseline.
    "exp1-grid": (PRESET_EXP1, 1, ((0.4, 1.0), (0.6, 1.0)), {}, {
        "surface.csv": "b8f34cd05d7126a540bcf5ccc25a89cd8a4d1b584e6fbd2be214ddc3d01f60d4",
    }),
    # Without the corner, the (1, 1) PIV baseline runs as extra jobs.
    "exp1-grid-baseline": (PRESET_EXP1, 2, ((0.2, 0.4), (0.2, 0.6)), {}, {
        "surface.csv": "1de8b29937149e025bc7d1049828baf9cc0b88e764a45a47bacb54904b9d7720",
    }),
    # The entries above average one or two terms of multiples of 1/1024,
    # which every summation order rounds alike.  These two do not: three
    # runs per cell, and 100 agents, so the float means must be summed
    # left to right to keep their bytes (Python 3.12's ``sum`` compensates).
    "exp1-grid-3runs": (PRESET_EXP1, 3, ((0.6, 1.0), (0.8, 1.0)), {}, {
        "surface.csv": "2cd51d04502fb7d49e12c842fb863dfa06851000430c50a1f2745adb09e6b0ab",
    }),
    "custom-sr-10x10": (PRESET_CUSTOM, 5, None, dict(
        lattice_side=10, iterations=60, mode=MODE_SHARED_P, sr_enabled=True), {
        "series.csv": "b07f6dd42eeeb02f48183584996a60f02901fce3cd10326da165c82921b7dfdf",
    }),
    # Past DECODE_SAFE_CALLS iterations each agent trains an AutoAssociator,
    # so this is the entry that pins the network inside a simulation.
    "custom-chain-sr-300": (PRESET_CUSTOM, 2, None, dict(
        lattice_side=8, iterations=300, mode=MODE_SHARED_P, sr_enabled=True,
        fitness_regime=REGIME_TEMPLATE, chaining_enabled=True), {
        "series.csv": "f758c54d0c68b0ee7e3f725c576f85fe9b12b0598d21193ddadc6567c7fa4941",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_desk_scale_csv_digests(name, tmp_path):
    preset, runs, grid, world, expected = GOLDEN[name]
    spec = preset_spec(preset, runs=runs, seed=0, out=str(tmp_path))
    if grid is not None:
        spec = replace(spec, grid_c=grid[0], grid_p=grid[1])
    spec = replace(spec, world=replace(spec.world, **world))
    execute(spec, workers=1)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert digests == expected
