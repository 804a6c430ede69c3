"""Experiment configuration, presets, parallel execution, and file output."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from culturesim import experiments
from culturesim import world as world_module
from culturesim.experiments import (
    DESK_TAU,
    ExperimentSpec,
    PRESET_EXP1,
    PRESET_EXP2,
    PRESET_EXP3,
    apply_preset,
    execute,
    fmt,
    load_config,
    preset_spec,
    run_jobs,
    worker_count,
)
from culturesim.world import (
    ConfigError,
    MODE_SHARED_P,
    REGIME_TEMPLATE,
    WorldConfig,
    run_world,
)
from sweep_helpers import tiny_world


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_empty_custom_config_gets_defaults(tmp_path):
    spec = load_config(write_config(tmp_path, {}))
    assert spec.preset == "custom"
    assert spec.world.lattice_side == 32
    assert spec.world.iterations == 100
    assert spec.world.base_seed == 0


def test_unknown_keys_are_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(write_config(tmp_path, {"bogus": 1}))
    with pytest.raises(ConfigError, match="unknown world config keys"):
        load_config(write_config(tmp_path, {"world": {"sides": 8}}))


def test_out_of_range_grid_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="grid_c"):
        load_config(write_config(tmp_path, {"grid_c": [0.5, 1.5]}))


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.json"))


def test_same_config_loads_identically(tmp_path):
    path = write_config(tmp_path, {"runs_per_cell": 3})
    assert load_config(path) == load_config(path)


def test_presets_force_their_regimes():
    exp2 = apply_preset(ExperimentSpec(preset=PRESET_EXP2, world=WorldConfig(mode="shared_p")))
    assert exp2.world.fitness_regime == "single_step"
    assert not exp2.world.chaining_enabled
    exp3 = apply_preset(ExperimentSpec(preset=PRESET_EXP3, world=WorldConfig(mode="shared_p")))
    assert exp3.world.fitness_regime == "template"
    assert exp3.world.chaining_enabled


def test_float_formatting_is_17_significant_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(0.5) == "0.5"


def test_worker_count_env_var(monkeypatch):
    monkeypatch.setenv("CULTURESIM_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CULTURESIM_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("CULTURESIM_WORKERS")
    assert worker_count() >= 1


def test_custom_execution_writes_series_manifest_and_echo(tmp_path):
    spec = ExperimentSpec(
        preset="custom",
        runs_per_cell=2,
        world=tiny_world(),
        output_dir=str(tmp_path / "out"),
    )
    execute(spec, workers=1)
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == ["config.json", "manifest.json", "series.csv"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_digest"] == spec.digest()
    assert set(manifest["files"]) == {"config.json", "series.csv"}
    header = (tmp_path / "out" / "series.csv").read_text().splitlines()[0]
    assert header == "iter,mean_fitness,diversity,frac_low,frac_mid,frac_high"

    echoed = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echoed == spec.to_dict()


def test_exp1_writes_surface_with_grid_rows(tmp_path):
    spec = ExperimentSpec(
        preset=PRESET_EXP1,
        grid_c=(0.5, 1.0),
        grid_p=(0.5, 1.0),
        runs_per_cell=2,
        world=tiny_world(),
        output_dir=str(tmp_path / "out"),
    )
    execute(spec, workers=1)
    lines = (tmp_path / "out" / "surface.csv").read_text().splitlines()
    assert lines[0] == "C,p,runs,mean_ttt_log10,censored_count,mean_piv"
    assert len(lines) == 1 + 4
    # The (1, 1) corner is its own PIV baseline, so its PIV is exactly 0.
    corner = lines[-1].split(",")
    assert corner[0] == "1" and corner[1] == "1"
    assert float(corner[-1]) == 0.0


def test_exp2_writes_paired_series(tmp_path):
    spec = ExperimentSpec(
        preset=PRESET_EXP2,
        runs_per_cell=2,
        world=tiny_world(mode="shared_p"),
        output_dir=str(tmp_path / "out"),
    )
    execute(spec, workers=1)
    names = sorted(os.listdir(tmp_path / "out"))
    assert "series_sr.csv" in names and "series_nosr.csv" in names


def test_outputs_identical_across_worker_counts(tmp_path):
    def run_with(workers, sub):
        spec = ExperimentSpec(
            preset=PRESET_EXP2,
            runs_per_cell=3,
            world=tiny_world(mode="shared_p"),
            output_dir=str(tmp_path / sub),
        )
        execute(spec, workers=workers)
        return {
            name: (tmp_path / sub / name).read_bytes()
            for name in sorted(os.listdir(tmp_path / sub))
            if name.endswith(".csv")
        }

    assert run_with(1, "w1") == run_with(3, "w3")


def test_preset_spec_overrides():
    # preset -> (mode, fitness_regime, chaining_enabled, tau)
    decided = {
        PRESET_EXP1: ("fixed_roles", "single_step", False, DESK_TAU),
        PRESET_EXP2: ("shared_p", "single_step", False, WorldConfig.tau),
        PRESET_EXP3: ("shared_p", "template", True, WorldConfig.tau),
    }
    for preset, (mode, regime, chaining, tau) in decided.items():
        spec = preset_spec(preset, runs=7, seed=42, out="somewhere")
        assert spec.runs_per_cell == 7
        assert spec.world.base_seed == 42
        assert spec.output_dir == "somewhere"
        w = spec.world
        assert (w.mode, w.fitness_regime, w.chaining_enabled, w.tau) == (
            mode, regime, chaining, tau), preset


def test_execute_keeps_an_explicit_exp1_tau(tmp_path, monkeypatch):
    # 9.0 is also the WorldConfig default; the config gives it, so it is
    # the threshold, not the desk 35.1.
    taus = []
    real = experiments.time_to_threshold

    def spy(series, t):
        taus.append(t)
        return real(series, t)

    monkeypatch.setattr(experiments, "time_to_threshold", spy)
    path = write_config(tmp_path, {
        "preset": PRESET_EXP1, "runs_per_cell": 1, "grid_c": [1.0], "grid_p": [1.0],
        "output_dir": str(tmp_path / "out"),
        "world": {"tau": 9.0, "lattice_side": 4, "iterations": 3},
    })
    execute(load_config(path), workers=1)
    assert taus == [9.0]
    echoed = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echoed["world"]["tau"] == 9.0


def test_execute_rejects_a_world_that_breaks_its_preset(tmp_path, monkeypatch):
    worlds = []
    monkeypatch.setattr(world_module.World, "__init__", lambda self, *a: worlds.append(a))
    spec = ExperimentSpec(preset=PRESET_EXP3, world=WorldConfig(mode="shared_p"),
                          runs_per_cell=1, output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=(
            "^preset exp3_chaining runs with chaining_enabled=True, "
            "but the config gives False$")):
        execute(spec, workers=1)
    assert worlds == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"runs_per_cell": 2.0}, "runs_per_cell must be an integer"),
        ({"runs_per_cell": True}, "runs_per_cell must be an integer"),
        ({"grid_c": "ab"}, "grid_c must be a list of numbers"),
        ({"grid_p": 0.5}, "grid_p must be a list of numbers"),
        ({"grid_p": [0.5, True]}, "grid_p must be a list of numbers"),
        ({"output_dir": 5}, "output_dir must be a string"),
        ({"world": {"max_chain_length": 5.0}}, "max_chain_length must be an integer"),
    ],
)
def test_mistyped_fields_are_errors(tmp_path, payload, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, payload))


def test_template_file_is_loaded_by_validate(tmp_path):
    templates = tmp_path / "templates.json"
    templates.write_text('["01-11-1*"]')
    payload = {"world": {"mode": "shared_p", "fitness_regime": "template",
                         "template_file": str(templates)}}
    assert load_config(write_config(tmp_path, payload)).world.template_file == str(templates)
    templates.write_text("[]")
    with pytest.raises(ConfigError, match="template_file is invalid: template set is empty"):
        load_config(write_config(tmp_path, payload))
    # Outside the template regime the file would never be read, so naming
    # one there is an error rather than a silently different run.
    payload["world"]["fitness_regime"] = "single_step"
    with pytest.raises(ConfigError, match="template_file requires the template"):
        load_config(write_config(tmp_path, payload))


@dataclass(frozen=True)
class FailingConfig(WorldConfig):
    """A WorldConfig whose run fails: ``World`` validates its config first,
    so each run of it appends one line to ``log`` and raises.  Module
    level, so it pickles to pool workers."""

    log: str = ""

    def validate(self):
        with open(self.log, "a") as fh:
            fh.write("run\n")
        raise RuntimeError("run failed")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_job_runs_once_and_raises(tmp_path, workers):
    log = tmp_path / "runs.log"
    jobs = [(FailingConfig(log=str(log)), 0), (tiny_world(), 0)]
    with pytest.raises(RuntimeError, match="run failed"):
        run_jobs(jobs, workers)
    assert log.read_text() == "run\n"


def test_a_dead_worker_fails_the_sweep_instead_of_hanging_it():
    here = Path(__file__).resolve().parent
    code = (
        "from culturesim.experiments import run_jobs\n"
        "from sweep_helpers import DyingConfig, tiny_world\n"
        "run_jobs([(DyingConfig(), 0), (tiny_world(), 0), (tiny_world(), 1)], 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr


def test_a_pool_starts_no_more_workers_than_tasks(monkeypatch):
    import concurrent.futures

    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    jobs = [(tiny_world(), 0), (tiny_world(), 1)]
    assert len(experiments._bundles(jobs)) == 2
    assert run_jobs(jobs, 8) == [run_world(cfg, r) for cfg, r in jobs]
    assert started == [2]


def exp1_dispatch(monkeypatch, tmp_path, grid_c, grid_p, runs=2):
    """Run a tiny exp1 sweep and return the jobs it dispatched as
    (C, p, run_index), with the rows of its surface.csv as (C, p)."""
    dispatched = []
    real_run_jobs = experiments.run_jobs

    def spy(jobs, workers=None):
        dispatched.extend(
            (cfg.creator_fraction, cfg.creator_creativity, r) for cfg, r in jobs)
        return real_run_jobs(jobs, workers)

    monkeypatch.setattr(experiments, "run_jobs", spy)
    spec = ExperimentSpec(preset=PRESET_EXP1, grid_c=grid_c, grid_p=grid_p,
                          runs_per_cell=runs, world=tiny_world(iterations=4),
                          output_dir=str(tmp_path))
    execute(spec, workers=1)
    rows = [tuple(float(v) for v in line.split(",")[:2])
            for line in (tmp_path / "surface.csv").read_text().splitlines()[1:]]
    return dispatched, rows


def test_exp1_dispatches_the_most_inventive_cells_first(monkeypatch, tmp_path):
    grid_c, grid_p = (0.2, 0.5, 1.0), (0.4, 1.0, 0.2)
    dispatched, rows = exp1_dispatch(monkeypatch, tmp_path, grid_c, grid_p)
    products = [c * p for c, p, _ in dispatched]
    assert products == sorted(products, reverse=True)
    # C*p ties at 0.2 three times; the stable sort keeps them in grid order.
    order = [
        (1.0, 1.0), (0.5, 1.0), (1.0, 0.4),
        (0.2, 1.0), (0.5, 0.4), (1.0, 0.2),
        (0.5, 0.2), (0.2, 0.4), (0.2, 0.2),
    ]
    assert dispatched == [(c, p, r) for c, p in order for r in range(2)]
    # The corner is in the grid, so it is not run a second time as baseline.
    assert rows == [(c, p) for c in grid_c for p in grid_p]


def test_exp1_dispatches_an_outside_baseline_first(monkeypatch, tmp_path):
    dispatched, rows = exp1_dispatch(monkeypatch, tmp_path, (0.2, 0.4), (0.2, 0.6))
    assert dispatched == [
        (1.0, 1.0, 0), (1.0, 1.0, 1),
        (0.4, 0.6, 0), (0.4, 0.6, 1),
        (0.2, 0.6, 0), (0.2, 0.6, 1),
        (0.4, 0.2, 0), (0.4, 0.2, 1),
        (0.2, 0.2, 0), (0.2, 0.2, 1),
    ]
    assert rows == [(0.2, 0.2), (0.2, 0.6), (0.4, 0.2), (0.4, 0.6)]


def template_spec(path):
    world = WorldConfig(mode=MODE_SHARED_P, fitness_regime=REGIME_TEMPLATE,
                        template_file=str(path))
    return ExperimentSpec(world=world)


def test_digests_cover_template_contents_not_their_path(tmp_path):
    text = '["0*****", "01-1***"]'
    first, second = tmp_path / "a.json", tmp_path / "sub" / "b.json"
    second.parent.mkdir()
    first.write_text(text)
    second.write_text(text)
    a, b = template_spec(first), template_spec(second)
    assert a.digest() == b.digest()

    second.write_text('["0*****"]')
    assert a.digest() != b.digest()
    # Outside the template regime the file is never read, not even by
    # the digest (validate rejects such a config).
    missing = str(tmp_path / "missing.json")
    assert WorldConfig(template_file=missing).digest_fields()["template_file"] == missing


def test_digests_without_a_template_file_are_unchanged(tmp_path):
    # Recorded before template contents were hashed: a spec that names no
    # template file keeps its digest, so preset manifests do not change.
    spec = preset_spec(PRESET_EXP2, runs=1, seed=0, out=str(tmp_path))
    spec = replace(spec, world=replace(spec.world, lattice_side=4, iterations=5))
    execute(spec, workers=1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_digest"] == (
        "f591413eeb00cdb4754204494c869fa12d9b31eec6bb23e1c42414c23ad653f7")


def test_a_run_reads_its_template_file_once(tmp_path, monkeypatch):
    path = tmp_path / "templates.json"
    path.write_text('["0*****", "01-1***", "0-11***", "***1-1*"]')
    world = WorldConfig(lattice_side=4, iterations=6, mode=MODE_SHARED_P, sr_enabled=True,
                        fitness_regime=REGIME_TEMPLATE, chaining_enabled=True,
                        template_file=str(path))
    spec = ExperimentSpec(world=world, runs_per_cell=3, output_dir=str(tmp_path / "out"))
    reads = []
    real_read_bytes = Path.read_bytes

    def counted_read_bytes(self):
        if self == path:
            reads.append(self)
        return real_read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
    for run in range(3):
        run_world(world, run)
        assert len(reads) == run + 1
    reads.clear()
    execute(spec, workers=1)
    # One read per run, one in validate and one for the manifest's digest.
    assert len(reads) == 3 + 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_digest"] == (
        "ad805952645f6cfae203ca3b226342e3a5bd3ccbe38b1dcf3371d23a0b603542")
    assert hashlib.sha256((tmp_path / "out" / "series.csv").read_bytes()).hexdigest() == (
        "c015114a42740458ec6daba7d34583274a62bef72fe821e4608f481e1ae852ff")


@pytest.mark.parametrize(
    "spec, runs",
    [
        (ExperimentSpec(preset=PRESET_EXP1, grid_c=(0.2, 1.0), grid_p=(1.0,),
                        runs_per_cell=3), 6),
        (ExperimentSpec(preset=PRESET_EXP1, grid_c=(0.2, 0.4), grid_p=(0.5,),
                        runs_per_cell=3), 9),
        (preset_spec("exp2_sr", runs=4), 8),
        (ExperimentSpec(runs_per_cell=5), 5),
    ],
    ids=["exp1_with_corner", "exp1_outside_baseline", "exp2", "custom"],
)
def test_run_count_is_the_number_of_runs_execute_makes(spec, runs, monkeypatch, tmp_path):
    jobs = []
    monkeypatch.setattr(experiments, "run_jobs",
                        lambda js, workers: jobs.extend(js) or run_jobs(js, workers))
    spec = replace(spec, world=replace(spec.world, lattice_side=4, iterations=2),
                   output_dir=str(tmp_path / "out"))
    execute(spec, workers=1)
    assert spec.run_count() == len(jobs) == runs


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"runs_per_cell": 10**9}, "1,000,000,000 runs x 100 iterations exceed"),
        ({"preset": "exp1_sweep", "runs_per_cell": 100,
          "grid_c": [0.001 * k for k in range(1, 1001)], "grid_p": [1.0]},
         "100,000 runs x 100 iterations exceed"),
        ({"runs_per_cell": 1000, "world": {"lattice_side": 256, "iterations": 1000}},
         "1,000 runs x 1,000 iterations x 65,536 agents exceed"),
        ({"world": {"lattice_side": 10**6}}, "lattice_side must be in [2, 256]"),
        ({"world": {"iterations": 10**12}}, "iterations must be in [1, 1,000,000]"),
    ],
    ids=["runs", "grid", "agent_steps", "lattice_side", "iterations"],
)
def test_sweep_sizes_are_bounded_before_any_world(payload, message, tmp_path, monkeypatch):
    monkeypatch.setattr(world_module.World, "__init__", None)
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, payload))
    assert message in str(info.value)


def test_the_largest_sweeps_within_the_bounds_are_valid():
    # Exactly at each limit, and one run over it.
    small = WorldConfig(lattice_side=2, iterations=1)
    ExperimentSpec(runs_per_cell=10**6, world=small).validate()
    with pytest.raises(ConfigError, match="1,000,001 runs x 1 iterations exceed"):
        ExperimentSpec(runs_per_cell=10**6 + 1, world=small).validate()
    large = WorldConfig(lattice_side=200, iterations=1000)
    ExperimentSpec(runs_per_cell=250, world=large).validate()
    with pytest.raises(ConfigError, match="x 40,000 agents exceed"):
        ExperimentSpec(runs_per_cell=251, world=large).validate()
