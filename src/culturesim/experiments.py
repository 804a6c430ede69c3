"""Experiment presets, parallel sweep execution, and CSV/manifest output.

Outputs are a pure function of the experiment config: worker count and
scheduling order never change a byte of any file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .analysis import (
    CellSummary,
    RunSeries,
    average_series,
    piv,
    summarize_cell,
    time_to_threshold,
)
from .fitness import TemplateSet
from .world import (
    ConfigError,
    MODE_FIXED_ROLES,
    MODE_SHARED_P,
    REGIME_SINGLE_STEP,
    REGIME_TEMPLATE,
    WorldConfig,
    check_field_types,
    creator_log_scope,
    replay_key,
    run_world,
)

PRESET_EXP1 = "exp1_sweep"
PRESET_EXP2 = "exp2_sr"
PRESET_EXP3 = "exp3_chaining"
PRESET_CUSTOM = "custom"
PRESETS = (PRESET_EXP1, PRESET_EXP2, PRESET_EXP3, PRESET_CUSTOM)

DESK_GRID = tuple(round(0.2 * k, 1) for k in range(1, 6))  # 0.2 .. 1.0
DESK_RUNS_PER_CELL = 25
DESK_TAU = 35.1

WORKERS_ENV = "CULTURESIM_WORKERS"

# Size limits of one sweep, over all the runs it executes.  Its series are
# held in memory until they are written, at up to about 250 bytes per run
# and iteration, and its cost grows with agents x iterations x runs.
MAX_SWEEP_RUN_ITERATIONS = 10**6
MAX_SWEEP_AGENT_STEPS = 10**10


@dataclass(frozen=True)
class ExperimentSpec:
    preset: str = PRESET_CUSTOM
    grid_c: Tuple[float, ...] = DESK_GRID
    grid_p: Tuple[float, ...] = DESK_GRID
    runs_per_cell: int = DESK_RUNS_PER_CELL
    world: WorldConfig = field(default_factory=WorldConfig)
    output_dir: str = "out"

    def validate(self) -> "ExperimentSpec":
        check_field_types(self)
        if self.preset not in PRESETS:
            raise ConfigError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        for key, value in PRESET_WORLD.get(self.preset, {}).items():
            given = getattr(self.world, key)
            if given != value:
                raise ConfigError(
                    f"preset {self.preset} runs with {key}={value!r}, "
                    f"but the config gives {given!r}"
                )
        if self.runs_per_cell < 1:
            raise ConfigError(
                f"runs_per_cell must be >= 1, got {self.runs_per_cell}"
            )
        for name, grid in (("grid_c", self.grid_c), ("grid_p", self.grid_p)):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            for v in grid:
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(f"{name} values must be in [0, 1], got {v}")
        self.world.validate()
        w = self.world
        runs = self.run_count()
        if runs * w.iterations > MAX_SWEEP_RUN_ITERATIONS:
            raise ConfigError(
                f"the sweep is too large: {runs:,} runs x {w.iterations:,} iterations"
                f" exceed the limit of {MAX_SWEEP_RUN_ITERATIONS:,}"
            )
        if runs * w.iterations * w.n_agents > MAX_SWEEP_AGENT_STEPS:
            raise ConfigError(
                f"the sweep is too large: {runs:,} runs x {w.iterations:,} iterations"
                f" x {w.n_agents:,} agents exceed the limit of {MAX_SWEEP_AGENT_STEPS:,}"
            )
        if w.template_file:
            # Fail here, before any run starts, not inside every worker.
            try:
                TemplateSet.from_file(w.template_file)
            except OSError as exc:
                raise ConfigError(
                    f"template_file {w.template_file!r} cannot be read: {exc.strerror or exc}"
                ) from None
            except ValueError as exc:
                raise ConfigError(f"template_file is invalid: {exc}") from None
        return self

    def run_count(self) -> int:
        """The number of runs ``execute`` makes: every cell of the grid and
        the (1, 1) baseline under exp1, both arms under exp2 and exp3, one
        cell otherwise; each ``runs_per_cell`` times."""
        if self.preset == PRESET_EXP1:
            cells = len(self.grid_c) * len(self.grid_p)
            cells += not (1.0 in self.grid_c and 1.0 in self.grid_p)
        elif self.preset in (PRESET_EXP2, PRESET_EXP3):
            cells = 2
        else:
            cells = 1
        return cells * self.runs_per_cell

    def digest(self) -> str:
        """Digest of the scientific content; output location is excluded."""
        d = self.to_dict()
        del d["output_dir"]
        d["world"] = self.world.digest_fields()
        payload = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid_c"] = list(self.grid_c)
        d["grid_p"] = list(self.grid_p)
        return d


_WORLD_FIELDS = set(WorldConfig.__dataclass_fields__)
_SPEC_FIELDS = set(ExperimentSpec.__dataclass_fields__) - {"world"}

# The world settings each preset's design requires.
PRESET_WORLD = {
    PRESET_EXP1: dict(
        mode=MODE_FIXED_ROLES,
        sr_enabled=False,
        chaining_enabled=False,
        fitness_regime=REGIME_SINGLE_STEP,
    ),
    PRESET_EXP2: dict(
        mode=MODE_SHARED_P, chaining_enabled=False, fitness_regime=REGIME_SINGLE_STEP
    ),
    PRESET_EXP3: dict(
        mode=MODE_SHARED_P, chaining_enabled=True, fitness_regime=REGIME_TEMPLATE
    ),
}


def load_config(path: str) -> ExperimentSpec:
    """Parse a JSON experiment config; unknown keys are errors."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    # Undecodable bytes, and nesting deeper than the parser's recursion
    # limit, are malformed JSON too.
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return _decide(raw)


def _decide(raw: dict) -> ExperimentSpec:
    """The validated spec a config dict names.  The preset decides on the
    keys the dict gives, not on the values they leave at their defaults:
    it fills each world setting it requires that the dict leaves out, and
    an exp1 tau the dict leaves out becomes the desk threshold."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    world_raw = raw.pop("world", {})
    if not isinstance(world_raw, dict):
        raise ConfigError("'world' must be a JSON object of world settings")
    unknown = set(raw) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    unknown = set(world_raw) - _WORLD_FIELDS
    if unknown:
        raise ConfigError(f"unknown world config keys: {sorted(unknown)}")

    for key in ("grid_c", "grid_p"):
        if isinstance(raw.get(key), list):
            raw[key] = tuple(raw[key])
    try:
        world = WorldConfig(**world_raw)
        spec = ExperimentSpec(world=world, **raw)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}")
    check_field_types(spec)
    check_field_types(world)
    # A paired preset runs one cell with SR off and on, so a grid or an
    # sr_enabled in its config would be echoed but never read.
    if spec.preset in (PRESET_EXP2, PRESET_EXP3):
        for key in ("grid_c", "grid_p", "sr_enabled"):
            if key in raw or key in world_raw:
                raise ConfigError(
                    f"preset {spec.preset} runs one cell with SR off and on; "
                    f"it does not read {key}"
                )
    # A setting the dict gives that the preset forces to another value is
    # left for validate to reject.
    filled = {k: v for k, v in PRESET_WORLD.get(spec.preset, {}).items()
              if k not in world_raw}
    if spec.preset == PRESET_EXP1 and "tau" not in world_raw:
        filled["tau"] = DESK_TAU
    return replace(spec, world=replace(world, **filled)).validate()


def apply_preset(spec: ExperimentSpec) -> ExperimentSpec:
    """Force the world settings each preset's design requires."""
    return replace(spec, world=replace(spec.world, **PRESET_WORLD.get(spec.preset, {})))


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if n < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def _job(bundle: Sequence[Tuple[WorldConfig, int]]) -> List[RunSeries]:
    """Run a bundle's jobs in order, sharing one creator log among them."""
    with creator_log_scope():
        return [run_world(cfg, run_index) for cfg, run_index in bundle]


def _bundles(jobs: Sequence[Tuple[WorldConfig, int]]) -> List[List[int]]:
    """The job indices of each bundle, in the order of each bundle's first
    job.  Jobs with one ``replay_key`` form one bundle, in job order: each
    run computes only the creators the log lacks, so the order of its
    members does not change the work.  Every other job is a bundle alone."""
    bundles: List[List[int]] = []
    by_key: Dict[tuple, List[int]] = {}
    for i, (cfg, run_index) in enumerate(jobs):
        key = replay_key(cfg, run_index)
        if key is None:
            bundles.append([i])
        elif key in by_key:
            by_key[key].append(i)
        else:
            by_key[key] = [i]
            bundles.append(by_key[key])
    return bundles


def run_jobs(jobs: Sequence[Tuple[WorldConfig, int]], workers: Optional[int] = None) -> List[RunSeries]:
    """Execute runs and return their series in job order.  A run is a pure
    function of its job, so a failed job is not retried: the first error
    propagates, and the bundles not yet started are cancelled.  A worker
    that dies fails the sweep with ``BrokenProcessPool`` instead of
    hanging it.

    Each bundle (see ``_bundles``) runs as one task on one worker, so the
    p = 1 runs of one run index compute each creator once."""
    if workers is None:
        workers = worker_count()
    bundles = _bundles(jobs)
    tasks = [[jobs[i] for i in bundle] for bundle in bundles]
    if workers <= 1 or len(tasks) <= 1:
        outputs = [_job(task) for task in tasks]
    else:
        # Imported here: the module imports ``logging``, which the serial
        # path and ``import culturesim`` never need.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker starts at the first submit, so a pool
        # larger than its task list would start workers that never run.
        with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
            futures = [pool.submit(_job, task) for task in tasks]
            try:
                outputs = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    results: List[Optional[RunSeries]] = [None] * len(jobs)
    for bundle, output in zip(bundles, outputs):
        for i, series in zip(bundle, output):
            results[i] = series
    return results


def fmt(x: float) -> str:
    """17-significant-digit float serialization for reproducible CSVs."""
    return format(x, ".17g")


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The CSV text of ``header`` and ``rows`` of formatted fields."""
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


_SERIES_COLUMNS = ("mean_fitness", "diversity", "frac_low", "frac_mid", "frac_high")


def series_csv(avg: Dict[str, List[float]]) -> str:
    rows = zip(*(avg[name] for name in _SERIES_COLUMNS))
    return _csv(
        ("iter",) + _SERIES_COLUMNS,
        ([str(t)] + [fmt(v) for v in row] for t, row in enumerate(rows, 1)),
    )


def surface_csv(cells: Sequence[CellSummary]) -> str:
    return _csv(
        ("C", "p", "runs", "mean_ttt_log10", "censored_count", "mean_piv"),
        ((fmt(cell.c), fmt(cell.p), str(cell.runs), fmt(cell.mean_ttt_log10),
          str(cell.censored_count), fmt(cell.mean_piv)) for cell in cells),
    )


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_outputs(spec: ExperimentSpec, files: Dict[str, str]) -> List[Path]:
    """Write output files plus the effective-config echo and the manifest."""
    out = Path(spec.output_dir)
    files = dict(files)
    files["config.json"] = json.dumps(spec.to_dict(), sort_keys=True, indent=2) + "\n"
    written = []
    for name, text in files.items():
        path = out / name
        atomic_write(path, text)
        written.append(path)
    manifest = {
        "config_digest": spec.digest(),
        "files": {p.name: _sha256_file(p) for p in sorted(written)},
    }
    manifest_path = out / "manifest.json"
    atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(manifest_path)
    return written


def execute_exp1(spec: ExperimentSpec, workers: Optional[int] = None) -> List[Path]:
    """Creator-fraction / creativity sweep with a paired (1, 1) PIV baseline."""
    cells = [(c, p) for c in spec.grid_c for p in spec.grid_p]
    cell_cfg = {
        (c, p): replace(spec.world, creator_fraction=c, creator_creativity=p)
        for c, p in cells
    }
    # Invention, and the training after it, dominate a run, so a cell's
    # cost grows with C*p.  Dispatching the dearest cells first keeps every
    # worker busy to the end of the sweep.  The sort is stable, so ties
    # keep grid order; no output depends on this order.  run_jobs runs the
    # p = 1 column of each run index as one bundle at the place of its
    # first job, which computes each creator once and replays it in every
    # run of the column, so a (C, 1) run costs about as much as its
    # imitators.
    order = sorted(cell_cfg, key=lambda cell: cell[0] * cell[1], reverse=True)
    if (1.0, 1.0) not in cell_cfg:
        # The paired PIV baseline is the (1, 1) corner, the dearest of all.
        cell_cfg[(1.0, 1.0)] = replace(
            spec.world, creator_fraction=1.0, creator_creativity=1.0
        )
        order.insert(0, (1.0, 1.0))
    k = spec.runs_per_cell
    jobs = [(cell_cfg[cell], r) for cell in order for r in range(k)]
    results = run_jobs(jobs, workers)
    by_cell = {cell: results[i * k : (i + 1) * k] for i, cell in enumerate(order)}
    baselines = by_cell[(1.0, 1.0)]

    tau = spec.world.tau
    horizon = spec.world.iterations
    summaries = []
    for c, p in cells:
        runs = by_cell[(c, p)]
        ttts = [time_to_threshold(r.mean_fitness, tau) for r in runs]
        pivs = [
            piv(r.mean_fitness, b.mean_fitness) for r, b in zip(runs, baselines)
        ]
        summaries.append(summarize_cell(c, p, ttts, pivs, horizon))
    return _write_outputs(spec, {"surface.csv": surface_csv(summaries)})


def execute_paired_sr(spec: ExperimentSpec, workers: Optional[int] = None) -> List[Path]:
    """SR-on vs SR-off comparison with shared run seeds (experiments 2 and 3)."""
    cfg_off = replace(spec.world, sr_enabled=False)
    cfg_on = replace(spec.world, sr_enabled=True)
    k = spec.runs_per_cell
    jobs = [(cfg_off, r) for r in range(k)] + [(cfg_on, r) for r in range(k)]
    results = run_jobs(jobs, workers)
    avg_off = average_series(results[:k])
    avg_on = average_series(results[k:])
    return _write_outputs(
        spec,
        {"series_nosr.csv": series_csv(avg_off), "series_sr.csv": series_csv(avg_on)},
    )


def execute(spec: ExperimentSpec, workers: Optional[int] = None) -> List[Path]:
    """Run ``spec`` as it stands.  ``load_config`` and ``preset_spec``
    decide a preset's settings; ``validate`` rejects a world that breaks
    them.  The worker count and the output directory are settled before
    any run, so a bad one fails the sweep before it starts."""
    spec = spec.validate()
    if workers is None:
        workers = worker_count()
    Path(spec.output_dir).mkdir(parents=True, exist_ok=True)
    if spec.preset == PRESET_EXP1:
        return execute_exp1(spec, workers)
    if spec.preset in (PRESET_EXP2, PRESET_EXP3):
        return execute_paired_sr(spec, workers)
    # Custom configs run a single cell and emit its averaged series.
    jobs = [(spec.world, r) for r in range(spec.runs_per_cell)]
    results = run_jobs(jobs, workers)
    return _write_outputs(spec, {"series.csv": series_csv(average_series(results))})


def preset_spec(preset: str, runs: Optional[int] = None, seed: Optional[int] = None,
                out: Optional[str] = None) -> ExperimentSpec:
    """Desk-scale spec for a named preset with optional overrides."""
    raw = {"preset": preset}
    if runs is not None:
        raw["runs_per_cell"] = runs
    if out is not None:
        raw["output_dir"] = out
    if seed is not None:
        raw["world"] = {"base_seed": seed}
    return _decide(raw)
