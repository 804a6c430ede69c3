"""Command-line interface: argument handling, exit codes, and output."""

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from culturesim import cli, experiments
from culturesim import world as world_mod
from culturesim.cli import main
from importlib import resources


def test_run_command_executes_config(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 1,
        "output_dir": str(tmp_path / "out"),
        "world": {"lattice_side": 6, "iterations": 5},
    }))
    assert main(["run", str(config)]) == 0
    out = capsys.readouterr().out
    assert "series.csv" in out
    assert (tmp_path / "out" / "series.csv").exists()


def test_run_command_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nonsense": True}))
    assert main(["run", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_run_command_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_command(tmp_path, capsys):
    series = tmp_path / "series.csv"
    rows = ["iter,mean_fitness"] + [f"{t},{float(v)}" for t, v in enumerate([1, 5, 20, 38], 1)]
    series.write_text("\n".join(rows) + "\n")
    assert main(["analyze", str(series), "--tau", "10", "--rate", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "ttt=3" in out
    assert "npv=" in out


def test_analyze_with_baseline_reports_piv(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    assert main([
        "analyze", str(series), "--tau", "3", "--rate", "1.0",
        "--baseline", str(series),
    ]) == 0
    out = capsys.readouterr().out
    assert "piv=0" in out


def test_analyze_rejects_missing_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["analyze", str(bad), "--tau", "1", "--rate", "0.9"]) == 1
    assert "mean_fitness" in capsys.readouterr().err


def test_validate_templates_on_shipped_set(capsys):
    with resources.as_file(
        resources.files("culturesim.data") / "default_templates.json"
    ) as path:
        assert main(["validate-templates", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fitness_neutral=6" in out
    assert "acceptable_subactions=4" in out


def test_validate_templates_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('["******"]')
    assert main(["validate-templates", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_preset_command_with_overrides(tmp_path, capsys):
    # Desk presets are heavy; drive one through a minimal run count on the
    # reduced seed path only to check wiring, not science.
    assert main(["exp2", "--runs", "1", "--seed", "5", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "series_sr.csv").exists()
    assert (tmp_path / "o" / "series_nosr.csv").exists()


@pytest.mark.parametrize(
    "world, message",
    [
        # "false" is a truthy string: taken as given, it would switch SR on.
        ({"mode": "shared_p", "sr_enabled": "false"}, "sr_enabled must be a boolean"),
        # A float horizon would run a rounded number of iterations.
        ({"iterations": 1.5}, "iterations must be an integer"),
        # A string size would fail in a comparison, with a traceback.
        ({"lattice_side": "4"}, "lattice_side must be an integer"),
    ],
    ids=["sr_enabled_string", "iterations_float", "lattice_side_string"],
)
def test_run_command_rejects_mistyped_world_fields(tmp_path, capsys, world, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 1, "output_dir": str(tmp_path / "out"), "world": world,
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "contents, message",
    [
        (None, "error: template_file '{path}' cannot be read: No such file or directory"),
        ('["*x"]', "error: template_file is invalid: {path}: template 0:"),
    ],
    ids=["missing", "malformed"],
)
def test_run_command_checks_the_template_file_before_any_run(
    tmp_path, capsys, monkeypatch, contents, message
):
    templates = tmp_path / "templates.json"
    if contents is not None:
        templates.write_text(contents)
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 3, "output_dir": str(tmp_path / "out"),
        "world": {"mode": "shared_p", "fitness_regime": "template",
                  "template_file": str(templates)},
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=templates))
    assert err.count("\n") == 1
    assert worlds == []
    assert not (tmp_path / "out").exists()


def test_a_dead_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    def broken(jobs, workers=None):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(experiments, "run_jobs", broken)
    assert main(["exp2", "--runs", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: A process in the process pool was terminated abruptly\n"


@pytest.mark.parametrize("tau", [float("nan"), float("inf")], ids=["nan", "infinity"])
def test_run_command_rejects_non_finite_numbers(tmp_path, capsys, tau):
    # json writes these as NaN and Infinity, which json.load reads back.
    # nan <= 0 is false, so the range check alone let NaN through.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 1, "output_dir": str(tmp_path / "out"), "world": {"tau": tau},
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: tau must be finite, got {tau!r}\n"
    assert not (tmp_path / "out").exists()


def test_run_command_names_a_bad_workers_variable(tmp_path, capsys, monkeypatch):
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    monkeypatch.setenv(experiments.WORKERS_ENV, "abc")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 2, "output_dir": str(tmp_path / "out"),
        "world": {"lattice_side": 4, "iterations": 3},
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: CULTURESIM_WORKERS must be an integer, got 'abc'\n"
    assert worlds == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_analyze_rejects_a_non_finite_tau(tmp_path, capsys, tau):
    series = tmp_path / "series.csv"
    series.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    assert main(["analyze", str(series), f"--tau={tau}", "--rate", "0.9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tau must be finite, got {tau}\n"


def test_analyze_prints_nothing_before_a_bad_rate(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    assert main(["analyze", str(series), "--tau", "3", "--rate", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: discount rate must be in (0, 1], got -3.0\n"


@pytest.mark.parametrize(
    "rows, bad_file, message",
    [
        ("1", "series", "line 2: mean_fitness must be a finite number, got nothing"),
        ("1", "baseline", "line 2: mean_fitness must be a finite number, got nothing"),
        ("1,nan", "series", "line 2: mean_fitness must be a finite number, got 'nan'"),
        ("1,2.0\n2,-inf", "baseline",
         "line 3: mean_fitness must be a finite number, got '-inf'"),
        ("1,x", "series", "line 2: mean_fitness must be a finite number, got 'x'"),
        ("", "baseline", "contains no data rows"),
    ],
    ids=["short_row", "short_baseline_row", "nan", "baseline_infinity", "not_a_number",
         "header_only_baseline"],
)
def test_analyze_names_the_file_and_line_of_a_bad_row(
    tmp_path, capsys, rows, bad_file, message
):
    good = tmp_path / "good.csv"
    good.write_text("iter,mean_fitness\n1,2.0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("iter,mean_fitness\n" + rows + "\n")
    series, baseline = (bad, good) if bad_file == "series" else (good, bad)
    assert main([
        "analyze", str(series), "--tau", "3", "--rate", "0.9", "--baseline", str(baseline),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad} {message}\n"


@pytest.mark.parametrize("rate", ["inf", "-inf", "nan"])
def test_analyze_names_a_non_finite_rate_as_given(tmp_path, capsys, rate):
    # An infinite interest percentage converts to a factor of 0.0, which
    # the message used to name instead.
    series = tmp_path / "series.csv"
    series.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    assert main(["analyze", str(series), "--tau", "3", f"--rate={rate}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rate must be finite, got {rate}\n"


def test_analyze_names_both_files_of_a_baseline_of_another_length(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("iter,mean_fitness\n1,2.0\n2,4.0\n3,5.0\n")
    assert main([
        "analyze", str(series), "--tau", "3", "--rate", "0.9", "--baseline", str(baseline),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: series {series} has 2 data rows, but baseline {baseline} has 3\n")


def test_an_unusable_output_dir_fails_before_any_run(tmp_path, capsys, monkeypatch):
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 3, "output_dir": str(blocker / "out"),
        "world": {"lattice_side": 4, "iterations": 3},
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert worlds == []


@pytest.mark.parametrize(
    "preset, world, message",
    [
        # Used to run fixed roles at tau = 35.1 and echo the overrides.
        ("exp1_sweep", {"tau": 9.0, "mode": "shared_p"},
         "preset exp1_sweep runs with mode='fixed_roles', but the config gives 'shared_p'"),
        # Used to run single-step fitness without chaining.
        ("exp2_sr", {"fitness_regime": "template", "chaining_enabled": True},
         "preset exp2_sr runs with chaining_enabled=False, but the config gives True"),
    ],
    ids=["exp1_shared_p", "exp2_template_chaining"],
)
def test_run_command_rejects_a_setting_the_preset_overrides(
    tmp_path, capsys, monkeypatch, preset, world, message
):
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": preset, "runs_per_cell": 1, "output_dir": str(tmp_path / "out"),
        "world": world,
    }))
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert worlds == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "preset, extra, key",
    [
        # Used to run both SR arms and echo the grid and sr_enabled.
        ("exp2_sr", {"grid_c": [0.2], "world": {"sr_enabled": False}}, "grid_c"),
        ("exp3_chaining", {"grid_p": [0.4]}, "grid_p"),
        ("exp3_chaining", {"world": {"sr_enabled": True}}, "sr_enabled"),
    ],
    ids=["exp2_grid_c_and_sr_off", "exp3_grid_p", "exp3_sr_on"],
)
def test_run_command_rejects_a_key_a_paired_preset_ignores(
    tmp_path, capsys, monkeypatch, preset, extra, key
):
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    payload = {"preset": preset, "runs_per_cell": 1, "output_dir": str(tmp_path / "out")}
    payload.update(extra)
    payload["world"] = dict(payload.get("world", {}), lattice_side=4, iterations=3)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: preset {preset} runs one cell with SR off and on; it does not read {key}\n"
    )
    assert worlds == []
    assert not (tmp_path / "out").exists()


def test_run_command_rejects_a_template_file_outside_the_template_regime(
    tmp_path, capsys, monkeypatch
):
    # Used to run single-step fitness and echo the (missing) file's path.
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "runs_per_cell": 1, "output_dir": str(tmp_path / "out"),
        "world": {"template_file": str(tmp_path / "nonexistent.json")},
    }))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: template_file requires the template fitness regime\n"
    assert worlds == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("world, tau", [({"tau": 9.0}, 9.0), ({}, 35.1)],
                         ids=["explicit_9", "defaulted"])
def test_run_command_keeps_an_explicit_exp1_tau(tmp_path, capsys, monkeypatch, world, tau):
    # 9.0 is also the WorldConfig default, which exp1 replaces by the desk
    # threshold only when the config does not give tau.
    taus = []
    real = experiments.time_to_threshold

    def spy(series, t):
        taus.append(t)
        return real(series, t)

    monkeypatch.setattr(experiments, "time_to_threshold", spy)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": "exp1_sweep", "runs_per_cell": 1, "grid_c": [1.0], "grid_p": [1.0],
        "output_dir": str(tmp_path / "out"),
        "world": dict(world, lattice_side=4, iterations=3),
    }))
    assert main(["run", str(config)]) == 0
    assert taus == [tau]
    echoed = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echoed["world"]["tau"] == tau


def test_run_command_rejects_a_spec_whose_world_breaks_its_preset(tmp_path, capsys, monkeypatch):
    # A spec built by hand, not decided by load_config: it is run as it
    # stands, so its missing chaining is an error, not a silent override.
    worlds = []
    monkeypatch.setattr(world_mod.World, "__init__", lambda self, *a: worlds.append(a))
    spec = experiments.ExperimentSpec(
        preset="exp3_chaining", world=world_mod.WorldConfig(mode="shared_p"),
        runs_per_cell=1, output_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "load_config", lambda path: spec)
    assert main(["run", str(tmp_path / "cfg.json")]) == 1
    assert capsys.readouterr().err == (
        "error: preset exp3_chaining runs with chaining_enabled=True, "
        "but the config gives False\n"
    )
    assert worlds == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, world, message",
    [
        (["exp1", "--runs", str(10**9)], None,
         "error: the sweep is too large: 25,000,000,000 runs x 100 iterations"
         " exceed the limit of 1,000,000\n"),
        (["run"], {"lattice_side": 10**6},
         "error: lattice_side must be in [2, 256], got 1000000\n"),
        (["run"], {"iterations": 10**15},
         "error: iterations must be in [1, 1,000,000], got 1000000000000000\n"),
    ],
    ids=["exp1_runs", "run_lattice_side", "run_iterations"],
)
def test_a_huge_size_is_one_error_line_before_any_world(
    tmp_path, capsys, monkeypatch, args, world, message
):
    monkeypatch.setattr(world_mod.World, "__init__", None)
    out = tmp_path / "out"
    if world is not None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"output_dir": str(out), "world": world}))
        args = args + [str(config)]
    else:
        args = args + ["--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists()
