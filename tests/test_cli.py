"""Command-line interface: argument handling, exit codes, and output."""

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from culturesim import experiments
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
