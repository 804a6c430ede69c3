"""Misuse through the command line, as one table.

Every subcommand, and every key of a run config, is fed bad values: NaN
and infinities, a bool where a number is due and other wrong types,
empty files and short rows, unwritable paths, and sizes past each bound.
Each case must end in one ``error:`` line on stderr and exit status 1,
with no traceback, nothing on stdout, no world built and no output
directory written.  Flag values that argparse itself rejects (``--runs
x``) end in argparse's usage message and status 2 instead, and are not
in the table.  The module uses only the standard library, so it runs
under pytest and under ``tools/run_tests.py`` alike.
"""

import contextlib
import io
import json
import shutil
import traceback
from dataclasses import fields
from unittest import mock

from culturesim import cli
from culturesim import world as world_module
from culturesim.experiments import ExperimentSpec
from culturesim.world import MAX_ITERATIONS, MAX_LATTICE_SIDE, WorldConfig

NAN, INF = float("nan"), float("inf")

# Values of the wrong type, or not finite, for each declared field type.
WRONG_BY_TYPE = {
    "int": [True, False, 1.5, "4", None, [], {}, NAN, INF, -INF],
    "float": [True, "0.5", None, [], {}, NAN, INF, -INF],
    "bool": [1, 0, "false", None, [], NAN],
    "str": [3, True, None, [], {}, NAN],
    "Optional[str]": [7, True, [], {}, NAN],
    "Tuple[float, ...]": ["0.2", 0.2, None, {}, [True], ["0.2"], [None], [[0.2]],
                          [NAN], [INF], [-INF]],
    "WorldConfig": [None, [], "x", 3, True, NAN],
}

# Values of the right type that break a bound or name no known choice.
PAST_BOUND = {
    "lattice_side": [1, 0, -3, MAX_LATTICE_SIDE + 1, 10**12],
    "iterations": [0, -1, MAX_ITERATIONS + 1],
    "runs_per_cell": [0, -1, 10**7],
    "max_chain_length": [0, -1],
    "tau": [0, -1.5],
    "creator_fraction": [-0.1, 1.1],
    "creator_creativity": [-0.1, 1.1],
    "grid_c": [[], [1.5], [-0.1]],
    "grid_p": [[], [1.5], [-0.1]],
    "mode": ["", "fixed"],
    "fitness_regime": ["", "chain"],
    "preset": ["", "exp4"],
    # No key of the default (single-step) world reads a template file.
    "template_file": ["templates.json"],
    # A path under a regular file cannot be created.
    "output_dir": ["{blocker}/out"],
}

# Contents of the template file a template-regime world names.
BAD_TEMPLATE_FILES = {
    "empty": b"",
    "not_json": b"[",
    "not_a_list": b'{"a": "0*****"}',
    "no_templates": b"[]",
    "not_a_string": b"[1]",
    "short_template": b'["0*"]',
    "bad_symbol": b'["0x****"]',
    "not_utf8": b"\xff\xfe",
    "nested_too_deep": b"[" * 100_000,
}

# Contents of a run config file.
BAD_CONFIG_FILES = {
    "empty": b"",
    "not_json": b"{",
    "a_list": b"[]",
    "not_utf8": b"\xff\xfe",
    "nested_too_deep": b"[" * 100_000,
}

# Contents of a series CSV given to analyze.
BAD_SERIES = {
    "empty": "",
    "header_only": "iter,mean_fitness\n",
    "no_column": "iter,fitness\n1,2.0\n",
    "short_row": "iter,mean_fitness\n1,2.0\n2\n",
    "nan": "iter,mean_fitness\n1,nan\n",
    "infinity": "iter,mean_fitness\n1,inf\n",
    "minus_infinity": "iter,mean_fitness\n1,-inf\n",
    "not_a_number": "iter,mean_fitness\n1,x\n",
    "bool": "iter,mean_fitness\n1,True\n",
    # Past the csv module's field size limit.
    "huge_field": "iter,mean_fitness\n1,2.0\n2," + "1" * 200_000 + "\n",
    "huge_header": "iter,mean_fitness" + "x" * 200_000 + "\n1,2.0\n",
}

BASE_CONFIG = {"runs_per_cell": 1, "output_dir": "{out}",
               "world": {"lattice_side": 4, "iterations": 3}}


def config_cases():
    """(id, config) for each bad value of each spec and world key."""
    for owner, nested in ((ExperimentSpec, False), (WorldConfig, True)):
        for f in fields(owner):
            for value in WRONG_BY_TYPE[f.type] + PAST_BOUND.get(f.name, []):
                config = json.loads(json.dumps(BASE_CONFIG))
                (config["world"] if nested else config)[f.name] = value
                yield f"{f.name}={value!r}", config
    for name in list(BAD_TEMPLATE_FILES) + ["missing", "directory"]:
        world = dict(BASE_CONFIG["world"], mode="shared_p", fitness_regime="template",
                     template_file="{dir}/templates_" + name)
        yield f"template_file:{name}", dict(BASE_CONFIG, world=world)


def command_cases():
    """(id, argv) for each subcommand fed bad arguments or files."""
    for preset in ("exp1", "exp2", "exp3"):
        for runs in ("0", "-1", str(10**9)):
            yield f"{preset} --runs {runs}", [preset, "--runs", runs, "--out", "{out}"]
        yield f"{preset} --out unwritable", [preset, "--runs", "1", "--out", "{blocker}/out"]
    yield "run --out unwritable", ["run", "{dir}/good.json", "--out", "{blocker}/out"]
    for name in list(BAD_CONFIG_FILES) + ["missing", "directory"]:
        yield f"run config:{name}", ["run", "{dir}/config_" + name]
    for name in list(BAD_SERIES) + ["missing", "directory"]:
        yield f"analyze series:{name}", ["analyze", "{dir}/series_" + name,
                                         "--tau", "3", "--rate", "0.9"]
    for name in list(BAD_SERIES) + ["longer"]:
        yield f"analyze baseline:{name}", ["analyze", "{dir}/series_good", "--tau", "3",
                                           "--rate", "0.9", "--baseline",
                                           "{dir}/series_" + name]
    for flag in ("--tau", "--rate"):
        for value in ("nan", "inf", "-inf"):
            yield f"analyze {flag}={value}", ["analyze", "{dir}/series_good", "--tau", "3",
                                              "--rate", "0.9", f"{flag}={value}"]
    for value in ("0", "-3"):
        yield f"analyze --rate={value}", ["analyze", "{dir}/series_good", "--tau", "3",
                                          f"--rate={value}"]
    for name in list(BAD_TEMPLATE_FILES) + ["missing", "directory"]:
        yield f"validate-templates:{name}", ["validate-templates", "{dir}/templates_" + name]


def write_inputs(tmp, paths):
    for prefix, files in (("templates_", BAD_TEMPLATE_FILES), ("config_", BAD_CONFIG_FILES)):
        for name, data in files.items():
            (tmp / (prefix + name)).write_bytes(data)
        (tmp / (prefix + "directory")).mkdir()
    for name, text in BAD_SERIES.items():
        (tmp / ("series_" + name)).write_text(text)
    (tmp / "series_good").write_text("iter,mean_fitness\n1,2.0\n2,4.0\n")
    (tmp / "series_longer").write_text("iter,mean_fitness\n1,2.0\n2,4.0\n3,5.0\n")
    (tmp / "series_directory").mkdir()
    (tmp / "blocker").write_text("")
    (tmp / "good.json").write_text(json.dumps(fill(BASE_CONFIG, paths)))


def no_world(self, *args):
    raise AssertionError("a World was built")


def fill(value, paths):
    """``value`` with its ``{dir}``, ``{out}`` and ``{blocker}`` placeholders
    filled, at any depth."""
    if isinstance(value, str):
        return value.format(**paths)
    if isinstance(value, list):
        return [fill(v, paths) for v in value]
    if isinstance(value, dict):
        return {k: fill(v, paths) for k, v in value.items()}
    return value


def outcome(argv):
    """(exit status, stdout, stderr) of ``cli.main(argv)``; an exception
    that escapes it, argparse's ``SystemExit`` included, is a status of
    its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except (Exception, SystemExit):
            status = traceback.format_exc()
    return status, out.getvalue(), err.getvalue()


def test_every_misuse_is_one_error_line_before_any_world(tmp_path):
    out = tmp_path / "out"
    paths = {"dir": str(tmp_path), "out": str(out), "blocker": str(tmp_path / "blocker")}
    write_inputs(tmp_path, paths)
    cases = list(command_cases())
    keys = set()
    for i, (case, config) in enumerate(config_cases()):
        keys.add(case.split("=")[0].split(":")[0])
        path = tmp_path / f"config_{i}.json"
        path.write_text(json.dumps(fill(config, paths)))
        cases.append((f"run {case}", ["run", str(path)]))
    assert keys == {f.name for owner in (ExperimentSpec, WorldConfig) for f in fields(owner)}

    failures = []
    with mock.patch.object(world_module.World, "__init__", no_world):
        for case, argv in cases:
            status, stdout, stderr = outcome(fill(argv, paths))
            if not (status == 1 and stdout == "" and stderr.startswith("error: ")
                    and stderr.count("\n") == 1 and stderr.endswith("\n")
                    and not out.exists()):
                failures.append((case, status, stdout, stderr))
            shutil.rmtree(out, ignore_errors=True)
    assert failures == []
