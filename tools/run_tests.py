"""Run the test suite on an interpreter that has no pytest.

    python tools/run_tests.py [TEST_FILE ...] [-k SUBSTRING]

With no files it runs every ``tests/test_*.py``.  It stands in for the
part of pytest the tests use: ``pytest.mark.parametrize`` and
``skipif``, ``pytest.raises`` and ``pytest.approx``, and the
``tmp_path``, ``monkeypatch`` and ``capsys`` fixtures.  Tests are named
as pytest names them (``tests.test_world::test_x[0-fixed_roles]``), one
line each with PASS, FAIL or SKIP.  The exit status is 1 when a test
failed.  It imports the package from the checkout's ``src``, so nothing
needs installing; ``tools/`` is outside pytest's ``testpaths``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import itertools
import math
import os
import re
import shutil
import sys
import tempfile
import traceback
import types
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Skipped(Exception):
    pass


class _Mark:
    @staticmethod
    def parametrize(argnames, argvalues, ids=None):
        names = [n.strip() for n in argnames.split(",")] if isinstance(argnames, str) else list(argnames)

        def mark(fn):
            # Decorators apply bottom-up, and pytest's ids list them in that order.
            fn.__dict__.setdefault("_params", []).append((names, list(argvalues), ids))
            return fn

        return mark

    @staticmethod
    def skipif(condition, reason=""):
        def mark(fn):
            if condition:
                fn._skip = reason
            return fn

        return mark


class _Raises:
    def __init__(self, expected, match=None):
        self.expected, self.match = expected, match

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        if kind is None:
            raise AssertionError(f"DID NOT RAISE {self.expected}")
        if not issubclass(kind, self.expected):
            return False
        if self.match is not None and not re.search(self.match, str(value)):
            raise AssertionError(f"{str(value)!r} does not match {self.match!r}")
        self.type, self.value = kind, value
        return True


class _Approx:
    """pytest's defaults: rel 1e-6 and abs 1e-12; giving one of them alone
    drops the other."""

    def __init__(self, expected, rel=None, abs=None):
        self.expected = expected
        if rel is None and abs is None:
            rel, abs = 1e-6, 1e-12
        self.rel, self.abs = rel or 0.0, abs or 0.0

    def _close(self, actual, expected):
        if actual == expected:
            return True
        tol = max(self.rel * math.fabs(expected), self.abs)
        return math.fabs(actual - expected) <= tol

    def __eq__(self, actual):
        if isinstance(self.expected, (list, tuple)):
            return len(actual) == len(self.expected) and all(
                self._close(a, e) for a, e in zip(actual, self.expected))
        return self._close(actual, self.expected)

    def __repr__(self):
        return f"approx({self.expected!r})"


def _skip(reason=""):
    raise Skipped(reason)


def pytest_stub() -> types.ModuleType:
    mod = types.ModuleType("pytest")
    mod.mark = _Mark()
    mod.raises = _Raises
    mod.approx = _Approx
    mod.skip = _skip
    return mod


class MonkeyPatch:
    def __init__(self):
        self._undo = []

    def setattr(self, target, name, value):
        """Set ``target.name``, which must exist, as pytest's default
        ``raising=True`` requires: a patch of a name the target lacks
        raises ``AttributeError`` instead of adding it."""
        if not hasattr(target, name):
            raise AttributeError(f"{target!r} has no attribute {name!r}")
        old = getattr(target, name)
        self._undo.append(lambda: setattr(target, name, old))
        setattr(target, name, value)

    def setenv(self, name, value):
        old = os.environ.get(name)
        self._undo.append(lambda: self._restore_env(name, old))
        os.environ[name] = str(value)

    def delenv(self, name, raising=True):
        if name not in os.environ:
            if raising:
                raise KeyError(name)
            return
        old = os.environ.pop(name)
        self._undo.append(lambda: self._restore_env(name, old))

    @staticmethod
    def _restore_env(name, old):
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old

    def undo(self):
        while self._undo:
            self._undo.pop()()


CaptureResult = namedtuple("CaptureResult", "out err")


class CaptureFixture:
    def __init__(self):
        self._saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()

    def readouterr(self):
        result = CaptureResult(sys.stdout.getvalue(), sys.stderr.getvalue())
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        return result

    def close(self):
        sys.stdout, sys.stderr = self._saved


def _id(value, name, index):
    """pytest's id of one parameter value: scalars as they print, a value
    with a ``__name__`` (a class or function) by that name, anything else
    by argument name and index."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return str(value)
    if isinstance(getattr(value, "__name__", None), str):
        return value.__name__
    return f"{name}{index}"


def cases(fn):
    """(id, kwargs) for every parametrization of ``fn``."""
    axes = []
    for names, values, ids in getattr(fn, "_params", []):
        axis = []
        labels = list(ids) if ids is not None and not callable(ids) else None
        for i, value in enumerate(values):
            args = dict(zip(names, value)) if len(names) > 1 else {names[0]: value}
            if labels:
                label = labels[i]
            elif callable(ids):
                label = ids(value)
            else:
                label = "-".join(_id(args[n], n, i) for n in names)
            axis.append((str(label), args))
        axes.append(axis)
    if not axes:
        return [(None, {})]
    out = []
    for combo in itertools.product(*axes):
        kwargs = {}
        for _, args in combo:
            kwargs.update(args)
        out.append(("-".join(label for label, _ in combo), kwargs))
    return out


def run_one(fn, kwargs, scratch: Path) -> None:
    wanted = inspect.signature(fn).parameters
    patch = MonkeyPatch() if "monkeypatch" in wanted else None
    capture = CaptureFixture() if "capsys" in wanted else None
    if patch:
        kwargs["monkeypatch"] = patch
    if capture:
        kwargs["capsys"] = capture
    if "tmp_path" in wanted:
        kwargs["tmp_path"] = Path(tempfile.mkdtemp(dir=scratch))
    try:
        fn(**kwargs)
    finally:
        if capture:
            capture.close()
        if patch:
            patch.undo()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="test files (default: tests/test_*.py)")
    parser.add_argument("-k", default="", help="run only tests whose name contains this")
    args = parser.parse_args(argv)

    sys.modules["pytest"] = pytest_stub()
    # pytest puts tests/ on the path too, so test modules can import the
    # helper modules beside them.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]
    files = [Path(f).resolve() for f in args.files] or sorted((ROOT / "tests").glob("test_*.py"))
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    scratch = Path(tempfile.mkdtemp(prefix="culturesim-tests-"))
    print(f"python {sys.version.split()[0]}")
    try:
        for path in files:
            try:
                module = importlib.import_module(f"tests.{path.stem}")
            except Exception:
                counts["FAIL"] += 1
                print(f"FAIL tests.{path.stem} (import)\n{traceback.format_exc()}", flush=True)
                continue
            for name, fn in vars(module).items():
                if not (name.startswith("test") and inspect.isfunction(fn)):
                    continue
                for label, kwargs in cases(fn):
                    test_id = f"tests.{path.stem}::{name}" + (f"[{label}]" if label else "")
                    if args.k not in test_id:
                        continue
                    status, detail = "PASS", ""
                    try:
                        if hasattr(fn, "_skip"):
                            raise Skipped(fn._skip)
                        run_one(fn, kwargs, scratch)
                    except Skipped as exc:
                        status, detail = "SKIP", str(exc)
                    except Exception:
                        status, detail = "FAIL", traceback.format_exc()
                    counts[status] += 1
                    print(f"{status} {test_id}", flush=True)
                    if detail and status == "FAIL":
                        print(detail, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{counts['PASS']} passed, {counts['FAIL']} failed, {counts['SKIP']} skipped")
    return 1 if counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
