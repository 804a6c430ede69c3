"""``tools/run_tests.py`` names each parametrized case and patches an
attribute as pytest does."""

import importlib.util
from pathlib import Path

from culturesim.network import AutoAssociator, LastPattern

_PATH = Path(__file__).resolve().parent.parent / "tools" / "run_tests.py"
_SPEC = importlib.util.spec_from_file_location("run_tests", _PATH)
run_tests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_tests)
mark = run_tests.pytest_stub().mark


def labels(fn):
    return [label for label, _ in run_tests.cases(fn)]


def test_cases_name_a_class_or_function_by_its_name():
    # The ids pytest 9 collects for the same parametrizations.
    @mark.parametrize("iterations, net_class", [(250, LastPattern), (251, AutoAssociator)])
    def horizon(iterations, net_class):
        pass

    @mark.parametrize("make", [dict, labels, len])
    def callables(make):
        pass

    assert labels(horizon) == ["250-LastPattern", "251-AutoAssociator"]
    assert labels(callables) == ["dict", "labels", "len"]


def test_cases_name_other_values_as_pytest_does():
    @mark.parametrize("kw", [dict(a=1), (1, 2)], ids=["one", "two"])
    @mark.parametrize("x, flag", [(1.5, True), (None, "s")])
    def stacked(kw, x, flag):
        pass

    @mark.parametrize("kw", [dict(a=1), [2]])
    def objects(kw):
        pass

    assert labels(stacked) == ["1.5-True-one", "1.5-True-two", "None-s-one", "None-s-two"]
    assert labels(objects) == ["kw0", "kw1"]
    kwargs = dict(run_tests.cases(stacked))["None-s-two"]
    assert kwargs == {"x": None, "flag": "s", "kw": (1, 2)}


def test_monkeypatch_refuses_a_name_the_target_lacks():
    # pytest's monkeypatch.setattr raises by default, so a test that
    # patches a deleted name fails under both runners, not only pytest.
    class Target:
        present = 1

    patch = run_tests.MonkeyPatch()
    try:
        patch.setattr(Target, "missing", 2)
    except AttributeError as exc:
        assert "missing" in str(exc)
    else:
        raise AssertionError("setattr added a name the target lacks")
    assert not hasattr(Target, "missing")
    patch.setattr(Target, "present", 2)
    assert Target.present == 2
    patch.undo()
    assert Target.present == 1
