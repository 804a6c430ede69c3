"""Parsing of templates, and the sub-action vocabulary."""

import pytest

from culturesim.actions import (
    CODES,
    PLACES,
    SUBACTIONS,
    ActionFormatError,
    NEUTRAL,
    all_subactions,
    parse_template,
)


def test_parse_format_round_trip_all_729():
    subs = list(all_subactions())
    assert len(subs) == 729
    for sub in subs:
        assert parse_template("".join(str(v) for v in sub)) == sub


def test_parse_example_with_negative_tokens():
    assert parse_template("01-110-1") == (0, 1, -1, 1, 0, -1)


def test_parse_rejects_wrong_length():
    with pytest.raises(ActionFormatError):
        parse_template("01-11")
    with pytest.raises(ActionFormatError):
        parse_template("0101010")


def test_parse_rejects_bad_characters():
    with pytest.raises(ActionFormatError):
        parse_template("01-1x0")
    with pytest.raises(ActionFormatError):
        parse_template("01-10-")  # dangling minus


def test_parse_template_wildcards_and_round_trip():
    t = parse_template("01-1***")
    assert t == (0, 1, -1, None, None, None)
    assert parse_template("0*****") == (0, None, None, None, None, None)


def test_parse_template_rejects_fully_unspecified():
    with pytest.raises(ActionFormatError):
        parse_template("******")


def test_parse_template_rejects_wrong_length():
    with pytest.raises(ActionFormatError):
        parse_template("0****")


def test_neutral_constant():
    assert NEUTRAL == (0,) * 6


def test_subactions_are_all_subactions_in_code_order():
    assert SUBACTIONS == tuple(all_subactions())
    assert PLACES == tuple(3 ** (5 - i) for i in range(6))
    assert len(CODES) == 729
    for code, sub in enumerate(SUBACTIONS):
        assert code == sum((v + 1) * 3 ** (5 - i) for i, v in enumerate(sub))
        assert CODES[sub] == code and SUBACTIONS[CODES[sub]] is sub
    assert SUBACTIONS[CODES[NEUTRAL]] == NEUTRAL
