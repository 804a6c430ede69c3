"""Fitness oracles: exhaustive brute-force checks of both regimes.

The reference implementations below are deliberately written from the
definitions, independent of the shapes used in culturesim.fitness.
"""

import json

import pytest

from culturesim.actions import CODES, SUBACTIONS, all_subactions, parse_template
from culturesim.fitness import (
    ACCEPTABLE_BY_CODE,
    ACCEPTABLE_SUBACTIONS,
    ScoreTable,
    SINGLE_STEP_SCORES,
    TemplateSet,
    fitness_single,
    max_fitness_single,
    template_order,
    template_scores,
)
from test_replay import neutral_best_templates

HD, LA, RA, LL, RL, HP = range(6)


def reference_fitness_single(sub):
    """Independent term-by-term evaluation of the single-step function."""
    active = [i for i in range(6) if sub[i] != 0]
    if not active:
        return 0
    total = len(active)
    total += 2 * len([i for i in active if sub[i] == 1])
    if HD not in active:
        total += 10
    if sub[LA] == sub[RA] and sub[LA] != 0:
        total += 5
    if sub[LL] == sub[RL] and sub[LL] != 0:
        total += 5
    if (sub[LA], sub[RA]) == (1, 1):
        total += 2
    if (sub[LL], sub[RL]) == (1, 1):
        total += 2
    return total


def reference_template_fitness(sub, templates):
    """Independent matcher: summed count-of-specified over matching templates."""
    total = 0
    for t in templates:
        if all(tv is None or tv == sv for tv, sv in zip(t, sub)):
            total += sum(1 for tv in t if tv is not None)
    return total


def test_single_step_matches_reference_on_all_729():
    for sub in all_subactions():
        assert fitness_single(sub) == reference_fitness_single(sub), sub


def test_single_step_anchor_values():
    assert fitness_single((0, 0, 0, 0, 0, 0)) == 0
    assert fitness_single((0, 1, 1, 1, 1, 1)) == 39
    assert fitness_single((0, -1, -1, -1, -1, -1)) == 25


def test_single_step_maximum_is_39_with_unique_argmax():
    best = [s for s in all_subactions() if fitness_single(s) == 39]
    assert max_fitness_single() == 39
    assert best == [(0, 1, 1, 1, 1, 1)]


def test_template_scores_examples():
    # A one-template set scores its order at each match and 0 elsewhere.
    def score(text, sub):
        return template_scores([parse_template(text)])[CODES[sub]]

    assert score("0*****", (0, 0, 0, 0, 0, 0)) == 1
    assert score("*1-1**0", (0, 1, -1, 1, 1, 0)) == 3
    assert score("*1-1**0", (0, -1, 1, 0, 0, 0)) == 0


def test_template_order_counts_specified_components():
    assert template_order(parse_template("0*****")) == 1
    assert template_order(parse_template("1**11*")) == 3
    assert template_order(parse_template("01-11-11")) == 6
    # Orders count components, so -1 entries never reduce the order.
    assert template_order(parse_template("0-1-1***")) == 3


def test_default_set_matches_reference_on_all_729():
    ts = TemplateSet.default()
    for sub in all_subactions():
        assert ts.fitness_subaction(sub) == reference_template_fitness(
            sub, ts.templates
        ), sub


def test_default_set_anchor_values():
    ts = TemplateSet.default()
    assert ts.fitness_subaction((0, 0, 0, 0, 0, 0)) == 6
    assert ts.fitness_subaction((1, 1, 1, 1, 1, 0)) == 31


def test_acceptable_subactions_share_one_fitness_value():
    ts = TemplateSet.default()
    values = {ts.fitness_subaction(d) for d in ACCEPTABLE_SUBACTIONS}
    assert len(ACCEPTABLE_SUBACTIONS) == 4
    assert len(values) == 1


def test_acceptable_set_is_the_four_antisymmetric_limb_patterns():
    # Head still, each arm opposite its partner, each leg moving with the
    # arm on its side, hips active.
    assert (0, 1, -1, 1, -1, 1) in ACCEPTABLE_SUBACTIONS
    assert (0, 0, 0, 0, 0, 0) not in ACCEPTABLE_SUBACTIONS
    assert (1, 1, 1, 1, 1, 0) not in ACCEPTABLE_SUBACTIONS
    acceptable = [s for s in all_subactions() if s in ACCEPTABLE_SUBACTIONS]
    assert acceptable == [
        (0, a, -a, a, -a, h) for a in (-1, 1) for h in (-1, 1)
    ]
    assert type(ACCEPTABLE_SUBACTIONS) is frozenset


def test_chain_fitness_sums_steps():
    ts = TemplateSet.default()
    a = (0, 1, -1, 1, -1, 1)
    b = (0, 1, -1, 1, -1, -1)
    single = ts.fitness_subaction(a)
    assert ts.scores.chain_sum((a,)) == single
    assert ts.scores.chain_sum((a, b)) == 2 * single
    assert ts.scores.chain_sum((a, b, a)) > ts.scores.chain_sum((a, b))


def test_template_set_file_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        TemplateSet.from_file(bad_json)

    not_list = tmp_path / "obj.json"
    not_list.write_text('{"a": 1}')
    with pytest.raises(ValueError, match="array of template strings"):
        TemplateSet.from_file(not_list)

    bad_template = tmp_path / "tmpl.json"
    bad_template.write_text('["0*****", "******"]')
    with pytest.raises(ValueError, match="template 1"):
        TemplateSet.from_file(bad_template)


def test_subaction_fitness_is_read_from_the_score_table():
    ts = TemplateSet.default()
    sub = (0, 1, -1, 1, -1, 1)
    assert ts.fitness_subaction(sub) == ts.scores[sub]
    assert ts.fitness_subaction(sub) == reference_template_fitness(sub, ts.templates)


def test_score_table_scores_each_subaction_once_at_construction():
    scored = []

    def score(sub):
        scored.append(sub)
        return fitness_single(sub)

    table = ScoreTable(map(score, SUBACTIONS))
    assert scored == list(SUBACTIONS)
    a, b = (0, 1, 1, 1, 1, 1), (0, 0, 0, 0, 0, 0)
    assert table[a] == 39 and table[a] == 39 and table[b] == 0
    assert table.best() == 39 and table.chain_sum((a, b, a)) == 78
    assert scored == list(SUBACTIONS)
    assert type(table.by_code) is tuple and len(table.by_code) == 729


def test_single_step_scores_by_code_equal_the_reference():
    by_code = SINGLE_STEP_SCORES.by_code
    assert list(by_code) == [reference_fitness_single(s) for s in all_subactions()]
    for code, sub in enumerate(all_subactions()):
        assert SINGLE_STEP_SCORES[sub] == by_code[code]


def wildcard_heavy_templates(tmp_path):
    path = tmp_path / "wild.json"
    path.write_text(json.dumps(
        ["1*****", "*0****", "**-1***", "*****1", "1*****", "-1****1",
         "*1*1**", "**0**-1", "0-1-1***", "*-1*-1*0", "111111"]))
    return path


@pytest.mark.parametrize(
    "make", [None, wildcard_heavy_templates, neutral_best_templates],
    ids=["default", "wildcard_heavy", "neutral_best"],
)
def test_template_scores_by_code_equal_the_reference(make, tmp_path):
    ts = TemplateSet.default() if make is None else TemplateSet.from_file(make(tmp_path))
    want = [reference_template_fitness(s, ts.templates) for s in all_subactions()]
    assert list(ts.scores.by_code) == want
    assert list(template_scores(ts.templates)) == want
    assert ts.scores.best() == max(want)
    for code, sub in enumerate(all_subactions()):
        assert ts.scores[sub] == want[code]


def test_acceptability_by_code_is_the_acceptable_set():
    assert len(ACCEPTABLE_BY_CODE) == 729
    assert {SUBACTIONS[c] for c, ok in enumerate(ACCEPTABLE_BY_CODE) if ok} == (
        ACCEPTABLE_SUBACTIONS)
    for code, sub in enumerate(all_subactions()):
        assert ACCEPTABLE_BY_CODE[code] is (sub in ACCEPTABLE_SUBACTIONS)


def test_chain_scores_sum_their_step_tables():
    subs = list(all_subactions())
    chain = tuple(subs[::37])
    assert SINGLE_STEP_SCORES.chain_sum(chain) == sum(
        reference_fitness_single(s) for s in chain)
    ts = TemplateSet.default()
    assert ts.scores.chain_sum(chain) == sum(
        reference_template_fitness(s, ts.templates) for s in chain)
    assert type(ts.scores.chain_sum(chain)) is int
    assert type(SINGLE_STEP_SCORES.chain_sum(chain)) is int


def test_default_template_set_is_parsed_once_per_process():
    assert TemplateSet.default() is TemplateSet.default()


def test_best_score_is_computed_once_per_table():
    scored = []

    def score(sub):
        scored.append(sub)
        return fitness_single(sub)

    table = ScoreTable(map(score, SUBACTIONS))
    assert table.best() == 39 and table.best() == 39
    assert len(scored) == 729
    assert SINGLE_STEP_SCORES.best() == max(
        reference_fitness_single(s) for s in all_subactions())
    ts = TemplateSet.default()
    assert ts.scores.best() == max(
        reference_template_fitness(s, ts.templates) for s in all_subactions())
