"""Fitness oracles: exhaustive brute-force checks of both regimes.

The reference implementations below are deliberately written from the
definitions, independent of the shapes used in culturesim.fitness.
"""

import pytest

from culturesim.actions import all_subactions, parse_subaction, parse_template
from culturesim.fitness import (
    ACCEPTABLE_SUBACTIONS,
    ScoreTable,
    TemplateSet,
    fitness_chain,
    fitness_single,
    fitness_single_chain,
    fitness_subaction,
    is_successful,
    max_fitness_single,
    template_order,
    template_weight,
)

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


def test_template_weight_examples():
    t1 = parse_template("0*****")
    assert template_weight(t1, (0, 0, 0, 0, 0, 0)) == 1
    t = parse_template("*1-1**0")
    assert template_weight(t, (0, 1, -1, 1, 1, 0)) == 1
    assert template_weight(t, (0, -1, 1, 0, 0, 0)) == 0


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


def test_is_successful_restricted_to_acceptable_list():
    ts = TemplateSet.default()
    assert is_successful((0, 1, -1, 1, -1, 1), ts)
    assert not is_successful((0, 0, 0, 0, 0, 0), ts)
    assert not is_successful((1, 1, 1, 1, 1, 0), ts)
    successful = [s for s in all_subactions() if ts.is_successful(s)]
    assert sorted(successful) == sorted(ACCEPTABLE_SUBACTIONS)


def test_chain_fitness_sums_steps():
    ts = TemplateSet.default()
    a = (0, 1, -1, 1, -1, 1)
    b = (0, 1, -1, 1, -1, -1)
    single = ts.fitness_subaction(a)
    assert fitness_chain((a,), ts) == single
    assert fitness_chain((a, b), ts) == 2 * single
    assert fitness_chain((a, b, a), ts) > fitness_chain((a, b), ts)


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


def test_subaction_fitness_wrapper_uses_cache():
    ts = TemplateSet.default()
    sub = parse_subaction("01-11-11")
    assert fitness_subaction(sub, ts) == ts.fitness_subaction(sub)


def test_score_table_scores_each_subaction_once_on_first_lookup():
    scored = []

    def score(sub):
        scored.append(sub)
        return fitness_single(sub)

    table = ScoreTable(score)
    assert len(table) == 0
    a, b = parse_subaction("011111"), parse_subaction("000000")
    assert table[a] == 39 and table[a] == 39 and table[b] == 0
    assert scored == [a, b]
    assert dict(table) == {a: 39, b: 0}


def test_chain_scores_sum_their_step_tables():
    subs = list(all_subactions())
    chain = tuple(subs[::37])
    assert fitness_single_chain(chain) == sum(
        reference_fitness_single(s) for s in chain)
    ts = TemplateSet.default()
    assert ts.fitness_chain(chain) == sum(
        reference_template_fitness(s, ts.templates) for s in chain)
    assert type(ts.fitness_chain(chain)) is int
    assert type(fitness_single_chain(chain)) is int
