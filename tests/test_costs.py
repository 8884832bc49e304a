"""Cost tables: validation, lookups, tree pricing, synthetic generation."""

import pytest

from amparse.costs import INF, CostParams, SentenceCosts, gen_synthetic, top_k_tags, tree_cost
from amparse.trees import BOTTOM, IGNORE, ROOT, app


def test_missing_decisions_price_infinite():
    sparse = SentenceCosts(2, ("a", "b"), {(1, "writer"): 0.5}, {})
    assert sparse.tag(1, "writer") == 0.5
    assert sparse.tag(2, "writer") == INF
    assert sparse.edge(1, 2, app("s")) == INF


def test_gold_tree_costs_zero(costs, gold):
    assert tree_cost(gold, costs) == 0.0


def test_perturbed_tree_costs_positive(costs, gold):
    from amparse.trees import AmDepTree, TreeEntry

    entries = list(gold.entries)
    entries[1] = TreeEntry(entries[1].form, entries[1].constant, 5, app("s"))
    assert tree_cost(AmDepTree(tuple(entries)), costs) > 0.0


def test_validation_rejects_bad_indices():
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a", "b"), {(3, "writer"): 0.1}, {})
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a", "b"), {}, {(1, 1, app("s")): 0.1})
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a",), {}, {})


def test_validation_rejects_negative_costs():
    with pytest.raises(ValueError):
        SentenceCosts(1, ("a",), {(1, "writer"): -0.5}, {})


# (id, tag_cost, edge_cost, message): the first offender, tags before edges
VALIDATION_ORDER = [
    ("tag-index-before-cost", {(1, "a"): 0.0, (3, "b"): INF}, {}, "token index 3 out of range 1..2"),
    ("tag-cost", {(2, "a"): float("nan"), (0, "b"): 0.0}, {},
     "costs are nonnegative finite, got nan"),
    ("tags-before-edges", {(1, "a"): -1.0}, {(0, 3, ROOT): 0.0}, "costs are nonnegative finite, got -1.0"),
    ("edge-target-before-cost", {}, {(0, 0, ROOT): -1.0}, "token index 0 out of range 1..2"),
    ("edge-cost-before-origin", {}, {(1, 2, ROOT): -INF}, "costs are nonnegative finite, got -inf"),
    ("root-origin", {}, {(0, 1, IGNORE): 0.0, (2, 1, ROOT): 0.0}, "ROOT edges originate at 0, got 2"),
    ("origin-range", {}, {(3, 1, app("s")): 0.0}, "bad edge origin 3 for APP_s into 1"),
    ("first-edge", {}, {(1, 1, app("s")): 0.0, (0, 1, app("s")): 0.0},
     "bad edge origin 1 for APP_s into 1"),
]


@pytest.mark.parametrize(
    "tags,edges,message", [row[1:] for row in VALIDATION_ORDER], ids=[row[0] for row in VALIDATION_ORDER]
)
def test_validation_reports_first_offender(tags, edges, message):
    with pytest.raises(ValueError) as exc:
        SentenceCosts(2, ("a", "b"), tags, edges)
    assert str(exc.value) == message


def test_top_k_tags_ordering(costs):
    pairs = top_k_tags(costs, 3, None)
    assert pairs[0] == ("want", 0.0)
    assert [c for _, c in pairs] == sorted(c for _, c in pairs)
    assert all(g != BOTTOM for g, _ in pairs)
    assert len(top_k_tags(costs, 3, 1)) == 1
    with pytest.raises(IndexError):
        top_k_tags(costs, 0, None)
    with pytest.raises(ValueError):
        top_k_tags(costs, 1, 0)


def test_gen_synthetic_is_deterministic(lex):
    a = gen_synthetic(42, 5, lex)
    b = gen_synthetic(42, 5, lex)
    assert a.tag_cost == b.tag_cost and a.edge_cost == b.edge_cost
    c = gen_synthetic(43, 5, lex)
    assert c.tag_cost != a.tag_cost


def test_gen_synthetic_prices_every_decision(lex):
    c = gen_synthetic(0, 4, lex, params=CostParams(lo=0.25, hi=0.75))
    for j in range(1, 5):
        assert (j, BOTTOM) in c.tag_cost
        for g in lex.constants:
            assert (j, g) in c.tag_cost
        assert (0, j, ROOT) in c.edge_cost
        assert (0, j, IGNORE) in c.edge_cost
    assert all(0.25 <= v <= 0.75 for v in c.tag_cost.values())
    # app/mod edges priced in both directions between distinct tokens
    assert (1, 2, app("s")) in c.edge_cost and (2, 1, app("s")) in c.edge_cost
