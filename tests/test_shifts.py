"""Cost-shift relations every decoder must keep.

Every tree pays exactly one tag per token (BOT when the token is ignored)
and exactly one in-edge per token (ROOT, IGNORE or an arc).  So adding the
same amount to every tag of one token, or to every in-edge of one token,
adds it to every tree's cost, and doubling every cost doubles every tree's
cost: the optimum's tree must not move.  A tag shift keeps each token's
ranking and an in-edge shift touches no tag, so both hold at every k.
Costs are multiples of 1/8 and shifts 1/2, so every sum is exact and ties
stay ties.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse
from amparse.costs import SentenceCosts, gen_synthetic, tree_cost
from amparse.lexicon import augment_closure
from amparse.transitions import SYSTEMS, decode

from test_lexicon import small_lexicons

HALF = 0.5
KS = (2, 6, None)
# the estimates that shift with the costs, so that A* pops the same items
SHIFTING = ("edge", "ignore-aware")


def _changed(c: SentenceCosts, tag, edge) -> SentenceCosts:
    """c with each tag cost x of key k replaced by tag(k, x), and each edge
    cost by edge(k, x)."""
    return SentenceCosts(c.n, c.forms, {k: tag(k, x) for k, x in c.tag_cost.items()},
                         {k: edge(k, x) for k, x in c.edge_cost.items()}, sid=c.sid)


def _same(key, x):
    return x


def _eighths(seed: int, n: int, lexicon) -> SentenceCosts:
    """Uniform synthetic costs rounded to multiples of 1/8."""
    def eighths(key, x):
        return round(x * 8) / 8

    return _changed(gen_synthetic(seed, n, lexicon), eighths, eighths)


def _shifts(c: SentenceCosts, j: int) -> tuple[SentenceCosts, SentenceCosts]:
    """c with 1/2 added to every tag of token j, and with 1/2 added to
    every in-edge of token j."""
    return (_changed(c, lambda key, x: x + HALF * (key[0] == j), _same),
            _changed(c, _same, lambda key, x: x + HALF * (key[1] == j)))


def _deduce(c: SentenceCosts, lexicon, k) -> dict:
    """Per deductive decoder: (tree, cost, work counters)."""
    res = chart_parse(c, lexicon, k_tags=k)
    out = {"chart": (res.tree, res.cost, res.stats.n_items)}
    for h in HEURISTICS:
        res = astar_parse(c, lexicon, heuristic=h, k_tags=k)
        out[h] = (res.tree, res.cost, (res.stats.dequeued, res.stats.pushed))
    return out


def _check_shifts(c: SentenceCosts, lexicon, k, j: int) -> None:
    base = _deduce(c, lexicon, k)
    for shifted in _shifts(c, j):
        got = _deduce(shifted, lexicon, k)
        for name in ("chart",) + SHIFTING:
            tree, cost, work = base[name]
            assert got[name] == (tree, cost + HALF, work), (name, j)
        optimum = got["chart"][1]
        for name in set(HEURISTICS) - set(SHIFTING):  # the cost shifts, the pops need not
            tree, cost, _ = got[name]
            assert cost == base[name][1] + HALF == optimum, (name, j)
            assert tree is None or tree_cost(tree, shifted) == optimum, (name, j)


def _demo_sentences(lexicon):
    """(costs, shifted token) at n = 4..10."""
    for seed in range(7):
        n = 4 + seed
        yield _eighths(300 + seed, n, lexicon), random.Random(seed).randint(1, n)


@pytest.mark.parametrize("k", KS)
def test_deductive_decoders_keep_their_tree_under_a_shift_on_the_demo(closed_lex, k):
    for c, j in _demo_sentences(closed_lex):
        _check_shifts(c, closed_lex, k, j)


@given(small_lexicons().map(augment_closure), st.integers(1, 7), st.integers(0, 10**6),
       st.sampled_from(KS), st.data())
@settings(max_examples=30, deadline=None)
def test_deductive_decoders_keep_their_tree_under_a_shift(lx, n, seed, k, data):
    _check_shifts(_eighths(seed, n, lx), lx, k, data.draw(st.integers(1, n)))


def _every_decoder(c: SentenceCosts, lexicon, k) -> dict:
    """Per decoder: (tree, cost, work counters)."""
    out = _deduce(c, lexicon, k)
    for system in SYSTEMS:
        for beam in (1, 4):
            res = decode(c, lexicon, system, beam=beam)
            out[system, beam] = (res.tree, res.cost, res.transitions)
    return out


def _double(c: SentenceCosts) -> SentenceCosts:
    return _changed(c, lambda key, x: 2 * x, lambda key, x: 2 * x)


def test_doubling_every_cost_keeps_every_decoders_tree_and_work(closed_lex):
    for c, _ in _demo_sentences(closed_lex):
        base = _every_decoder(c, closed_lex, 6)
        assert _every_decoder(_double(c), closed_lex, 6) == {
            name: (tree, 2 * cost, work) for name, (tree, cost, work) in base.items()}


@given(small_lexicons().map(augment_closure), st.integers(1, 7), st.integers(0, 10**6),
       st.sampled_from(KS))
@settings(max_examples=20, deadline=None)
def test_doubling_every_cost_keeps_every_decoders_tree_and_work_on_any_lexicon(lx, n, seed, k):
    c = _eighths(seed, n, lx)
    base = _every_decoder(c, lx, k)
    assert _every_decoder(_double(c), lx, k) == {
        name: (tree, 2 * cost, work) for name, (tree, cost, work) in base.items()}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 1: ignored tokens are never charged")
@pytest.mark.parametrize("system", SYSTEMS)
def test_transition_decoders_keep_their_tree_under_a_shift(closed_lex, system):
    for c, j in _demo_sentences(closed_lex):
        for shifted in _shifts(c, j):
            for beam in (1, 4):
                base = decode(c, closed_lex, system, beam=beam)
                got = decode(shifted, closed_lex, system, beam=beam)
                assert (got.tree, got.cost) == (base.tree, base.cost + HALF), (j, beam)
