"""Acceptance gate: ten end-to-end criteria, one visible verdict line each.

Run with plain pytest; each test prints "[criterion N] PASS/FAIL ..." past
the capture so the verdict survives in any log.  Criteria with a stated
runtime budget assert it.
"""

import math
import random
import time

import pytest

from amparse.astar import HEURISTICS, astar_parse, build_heuristic
from amparse.chart import GOAL_SIG, chart_parse, outside_costs
from amparse.costs import INF, gen_synthetic, tree_cost
from amparse.demo import demo_costs, demo_expected_graph, demo_gold_tree, demo_lexicon
from amparse.exhaustive import best_analysis_cost
from amparse.graphs import graphs_isomorphic
from amparse.lexicon import augment_closure
from amparse.oracles import (
    complete_config,
    complete_step,
    fuzz_episode,
    oracle_sequence,
    replay,
)
from amparse.transitions import (
    apply_transition,
    config_to_tree,
    decode,
    initial_config,
    is_goal,
    legal_transitions,
    total_owed,
)
from amparse.trees import IGNORE, check_well_typed, evaluate_tree
from amparse.types import EMPTY_TYPE, parse_type

RAW = demo_lexicon()
CLOSED = augment_closure(RAW)


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_demo_evaluation(capsys):
    """Gold tree types and evaluates to the expected graph."""
    t0 = time.perf_counter()
    gold = demo_gold_tree()
    report = check_well_typed(gold, RAW)
    ok = report.ok
    ok = ok and report.term_types[5] == parse_type("[s]")
    ok = ok and report.term_types[3] == EMPTY_TYPE
    graph = evaluate_tree(gold, RAW)
    ok = ok and graphs_isomorphic(graph, demo_expected_graph())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(capsys, 1, ok, f"term types [s]/[], isomorphic graph ({elapsed:.3f}s)")


def test_criterion_02_astar_matches_chart(capsys):
    """All four heuristics reproduce the chart optimum on 200 instances."""
    t0 = time.perf_counter()
    rng = random.Random(20)
    checked, mismatches = 0, 0
    for seed in range(200):
        n = rng.randint(2, 7)
        c = gen_synthetic(seed, n, CLOSED)
        exact = chart_parse(c, CLOSED)
        want = exact.cost if exact.ok else INF
        for h in HEURISTICS:
            res = astar_parse(c, CLOSED, heuristic=h, k_tags=None)
            got = res.cost if res.ok else INF
            checked += 1
            same = (got == want == INF) or abs(got - want) <= 1e-9
            if not same:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    verdict(capsys, 2, ok,
            f"{checked} decoder runs, {mismatches} mismatches ({elapsed:.1f}s)")


def test_criterion_03_chart_matches_enumeration(capsys):
    """Chart optimum equals brute-force enumeration over all analyses."""
    t0 = time.perf_counter()
    rng = random.Random(30)
    bad = 0
    for seed in range(50):
        n = rng.randint(2, 5)
        c = gen_synthetic(seed, n, CLOSED)
        res = chart_parse(c, CLOSED)
        got = res.cost if res.ok else INF
        want = best_analysis_cost(c, CLOSED)
        if not ((got == want == INF) or abs(got - want) <= 1e-12):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    verdict(capsys, 3, ok, f"50 instances, {bad} mismatches ({elapsed:.1f}s)")


def test_criterion_04_heuristics_admissible_and_ordered(capsys):
    """Estimates never exceed true outside costs; the chain dominates."""
    t0 = time.perf_counter()
    rng = random.Random(40)
    items, violations = 0, 0
    for seed in range(50):
        n = rng.randint(2, 5)
        c = gen_synthetic(seed, n, CLOSED)
        res = chart_parse(c, CLOSED, record_hyperedges=True)
        if not res.ok:
            continue
        out = outside_costs(res)
        tables = [build_heuristic(h, c, CLOSED) for h in HEURISTICS]
        for sig, true_outside in out.items():
            if sig == GOAL_SIG:
                continue
            i, k, head, _ = sig
            items += 1
            prev = None
            for tab in tables:
                est = tab.estimate(i, k, head)
                if est > true_outside + 1e-9:
                    violations += 1
                if prev is not None and est < prev - 1e-9:
                    violations += 1
                prev = est
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and items > 0 and elapsed < 120.0
    verdict(capsys, 4, ok,
            f"{items} items x 4 estimates, {violations} violations ({elapsed:.1f}s)")


def test_criterion_05_fuzz_never_dead_ends(capsys):
    """1000 seeded episodes per system all reach well-typed goals."""
    t0 = time.perf_counter()
    failures = 0
    for system in ("ltf", "ltl"):
        for seed in range(1000):
            n = 1 + seed % 8
            ep = fuzz_episode(seed, system, CLOSED, n, steps=seed % (2 * n + 1))
            if not (ep.goal and ep.tree is not None
                    and check_well_typed(ep.tree, CLOSED).ok):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    verdict(capsys, 5, ok, f"2000 episodes, {failures} failures ({elapsed:.1f}s)")


def test_criterion_06_oracle_round_trip(capsys):
    """500 random trees per system re-derive exactly from their oracles."""
    t0 = time.perf_counter()
    failures = 0
    for system in ("ltf", "ltl"):
        for seed in range(500):
            n = 1 + seed % 7
            ep = fuzz_episode(10_000 + seed, system, CLOSED, n, steps=2 * n)
            tree = ep.tree
            seq = oracle_sequence(tree, CLOSED, system)
            final = replay(tree, seq, CLOSED, system)
            back = config_to_tree(final, tuple(e.form for e in tree.entries))
            if back != tree:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    verdict(capsys, 6, ok, f"1000 round trips, {failures} failures ({elapsed:.1f}s)")


def test_criterion_07_reachable_configs_complete(capsys):
    """Dead-end freedom checked exhaustively to depth 6 plus sampled deep."""
    t0 = time.perf_counter()
    stuck, lemma_violations = 0, 0

    # breadth-first over every legal choice, deduplicated by digest
    for system in ("ltf", "ltl"):
        for n in (1, 2, 3, 4):
            layer = [initial_config(n)]
            seen = {layer[0].digest()}
            for _ in range(6):
                nxt = []
                for cfg in layer:
                    if system == "ltf" and total_owed(cfg, CLOSED) > cfg.free_tokens():
                        lemma_violations += 1
                    for tr in legal_transitions(cfg, CLOSED, system):
                        child = apply_transition(cfg, tr, CLOSED, system, check=False)
                        d = child.digest()
                        if d not in seen:
                            seen.add(d)
                            nxt.append(child)
                layer = nxt
            for cfg in [initial_config(n)] + layer:
                if system == "ltf":
                    # drive bundle by bundle: each nets one stack pop
                    probe = cfg
                    for _ in range(4 * n + 4):
                        if is_goal(probe):
                            break
                        bundle = complete_step(probe, CLOSED, "ltf")
                        before = len(probe.stack)
                        for tr in bundle:
                            probe = apply_transition(probe, tr, CLOSED, "ltf")
                        if before and len(probe.stack) != before - 1:
                            lemma_violations += 1
                    if not is_goal(probe):
                        stuck += 1
                else:
                    taken, goal_cfg = complete_config(cfg, CLOSED, system)
                    if not is_goal(goal_cfg):
                        stuck += 1
                    finishes = sum(1 for t in taken if t.kind == "finish")
                    if finishes > n:
                        lemma_violations += 1

    # sampled deeper prefixes
    rng = random.Random(70)
    for k in range(1000):
        system = ("ltf", "ltl")[k % 2]
        n = rng.randint(1, 10)
        cfg = initial_config(n)
        for _ in range(rng.randint(0, 3 * n)):
            legal = legal_transitions(cfg, CLOSED, system)
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), CLOSED, system, check=False)
        taken, goal_cfg = complete_config(cfg, CLOSED, system)
        if not is_goal(goal_cfg):
            stuck += 1
    elapsed = time.perf_counter() - t0
    ok = stuck == 0 and lemma_violations == 0 and elapsed < 300.0
    verdict(capsys, 7, ok,
            f"{stuck} stuck configs, {lemma_violations} lemma violations ({elapsed:.1f}s)")


def test_criterion_08_gold_zero_agreement(capsys):
    """All four decoders recover the gold tree at cost zero."""
    t0 = time.perf_counter()
    costs = demo_costs()
    gold = demo_gold_tree()
    results = {
        "chart": chart_parse(costs, RAW),
        "astar": astar_parse(costs, RAW),
        "ltf": decode(costs, CLOSED, "ltf"),
        "ltl": decode(costs, CLOSED, "ltl"),
    }
    ok = all(r.tree == gold and r.cost == 0.0 for r in results.values())
    elapsed = time.perf_counter() - t0
    verdict(capsys, 8, ok, f"chart/astar/ltf/ltl all gold at 0.0 ({elapsed:.3f}s)")


def test_criterion_09_work_bounds(capsys):
    """Linear transition counts; A* never dequeues more than the chart."""
    t0 = time.perf_counter()
    violations = 0
    rng = random.Random(90)
    for seed in range(60):
        n = rng.randint(2, 7)
        c = gen_synthetic(seed, n, CLOSED)
        for system in ("ltf", "ltl"):
            res = decode(c, CLOSED, system)
            attached = sum(e.label != IGNORE for e in res.tree.entries)
            pops = sum(1 for t in res.transitions if t.kind == "pop")
            non_pop = len(res.transitions) - pops
            if non_pop != 2 * attached or non_pop > 2 * n + 1:
                violations += 1
            if system == "ltf" and pops != attached:
                violations += 1
            if system == "ltl" and pops != 0:
                violations += 1
        chart_items = chart_parse(c, CLOSED).stats.n_items
        dequeued = astar_parse(c, CLOSED, heuristic="ignore-aware",
                               k_tags=None).stats.dequeued
        if dequeued > chart_items:
            violations += 1
    # chart work growth: report the empirical exponent over doubling n
    sizes, work = [4, 8, 16], []
    for n in sizes:
        c = gen_synthetic(0, n, CLOSED)
        work.append(chart_parse(c, CLOSED).stats.n_items)
    slope = (math.log(work[-1]) - math.log(work[0])) / (
        math.log(sizes[-1]) - math.log(sizes[0])
    )
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    verdict(capsys, 9, ok,
            f"{violations} bound violations; chart items ~ n^{slope:.2f} "
            f"({work} at n={sizes}) ({elapsed:.1f}s)")


def test_criterion_10_type_checks_matter(capsys):
    """Unchecked guards produce ill-typed trees; checked guards never do."""
    t0 = time.perf_counter()
    unchecked_bad, checked_bad = 0, 0
    for seed in range(100):
        c = gen_synthetic(seed, 6, CLOSED)
        loose = decode(c, CLOSED, "ltl", type_checked=False)
        if loose.tree is None or not check_well_typed(loose.tree, CLOSED).ok:
            unchecked_bad += 1
        strict = decode(c, CLOSED, "ltl", type_checked=True)
        if strict.tree is None or not check_well_typed(strict.tree, CLOSED).ok:
            checked_bad += 1
    elapsed = time.perf_counter() - t0
    ok = unchecked_bad >= 1 and checked_bad == 0
    verdict(capsys, 10, ok,
            f"{unchecked_bad}/100 ill-typed unchecked, {checked_bad}/100 checked "
            f"({elapsed:.1f}s)")
