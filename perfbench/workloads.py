"""The four workloads: seeded inputs, the per-operation pipeline, and the
checks of every output against a reference the code under test cannot
influence.

A workload's pass reads its whole input text, runs the pipeline on every
operation and writes its whole output text, the way ``amparse parse`` or
``amparse evaluate`` handles a batch.  ``call(name, fn, *args)`` runs one
library call; under tracing it also records a span named after the layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from amparse import (
    GraphError,
    SentenceCosts,
    astar_parse,
    chart_parse,
    check_well_typed,
    config_to_tree,
    decode,
    evaluate_tree,
    oracle_sequence,
    replay,
)
from amparse import fileformats as ff
from amparse.exhaustive import best_analysis_cost
from amparse.trees import TreeError

import corpus


@dataclass
class Op:
    """One operation of one pass, and what the checks found."""

    index: int  # position of its sentence or tree in the corpus
    tokens: int
    latency: float = 0.0
    tree: Any = None  # decoded tree (gold-trees: the input tree), or None
    cost: float = math.inf  # cost the decoder reported
    graph: Any = None  # evaluated graph, or None
    rebuilt: list = field(default_factory=list)  # gold: one tree per oracle
    counts: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)
    error: Optional[str] = None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def costs_of(s: corpus.Sentence) -> SentenceCosts:
    return SentenceCosts(s.n, corpus.forms(s.n), s.tags, s.edges, sid=s.sid)


def planted_self_check(seed: int, lexicon) -> list[str]:
    """Short sentences on which chart_parse and astar_parse must both return
    the planted tree, which shows the generator's reference is the optimum."""
    rng = random.Random(f"self-check/{seed}")
    problems = []
    for n in (6, 8):
        s = corpus.peaked_sentence(rng, "x", corpus.planted_tree(rng, n, lexicon), lexicon)
        c = costs_of(s)
        if chart_parse(c, lexicon).tree != s.planted:
            problems.append(f"chart_parse missed the planted tree at n={n}")
        if astar_parse(c, lexicon).tree != s.planted:
            problems.append(f"astar_parse missed the planted tree at n={n}")
    return problems


def typecheck_and_evaluate(call, op: Op, lexicon) -> None:
    """The tail every decoder's output goes through."""
    if op.tree is None:
        op.reasons.append("no_parse")
        return
    if not call("trees.check_well_typed", check_well_typed, op.tree, lexicon).ok:
        op.reasons.append("ill_typed")
        return
    try:
        op.graph = call("trees.evaluate_tree", evaluate_tree, op.tree, lexicon)
    except (GraphError, TreeError):
        op.reasons.append("evaluate")


class DecodeWorkload:
    """Cost text in, one decoder call per operation, tree text out."""

    name = ""
    why = ""
    lengths: tuple[int, ...] = ()
    configs: tuple = (None,)

    def make(self, seed: int, lexicon) -> list[corpus.Sentence]:
        raise NotImplementedError

    def input_text(self, items) -> str:
        return corpus.cost_text(items)

    def read(self, call, text: str) -> list:
        return call("fileformats.parse_cost_text", ff.parse_cost_text, text)

    def decode(self, call, c: SentenceCosts, config, lexicon, op: Op) -> None:
        raise NotImplementedError

    def run(self, call, c: SentenceCosts, config, lexicon, op: Op) -> None:
        self.decode(call, c, config, lexicon, op)
        typecheck_and_evaluate(call, op, lexicon)

    def write(self, call, items, ops: list[Op]) -> str:
        out = [op.tree if op.tree is not None else f"{items[op.index].sid} NO-PARSE" for op in ops]
        return call("fileformats.write_trees_text", ff.write_trees_text, out)

    def self_check(self, seed: int, lexicon) -> list[str]:
        return planted_self_check(seed, lexicon)

    def reference(self, s: corpus.Sentence, lexicon) -> float:
        return 0.0  # the planted tree's cost

    def check(self, items, ops: list[Op], lexicon) -> float:
        """Mark reference mismatches; return the summed cost gap of the ops
        that returned a tree."""
        refs: dict[int, float] = {}
        gap = 0.0
        for op in ops:
            if op.tree is None:
                continue
            s = items[op.index]
            if op.index not in refs:
                refs[op.index] = self.reference(s, lexicon)
            own = corpus.tree_cost(op.tree, s)
            gap += own - refs[op.index]
            if not self.matches(op, s, own, refs[op.index]):
                op.reasons.append("reference_mismatch")
        return gap

    def matches(self, op: Op, s: corpus.Sentence, own: float, ref: float) -> bool:
        return close(own, op.cost) and close(op.cost, ref)


class ChartUniform(DecodeWorkload):
    name = "chart-uniform"
    why = (
        "chart_parse with all supertags on dense uniform costs: every signature "
        "survives, so the chart and type_combine do nearly all the work"
    )
    lengths = (6, 7, 8, 9, 10)
    copies = 2

    def make(self, seed, lexicon):
        rng = random.Random(f"{self.name}/{seed}")
        return [
            corpus.uniform_sentence(rng, f"s{k}", n, lexicon)
            for k, n in enumerate(self.lengths * self.copies)
        ]

    def decode(self, call, c, config, lexicon, op):
        res = call("chart.chart_parse", chart_parse, c, lexicon, k_tags=None)
        op.tree, op.cost = res.tree, res.cost
        op.counts = {"chart.items": res.stats.n_items, "chart.arcs_checked": res.stats.arcs_checked}

    def reference(self, s, lexicon):
        # Enumeration would take about 15 s at n = 6; self_check ties this
        # reference to it on shorter sentences.
        return astar_parse(costs_of(s), lexicon, heuristic="trivial", k_tags=None).cost

    def self_check(self, seed, lexicon):
        """The A* reference agrees with enumeration where enumeration is cheap."""
        rng = random.Random(f"self-check/{seed}")
        problems = []
        for n in (3, 4):
            s = corpus.uniform_sentence(rng, "x", n, lexicon)
            exact = best_analysis_cost(costs_of(s), lexicon)
            got = astar_parse(costs_of(s), lexicon, heuristic="trivial", k_tags=None).cost
            if not close(got, exact):
                problems.append(f"A* reference {got} != enumeration {exact} at n={n}")
        return problems


class PeakedWorkload(DecodeWorkload):
    copies = 4

    def make(self, seed, lexicon):
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for k, n in enumerate(self.lengths * self.copies):
            tree = corpus.planted_tree(rng, n, lexicon)
            out.append(corpus.peaked_sentence(rng, f"s{k}", tree, lexicon))
        return out


class AstarPeaked(PeakedWorkload):
    name = "astar-peaked"
    why = (
        "astar_parse (ignore-aware, k=6) on peaked costs around a planted tree: "
        "few pops, so cost parsing and the estimates dominate"
    )
    lengths = (16, 20, 24, 28, 32, 36, 40)
    # Latency depends on each planted tree's shape as well as its length, so
    # ten sentences per length keep the percentiles from moving with the seed.
    copies = 10

    def decode(self, call, c, config, lexicon, op):
        res = call("astar.astar_parse", astar_parse, c, lexicon, heuristic="ignore-aware", k_tags=6)
        op.tree, op.cost = res.tree, res.cost
        op.counts = {"astar.dequeued": res.stats.dequeued, "astar.pushed": res.stats.pushed}
        if res.stats.limit_hit:
            op.tree = None

    def matches(self, op, s, own, ref):
        return op.tree == s.planted


class TransitionPeaked(PeakedWorkload):
    name = "transition-peaked"
    why = (
        "ltf greedy, ltl greedy and ltl beam-4 decoding of peaked costs: the "
        "transition guards and apply_set, and neither deductive decoder"
    )
    lengths = (16, 20, 24, 28, 32)
    # ltl greedy sits between the other two in latency.  With only ltf greedy
    # and ltl beam 4, whose latencies do not overlap, the median would fall in
    # the gap between them and be set by two extreme samples.
    configs = (("ltf", 1), ("ltl", 1), ("ltl", 4))

    def decode(self, call, c, config, lexicon, op):
        system, beam = config
        res = call("transitions.decode", decode, c, lexicon, system, beam=beam)
        op.tree, op.cost = res.tree, res.cost
        op.counts = {"transitions.steps": len(res.transitions)}

    def matches(self, op, s, own, ref):
        # Beam search is not exact: only the reported cost must be the tree's.
        return close(own, op.cost)


class GoldTrees:
    """Tree text in; check, evaluate and both oracle round trips per tree;
    graph text out."""

    name = "gold-trees"
    why = (
        "planted trees through check_well_typed, evaluate_tree and the ltf and "
        "ltl oracle round trips: the only load on oracles, graphs and trees"
    )
    lengths = (16, 24, 32, 40, 48, 56, 64)
    copies = 6
    configs = (None,)

    def make(self, seed, lexicon):
        rng = random.Random(f"{self.name}/{seed}")
        return [corpus.planted_tree(rng, n, lexicon) for n in self.lengths * self.copies]

    def input_text(self, items) -> str:
        return corpus.trees_text(items)

    def read(self, call, text):
        return call("fileformats.parse_trees_text", ff.parse_trees_text, text)

    def run(self, call, tree, config, lexicon, op):
        op.tree = tree
        if not call("trees.check_well_typed", check_well_typed, tree, lexicon).ok:
            op.reasons.append("ill_typed")
            return
        try:
            op.graph = call("trees.evaluate_tree", evaluate_tree, tree, lexicon)
        except (GraphError, TreeError):
            op.reasons.append("evaluate")
        words = tuple(e.form for e in tree.entries)
        steps = 0
        for system in ("ltf", "ltl"):
            seq = call("oracles.oracle_sequence", oracle_sequence, tree, lexicon, system)
            final = call("oracles.replay", replay, tree, seq, lexicon, system)
            op.rebuilt.append(call("transitions.config_to_tree", config_to_tree, final, words))
            steps += len(seq)
        op.counts = {"oracles.steps": steps}

    def write(self, call, items, ops):
        blocks = [
            call("fileformats.write_graph_text", ff.write_graph_text, op.graph, f"g{op.index}")
            if op.graph is not None
            else f"# g{op.index} NOT-EVALUATED\n"
            for op in ops
        ]
        return "\n".join(blocks)

    def self_check(self, seed, lexicon):
        return planted_self_check(seed, lexicon)

    def check(self, items, ops, lexicon):
        for op in ops:
            if op.rebuilt and any(t != items[op.index] for t in op.rebuilt):
                op.reasons.append("oracle_roundtrip")
        return 0.0


WORKLOADS = {w.name: w for w in (ChartUniform(), AstarPeaked(), TransitionPeaked(), GoldTrees())}
