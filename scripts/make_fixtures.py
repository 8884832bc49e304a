#!/usr/bin/env python3
"""Write the bundled demo fixtures (lexicon, gold costs, gold tree) to disk,
and with --golden, the two golden files the test suite compares against.

Usage: python scripts/make_fixtures.py [outdir]   (default: ./fixtures)
       python scripts/make_fixtures.py --golden [dir]
           (default: tests/data; writes decode_golden.txt and
           transition_golden.txt)

The decode golden file records, for a seeded corpus over the closed demo
lexicon, what chart_parse (k_tags None and 2) and astar_parse (every
estimate, k_tags None, 2 and 6) return: tree text, repr(cost) and the work
counters, and for each chart run the hyperedge count and a digest of the
sorted outside costs.  The transition golden file records, for both
transition systems and n = 2..10, seeded fuzz episodes (config digests and
transitions), their step tables, random walks, the oracle sequences of the
episodes' trees with the digest of their replay, and greedy/beam-3 decodes
(tree, cost, score, transitions).  A change to the decoders' or the
transition systems' internals must leave both files byte-identical.
"""

import hashlib
import random
import sys
from pathlib import Path
from typing import Optional

from amparse import fileformats as ff
from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse, outside_costs
from amparse.costs import SentenceCosts, gen_synthetic
from amparse.demo import demo_costs, demo_gold_tree, demo_lexicon
from amparse.lexicon import augment_closure
from amparse.oracles import fuzz_episode, oracle_sequence, replay
from amparse.transitions import SYSTEMS, decode, parse_transition, random_walk, render_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
GOLDEN_PATH = GOLDEN_DIR / "decode_golden.txt"
TRANSITION_GOLDEN_PATH = GOLDEN_DIR / "transition_golden.txt"
GOLDEN_LENGTHS = range(2, 9)
CHART_K_TAGS = (None, 2)
ASTAR_K_TAGS = (None, 2, 6)
TRANSITION_LENGTHS = range(2, 11)
USAGE = __doc__[__doc__.index("Usage:"):].split("\n\n")[0]


def tie_heavy(c: SentenceCosts, seed: int) -> SentenceCosts:
    """The same priced decisions as c, each redrawn from {0, 1, 2}."""
    rng = random.Random(seed)
    draw = lambda: float(rng.choice((0, 1, 2)))
    tags = {key: draw() for key in sorted(c.tag_cost)}
    edges = {key: draw() for key in sorted(c.edge_cost, key=lambda e: (e[0], e[1], str(e[2])))}
    return SentenceCosts(c.n, c.forms, tags, edges, sid=c.sid)


def golden_corpus(lexicon) -> list[tuple[str, SentenceCosts]]:
    out = []
    for n in GOLDEN_LENGTHS:
        uniform = gen_synthetic(100 + n, n, lexicon)
        out.append((f"uniform-n{n}", uniform))
        out.append((f"ties-n{n}", tie_heavy(uniform, 200 + n)))
    return out


def _tree_text(tree) -> str:
    return ff.write_trees_text([tree]) if tree is not None else "no parse\n"


def decode_golden_text() -> str:
    """Every decoder run on the golden corpus, as canonical text."""
    lexicon = augment_closure(demo_lexicon())
    blocks = []
    for name, c in golden_corpus(lexicon):
        for k in CHART_K_TAGS:
            res = chart_parse(c, lexicon, k_tags=k)
            rec = chart_parse(c, lexicon, k_tags=k, record_hyperedges=True)
            outside = repr(sorted(outside_costs(rec).items())).encode()
            blocks.append(
                f"== {name} chart k_tags={k} cost={res.cost!r} items={res.stats.n_items} "
                f"arcs_checked={res.stats.arcs_checked} hyperedges={len(rec.hyperedges)} "
                f"outside={hashlib.sha256(outside).hexdigest()[:16]}\n" + _tree_text(res.tree)
            )
        for h in HEURISTICS:
            for k in ASTAR_K_TAGS:
                res = astar_parse(c, lexicon, heuristic=h, k_tags=k)
                blocks.append(
                    f"== {name} astar {h} k_tags={k} cost={res.cost!r} "
                    f"dequeued={res.stats.dequeued} pushed={res.stats.pushed}\n"
                    + _tree_text(res.tree)
                )
    return "".join(blocks)


def transition_golden_text() -> str:
    """Fuzz episodes, step tables, random walks, oracle replays and
    transition decodes over the closed demo lexicon, as canonical text."""
    lexicon = augment_closure(demo_lexicon())
    blocks = []
    for n in TRANSITION_LENGTHS:
        for system in SYSTEMS:
            # from pure completion to a walk run to its end (4n + 4 bounds it)
            for k, steps in enumerate((0, n // 2, n, 2 * n, 4 * n + 4)):
                seed, bias = 1000 * n + k, (1.0, 3.0)[k % 2]
                ep = fuzz_episode(seed, system, lexicon, n, steps, bias_apply=bias)
                lines = [f"== fuzz {system} n={n} seed={seed} steps={steps} "
                         f"bias={bias} goal={ep.goal}"]
                lines += [f"{digest} {tr}" for digest, tr in ep.steps]
                trs = [parse_transition(tr) for _, tr in ep.steps]
                lines += render_trace(trs, lexicon, system, n)
                blocks.append("\n".join(lines) + "\n" + _tree_text(ep.tree))
                for oracle_system in SYSTEMS:
                    seq = oracle_sequence(ep.tree, lexicon, oracle_system)
                    final = replay(ep.tree, seq, lexicon, oracle_system)
                    blocks.append(
                        f"== oracle {oracle_system} final={final.digest()}\n"
                        + " ".join(str(t) for t in seq) + "\n"
                    )
            cfg, trace = random_walk(lexicon, system, n, random.Random(n), bias_apply=2.0)
            blocks.append(
                f"== walk {system} n={n} final={cfg.digest()}\n"
                + "".join(f"{digest} {tr}\n" for digest, tr in trace)
            )
            uniform = gen_synthetic(300 + n, n, lexicon)
            for name, c in (("uniform", uniform), ("ties", tie_heavy(uniform, 400 + n))):
                for beam in (1, 3):
                    res = decode(c, lexicon, system, beam=beam)
                    blocks.append(
                        f"== decode {system} {name}-n{n} beam={beam} cost={res.cost!r} "
                        f"score={res.score!r}\n"
                        + " ".join(str(t) for t in res.transitions) + "\n"
                        + _tree_text(res.tree)
                    )
    return "".join(blocks)


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "-h" in args or "--help" in args:
        print(__doc__.strip())
        return 0
    golden = args[:1] == ["--golden"]
    if golden:
        args = args[1:]
    unknown = [arg for arg in args if arg.startswith("-")]
    if unknown:
        sys.stderr.write(f"{USAGE}\nerror: unknown option {unknown[0]!r}\n")
        return 2
    if golden:
        outdir = Path(args[0]) if args else GOLDEN_DIR
        outdir.mkdir(parents=True, exist_ok=True)
        for path, text in ((GOLDEN_PATH, decode_golden_text()),
                           (TRANSITION_GOLDEN_PATH, transition_golden_text())):
            (outdir / path.name).write_text(text, encoding="utf-8")
            print(f"wrote {outdir / path.name}")
        return 0
    outdir = Path(args[0] if args else "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    lex = demo_lexicon()
    (outdir / "demo.lexicon").write_text(ff.write_lexicon_text(lex), encoding="utf-8")
    (outdir / "demo-closed.lexicon").write_text(
        ff.write_lexicon_text(augment_closure(lex)), encoding="utf-8"
    )
    (outdir / "demo.costs").write_text(ff.write_cost_text([demo_costs()]), encoding="utf-8")
    (outdir / "demo.trees").write_text(ff.write_trees_text([demo_gold_tree()]), encoding="utf-8")
    print(f"wrote 4 files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
