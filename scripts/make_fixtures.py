#!/usr/bin/env python3
"""Write the bundled demo fixtures (lexicon, gold costs, gold tree) to disk,
and with --golden, the decode golden file the test suite compares against.

Usage: python scripts/make_fixtures.py [outdir]   (default: ./fixtures)
       python scripts/make_fixtures.py --golden [path]
           (default: tests/data/decode_golden.txt)

The golden file records, for a seeded corpus over the closed demo lexicon,
what chart_parse and astar_parse (every estimate, k_tags None and 6) return:
tree text, repr(cost) and the work counters.  A change to the decoders'
internals must leave it byte-identical.
"""

import random
import sys
from pathlib import Path

from amparse import fileformats as ff
from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse
from amparse.costs import SentenceCosts, gen_synthetic
from amparse.demo import demo_costs, demo_gold_tree, demo_lexicon
from amparse.lexicon import augment_closure

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "decode_golden.txt"
GOLDEN_LENGTHS = range(2, 9)
GOLDEN_K_TAGS = (None, 6)


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
        res = chart_parse(c, lexicon)
        blocks.append(
            f"== {name} chart cost={res.cost!r} items={res.stats.n_items} "
            f"arcs_checked={res.stats.arcs_checked}\n" + _tree_text(res.tree)
        )
        for h in HEURISTICS:
            for k in GOLDEN_K_TAGS:
                res = astar_parse(c, lexicon, heuristic=h, k_tags=k)
                blocks.append(
                    f"== {name} astar {h} k_tags={k} cost={res.cost!r} "
                    f"dequeued={res.stats.dequeued} pushed={res.stats.pushed}\n"
                    + _tree_text(res.tree)
                )
    return "".join(blocks)


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--golden":
        path = Path(args[1]) if len(args) > 1 else GOLDEN_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(decode_golden_text(), encoding="utf-8")
        print(f"wrote {path}")
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
