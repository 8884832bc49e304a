"""Command-line surface.

Subcommands: evaluate, parse, oracle, complete, fuzz, validate-lexicon,
augment-lexicon, gen-costs, bench.  Reports are JSON lines; tree and graph
outputs use the formats in amparse.fileformats.  Exit codes: 0 success,
1 input error or out of memory, 2 no-parse, 3 dequeue limit hit (limit
outranks no-parse when a batch has both).  Each command imports the
decoders it runs, so a command that runs none loads none.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from . import fileformats as ff
from .costs import INF, CostParams, SentenceCosts, gen_synthetic
from .lexicon import Lexicon, augment_closure, validate_closure
from .trees import BOTTOM, check_well_typed, evaluate_tree

EXIT_OK, EXIT_INPUT, EXIT_NOPARSE, EXIT_LIMIT = 0, 1, 2, 3

# amparse.transitions.SYSTEMS and amparse.astar.HEURISTICS, spelled here so
# that building the parser loads neither module
SYSTEMS = ("ltf", "ltl")
HEURISTICS = ("trivial", "supertag", "edge", "ignore-aware")
DECODERS = ("chart", "astar") + SYSTEMS

# per decoder: the stats key bench sums into its work column, and its name there
WORK = {"chart": ("items", "chart items"), "astar": ("dequeued", "dequeued items"),
        "ltf": ("transitions", "transitions"), "ltl": ("transitions", "transitions")}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: Optional[str], text: str, fallback=None) -> None:
    """Write text to path, or to fallback (default: the current stdout) if None."""
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    else:
        (fallback or sys.stdout).write(text)


def _json_lines(lines: list[dict]) -> str:
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def _finite(x: float):
    return None if x == INF else x


def _load_lexicon(path: str) -> Lexicon:
    return ff.parse_lexicon_text(_read(path), name=Path(path).stem)


def _load_costs(path: str, lexicon: Lexicon) -> list[SentenceCosts]:
    """The cost file's sentences, checked against the lexicon they are decoded on."""
    sentences = ff.parse_cost_text(_read(path))
    for c in sentences:
        for i, g in c.tag_cost:
            if g != BOTTOM and g not in lexicon.constants:
                raise ValueError(f"sentence {c.sid}: tag for unknown constant {g!r}")
        # edge keys are scanned only when some label of the table is foreign
        foreign = {lid for lid, label in enumerate(c.labels) if label not in lexicon.labels}
        if foreign:
            mm = (c.n + 1) ** 2  # an edge key's label id is key // mm
            for key in c.edge_table:
                if key // mm in foreign:
                    raise ValueError(
                        f"sentence {c.sid}: edge label {c.labels[key // mm]} not in the lexicon"
                    )
    return sentences


def _decode(c: SentenceCosts, lexicon: Lexicon, decoder: str, heuristic: Optional[str],
            args, type_checked: bool = True):
    """One sentence through one decoder, as parse and bench both run it: (result,
    the work counters parse reports as stats, outcome limit, no-parse or ok)."""
    if decoder == "chart":
        from .chart import chart_parse

        res = chart_parse(c, lexicon, k_tags=args.k_supertags)
        stats = {"items": res.stats.n_items, "arcs": res.stats.arcs_checked}
    elif decoder == "astar":
        from .astar import astar_parse

        res = astar_parse(c, lexicon, heuristic=heuristic, k_tags=args.k_supertags,
                          dequeue_limit=args.dequeue_limit)
        stats = {"dequeued": res.stats.dequeued, "pushed": res.stats.pushed}
        if res.stats.limit_hit:
            return res, stats, "limit"
    else:
        from .transitions import decode

        res = decode(c, lexicon, decoder, beam=args.beam, type_checked=type_checked)
        stats = {"transitions": len(res.transitions)}
    return res, stats, "ok" if res.tree is not None else "no-parse"


def _nearest_rank_ms(walls: list[float], p: int) -> Optional[float]:
    """The nearest-rank p-th percentile of sorted wall times, in ms; None if empty."""
    if not walls:
        return None
    return round(walls[(p * len(walls) + 99) // 100 - 1] * 1000, 3)


def _closed_lexicon(lexicon: Lexicon, augment: bool) -> Lexicon:
    report = validate_closure(lexicon)
    if report.ok:
        return lexicon
    if augment:
        return augment_closure(lexicon)
    details = "; ".join(str(v) for v in report.violations)
    raise ValueError(
        f"lexicon {lexicon.name!r} is not closed ({details}); rerun with --augment"
    )


# --- subcommands -------------------------------------------------------------


def cmd_evaluate(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    trees = ff.parse_trees_text(_read(args.trees))
    failures = []
    for idx, tree in enumerate(trees):
        report = check_well_typed(tree, lexicon)
        if not report.ok:
            failures.append({"index": idx, "failure": list(report.failure)})
    if failures:
        sys.stderr.write(_json_lines(failures))
        return EXIT_INPUT
    blocks = [
        ff.write_graph_text(evaluate_tree(tree, lexicon), name=f"g{idx}")
        for idx, tree in enumerate(trees)
    ]
    _write(args.output, "\n".join(blocks))
    return EXIT_OK


def cmd_parse(args) -> int:
    if args.no_type_check and args.decoder != "ltl":
        raise ValueError("--no-type-check applies to --decoder ltl only")
    start = time.perf_counter()
    lexicon = _load_lexicon(args.lexicon)
    if args.decoder in SYSTEMS:
        lexicon = _closed_lexicon(lexicon, args.augment)
    sentences = _load_costs(args.costs, lexicon)
    read_s = round(time.perf_counter() - start, 6)

    def work(c: SentenceCosts) -> dict:
        t0 = time.perf_counter()
        res, stats, outcome = _decode(
            c, lexicon, args.decoder, args.heuristic, args, type_checked=not args.no_type_check
        )
        rec: dict = {
            "sid": c.sid, "n": c.n, "decoder": args.decoder, "outcome": outcome,
            "cost": _finite(res.cost), "stats": stats,
        }
        if args.decoder == "astar":
            rec["heuristic"] = args.heuristic
        elif args.decoder in SYSTEMS:
            rec["mode"] = "no-type-check" if args.no_type_check else "typed"
            rec["beam"] = args.beam
            if args.trace:
                from .transitions import render_trace

                lines = render_trace(res.transitions, lexicon, args.decoder, c.n)
                sys.stderr.write(f"# sentence {c.sid}\n" + "\n".join(lines) + "\n")
        rec["well_typed"] = res.tree is not None and check_well_typed(res.tree, lexicon).ok
        rec["wall_s"] = round(time.perf_counter() - t0, 6)
        rec["tree"] = res.tree
        return rec

    records = [work(c) for c in sentences]
    # the batch's real time, loading included; throughput is measured on it
    elapsed = round(time.perf_counter() - start, 6)

    items = []
    for rec in records:
        tree = rec.pop("tree")
        items.append(tree if tree is not None else f"{rec['sid']} {rec['outcome'].upper()}")
    _write(args.output, ff.write_trees_text(items))

    outcomes = Counter(rec["outcome"] for rec in records)
    total_tokens = sum(rec["n"] for rec in records)
    total_wall = sum(rec["wall_s"] for rec in records)
    walls = sorted(rec["wall_s"] for rec in records)
    aggregate = {
        "aggregate": True,
        "sentences": len(records),
        "tokens": total_tokens,
        "outcomes": outcomes,
        "total_wall_s": round(total_wall, 6),
        "read_s": read_s,
        "elapsed_s": elapsed,
        "tokens_per_s": round(total_tokens / elapsed, 3),
        "latency_p50_ms": _nearest_rank_ms(walls, 50),
        "latency_p95_ms": _nearest_rank_ms(walls, 95),
        "latency_max_ms": _nearest_rank_ms(walls, 100),
    }
    fallback = sys.stderr if args.output is None else sys.stdout
    _write(args.report, _json_lines(records + [aggregate]), fallback)

    if outcomes["limit"]:
        return EXIT_LIMIT
    if outcomes["no-parse"]:
        return EXIT_NOPARSE
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracles import oracle_sequence, replay
    from .transitions import config_to_tree, render_trace

    lexicon = _closed_lexicon(_load_lexicon(args.lexicon), args.augment)
    trees = ff.parse_trees_text(_read(args.trees))
    for idx, tree in enumerate(trees):
        seq = oracle_sequence(tree, lexicon, args.system)
        final = replay(tree, seq, lexicon, args.system)
        rebuilt = config_to_tree(final, tuple(e.form for e in tree.entries))
        line = {
            "index": idx,
            "n": tree.n,
            "n_transitions": len(seq),
            "transitions": [str(t) for t in seq],
            "exact": rebuilt == tree,
        }
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
        if args.trace:
            table = render_trace(seq, lexicon, args.system, tree.n)
            sys.stderr.write(f"# tree {idx}\n" + "\n".join(table) + "\n")
    return EXIT_OK


def cmd_complete(args) -> int:
    from .oracles import complete_config
    from .transitions import is_goal, random_walk, render_trace

    lexicon = _closed_lexicon(_load_lexicon(args.lexicon), args.augment)
    cfg, trace = random_walk(
        lexicon, args.system, args.n, random.Random(args.seed), max_steps=args.steps
    )
    prefix = [tr for _, tr in trace]
    completion, final = complete_config(cfg, lexicon, args.system)
    line = {
        "system": args.system,
        "n": args.n,
        "seed": args.seed,
        "prefix": [str(t) for t in prefix],
        "completion": [str(t) for t in completion],
        "goal": is_goal(final),
    }
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    if args.trace:
        table = render_trace(prefix + completion, lexicon, args.system, args.n)
        sys.stderr.write("\n".join(table) + "\n")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from .oracles import fuzz_episode

    lexicon = _closed_lexicon(_load_lexicon(args.lexicon), args.augment)
    for k in range(args.episodes):
        ep = fuzz_episode(
            args.seed + k, args.system, lexicon, args.n, args.steps,
            bias_apply=args.bias_apply,
        )
        line = {
            "seed": ep.seed,
            "system": ep.system,
            "n": ep.n,
            "lexicon": ep.lexicon_name,
            "goal": ep.goal,
            "n_steps": len(ep.steps),
            "steps": [[d, t] for d, t in ep.steps],
            "tree": [
                [e.form, e.constant, e.head, str(e.label)] for e in ep.tree.entries
            ] if ep.tree else None,
        }
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_validate_lexicon(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    report = validate_closure(lexicon)
    line = {
        "lexicon": lexicon.name,
        "closed": report.ok,
        "violations": [str(v) for v in report.violations],
    }
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_augment_lexicon(args) -> int:
    lexicon = augment_closure(_load_lexicon(args.lexicon))
    _write(args.output, ff.write_lexicon_text(lexicon))
    return EXIT_OK


def cmd_gen_costs(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    master = random.Random(args.seed)
    params = CostParams(lo=args.lo, hi=args.hi)
    sentences = []
    for k in range(args.sentences):
        n = master.randint(args.n_min, args.n_max)
        sub = master.randrange(2**32)
        sentences.append(gen_synthetic(sub, n, lexicon, params=params, sid=f"s{k}"))
    _write(args.output, ff.write_cost_text(sentences))
    return EXIT_OK


def cmd_bench(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    decoders = args.decoders.split(",") if args.decoders else list(DECODERS)
    heuristics = args.heuristics.split(",") if args.heuristics else list(HEURISTICS)
    for d in decoders:
        if d not in DECODERS:
            raise ValueError(f"unknown decoder {d!r}")
    for h in heuristics:
        if h not in HEURISTICS:
            raise ValueError(f"unknown heuristic {h!r}")
    closed = _closed_lexicon(lexicon, augment=True)
    # chart and A* decode on the lexicon as read, the transition systems on its closure
    sentences = _load_costs(args.costs, closed if set(decoders) <= set(SYSTEMS) else lexicon)
    tokens = sum(c.n for c in sentences)

    rows = []
    for decoder in decoders:
        lex = closed if decoder in SYSTEMS else lexicon
        key = WORK[decoder][0]
        for h in heuristics if decoder == "astar" else [None]:
            walls = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                cost_total, work_total, n_inf = 0.0, 0, 0
                for c in sentences:
                    res, stats, _ = _decode(c, lex, decoder, h, args)
                    work_total += stats[key]
                    if res.cost < INF:
                        cost_total += res.cost
                    else:
                        n_inf += 1
                walls.append(time.perf_counter() - t0)
            median = statistics.median(walls)
            rows.append({
                "decoder": decoder,
                "heuristic": h,
                "repeat": args.repeat,
                "median_s": round(median, 6),
                "tokens_per_s": round(tokens / median, 3) if median > 0 else None,
                "total_cost": round(cost_total, 9),
                "unpriced_or_failed": n_inf,
                "work": work_total,
            })

    header = (
        f"{'decoder':8} {'heuristic':13} {'median_s':>10} {'tok/s':>10} "
        f"{'cost':>10} {'inf':>4} {'work':>8}"
    )
    table = [header, "-" * len(header)]
    for r in rows:
        table.append(
            f"{r['decoder']:8} {r['heuristic'] or '-':13} {r['median_s']:>10.4f} "
            f"{r['tokens_per_s'] or 0:>10.1f} {r['total_cost']:>10.3f} "
            f"{r['unpriced_or_failed']:>4d} {r['work']:>8d}"
        )
    table.append(
        "# cost sums finite trees only; inf counts failed or unpriced trees; "
        "work is " + ", ".join(f"{d}: {WORK[d][1]}" for d in decoders)
    )
    sys.stdout.write("\n".join(table) + "\n")
    if args.report:
        _write(args.report, _json_lines(rows))
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amparse")
    sub = p.add_subparsers(dest="command", required=True)

    def add_lexicon(sp, augment=True):
        sp.add_argument("--lexicon", required=True, help="lexicon file")
        if augment:
            sp.add_argument("--augment", action="store_true",
                            help="synthesize constants to close the lexicon")

    def add_search(sp):
        sp.add_argument("--k-supertags", type=int, default=6)
        sp.add_argument("--dequeue-limit", type=int, default=1_000_000)
        sp.add_argument("--beam", type=int, default=1)

    sp = sub.add_parser("evaluate", help="evaluate trees to graphs")
    sp.add_argument("trees")
    add_lexicon(sp, augment=False)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("parse", help="decode cost files to trees")
    sp.add_argument("costs")
    add_lexicon(sp)
    sp.add_argument("--decoder", choices=DECODERS, default="astar")
    sp.add_argument("--heuristic", choices=HEURISTICS, default="ignore-aware")
    add_search(sp)
    sp.add_argument("--no-type-check", action="store_true")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("-o", "--output")
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("oracle", help="gold transition sequences for trees")
    sp.add_argument("trees")
    add_lexicon(sp)
    sp.add_argument("--system", choices=SYSTEMS, required=True)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("complete", help="drive a random prefix to a goal")
    add_lexicon(sp)
    sp.add_argument("--system", choices=SYSTEMS, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--steps", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_complete)

    sp = sub.add_parser("fuzz", help="random episodes as JSON lines")
    add_lexicon(sp)
    sp.add_argument("--system", choices=SYSTEMS, required=True)
    sp.add_argument("--episodes", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--bias-apply", type=float, default=1.0)
    sp.set_defaults(fn=cmd_fuzz)

    sp = sub.add_parser("validate-lexicon", help="check closure assumptions")
    add_lexicon(sp, augment=False)
    sp.set_defaults(fn=cmd_validate_lexicon)

    sp = sub.add_parser("augment-lexicon", help="write a closed lexicon")
    add_lexicon(sp, augment=False)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_augment_lexicon)

    sp = sub.add_parser("gen-costs", help="seeded synthetic cost files")
    add_lexicon(sp, augment=False)
    sp.add_argument("--sentences", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=7)
    sp.add_argument("--lo", type=float, default=0.0)
    sp.add_argument("--hi", type=float, default=1.0)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_gen_costs)

    sp = sub.add_parser("bench", help="decoder/heuristic timing matrix")
    sp.add_argument("costs")
    add_lexicon(sp, augment=False)
    sp.add_argument("--decoders", help="comma list (default: all)")
    sp.add_argument("--heuristics", help="comma list for astar (default: all)")
    sp.add_argument("--repeat", type=int, default=3)
    add_search(sp)
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_bench)

    return p


def _check_numbers(args) -> None:
    """Reject an out-of-range numeric option before any work, naming its flag."""
    for name, least in (("k_supertags", 1), ("dequeue_limit", 1), ("beam", 1), ("repeat", 1),
                        ("episodes", 1), ("sentences", 1), ("steps", 0), ("n", 1), ("n_min", 1),
                        ("n_max", 1)):
        value = getattr(args, name, least)
        if value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
    bias = getattr(args, "bias_apply", 1.0)
    if not 0 < bias < INF:
        raise ValueError(f"--bias-apply must be positive and finite, got {bias}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.fn(args)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
