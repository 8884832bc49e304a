#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the amparse library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chart-uniform --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of that checkout.  One process runs
one workload, single-threaded: set-up (import, then parse, validate and
close the demo lexicon), seeded input generation, an untimed warm-up, then
whole passes over the input until ``--seconds`` have elapsed.  Each pass
parses the input text, runs every operation and writes the output text.
Short calibration slices before, within and after every pass gauge the
host's speed, and the end-to-end times are scaled by it to reference
seconds (see calib.py).
The checks of every output against its reference run after the timed
passes.  ``--trace 1`` times a share of the passes untraced and the rest
traced, and reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is the result as one JSON object; the line before
it is a report with the environment, every end-to-end figure and the
failures by reason.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100
FAIL_REASONS = ("exception", "no_parse", "ill_typed", "evaluate", "reference_mismatch", "oracle_roundtrip")
LAYERS = ("types", "graphs", "trees", "lexicon", "costs", "chart", "astar", "transitions", "oracles", "fileformats")

# (name, unit) of the per-layer metrics, in BENCHMARK.json order.  Times and
# counts are per operation: runs last a fixed time, so totals would move with speed.
PER_LAYER = (
    [
        ("types.type_combine.calls", "count/op"), ("types.type_combine.s", "s/op"),
        ("types.type_combine.hit_ratio", "ratio"),
        ("types.apply_set.calls", "count/op"), ("types.apply_set.s", "s/op"),
        ("chart.chart_parse.s", "s/op"), ("chart.items", "count/op"),
        ("chart.arcs_checked", "count/op"), ("chart.items_per_s", "1/s"),
        ("astar.build_heuristic.s", "s/op"), ("astar.astar_parse.s", "s/op"),
        ("astar.dequeued", "count/op"), ("astar.pushed", "count/op"),
        ("astar.pushes_per_pop", "ratio"), ("astar.pops_per_s", "1/s"),
        ("costs.top_k_tags.calls", "count/op"), ("costs.top_k_tags.s", "s/op"),
        ("costs.tree_cost.s", "s/op"),
        ("fileformats.parse_cost_text.s", "s/op"), ("fileformats.parse_cost_text.bytes_per_s", "B/s"),
        ("fileformats.parse_trees_text.s", "s/op"), ("fileformats.write_trees_text.s", "s/op"),
        ("fileformats.write_graph_text.s", "s/op"), ("fileformats.parse_lexicon_text.s", "s"),
        ("lexicon.validate_closure.s", "s"), ("lexicon.augment_closure.s", "s"),
        ("transitions.decode.s", "s/op"), ("transitions.steps", "count/op"),
        ("transitions.steps_per_s", "1/s"),
        ("transitions.legal_transitions.calls", "count/op"), ("transitions.legal_transitions.s", "s/op"),
        ("transitions.apply_transition.calls", "count/op"), ("transitions.apply_transition.s", "s/op"),
        ("oracles.oracle_sequence.s", "s/op"), ("oracles.replay.s", "s/op"), ("oracles.steps", "count/op"),
        ("trees.check_well_typed.s", "s/op"), ("trees.evaluate_tree.s", "s/op"),
        ("graphs.graph_apply.calls", "count/op"), ("graphs.graph_apply.s", "s/op"),
        ("graphs.graph_modify.calls", "count/op"), ("graphs.graph_modify.s", "s/op"),
    ]
    + [(f"layer.{layer}.self_s", "s/op") for layer in LAYERS + ("bench",)]
    + [(f"fail.{reason}", "count") for reason in FAIL_REASONS]
    + [("outcome.failed_frac", "ratio"), ("outcome.cost_gap_per_token", "cost/token"),
       ("trace.overhead_frac", "ratio")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(lexicon_text: str, keep: bool) -> tuple[float, dict, object]:
    """Import amparse afresh and close the demo lexicon.

    Returns the elapsed time, the time of each stage, and the closed lexicon.
    Dropping the package from sys.modules first makes the import execute its
    modules again, with empty caches.  Unless keep is set, the modules loaded
    before are put back afterwards, so the workload and the tracer go on
    using one copy of the library.
    """
    loaded = {m: sys.modules.pop(m) for m in list(sys.modules) if m == "amparse" or m.startswith("amparse.")}
    t0 = perf_counter()
    amparse = importlib.import_module("amparse")
    ff = importlib.import_module("amparse.fileformats")
    t1 = perf_counter()
    lexicon = ff.parse_lexicon_text(lexicon_text, name="demo")
    t2 = perf_counter()
    amparse.validate_closure(lexicon)
    t3 = perf_counter()
    closed = amparse.augment_closure(lexicon)
    t4 = perf_counter()
    stages = {
        "import": (t0, t1),
        "fileformats.parse_lexicon_text": (t1, t2),
        "lexicon.validate_closure": (t2, t3),
        "lexicon.augment_closure": (t3, t4),
    }
    if not keep:
        for m in [m for m in sys.modules if m == "amparse" or m.startswith("amparse.")]:
            del sys.modules[m]
        sys.modules.update(loaded)
    return t4 - t0, stages, closed


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def untraced_op(op_id, fn, *args):
    return fn(*args)


def run_pass(wl, lexicon, in_path, out_path, items_limit, call, run_op, pass_no, gauge=None):
    """One batch: read and parse the input, run every operation, write the
    output.  Returns (elapsed seconds, ops, output text).

    With a gauge, a calibration slice runs between operations whenever one
    is due; its time is left out of the elapsed seconds.
    """
    from workloads import Op

    paused = 0.0
    t0 = perf_counter()
    items = wl.read(call, in_path.read_text(encoding="utf-8"))[:items_limit]
    ops = []
    for index, item in enumerate(items):
        for config in wl.configs:
            op = Op(index, item.n)
            start = perf_counter()
            try:
                run_op(f"{pass_no}.{len(ops)}", wl.run, call, item, config, lexicon, op)
            except Exception:
                op.reasons.append("exception")
                op.error = traceback.format_exc()
            op.latency = perf_counter() - start
            ops.append(op)
            if gauge is not None:
                paused += gauge.due()
    text = wl.write(call, items, ops)
    out_path.write_text(text, encoding="utf-8")
    for op in ops:
        op.graph = None  # needed only for the output; keeps memory flat across passes
    return perf_counter() - t0 - paused, ops, text


def run_passes(wl, lexicon, paths, seconds, min_ops, gauge, speeds, between,
               call=untraced_call, run_op=untraced_op, first=0):
    """Whole passes until seconds have elapsed and min_ops operations have
    run; between() runs after each pass, outside its timing.

    Appends to speeds the host's speed during each pass: the mean of the
    calibration slices just before it, within it and just after it.  Traced
    passes take no slices within, which would count as the benchmark's own
    time in the trace.
    """
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds or sum(len(p[1]) for p in passes) < min_ops:
        before = len(gauge.speeds) - 1
        within = gauge if call is untraced_call else None
        passes.append(call("pass", run_pass, wl, lexicon, *paths, None, call, run_op, first + len(passes), within))
        gauge.sample()
        speeds.append(statistics.fmean(gauge.speeds[before:]))
        between()
    return passes


def pass_figures(passes, speeds) -> dict:
    """The median over passes of each pass's throughput, and the latency
    quantiles of every operation of every pass, pooled.

    speeds[i] is the host's speed during pass i, relative to the reference
    (see calib.py); every wall time is multiplied by it, which turns it into
    reference seconds.  With every speed 1.0 the figures are wall-clock ones.

    A pass is one whole batch, so its throughput is its tokens over its real
    elapsed time.  The median over passes keeps a burst of load from other
    tenants of a shared machine, which only ever slows a pass, from moving
    the figure unless it covers half of the run.  The latencies are pooled
    rather than taken per pass, so each quantile rests on all the samples of
    its length group; each pass's own quantiles go to the report.
    """
    rates, p50, p90, pooled = [], [], [], []
    for (elapsed, ops, _), speed in zip(passes, speeds, strict=True):
        latencies = [op.latency * speed for op in ops]
        rates.append(sum(op.tokens for op in ops) / (elapsed * speed))
        p50.append(1000 * statistics.median(latencies))
        p90.append(1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8])
        pooled += latencies
    return {
        "tokens_per_s": statistics.median(rates),
        "latency_p50_ms": 1000 * statistics.median(pooled),
        "latency_p90_ms": 1000 * statistics.quantiles(pooled, n=10, method="inclusive")[8],
        "per_pass": {"tokens_per_s": rates, "latency_p50_ms": p50, "latency_p90_ms": p90},
    }


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "amparse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def per_layer(tracer, traced_passes, setup_stages, failures, outcome, overhead) -> dict:
    totals = tracer.totals()
    n_ops = sum(len(ops) for _, ops, _ in traced_passes)
    counts: dict[str, float] = {}
    for _, ops, _ in traced_passes:
        for op in ops:
            for k, v in op.counts.items():
                counts[k] = counts.get(k, 0) + v

    def seconds(name):
        return totals[name][1] if name in totals else 0.0

    def rate(num, den):
        return num / den if den else 0.0

    m = {}
    for name, unit in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if unit == "s/op" and not name.startswith("layer."):
            m[name] = rate(seconds(base), n_ops)
        elif name.endswith(".calls"):
            m[name] = rate(totals[base][0] if base in totals else 0, n_ops)
    m["types.type_combine.hit_ratio"] = rate(
        totals["types.type_combine"][3] if "types.type_combine" in totals else 0,
        totals["types.type_combine"][0] if "types.type_combine" in totals else 0,
    )
    for key in ("chart.items", "chart.arcs_checked", "astar.dequeued", "astar.pushed",
                "transitions.steps", "oracles.steps"):
        m[key] = rate(counts.get(key, 0), n_ops)
    m["chart.items_per_s"] = rate(counts.get("chart.items", 0), seconds("chart.chart_parse"))
    m["astar.pushes_per_pop"] = rate(counts.get("astar.pushed", 0), counts.get("astar.dequeued", 0))
    m["astar.pops_per_s"] = rate(counts.get("astar.dequeued", 0), seconds("astar.astar_parse"))
    m["transitions.steps_per_s"] = rate(counts.get("transitions.steps", 0), seconds("transitions.decode"))
    m["fileformats.parse_cost_text.bytes_per_s"] = rate(
        outcome["input_bytes"] * len(traced_passes), seconds("fileformats.parse_cost_text"))
    for stage in ("fileformats.parse_lexicon_text", "lexicon.validate_closure", "lexicon.augment_closure"):
        m[f"{stage}.s"] = statistics.median(end - start for start, end in setup_stages[stage])
    self_by_layer = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, (_, _, own, _) in totals.items():
        layer = name.split(".", 1)[0]
        self_by_layer[layer if layer in self_by_layer else "bench"] += own
    for layer, own in self_by_layer.items():
        m[f"layer.{layer}.self_s"] = rate(own, n_ops)
    for reason in FAIL_REASONS:
        m[f"fail.{reason}"] = failures[reason]
    m["outcome.failed_frac"] = outcome["failed_frac"]
    m["outcome.cost_gap_per_token"] = outcome["cost_gap_per_token"]
    m["trace.overhead_frac"] = overhead
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amparse" / "__init__.py").is_file():
        print(f"error: no amparse package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lexicon_text = (HERE / "demo.lexicon").read_text(encoding="utf-8")
    setups = [set_up(lexicon_text, keep=True)]
    lexicon = setups[0][2]
    # The host's speed: next to each set-up, and during each pass.
    gauge = calib.Gauge()
    gauge.sample()
    setup_speeds = [gauge.speeds[-1]]
    pass_speeds = []

    def between():
        # One more set-up after each pass, so that the median spans the whole run.
        setups.append(set_up(lexicon_text, keep=False)[:2])
        setup_speeds.append(gauge.speeds[-1])

    # Imported only now, so they bind to the amparse modules the first set-up loaded.
    import corpus
    import workloads
    from amparse import validate_closure
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    problems = [f"closed lexicon: {v}" for v in validate_closure(lexicon).violations]
    problems += wl.self_check(args.seed, lexicon)

    items = wl.make(args.seed, lexicon)
    text = wl.input_text(items)
    OUT.mkdir(exist_ok=True)
    paths = (OUT / f"{wl.name}.in", OUT / f"{wl.name}.out")
    paths[0].write_text(text, encoding="utf-8")
    # Fills the type algebra's caches; the first pass also runs slower for other reasons.
    run_pass(wl, lexicon, *paths, None, untraced_call, untraced_op, "warmup")
    gauge.sample()

    # With tracing, half the time runs untraced, for the overhead, and half traced.
    untraced = run_passes(wl, lexicon, paths, args.seconds / (1 + args.trace), MIN_OPS,
                          gauge, pass_speeds, between)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, lexicon, paths, args.seconds / 2, 0, gauge, pass_speeds, between,
                                tracer.call, tracer.run_op, len(untraced))
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed region.
    passes = untraced + traced
    all_ops = [op for _, ops, _ in passes for op in ops]
    gap = wl.check(items, all_ops, lexicon)
    if any(out != passes[0][2] for _, _, out in passes):
        problems.append("output text differs between passes")
    # Every pass runs the same operations, so each is counted once, from the
    # first pass: the counts then depend on the seed only, not on how many
    # passes fitted into the run.
    distinct = passes[0][1]
    if any([op.reasons for op in ops] != [op.reasons for op in distinct] for _, ops, _ in passes):
        problems.append("failure reasons differ between passes")
    setup_stages = {k: [s[1][k] for s in setups] for k in setups[0][1]}
    failures = {r: sum(r in op.reasons for op in distinct) for r in FAIL_REASONS}
    failed = sum(bool(op.reasons) for op in distinct)
    treed = [op for op in all_ops if op.tree is not None]
    tokens = sum(op.tokens for op in all_ops)
    outcome = {
        "failed_frac": failed / len(distinct),
        "cost_gap_per_token": gap / sum(op.tokens for op in treed) if treed else 0.0,
        "input_bytes": len(text.encode()),
    }
    correct = not problems and not failures["reference_mismatch"] and not failures["oracle_roundtrip"]

    figures = pass_figures(untraced, pass_speeds[:len(untraced)])
    wall = pass_figures(untraced, [1.0] * len(untraced))
    setup_s = [s[0] for s in setups]
    e2e = {
        "setup_s": (statistics.median(t * v for t, v in zip(setup_s, setup_speeds, strict=True)), "s"),
        "tokens_per_s": (figures["tokens_per_s"], "1/s"),
        "latency_p50_ms": (figures["latency_p50_ms"], "ms"),
        "latency_p90_ms": (figures["latency_p90_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    evaluate_failed = [op for op in distinct if "evaluate" in op.reasons]
    report = {
        "environment": environment(args),
        "passes": len(untraced),
        "pass_seconds": [p[0] for p in untraced],
        "per_pass": figures["per_pass"],
        "operations": len(all_ops),
        "distinct_operations": len(distinct),
        "tokens": tokens,
        "latency_samples": sum(len(ops) for _, ops, _ in untraced),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "host_speed": {"passes": pass_speeds[:len(untraced)], "setups": setup_speeds},
        "wall_clock": {
            "setup_s": statistics.median(setup_s),
            "tokens_per_s": wall["tokens_per_s"],
            "latency_p50_ms": wall["latency_p50_ms"],
            "latency_p90_ms": wall["latency_p90_ms"],
        },
        "failed_frac": outcome["failed_frac"],
        "cost_gap_per_token": outcome["cost_gap_per_token"],
        "failures": failures,
        "evaluate_failures_with_known_pattern": sum(
            corpus.has_known_evaluate_defect(op.tree, lexicon) for op in evaluate_failed),
        "problems": problems,
        "first_exception": next((op.error for op in all_ops if op.error), None),
    }
    if traced:
        overhead = 1.0 - pass_figures(traced, pass_speeds[len(untraced):])["tokens_per_s"] / figures["tokens_per_s"]
        metrics = per_layer(tracer, traced, setup_stages, failures, outcome, overhead)
        # Set-up spans go to the file only: the per-operation figures above exclude them.
        for stage, spans in setup_stages.items():
            for start, end in spans:
                tracer.add_span(stage, start, end, "setup")
        trace_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write(trace_path)
        report["spans_file"] = str(trace_path.relative_to(ROOT))
        report["traced_passes"] = len(traced)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(distinct), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
