"""End-to-end command tests driving main() in process."""

import json

import pytest

from amparse import fileformats as ff
from amparse.cli import main
from amparse.demo import demo_costs, demo_gold_tree, demo_lexicon
from amparse.graphs import graphs_isomorphic
from amparse.lexicon import augment_closure


@pytest.fixture()
def files(tmp_path):
    lex = demo_lexicon()
    paths = {
        "lex": tmp_path / "demo.lexicon",
        "closed": tmp_path / "closed.lexicon",
        "costs": tmp_path / "demo.costs",
        "trees": tmp_path / "demo.trees",
        "tmp": tmp_path,
    }
    paths["lex"].write_text(ff.write_lexicon_text(lex))
    paths["closed"].write_text(ff.write_lexicon_text(augment_closure(lex)))
    paths["costs"].write_text(ff.write_cost_text([demo_costs()]))
    paths["trees"].write_text(ff.write_trees_text([demo_gold_tree()]))
    return paths


def test_validate_lexicon_exit_codes(files, capsys):
    assert main(["validate-lexicon", "--lexicon", str(files["lex"])]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["closed"] is False and line["violations"]
    assert main(["validate-lexicon", "--lexicon", str(files["closed"])]) == 0


def test_python_m_amparse_runs_main(files, capsys, src_env):
    """python -m amparse prints what main prints and exits with its code,
    with no warning."""
    import subprocess
    import sys

    argv = ["validate-lexicon", "--lexicon", str(files["lex"])]
    code = main(argv)
    run = subprocess.run([sys.executable, "-W", "error", "-m", "amparse", *argv], env=src_env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (code, capsys.readouterr().out, "")



def test_python_m_amparse_cli_runs_without_a_warning(files, src_env):
    """The package does not import its command line, so running the module
    amparse.cli warns of nothing."""
    import subprocess
    import sys

    run = subprocess.run([sys.executable, "-W", "error", "-m", "amparse.cli", "validate-lexicon",
                          "--lexicon", str(files["closed"])], env=src_env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["closed"] is True


def test_importing_amparse_leaves_the_command_line_unloaded(src_env):
    import subprocess
    import sys

    code = ("import sys, amparse\n"
            "print([m for m in sys.modules if m.startswith('amparse.')])\n"
            "from amparse.cli import main\n"
            "print(amparse.main is main)")
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=src_env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]", "True"]


LEXICON_LAYER = {"costs", "graphs", "lexicon", "trees", "types"}


@pytest.mark.parametrize("code, loaded", [
    # the benchmark's set-up: read, check and close a lexicon
    ("import amparse.fileformats; amparse.validate_closure; amparse.augment_closure",
     LEXICON_LAYER | {"fileformats"}),
    ("from amparse import astar_parse", LEXICON_LAYER | {"astar", "rules"}),
    ("from amparse import replay", LEXICON_LAYER | {"oracles", "transitions"}),
], ids=["set-up", "astar_parse", "replay"])
def test_a_public_name_loads_only_what_it_needs(src_env, code, loaded):
    import subprocess
    import sys

    code += "\nimport sys; print(*sorted(m[8:] for m in sys.modules if m.startswith('amparse.')))"
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=src_env,
                         capture_output=True, text=True, check=True)
    assert set(run.stdout.split()) == loaded


def test_the_parser_spells_every_system_and_heuristic():
    from amparse import cli
    from amparse.astar import HEURISTICS
    from amparse.transitions import SYSTEMS

    assert cli.SYSTEMS == SYSTEMS and cli.HEURISTICS == HEURISTICS
    assert cli.DECODERS == ("chart", "astar", *SYSTEMS)


def test_validate_lexicon_loads_no_decoder(files, src_env):
    """A command that decodes nothing imports no decoder module."""
    import subprocess
    import sys

    code = ("import sys\nfrom amparse.cli import main\n"
            f"code = main(['validate-lexicon', '--lexicon', {str(files['closed'])!r}])\n"
            "print(code, *sorted(m[8:] for m in sys.modules if m.startswith('amparse.')))")
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=src_env,
                         capture_output=True, text=True, check=True)
    code, *loaded = run.stdout.split("\n")[-2].split()
    assert code == "0" and "cli" in loaded
    assert not {"astar", "chart", "rules", "transitions", "oracles", "exhaustive"} & set(loaded)


def test_running_out_of_memory_is_a_one_line_input_error(files, src_env):
    """A header of 300,000,000 tokens under a 512 MB address-space limit
    ends in exit 1 with one error line, not a traceback."""
    import subprocess
    import sys

    resource = pytest.importorskip("resource")
    path = files["tmp"] / "huge.costs"
    path.write_text("sentence s0 300000000\ntag 1 writer 0.5\nend\n")
    limit = 512 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = subprocess.run([sys.executable, "-m", "amparse", "parse", str(path), "--lexicon",
                          str(files["lex"]), "--decoder", "astar"], env=src_env,
                         capture_output=True, text=True, preexec_fn=cap)
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stderr.splitlines() == ["error: out of memory"]


def test_the_namespace_serves_every_public_name():
    import importlib

    import amparse

    for name in amparse.__all__:
        module = importlib.import_module(f"amparse.{amparse._MODULE_OF[name]}")
        assert getattr(amparse, name) is getattr(module, name), name
    star: dict = {}
    exec("from amparse import *", star)
    assert set(amparse.__all__) <= set(star) and "validate_closure" in star
    assert set(amparse.__all__) <= set(dir(amparse))
    with pytest.raises(AttributeError, match="^module 'amparse' has no attribute 'nosuch'$"):
        amparse.nosuch


def test_deeply_nested_type_is_input_error(files, capsys):
    lex = files["tmp"] / "deep.lexicon"
    lex.write_text("omega " + "".join(f"[a{i}" for i in range(600)) + "]" * 600 + "\n")
    assert main(["validate-lexicon", "--lexicon", str(lex)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and err.count("\n") == 1
    assert "Traceback" not in err and "deeper than" in err


def test_augment_lexicon_writes_closed_file(files, capsys):
    out = files["tmp"] / "aug.lexicon"
    assert main(["augment-lexicon", "--lexicon", str(files["lex"]), "-o", str(out)]) == 0
    assert out.read_text() == files["closed"].read_text()


@pytest.mark.parametrize("decoder", ["chart", "astar", "ltf", "ltl"])
def test_parse_recovers_gold(files, decoder):
    out = files["tmp"] / f"{decoder}.trees"
    rep = files["tmp"] / f"{decoder}.json"
    rc = main([
        "parse", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--decoder", decoder, "--augment", "-o", str(out), "--report", str(rep),
    ])
    assert rc == 0
    assert ff.parse_trees_text(out.read_text()) == [demo_gold_tree()]
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    assert lines[-1]["aggregate"] is True
    assert lines[0]["cost"] == 0.0 and lines[0]["well_typed"] is True


def test_parse_unclosed_lexicon_needs_augment(files, capsys):
    rc = main([
        "parse", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--decoder", "ltf",
    ])
    assert rc == 1
    assert "--augment" in capsys.readouterr().err


def test_parse_limit_exit_code(files):
    out = files["tmp"] / "lim.trees"
    rc = main([
        "parse", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--decoder", "astar", "--dequeue-limit", "1", "-o", str(out),
    ])
    assert rc == 3
    assert "LIMIT" in out.read_text()


def test_parse_limit_at_exhaustion_is_no_parse(files, tmp_path):
    """A limit reached when only stale queue entries remain is no limit:
    the sentence has no parse, so the exit code is 2, not 3."""
    from test_astar import thinned_costs

    from amparse.astar import astar_parse

    lx = augment_closure(demo_lexicon())
    c = thinned_costs(0, 3, lx)
    full = astar_parse(c, lx, k_tags=1)
    assert not full.ok and full.stats.dequeued == 9
    path, out = tmp_path / "thin.costs", tmp_path / "thin.trees"
    path.write_text(ff.write_cost_text([c]))
    rc = main([
        "parse", str(path), "--lexicon", str(files["closed"]), "--decoder", "astar",
        "--k-supertags", "1", "--dequeue-limit", "9", "-o", str(out),
    ])
    assert rc == 2
    assert "NO-PARSE" in out.read_text() and "LIMIT" not in out.read_text()


def test_parse_rejects_foreign_costs(files, tmp_path):
    bad = tmp_path / "bad.costs"
    bad.write_text("sentence s0 1\ntag 1 gremlin 0.5\nend\n")
    rc = main(["parse", str(bad), "--lexicon", str(files["lex"])])
    assert rc == 1


def test_costs_are_checked_against_the_lexicon_each_decoder_runs_on(files, tmp_path, capsys):
    """A cost file priced over the closed lexicon is accepted where the
    decoder runs on the closure (parse --augment, bench's transition
    systems), and rejected where chart or A* would run on the unclosed one."""
    costs = tmp_path / "closed.costs"
    assert main(["gen-costs", "--lexicon", str(files["closed"]), "-o", str(costs)]) == 0
    assert "_synth_" in costs.read_text()  # it prices the synthesized constants
    lex = ["--lexicon", str(files["lex"])]
    out = ["-o", str(tmp_path / "p.trees"), "--report", str(tmp_path / "p.json")]
    assert main(["parse", str(costs), *lex, "--decoder", "ltl", "--augment", *out]) == 0
    assert main(["bench", str(costs), *lex, "--decoders", "ltf,ltl", "--repeat", "1"]) == 0
    capsys.readouterr()
    for argv in (["parse", str(costs), *lex, "--decoder", "chart", *out],
                 ["parse", str(costs), *lex, "--decoder", "astar", "--augment", *out],
                 ["bench", str(costs), *lex, "--decoders", "ltl,astar", "--repeat", "1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sentence s0: tag for unknown constant '_synth_"), argv


FOREIGN_EDGE = "sentence s0 2\nform 1 a\nform 2 b\nedge 1 2 APP_zz 0.5\nend\n"


def test_foreign_edge_label_is_input_error(files, tmp_path, capsys):
    costs = tmp_path / "foreign.costs"
    costs.write_text(FOREIGN_EDGE)
    assert main(["parse", str(costs), "--lexicon", str(files["lex"])]) == 1
    assert capsys.readouterr() == ("", "error: sentence s0: edge label APP_zz not in the lexicon\n")


@pytest.mark.parametrize("decoder", ["chart", "astar", "ltf"])
def test_no_type_check_outside_ltl_fails_before_reading_files(files, tmp_path, capsys, decoder):
    costs = tmp_path / "foreign.costs"
    costs.write_text(FOREIGN_EDGE)
    for path in (costs, tmp_path / "missing.costs"):
        assert main(["parse", str(path), "--lexicon", str(files["closed"]), "--decoder", decoder,
                     "--no-type-check", "-o", str(tmp_path / "t.trees")]) == 1
        assert capsys.readouterr() == ("", "error: --no-type-check applies to --decoder ltl only\n")


def test_parse_trace_goes_to_stderr(files, capsys):
    out = files["tmp"] / "t.trees"
    rc = main([
        "parse", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--decoder", "ltl", "--augment", "--trace", "-o", str(out),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "Finish(soundly)" in err


def test_parse_throughput_uses_batch_elapsed_time(files, tmp_path):
    from amparse.costs import gen_synthetic

    many = tmp_path / "many.costs"
    sentences = [gen_synthetic(s, 4, demo_lexicon(), sid=f"s{s}") for s in range(6)]
    many.write_text(ff.write_cost_text(sentences))
    rep = tmp_path / "rep.json"
    assert main(["parse", str(many), "--lexicon", str(files["lex"]),
                 "--decoder", "chart", "-o", str(tmp_path / "a.trees"),
                 "--report", str(rep)]) in (0, 2)
    agg = json.loads(rep.read_text().splitlines()[-1])
    assert agg["tokens"] == 24
    assert agg["tokens_per_s"] == round(agg["tokens"] / agg["elapsed_s"], 3)
    assert agg["elapsed_s"] >= agg["total_wall_s"]


def test_parse_aggregate_reports_read_time_and_latency_percentiles(files, tmp_path):
    from amparse.costs import gen_synthetic

    many = tmp_path / "many.costs"
    sentences = [gen_synthetic(s, 3, demo_lexicon(), sid=f"s{s}") for s in range(6)]
    many.write_text(ff.write_cost_text(sentences))
    for costs, count in ((many, 6), (files["costs"], 1)):
        rep = tmp_path / "rep.json"
        main(["parse", str(costs), "--lexicon", str(files["lex"]), "--decoder", "astar",
              "-o", str(tmp_path / "a.trees"), "--report", str(rep)])
        *recs, agg = [json.loads(l) for l in rep.read_text().splitlines()]
        assert len(recs) == agg["sentences"] == count
        assert 0 < agg["read_s"] <= agg["elapsed_s"]
        walls = sorted(rec["wall_s"] * 1000 for rec in recs)
        # nearest rank: the ceil(p * count / 100)-th smallest time
        for key, p in (("latency_p50_ms", 50), ("latency_p95_ms", 95), ("latency_max_ms", 100)):
            assert agg[key] == round(walls[-(-p * count // 100) - 1], 3)
        assert agg["latency_p50_ms"] <= agg["latency_p95_ms"] <= agg["latency_max_ms"]


def test_evaluate_emits_parseable_graph(files, capsys):
    rc = main(["evaluate", str(files["trees"]), "--lexicon", str(files["lex"])])
    assert rc == 0
    from amparse.demo import demo_expected_graph

    graph = ff.parse_graph_text(capsys.readouterr().out)
    assert graphs_isomorphic(graph, demo_expected_graph())


def test_evaluate_ill_typed_exits_one(files, tmp_path, capsys):
    bad = tmp_path / "bad.trees"
    bad.write_text("1\tsleeps\tsleep\t0\tROOT\n")
    rc = main(["evaluate", str(bad), "--lexicon", str(files["lex"])])
    assert rc == 1
    line = json.loads(capsys.readouterr().err)
    assert line["index"] == 0


@pytest.mark.parametrize("command", ["evaluate", "oracle"])
def test_unknown_constant_in_trees_is_input_error(files, tmp_path, capsys, command):
    bad = tmp_path / "unknown.trees"
    bad.write_text("1\twriter\twriter\t0\tROOT\n2\tsoundly\tnosuch\t1\tMOD_m\n")
    argv = [command, str(bad), "--lexicon", str(files["lex"])]
    if command == "oracle":
        argv += ["--augment", "--system", "ltf"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    if command == "evaluate":
        assert json.loads(err) == {"index": 0, "failure": [2, "unknown constant 'nosuch'"]}
    else:
        assert err.startswith("error: ") and "(2, \"unknown constant 'nosuch'\")" in err


@pytest.mark.parametrize("line,bad", [("source a1 S", "'S'"), ("modlabel Big", "'Big'")])
def test_bad_source_name_in_lexicon_names_its_line(files, tmp_path, capsys, line, bad):
    lex = tmp_path / "bad.lexicon"
    lex.write_text("constant x\nnode a0 lbl\nnode a1 _\nroot a0\nedge a0 ARG0 a1\n"
                   + ("source a1 S\nend\n" if line.startswith("source") else
                      "source a1 s\nend\n" + line + "\n"))
    assert main(["validate-lexicon", "--lexicon", str(lex)]) == 1
    lineno = 6 if line.startswith("source") else 8
    assert capsys.readouterr().err == f"error: line {lineno}: bad source name {bad}\n"


def test_oracle_outputs_gold_sequence(files, capsys):
    rc = main([
        "oracle", str(files["trees"]), "--lexicon", str(files["lex"]),
        "--augment", "--system", "ltl",
    ])
    assert rc == 0
    line = json.loads(capsys.readouterr().out)
    assert line["exact"] is True
    assert line["transitions"][0] == "Init(3)"
    assert line["n_transitions"] == 8


def test_oracle_trace_writes_the_step_table_to_stderr(files, capsys):
    rc = main(["oracle", str(files["trees"]), "--lexicon", str(files["lex"]), "--augment",
               "--system", "ltf", "--trace"])
    assert rc == 0
    out, err = capsys.readouterr()
    transitions = json.loads(out)["transitions"]
    lines = err.splitlines()
    assert lines[0] == "# tree 0"
    assert lines[1].split() == ["step", "E", "T", "A", "G", "stack", "transition"]
    assert len(lines) == 2 + len(transitions)
    for k, (line, tr) in enumerate(zip(lines[2:], transitions), start=1):
        assert line.startswith(f"{k} ") and line.endswith(tr)


def test_complete_trace_writes_the_step_table_to_stderr(files, capsys):
    rc = main(["complete", "--lexicon", str(files["lex"]), "--augment", "--system", "ltl",
               "--n", "4", "--steps", "2", "--seed", "5", "--trace"])
    assert rc == 0
    out, err = capsys.readouterr()
    line = json.loads(out)
    transitions = line["prefix"] + line["completion"]
    lines = err.splitlines()
    assert lines[0].split() == ["step", "E", "T", "A", "G", "stack", "transition"]
    assert len(lines) == 1 + len(transitions) and len(line["prefix"]) == 2
    for k, (row, tr) in enumerate(zip(lines[1:], transitions), start=1):
        assert row.startswith(f"{k} ") and row.endswith(tr)


def test_complete_reaches_goal(files, capsys):
    rc = main([
        "complete", "--lexicon", str(files["lex"]), "--augment",
        "--system", "ltf", "--n", "5", "--steps", "3", "--seed", "2",
    ])
    assert rc == 0
    line = json.loads(capsys.readouterr().out)
    assert line["goal"] is True


def test_fuzz_deterministic_lines(files, capsys):
    argv = ["fuzz", "--lexicon", str(files["lex"]), "--augment",
            "--system", "ltl", "--episodes", "3", "--seed", "9", "--n", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = [json.loads(l) for l in first.splitlines()]
    assert len(lines) == 3 and all(l["goal"] for l in lines)


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_empty_lexicon_is_open_and_augments_to_a_goal(files, capsys, system):
    empty = files["tmp"] / "empty.lexicon"
    empty.write_text("")
    assert main(["validate-lexicon", "--lexicon", str(empty)]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["closed"] is False and any("[]" in v for v in line["violations"])
    argv = ["fuzz", "--lexicon", str(empty), "--system", system, "--episodes", "3", "--n", "4"]
    assert main(argv) == 1
    assert "is not closed" in capsys.readouterr().err
    assert main(argv + ["--augment"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3 and all(l["goal"] is True for l in lines)


def test_gen_costs_output_parses_and_decodes(files, tmp_path, capsys):
    out = tmp_path / "gen.costs"
    rc = main([
        "gen-costs", "--lexicon", str(files["lex"]), "--sentences", "3",
        "--seed", "4", "--n-min", "2", "--n-max", "4", "-o", str(out),
    ])
    assert rc == 0
    assert len(ff.parse_cost_text(out.read_text())) == 3
    rc = main(["parse", str(out), "--lexicon", str(files["lex"]),
               "--decoder", "chart", "-o", str(tmp_path / "g.trees")])
    assert rc in (0, 2)  # random costs may park some sentences unparsed


def test_gen_costs_n_min_above_n_max_is_input_error(files, tmp_path, capsys):
    out = tmp_path / "gen.costs"
    assert main(["gen-costs", "--lexicon", str(files["lex"]), "--n-min", "5", "--n-max", "3",
                 "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: --n-min must not exceed --n-max\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,kind", [("--decoders", "decoder"), ("--heuristics", "heuristic")])
def test_bench_unknown_decoder_or_heuristic_is_input_error(files, capsys, flag, kind):
    assert main(["bench", str(files["costs"]), "--lexicon", str(files["lex"]), "--repeat", "1",
                 flag, "nope"]) == 1
    assert capsys.readouterr() == ("", f"error: unknown {kind} 'nope'\n")


def test_bench_table_and_report(files, tmp_path, capsys):
    rep = tmp_path / "bench.json"
    rc = main([
        "bench", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--repeat", "1", "--decoders", "chart,ltl", "--report", str(rep),
    ])
    assert rc == 0
    table = capsys.readouterr().out
    assert "decoder" in table and "chart" in table and "ltl" in table
    rows = [json.loads(l) for l in rep.read_text().splitlines()]
    assert {r["decoder"] for r in rows} == {"chart", "ltl"}


@pytest.mark.parametrize("beam", ["0", "-1"])
def test_beam_below_one_is_input_error(files, capsys, beam):
    """Every command that takes --beam rejects it before any work, whatever
    decoders it would run."""
    trees = files["tmp"] / "b.trees"
    for command in (
        ["parse", "--decoder", "ltf", "--augment", "-o", str(trees)],
        ["parse", "--decoder", "astar", "-o", str(trees)],
        ["bench", "--repeat", "1", "--decoders", "ltl"],
        ["bench", "--repeat", "1", "--decoders", "chart,ltl"],
    ):
        rc = main([command[0], str(files["costs"]), "--lexicon", str(files["lex"]),
                   *command[1:], "--beam", beam])
        assert rc == 1, command
        assert capsys.readouterr() == ("", f"error: --beam must be at least 1, got {beam}\n")
    assert not trees.exists()


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_below_one_is_input_error(files, tmp_path, capsys, repeat):
    rep = tmp_path / "bench.json"
    rc = main([
        "bench", str(files["costs"]), "--lexicon", str(files["lex"]),
        "--repeat", repeat, "--decoders", "ltl", "--report", str(rep),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --repeat must be at least 1, got {repeat}\n"
    assert not rep.exists()


@pytest.mark.parametrize("bias", ["0", "-1", "-inf", "nan", "inf"])
def test_fuzz_bias_apply_must_be_positive_and_finite(files, capsys, bias):
    rc = main(["fuzz", "--lexicon", str(files["closed"]), "--system", "ltl",
               "--episodes", "1", f"--bias-apply={bias}"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --bias-apply must be positive and finite, got {float(bias)}\n"


@pytest.mark.parametrize("flag", ["--dequeue-limit", "--k-supertags"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_search_bounds_below_one_are_input_errors(files, capsys, flag, value):
    trees = files["tmp"] / "bound.trees"
    for command in (
        ["parse", str(files["costs"]), "--decoder", "astar", "-o", str(trees)],
        ["bench", str(files["costs"]), "--repeat", "1"],
    ):
        assert main([*command, "--lexicon", str(files["lex"]), f"{flag}={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be at least 1, got {value}\n"
    assert not trees.exists()


@pytest.mark.parametrize("command, flag, value, least", [
    (["fuzz", "--system", "ltl"], "--episodes", "-3", 1),
    (["gen-costs"], "--sentences", "-1", 1),
    (["fuzz", "--system", "ltl"], "--steps", "-1", 0),
    (["complete", "--system", "ltf", "--n", "5"], "--steps", "-2", 0),
    (["complete", "--system", "ltf"], "--n", "0", 1),
    (["fuzz", "--system", "ltl"], "--n", "-4", 1),
    (["gen-costs", "--n-max", "3"], "--n-min", "0", 1),
    (["gen-costs", "--n-min", "1"], "--n-max", "0", 1),
])
def test_counts_out_of_range_are_input_errors(files, capsys, command, flag, value, least):
    out = files["tmp"] / "counts.costs"
    argv = [*command, "--lexicon", str(files["closed"]), f"{flag}={value}"]
    if command[0] == "gen-costs":
        argv += ["-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be at least {least}, got {value}\n")
    assert not out.exists()


def test_missing_input_file_is_input_error(files, capsys):
    assert main(["parse", "/nonexistent.costs", "--lexicon", str(files["lex"])]) == 1


RECORD_KEYS = {"sid", "n", "decoder", "outcome", "cost", "stats", "well_typed", "wall_s"}
DECODER_KEYS = {
    "chart": (set(), {"items", "arcs"}),
    "astar": ({"heuristic"}, {"dequeued", "pushed"}),
    "ltf": ({"mode", "beam"}, {"transitions"}),
    "ltl": ({"mode", "beam"}, {"transitions"}),
}


@pytest.mark.parametrize("decoder", ["chart", "astar", "ltf", "ltl"])
def test_parse_record_and_stats_keys(files, decoder):
    rep = files["tmp"] / "keys.json"
    assert main([
        "parse", str(files["costs"]), "--lexicon", str(files["lex"]), "--decoder", decoder,
        "--augment", "-o", str(files["tmp"] / "keys.trees"), "--report", str(rep),
    ]) == 0
    rec = json.loads(rep.read_text().splitlines()[0])
    extra, stats = DECODER_KEYS[decoder]
    assert set(rec) == RECORD_KEYS | extra
    assert set(rec["stats"]) == stats


BENCH_WORK = {"chart": "items", "astar": "dequeued", "ltf": "transitions", "ltl": "transitions"}


@pytest.mark.parametrize("extra", [[], ["--k-supertags", "1", "--beam", "2"]])
def test_bench_rows_sum_parse_records(files, tmp_path, capsys, extra):
    corpus = tmp_path / "gen.costs"
    assert main([
        "gen-costs", "--lexicon", str(files["closed"]), "--sentences", "6",
        "--seed", "3", "--n-min", "2", "--n-max", "5", "-o", str(corpus),
    ]) == 0
    lex = ["--lexicon", str(files["closed"])]
    bench = tmp_path / "bench.json"
    assert main(["bench", str(corpus), *lex, "--repeat", "1", "--report", str(bench), *extra]) == 0
    rows = [json.loads(line) for line in bench.read_text().splitlines()]
    assert [(r["decoder"], r["heuristic"]) for r in rows] == [
        ("chart", None), ("astar", "trivial"), ("astar", "supertag"), ("astar", "edge"),
        ("astar", "ignore-aware"), ("ltf", None), ("ltl", None),
    ]
    failed = 0
    for row in rows:
        rep = tmp_path / "parse.json"
        heuristic = ["--heuristic", row["heuristic"]] if row["heuristic"] else []
        main(["parse", str(corpus), *lex, "--decoder", row["decoder"], *heuristic, *extra,
              "-o", str(tmp_path / "p.trees"), "--report", str(rep)])
        recs = [json.loads(line) for line in rep.read_text().splitlines()][:-1]
        costs = [rec["cost"] for rec in recs]
        assert row["work"] == sum(rec["stats"][BENCH_WORK[row["decoder"]]] for rec in recs)
        assert row["total_cost"] == round(sum(c for c in costs if c is not None), 9)
        assert row["unpriced_or_failed"] == costs.count(None)
        failed += row["unpriced_or_failed"]
    assert failed or not extra  # one k = 1 decoder leaves a sentence unparsed


def test_bench_footer_names_each_decoders_work(files, capsys):
    assert main(["bench", str(files["costs"]), "--lexicon", str(files["lex"]), "--repeat", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "# cost sums finite trees only; inf counts failed or unpriced trees; work is "
        "chart: chart items, astar: dequeued items, ltf: transitions, ltl: transitions"
    )
    assert main(["bench", str(files["costs"]), "--lexicon", str(files["lex"]), "--repeat", "1",
                 "--decoders", "ltl,astar"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "# cost sums finite trees only; inf counts failed or unpriced trees; work is "
        "ltl: transitions, astar: dequeued items"
    )
