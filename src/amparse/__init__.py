"""Graph parsing with typed constant composition.

Sentences are analyzed as projective dependency trees whose tokens carry
graph constants; apply and modify operations combine the constants into a
single graph.  The package provides the type algebra, an exhaustive chart
decoder, an A* decoder with admissible outside heuristics, and two
transition systems that cannot reach dead ends.

`import amparse` loads no submodule.  Each public name below is read from
the submodule that defines it the first time it is named, so a program
that only reads and closes a lexicon never compiles a decoder, and one
that names ``astar_parse`` loads the A* decoder without the transition
systems.  ``amparse.main`` is the command line (``amparse.cli``).
"""

import importlib

__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_EXPORTS = {
    "types": ("EMPTY_TYPE", "InvalidType", "Type", "TypeSyntaxError", "apply_set", "make_type",
              "parse_type", "request", "serialize_type", "type_combine"),
    "graphs": ("AsGraph", "GraphError", "GraphNode", "graph_type", "graphs_isomorphic", "make_graph"),
    "trees": ("BOTTOM", "IGNORE", "ROOT", "AmDepTree", "EdgeLabel", "TreeEntry", "app",
              "check_well_typed", "evaluate_tree", "mod", "parse_edge_label"),
    "lexicon": ("Lexicon", "augment_closure", "constants_of_type", "validate_closure"),
    "costs": ("INF", "CostParams", "SentenceCosts", "gen_synthetic", "top_k_tags", "tree_cost"),
    "chart": ("chart_parse", "outside_costs"),
    "astar": ("HEURISTICS", "astar_parse", "build_heuristic"),
    "transitions": ("SYSTEMS", "Configuration", "TokenState", "Transition", "TransitionError",
                    "apply_transition", "config_to_tree", "decode", "initial_config", "is_goal",
                    "legal_transitions", "owed"),
    "oracles": ("complete_config", "fuzz_episode", "oracle_sequence", "replay"),
    # loaded on first use: importing amparse.cli with the package would make
    # `python -m amparse.cli` warn
    "cli": ("main",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
