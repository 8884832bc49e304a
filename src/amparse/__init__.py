"""Graph parsing with typed constant composition.

Sentences are analyzed as projective dependency trees whose tokens carry
graph constants; apply and modify operations combine the constants into a
single graph.  The package provides the type algebra, an exhaustive chart
decoder, an A* decoder with admissible outside heuristics, and two
transition systems that cannot reach dead ends.
"""

from .types import (
    EMPTY_TYPE,
    InvalidType,
    Type,
    TypeSyntaxError,
    apply_set,
    make_type,
    parse_type,
    request,
    serialize_type,
    type_combine,
)
from .graphs import AsGraph, GraphError, GraphNode, graph_type, graphs_isomorphic, make_graph
from .trees import (
    BOTTOM,
    IGNORE,
    ROOT,
    AmDepTree,
    EdgeLabel,
    TreeEntry,
    app,
    check_well_typed,
    evaluate_tree,
    mod,
    parse_edge_label,
)
from .lexicon import Lexicon, augment_closure, constants_of_type, validate_closure
from .costs import INF, CostParams, SentenceCosts, gen_synthetic, top_k_tags, tree_cost
from .chart import chart_parse, outside_costs
from .astar import HEURISTICS, astar_parse, build_heuristic
from .transitions import (
    SYSTEMS,
    Configuration,
    Transition,
    TransitionError,
    apply_transition,
    config_to_tree,
    decode,
    initial_config,
    is_goal,
    legal_transitions,
    owed,
)
from .oracles import complete_config, fuzz_episode, oracle_sequence, replay

__version__ = "0.1.0"


def __getattr__(name: str):
    # amparse.main is the command line, loaded on first use: importing
    # amparse.cli with the package would make `python -m amparse.cli` warn
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmDepTree",
    "AsGraph",
    "BOTTOM",
    "CostParams",
    "Configuration",
    "EMPTY_TYPE",
    "EdgeLabel",
    "GraphError",
    "GraphNode",
    "HEURISTICS",
    "IGNORE",
    "INF",
    "InvalidType",
    "Lexicon",
    "ROOT",
    "SYSTEMS",
    "SentenceCosts",
    "Transition",
    "TransitionError",
    "TreeEntry",
    "Type",
    "TypeSyntaxError",
    "app",
    "apply_set",
    "apply_transition",
    "astar_parse",
    "augment_closure",
    "build_heuristic",
    "chart_parse",
    "check_well_typed",
    "complete_config",
    "config_to_tree",
    "constants_of_type",
    "decode",
    "evaluate_tree",
    "fuzz_episode",
    "gen_synthetic",
    "graph_type",
    "graphs_isomorphic",
    "initial_config",
    "is_goal",
    "legal_transitions",
    "main",
    "make_graph",
    "make_type",
    "mod",
    "oracle_sequence",
    "outside_costs",
    "owed",
    "parse_edge_label",
    "parse_type",
    "replay",
    "request",
    "serialize_type",
    "top_k_tags",
    "tree_cost",
    "type_combine",
]
