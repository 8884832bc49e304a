import os
from pathlib import Path

import pytest

import amparse
from amparse.demo import (
    demo_costs,
    demo_expected_graph,
    demo_gold_tree,
    demo_lexicon,
)
from amparse.lexicon import augment_closure


@pytest.fixture(scope="session")
def lex():
    return demo_lexicon()


@pytest.fixture(scope="session")
def closed_lex():
    return augment_closure(demo_lexicon())


@pytest.fixture(scope="session")
def gold():
    return demo_gold_tree()


@pytest.fixture()
def costs():
    return demo_costs()


@pytest.fixture(scope="session")
def expected_graph():
    return demo_expected_graph()


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child Python process that imports this amparse."""
    src = str(Path(amparse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
