"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.synth.flow import SynthesisFlow
from repro.tech.delay_model import OperatorModel
from repro.tech.sky130 import sky130_library

#: Seconds one test (setup, call and teardown) may take before the run is
#: stopped with every thread's traceback.  The slowest test takes about 6 s,
#: so only a test that does not terminate reaches it.
TEST_TIME_LIMIT_S = 120

#: A copy of the terminal's stderr, taken before output capture redirects
#: file descriptor 2, so a hang's traceback is seen rather than captured.
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Stop the whole run if one test outlives :data:`TEST_TIME_LIMIT_S`."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def library():
    """The synthetic SKY130 technology library (session-wide, immutable use)."""
    return sky130_library()


@pytest.fixture(scope="session")
def operator_model(library):
    """Closed-form operator delay model over the session library."""
    return OperatorModel(library)


@pytest.fixture(scope="session")
def synthesis_flow(library):
    """A default downstream synthesis flow."""
    return SynthesisFlow(library)


@pytest.fixture
def adder_chain_graph() -> DataflowGraph:
    """x + y + z + w followed by a multiply -- the canonical small test DFG."""
    builder = GraphBuilder("adder_chain")
    x = builder.param("x", 16)
    y = builder.param("y", 16)
    z = builder.param("z", 16)
    w = builder.param("w", 16)
    s1 = builder.add(x, y, name="s1")
    s2 = builder.add(s1, z, name="s2")
    s3 = builder.add(s2, w, name="s3")
    product = builder.mul(s3, x, name="product")
    builder.output(product, name="out")
    return builder.graph


@pytest.fixture
def diamond_graph() -> DataflowGraph:
    """A diamond-shaped DFG: one producer fanning out to two consumers that re-join."""
    builder = GraphBuilder("diamond")
    a = builder.param("a", 8)
    b = builder.param("b", 8)
    base = builder.add(a, b, name="base")
    left = builder.xor(base, a, name="left")
    right = builder.add(base, b, name="right")
    join = builder.sub(left, right, name="join")
    builder.output(join, name="out")
    return builder.graph
