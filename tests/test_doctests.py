"""Tier-1 doctest runner for the modules whose docstrings promise
runnable examples (campaign spec/store, the report engine, the artifact
store, the bounded JSON decoder and the SDC constraint system).

CI additionally runs ``pytest --doctest-modules`` over the same files;
this test keeps the examples honest under the plain tier-1 invocation
(``python -m pytest -x -q``) too.
"""

import doctest
import importlib

import pytest

# Imported by name: `repro.report.aggregate` the attribute is the
# re-exported *function*, not the submodule.
DOCTESTED_MODULES = [
    "repro.campaign.spec",
    "repro.campaign.store",
    "repro.report.aggregate",
    "repro.report.diff",
    "repro.report.frame",
    "repro.report.render",
    "repro.safejson",
    "repro.sdc.constraints",
    "repro.store.record",
    "repro.store.store",
]


@pytest.mark.parametrize("name", DOCTESTED_MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, \
        f"{module.__name__} promises runnable examples but has none"
    assert results.failed == 0
