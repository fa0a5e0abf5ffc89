"""Run the doctest examples embedded in public docstrings."""

import doctest

import pytest

import repro.alphabet
import repro.core.cursor
import repro.core.generalized
import repro.core.index
import repro.core.search


@pytest.mark.parametrize("module", [
    repro.core.index,
    repro.core.search,
    repro.core.generalized,
    repro.core.cursor,
    repro.alphabet,
])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} " \
                                "doctest failure(s)"
    assert results.attempted > 0 or module is repro.alphabet
