"""Run the docstring examples of modules that carry them."""

import doctest

import pytest

import repro.lossless.pipeline
import repro.parallel.daemons
import repro.service.client
import repro.service.cluster
import repro.service.core
import repro.service.membership
import repro.service.ring
import repro.util.backoff


@pytest.mark.parametrize(
    "module",
    [
        repro.lossless.pipeline,
        repro.parallel.daemons,
        repro.service.client,
        repro.service.cluster,
        repro.service.core,
        repro.service.membership,
        repro.service.ring,
        repro.util.backoff,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
