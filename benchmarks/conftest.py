"""Shared benchmark helpers.

Every benchmark runs its experiment once (``rounds=1``) -- these are
model-evaluation workloads, not microbenchmarks -- then prints the
regenerated table so the benchmark log doubles as the paper-vs-measured
record quoted in EXPERIMENTS.md.
"""

import pytest

from repro.analytic.capacity import _capacity_of, build_capacity_san
from repro.san import assemble, generate


@pytest.fixture
def regenerated():
    """The speedup guards' per-point baseline: ``P(k)`` the way the
    seed solved every point, a fresh assembly of ``config``'s own SAN
    and one direct steady-state solve, with no capacity cache and no
    warm start."""

    def distribution(config, stages=24):
        chain = assemble(generate(build_capacity_san(config)), stages=stages)
        return _capacity_of(chain, chain.rerate(chain.rates).steady_state())

    return distribution


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` exactly once under the benchmark timer and return its
    result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner


def pytest_collection_modifyitems(items):
    """Mark every benchmark as ``bench`` (registered in pyproject.toml)
    so the guards are selectable with ``pytest benchmarks -m bench`` and
    excludable with ``-m 'not bench'`` in mixed collections."""
    for item in items:
        item.add_marker(pytest.mark.bench)
