"""Tests for the one observability registry (:mod:`repro.obs`): the
snapshot/delta/merge algebra, thread safety, and the guarantee it
exists for -- counter totals that do not depend on the worker count."""

import itertools
import sys
import threading

import pytest

from repro import obs
from repro.analytic.capacity import clear_capacity_caches
from repro.experiments import optimize_exp, sweeps
from repro.optimize.design import smoke_grid


@pytest.fixture(autouse=True)
def _private_names():
    obs.reset("test.obs.")
    yield
    obs.reset("test.obs.")


def test_delta_of_a_snapshot_with_itself_is_zero():
    obs.count("test.obs.events", 3)
    with obs.timer("test.obs.block_s"):
        pass
    snapshot = obs.snapshot()
    assert obs.delta(snapshot, snapshot) == {}
    assert obs.delta(snapshot) == {}


def test_delta_reports_only_what_moved():
    obs.count("test.obs.still", 5)
    since = obs.snapshot()
    obs.count("test.obs.moved", 2)
    with obs.timer("test.obs.block_s"):
        pass
    moved = obs.delta(since)
    assert moved["test.obs.moved"] == 2
    assert moved["test.obs.block_s"] >= 0.0
    assert "test.obs.still" not in moved


def test_merge_of_worker_deltas_is_their_sum_in_any_order():
    start = obs.snapshot()
    deltas = []
    for worker in range(3):
        since = obs.snapshot()
        obs.count("test.obs.events", worker + 1)
        obs.count(f"test.obs.only_{worker}")
        deltas.append(obs.delta(since))
    total = obs.merge(*deltas)
    assert total == {
        "test.obs.events": 6,
        "test.obs.only_0": 1,
        "test.obs.only_1": 1,
        "test.obs.only_2": 1,
    }
    for order in itertools.permutations(deltas):
        assert obs.merge(*order) == total
    spanned = obs.delta(start)
    assert {name: spanned[name] for name in total} == total
    assert obs.merge() == {}


def test_concurrent_counting_loses_no_increments():
    threads, per_thread = 8, 2000

    def hammer():
        for _ in range(per_thread):
            obs.count("test.obs.shared")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert obs.snapshot()["test.obs.shared"] == threads * per_thread


def test_view_reads_uncounted_names_as_zero_of_their_kind():
    view = obs.view(
        {"timer": "test.obs.never_s", "counter": "test.obs.never"}
    )
    assert view == {"timer": 0.0, "counter": 0}
    assert isinstance(view["timer"], float)
    assert isinstance(view["counter"], int)


def test_reset_drops_only_the_named_prefix():
    obs.count("test.obs.a.x")
    obs.count("test.obs.b.x")
    obs.reset("test.obs.a.")
    values = obs.snapshot()
    assert "test.obs.a.x" not in values
    assert values["test.obs.b.x"] == 1


def _smoke_totals(n_jobs):
    clear_capacity_caches()
    result = optimize_exp.run(cells=smoke_grid(), n_jobs=n_jobs)
    caches = result.metadata["cache_stats"]
    return {
        "solver": result.metadata["solver_stats"],
        "lookups": {
            name: stats["hits"] + stats["misses"]
            for name, stats in caches.items()
        },
    }


def test_counter_totals_do_not_depend_on_the_worker_count():
    """The optimize smoke grid's solver counters and cache lookups,
    summed over the parent and its pool workers, are the sequential
    run's; so are the tau sweep's distribution-cache lookups."""
    sequential = _smoke_totals(1)
    solver = sequential["solver"]
    assert solver["direct"] + solver["iterative"] == len(smoke_grid())
    assert solver["structure_fallbacks"] == 0
    assert _smoke_totals(2) == sequential

    lookups = []
    for n_jobs in (1, 2):
        clear_capacity_caches()
        stats = sweeps.run_tau_sweep(n_jobs=n_jobs).metadata["cache_stats"][
            "capacity-distribution"
        ]
        lookups.append(stats["hits"] + stats["misses"])
    assert lookups == [10, 10]
