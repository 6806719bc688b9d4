"""Benchmarks for the extension studies: transient aging, duration-
distribution robustness, multi-plane composition and calibration."""

import pytest

from repro.experiments import aging_exp, robustness_exp


def test_bench_aging(run_once):
    result = run_once(aging_exp.run)
    print()
    print(result.render())
    p14 = [row["P(K=14)"] for row in result.rows]
    assert p14[0] == pytest.approx(1.0)
    # Degradation dominates until the (Erlang-smeared) scheduled
    # restore starts pulling mass back near the end of the period.
    assert p14[:5] == sorted(p14[:5], reverse=True)
    assert p14[-1] > p14[-2]


def test_bench_robustness(run_once):
    result = run_once(robustness_exp.run)
    print()
    print(result.render())
    for row in result.rows:
        assert row["OAQ P(Y>=2)"] >= row["BAQ P(Y>=2)"] - 1e-12


def test_bench_multiplane(run_once):
    from repro.experiments import multiplane_exp

    result = run_once(multiplane_exp.run, lambdas=(1e-5, 1e-4), stages=12)
    print()
    print(result.render())
    # More covering planes, better QoS, at every lambda.
    by_lambda = {}
    for row in result.rows:
        by_lambda.setdefault(row["lambda"], []).append(row["OAQ P(Y>=2)"])
    for values in by_lambda.values():
        assert values == sorted(values)


def test_bench_calibration(run_once):
    from repro.experiments import calibration_exp

    result = run_once(
        calibration_exp.run, latencies_hours=(24.0, 168.0, 720.0), stages=12
    )
    print()
    print(result.render())
    errors = {row["latency (h)"]: row["max |err|"] for row in result.rows}
    assert errors[168.0] < errors[720.0]
