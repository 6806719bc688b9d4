"""Tests for repro.core.schemes."""

from repro.core.schemes import Scheme


def test_only_oaq_supports_sequential_coverage():
    assert Scheme.OAQ.supports_sequential_coverage
    assert not Scheme.BAQ.supports_sequential_coverage


def test_str_is_name():
    assert str(Scheme.OAQ) == "OAQ"
    assert str(Scheme.BAQ) == "BAQ"
