"""Tests for repro.core.opportunity (the Eq. 2 chain bound)."""

import pytest

from repro.core.config import EvaluationParams
from repro.core.opportunity import max_chain_length


@pytest.fixture
def params():
    return EvaluationParams(
        deadline_minutes=5.0,
        crosslink_delay_minutes=0.05,
        geolocation_time_minutes=0.5,
    )


class TestMaxChainLength:
    def test_underlap_uses_eq2(self, params):
        geometry = params.constellation.plane_geometry(9)
        assert max_chain_length(geometry, params) == 2

    def test_overlap_is_simultaneous_pair(self, params):
        geometry = params.constellation.plane_geometry(12)
        assert max_chain_length(geometry, params) == 2

    def test_longer_deadline_longer_chain(self):
        params = EvaluationParams(deadline_minutes=12.0)
        geometry = params.constellation.plane_geometry(9)
        assert max_chain_length(geometry, params) == 3
