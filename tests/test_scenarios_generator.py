"""Seeded corpus generation: determinism, allocation, family
independence and parallel byte-identity."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.generator import (
    FAMILIES,
    _allocate,
    generate_corpus,
    generate_from_metadata,
)
from repro.scenarios.schema import dump_case


def texts(cases):
    return [dump_case(case) for case in cases]


class TestAllocation:
    def test_even_split(self):
        assert _allocate(6, ["a", "b", "c"]) == [("a", 2), ("b", 2), ("c", 2)]

    def test_remainder_goes_to_earliest(self):
        assert _allocate(7, ["a", "b", "c"]) == [("a", 3), ("b", 2), ("c", 2)]

    def test_fewer_cells_than_families(self):
        assert _allocate(2, ["a", "b", "c"]) == [("a", 1), ("b", 1), ("c", 0)]


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        _, first = generate_corpus(12, seed=31)
        _, second = generate_corpus(12, seed=31)
        assert texts(first) == texts(second)

    def test_different_seed_differs(self):
        _, first = generate_corpus(12, seed=31)
        _, second = generate_corpus(12, seed=32)
        assert texts(first) != texts(second)

    def test_family_subset_independent(self):
        """A family's cases depend only on (seed, family, index), not on
        which other families were requested."""
        _, full = generate_corpus(12, seed=31)
        _, subset = generate_corpus(4, seed=31, families=["spare-policy"])
        full_family = [c for c in full if c.family == "spare-policy"]
        assert texts(subset)[: len(full_family)] == texts(full_family)

    def test_case_ids_positional(self):
        _, cases = generate_corpus(13, seed=5)
        for family, count in _allocate(13, list(FAMILIES)):
            ids = [c.case_id for c in cases if c.family == family]
            assert ids == [f"{family}-{i:04d}" for i in range(count)]

    def test_regeneration_from_metadata(self):
        metadata, cases = generate_corpus(9, seed=77)
        again_meta, again = generate_from_metadata(metadata)
        assert texts(again) == texts(cases)
        assert again_meta.to_dict() == metadata.to_dict()


class TestValidationAndCoverage:
    def test_all_families_produce_valid_cases(self):
        # ScenarioCase.__post_init__ validates everything (including
        # the solver configs), so surviving generation is the assertion.
        _, cases = generate_corpus(48, seed=11)
        families = {case.family for case in cases}
        assert families == set(FAMILIES)

    def test_fault_mix_cells_carry_plans(self):
        _, cases = generate_corpus(48, seed=11)
        fault_cells = [c for c in cases if c.family == "fault-mix"]
        assert fault_cells
        for case in fault_cells:
            assert case.fault_plan is not None
            assert case.checks == ("fault_campaign",)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            generate_corpus(0, seed=1)
        with pytest.raises(ConfigurationError):
            generate_corpus(4, seed=-1)
        with pytest.raises(ConfigurationError):
            generate_corpus(4, seed=1, families=["no-such-family"])
        with pytest.raises(ConfigurationError):
            generate_corpus(4, seed=1, families=["fault-mix", "fault-mix"])

    def test_git_provenance_off_by_default(self):
        metadata, _ = generate_corpus(2, seed=1, families=["small-exact"])
        assert metadata.git_describe is None
