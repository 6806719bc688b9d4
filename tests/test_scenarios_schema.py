"""Scenario-case schema: validation, canonical JSON, round-trips and
the corpus directory format."""

import json
import pathlib
import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.scenarios.schema import (
    CHECKS,
    SCHEMA_VERSION,
    CorpusMetadata,
    ScenarioCase,
    case_from_dict,
    case_to_dict,
    dump_case,
    dumps_canonical,
    load_case,
    read_corpus,
    write_corpus,
)


def make_case(**overrides):
    base = dict(case_id="case-0000", family="test")
    base.update(overrides)
    return ScenarioCase(**base)


class TestScenarioCaseValidation:
    def test_reference_defaults_are_valid(self):
        case = make_case()
        assert case.planes == 7
        assert case.active_per_plane == 14
        assert case.samples == 20000

    def test_rejects_unknown_duration_model(self):
        with pytest.raises(ConfigurationError, match="duration model"):
            make_case(duration_model="weibull")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            make_case(scheme="XYZ")

    def test_rejects_unknown_check(self):
        with pytest.raises(ConfigurationError, match="unknown checks"):
            make_case(checks=("analytic_vs_mc", "nonsense"))

    def test_fault_campaign_requires_plan(self):
        with pytest.raises(ConfigurationError, match="fault_plan"):
            make_case(checks=("fault_campaign",))

    def test_rejects_triple_coverage(self):
        # Tc * k > 2 theta: more than pairwise footprint overlap.
        with pytest.raises(ConfigurationError, match="pairwise"):
            make_case(coverage_time_minutes=15.0)

    @pytest.mark.parametrize(
        "field", ["coverage_time_minutes", "orbit_period_minutes"]
    )
    def test_rejects_zero_period_or_coverage_by_name(self, field):
        # A zero coverage time used to divide by zero in the overlap
        # limit before any field check ran.
        with pytest.raises(ConfigurationError, match=field.split("_minutes")[0]):
            make_case(**{field: 0.0})

    def test_rejects_fault_capacity_above_active(self):
        with pytest.raises(ConfigurationError, match="fault_capacity"):
            make_case(active_per_plane=8, fault_capacity=9,
                      deployment_threshold=6)

    def test_samples_clamped(self):
        tiny = make_case(traffic_signals_per_hour=0.001,
                         observation_hours=1.0)
        assert tiny.samples == tiny.min_samples
        huge = make_case(traffic_signals_per_hour=1e6,
                         observation_hours=1e3)
        assert huge.samples == huge.max_samples

    def test_with_replaces_and_revalidates(self):
        case = make_case()
        changed = replace(case, deadline_minutes=3.0)
        assert changed.deadline_minutes == 3.0
        with pytest.raises(ConfigurationError):
            replace(case, deadline_minutes=-1.0)


class TestCaseRoundTrip:
    def test_plain_round_trip(self):
        case = make_case()
        assert case_from_dict(case_to_dict(case)) == case
        assert load_case(dump_case(case)) == case

    def test_fault_plan_round_trip(self):
        case = make_case(
            fault_plan=FaultPlan.successors_fail_silent(0.0, count=1),
            checks=("fault_campaign",),
        )
        again = load_case(dump_case(case))
        assert again == case
        assert again.fault_plan == case.fault_plan

    def test_dump_is_canonical(self):
        case = make_case()
        text = dump_case(case)
        assert text.endswith("\n")
        assert text == dumps_canonical(json.loads(text))

    def test_rejects_wrong_schema_version(self):
        data = case_to_dict(make_case())
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema_version"):
            case_from_dict(data)

    def test_rejects_unknown_field(self):
        data = case_to_dict(make_case())
        data["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown case fields"):
            case_from_dict(data)

    # Satellite property test: serialization round-trips over a
    # randomized (but always-valid) slice of the case space, including
    # every duration model, scheme and check subset.
    @settings(max_examples=60, deadline=None)
    @given(
        deadline=st.floats(min_value=0.5, max_value=20.0),
        mu=st.floats(min_value=0.05, max_value=2.0),
        nu=st.floats(min_value=1.0, max_value=80.0),
        lam=st.floats(min_value=1e-7, max_value=1e-3),
        active=st.integers(min_value=3, max_value=16),
        spares=st.integers(min_value=0, max_value=3),
        duration_model=st.sampled_from(
            ("exponential", "hyperexponential", "deterministic")
        ),
        scheme=st.sampled_from(("OAQ", "BAQ")),
        checks=st.sets(
            st.sampled_from(
                tuple(c for c in CHECKS if c != "fault_campaign")
            ),
            min_size=1,
        ),
        mc_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_round_trip(
        self, deadline, mu, nu, lam, active, spares, duration_model,
        scheme, checks, mc_seed,
    ):
        case = make_case(
            deadline_minutes=deadline,
            signal_termination_rate=mu,
            computation_rate=nu,
            failure_rate_per_hour=lam,
            active_per_plane=active,
            in_orbit_spares=spares,
            deployment_threshold=max(2, active - 2),
            fault_capacity=min(9, active),
            coverage_time_minutes=min(9.0, 0.9 * 2 * 90.0 / active),
            duration_model=duration_model,
            scheme=scheme,
            checks=tuple(sorted(checks)),
            mc_seed=mc_seed,
        )
        assert load_case(dump_case(case)) == case
        # Canonical text is a fixed point: dump(load(dump(x))) == dump(x).
        assert dump_case(load_case(dump_case(case))) == dump_case(case)


class TestCorpusMetadata:
    def test_round_trip_preserves_family_order(self):
        metadata = CorpusMetadata(
            name="m", seed=3, n_cells=5,
            families=(("zeta", 3), ("alpha", 2)),
        )
        again = CorpusMetadata.from_dict(
            json.loads(dumps_canonical(metadata.to_dict()))
        )
        assert again.families == (("zeta", 3), ("alpha", 2))
        assert again == metadata

    def test_rejects_wrong_version(self):
        data = CorpusMetadata(
            name="m", seed=3, n_cells=1, families=(("f", 1),)
        ).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            CorpusMetadata.from_dict(data)


class TestCorpusDirectory:
    def _corpus(self):
        cases = [make_case(case_id=f"test-{i:04d}") for i in range(3)]
        metadata = CorpusMetadata(
            name="unit", seed=0, n_cells=3, families=(("test", 3),)
        )
        return metadata, cases

    def test_write_read_round_trip(self, tmp_path):
        metadata, cases = self._corpus()
        write_corpus(str(tmp_path), metadata, cases)
        again_meta, again_cases = read_corpus(str(tmp_path))
        assert again_meta == metadata
        assert again_cases == cases

    def test_write_rejects_duplicate_ids(self, tmp_path):
        metadata, cases = self._corpus()
        cases[1] = cases[0]
        with pytest.raises(ConfigurationError, match="duplicate case ids"):
            write_corpus(str(tmp_path), metadata, cases)

    def test_write_rejects_count_mismatch(self, tmp_path):
        metadata, cases = self._corpus()
        with pytest.raises(ConfigurationError, match="cells"):
            write_corpus(str(tmp_path), metadata, cases[:2])

    def test_read_rejects_renamed_case_file(self, tmp_path):
        metadata, cases = self._corpus()
        write_corpus(str(tmp_path), metadata, cases)
        cases_dir = tmp_path / "cases"
        (cases_dir / "test-0000.json").rename(cases_dir / "other.json")
        with pytest.raises(ConfigurationError, match="case_id"):
            read_corpus(str(tmp_path))

    def test_read_rejects_missing_metadata(self, tmp_path):
        with pytest.raises(ConfigurationError, match="metadata"):
            read_corpus(str(tmp_path))

    def test_read_rejects_missing_cases_directory(self, tmp_path):
        """Regression: a directory holding only ``metadata.json`` raised
        a raw ``FileNotFoundError``."""
        metadata, cases = self._corpus()
        write_corpus(str(tmp_path), metadata, cases)
        shutil.rmtree(tmp_path / "cases")
        with pytest.raises(ConfigurationError, match="cases") as raised:
            read_corpus(str(tmp_path))
        assert "metadata.json" in str(raised.value)


_GOLDEN = pathlib.Path(__file__).parent / "golden" / "corpus"


def _edit(field, value):
    def apply(data):
        data[field] = value
        return json.dumps(data)

    return apply


def _text_edit(edit):
    return lambda data: edit(json.dumps(data))


class TestCorpusReaderErrors:
    """Regression: malformed golden-corpus files escaped the reader as
    raw ``JSONDecodeError`` / ``TypeError`` / ``ValueError`` /
    ``AttributeError``, or were accepted silently.  Each now raises a
    ConfigurationError naming the field and the file."""

    CASE = "small-exact-0000.json"

    @pytest.mark.parametrize(
        "file, edit, field",
        [
            ("case", _text_edit(lambda text: text[: len(text) // 2]), "JSON"),
            ("case", _text_edit(lambda text: "null"), "JSON object"),
            ("case", _edit("stages", "4"), "stages"),
            ("case", _edit("mc_seed", "7"), "mc_seed"),
            ("case", _edit("confidence", "0.9"), "confidence"),
            ("case", _edit("failure_rate_per_hour", "1e-5"), "failure_rate"),
            ("case", _edit("stages", True), "stages"),
            ("case", _edit("stages", 2.5), "stages"),
            ("case", _edit("mc_seed", 1.5), "mc_seed"),
            ("case", _edit("case_id", 3), "case_id"),
            ("case", _edit("checks", "analytic_vs_mc"), "checks"),
            ("metadata", _edit("n_cells", None), "n_cells"),
            ("metadata", _edit("seed", "x"), "seed"),
            ("metadata", _edit("families", "x"), "families"),
            ("metadata", _text_edit(lambda text: f"[{text}]"), "JSON object"),
            ("metadata", _edit("n_cells", "30"), "n_cells"),
        ],
        ids=[
            "truncated", "null", "stages-str", "mc_seed-str",
            "confidence-str", "failure_rate-str", "stages-bool",
            "stages-float", "mc_seed-float", "case_id-int", "checks-str",
            "n_cells-null", "seed-str", "families-str", "metadata-list",
            "n_cells-str",
        ],
    )
    def test_malformed_file_raises_naming_field_and_file(
        self, tmp_path, file, edit, field
    ):
        shutil.copytree(_GOLDEN / "cases", tmp_path / "cases")
        shutil.copy(_GOLDEN / "metadata.json", tmp_path / "metadata.json")
        path = (
            tmp_path / "cases" / self.CASE
            if file == "case"
            else tmp_path / "metadata.json"
        )
        text = edit(json.loads(path.read_text()))
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=field) as raised:
            read_corpus(str(tmp_path))
        assert path.name in str(raised.value)
        if field == "JSON":
            return
        # The parsers themselves name the field, without the reader's
        # file-level checks (a non-string case_id used to pass them).
        parse = case_from_dict if file == "case" else CorpusMetadata.from_dict
        with pytest.raises(ConfigurationError, match=field):
            parse(json.loads(text))


_RETYPED = st.sampled_from(
    [None, True, -1, 0, 7, 0.5, "x", "4", [], {}, [1], ["x"]]
)


class TestCorpusReaderFuzz:
    """Damaged golden files -- one case file (with a fault plan) and
    ``metadata.json``: truncated at any byte, one byte corrupted, or one
    field retyped.  Every read ends in a ConfigurationError naming the
    damaged file, or in the original corpus, or -- where the damage
    leaves valid JSON of the right types -- in a corpus that differs
    from the original in that one field only and round-trips."""

    CASE = "fault-mix-0000.json"

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("corpus")
        shutil.copytree(_GOLDEN / "cases", directory / "cases")
        shutil.copy(_GOLDEN / "metadata.json", directory / "metadata.json")
        return directory, read_corpus(str(directory))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damage_ends_in_named_error_or_one_field_change(
        self, corpus, data
    ):
        directory, (metadata, cases) = corpus
        path = data.draw(
            st.sampled_from(
                [directory / "cases" / self.CASE, directory / "metadata.json"]
            )
        )
        blob = path.read_bytes()
        damage = data.draw(st.sampled_from(["truncate", "corrupt", "retype"]))
        if damage == "truncate":
            damaged = blob[: data.draw(st.integers(0, len(blob)))]
        elif damage == "corrupt":
            position = data.draw(st.integers(0, len(blob) - 1))
            value = data.draw(st.integers(0, 255))
            damaged = blob[:position] + bytes([value]) + blob[position + 1 :]
        else:
            record = json.loads(blob)
            retyped = data.draw(st.sampled_from(sorted(record)))
            record[retyped] = data.draw(_RETYPED)
            damaged = json.dumps(record).encode()
        try:
            path.write_bytes(damaged)
            try:
                again_metadata, again_cases = read_corpus(str(directory))
            except ConfigurationError as error:
                assert path.name in str(error), error
                return
        finally:
            path.write_bytes(blob)
        if path.name == "metadata.json":
            assert again_cases == cases
            before, after = metadata.to_dict(), again_metadata.to_dict()
            assert CorpusMetadata.from_dict(after) == again_metadata
        else:
            assert again_metadata == metadata
            index = [case.case_id for case in cases].index(path.stem)
            assert again_cases[:index] + again_cases[index + 1 :] == (
                cases[:index] + cases[index + 1 :]
            )
            before = case_to_dict(cases[index])
            after = case_to_dict(again_cases[index])
            assert case_from_dict(after) == again_cases[index]
        changed = [key for key in before if before[key] != after[key]]
        if damage == "truncate":
            assert changed == []
        elif damage == "retype":
            assert changed in ([], [retyped]), changed
        else:
            assert len(changed) <= 1, changed
