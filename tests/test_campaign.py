"""Tests for the affinity-sharded campaign orchestrator: chunk
planning, the checkpoint journal, byte-identical merges at any worker
count, crash/resume, worker-loss recovery, journaled failures, and the
engine/experiment integrations."""

import hashlib
import json
import os
import pickle
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    clear_capacity_caches,
)
from repro.campaign import (
    CampaignJournal,
    CampaignRunner,
    grid_fingerprint,
    load_journal,
    plan_chunks,
)
from repro.campaign.journal import JOURNAL_VERSION, encode_rows, rows_digest
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.engine import SweepRunner


# ----------------------------------------------------------------------
# Row functions (top level: the pool path pickles them by reference)
# ----------------------------------------------------------------------
def _square_row(point):
    return {"x": point["x"], "y": point["x"] ** 2}


def _failing_row(point):
    if point["x"] == 2:
        raise ValueError("deterministic boom")
    return {"x": point["x"]}


def _kill_once_row(point):
    """Hard-kills the worker process (no exception, no cleanup) the
    first time -- simulates OOM-kill / segfault worker loss."""
    flag = point["flag"]
    if point["x"] == 1 and not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("killed")
        os._exit(1)
    return {"x": point["x"]}


def _solving_row(point):
    config = CapacityModelConfig(
        failure_rate_per_hour=point["lam"], threshold=10
    )
    distribution = capacity_distribution(config, stages=4)
    return {"lam": point["lam"], "top": max(distribution.values())}


def _group_of(point):
    return point["x"] % 3


def _six_groups(point):
    return point["x"] % 6


def _sized_groups(point):
    """Three chunks of 3, 2 and 1 points, so a record relabelled to
    another chunk id never holds the right number of rows."""
    return (0, 0, 0, 1, 1, 2)[point["x"]]


#: Row values that JSON would silently change (or refuse).
_UNROUNDTRIPPABLE = {
    "tuple": lambda: {"x": (1, 2)},
    "int key": lambda: {1: "x"},
    "numpy float": lambda: {"x": np.float64(0.5)},
    "numpy int": lambda: {"x": np.int64(1)},
    "nan": lambda: {"x": float("nan")},
    "inf": lambda: {"x": float("inf")},
}


def _unroundtrippable_row(point):
    if point["x"] == 5:
        return _UNROUNDTRIPPABLE[point["kind"]]()
    return {"x": point["x"]}


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_affinity_groups_by_key_in_first_occurrence_order(self):
        points = [{"x": i} for i in range(10)]
        chunks = plan_chunks(points, affinity=_group_of)
        assert [c.affinity for c in chunks] == ["0", "1", "2"]
        assert chunks[0].indices == (0, 3, 6, 9)
        assert chunks[1].indices == (1, 4, 7)
        assert chunks[2].indices == (2, 5, 8)
        # Grid order inside every chunk.
        for chunk in chunks:
            assert list(chunk.indices) == sorted(chunk.indices)
            assert [p["x"] for p in chunk.points] == list(chunk.indices)

    def test_interleaved_groups_still_land_in_one_chunk(self):
        """Grouping is by key equality over the whole grid, not
        adjacency -- the property that rescues interleaved grids."""
        points = [{"x": x} for x in (0, 5, 0, 5, 0)]
        chunks = plan_chunks(points, affinity=lambda p: p["x"])
        assert len(chunks) == 2
        assert chunks[0].indices == (0, 2, 4)
        assert chunks[1].indices == (1, 3)

    def test_no_affinity_plans_one_chunk(self):
        """The plan never depends on a worker count: without an
        affinity the whole grid is one chunk, in grid order."""
        points = [{"x": i} for i in range(7)]
        chunks = plan_chunks(points)
        assert [c.indices for c in chunks] == [tuple(range(7))]
        assert [c.affinity for c in chunks] == ["grid"]

    def test_fingerprint_pins_points_and_plan(self):
        points = [{"x": i} for i in range(6)]
        chunks = plan_chunks(points, affinity=_group_of)
        assert grid_fingerprint(points, chunks) == grid_fingerprint(
            points, plan_chunks(points, affinity=_group_of)
        )
        other_points = [{"x": i} for i in range(5)]
        assert grid_fingerprint(points, chunks) != grid_fingerprint(
            other_points, plan_chunks(other_points, affinity=_group_of)
        )
        other_plan = plan_chunks(points)
        assert grid_fingerprint(points, chunks) != grid_fingerprint(
            points, other_plan
        )


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def _redigested_rows(rows):
    """Record edit replacing ``rows`` together with their digest."""
    return lambda r: {**r, "rows": rows, "digest": rows_digest(encode_rows(rows, 0))}


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(4)]
        chunks = plan_chunks(points, affinity=_group_of)
        fingerprint = grid_fingerprint(points, chunks)
        journal = CampaignJournal(path)
        assert journal.open(fingerprint, chunks) == {}
        text = encode_rows([{"x": 0}, {"x": 3}], 0)
        journal.lease(0, 1)
        journal.complete(0, text, seconds=0.5)
        journal.close()
        header, completed = load_journal(path)
        assert header["fingerprint"] == fingerprint
        assert header["version"] == JOURNAL_VERSION == 2
        assert set(completed) == {0}
        assert completed[0].rows == [{"x": 0}, {"x": 3}]
        assert completed[0].digest == rows_digest(text)
        # Reopening with the same fingerprint resumes chunk 0.
        resumed = CampaignJournal(path).open(fingerprint, chunks)
        assert set(resumed) == {0}

    def test_fingerprint_mismatch_raises_with_hint(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(4)]
        chunks = plan_chunks(points, affinity=_group_of)
        CampaignJournal(path).open(grid_fingerprint(points, chunks), chunks)
        other = [{"x": i} for i in range(3)]
        other_chunks = plan_chunks(other, affinity=_group_of)
        with pytest.raises(ConfigurationError, match="different grid"):
            CampaignJournal(path).open(
                grid_fingerprint(other, other_chunks), other_chunks
            )

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(2)]
        chunks = plan_chunks(points)
        fingerprint = grid_fingerprint(points, chunks)
        journal = CampaignJournal(path)
        journal.open(fingerprint, chunks)
        journal.complete(0, encode_rows([1, 4], 0), seconds=0.1)
        journal.close()
        # Simulate a kill mid-append: a half-written record at the tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "completed", "chunk": 1, "dig')
        header, completed = load_journal(path)
        assert header is not None
        assert set(completed) == {0}

    def test_conflicting_completion_digests_raise(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": 0}]
        chunks = plan_chunks(points)
        journal = CampaignJournal(path)
        journal.open(grid_fingerprint(points, chunks), chunks)
        journal.complete(0, encode_rows([1], 0), seconds=0.1)
        journal.complete(0, encode_rows([2], 0), seconds=0.1)
        journal.close()
        with pytest.raises(ConfigurationError, match="different digests"):
            load_journal(path)


    @pytest.mark.parametrize(
        "line, edit, named",
        [
            (4, lambda r: [1, 2], "not a JSON object"),
            (4, lambda r: {k: v for k, v in r.items() if k != "chunk"}, "'chunk'"),
            (4, lambda r: {**r, "chunk": "0"}, "'chunk'"),
            (4, lambda r: {**r, "chunk": 0.5}, "'chunk'"),
            (4, lambda r: {**r, "chunk": True}, "'chunk'"),
            (4, lambda r: {k: v for k, v in r.items() if k != "digest"}, "'digest'"),
            (4, lambda r: {**r, "digest": 7}, "'digest'"),
            (4, lambda r: {k: v for k, v in r.items() if k != "rows"}, "'rows'"),
            (4, lambda r: {**r, "rows": 7}, "'rows'"),
            (4, lambda r: {**r, "rows": [1, 3]}, "'rows'"),
            # Digest-consistent, but one row short / one row long for
            # the two-point chunk 0.
            (4, _redigested_rows([1]), "'rows'"),
            (4, _redigested_rows([1, 2, 3]), "'rows'"),
            (1, lambda r: {**r, "version": 99}, "'version'"),
        ],
    )
    def test_malformed_record_names_field_and_line(self, tmp_path, line, edit, named):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(3)]
        chunks = plan_chunks(points, affinity=lambda p: p["x"] % 2)
        fingerprint = grid_fingerprint(points, chunks)
        journal = CampaignJournal(path)
        journal.open(fingerprint, chunks)
        journal.complete(0, encode_rows([1, 2], 0), seconds=0.1)
        journal.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert json.loads(lines[3])["record"] == "completed"
        lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1])))
        # A valid record after the edit: the bad line is not a torn tail.
        lines.append(json.dumps({"record": "leased", "chunk": 1, "attempt": 1}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError) as raised:
            CampaignJournal(path).open(fingerprint, chunks)
        message = str(raised.value)
        assert f"line {line}:" in message and named in message
        if named == "'version'":
            assert "99" in message and f"version {JOURNAL_VERSION}" in message


#: Replacement values for a retyped field.
_RETYPED = st.sampled_from(
    [None, "x", "0" * 64, -1, 0, 1, 2, 7, 0.5, True, [], {}, [1]]
)


def _dump(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _damage(data, blob):
    """One Hypothesis-chosen damage to a journal's bytes: truncation at
    any byte, one corrupted byte, a deleted or retyped field of a
    ``campaign``/``completed`` record, or ``rows`` of the wrong length
    or type (with or without a matching digest)."""
    lines = blob.decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    damage = data.draw(st.sampled_from(["truncate", "corrupt", "field", "rows"]))
    if damage == "truncate":
        return blob[: data.draw(st.integers(0, len(blob)))]
    if damage == "corrupt":
        position = data.draw(st.integers(0, len(blob) - 1))
        value = data.draw(st.integers(0, 255))
        return blob[:position] + bytes([value]) + blob[position + 1 :]
    kinds = ("campaign", "completed") if damage == "field" else ("completed",)
    candidates = [i for i, r in enumerate(records) if r["record"] in kinds]
    index = data.draw(st.sampled_from(candidates))
    record = dict(records[index])
    if damage == "field":
        name = data.draw(st.sampled_from(sorted(record)))
        if data.draw(st.booleans()):
            del record[name]
        else:
            record[name] = data.draw(_RETYPED)
    else:
        rows = record["rows"]
        record["rows"] = data.draw(
            st.sampled_from(
                [rows[:-1], rows + rows[:1], [], 7, "rows", {"x": 1}, None]
            )
        )
        if data.draw(st.booleans()):
            record["digest"] = rows_digest(_dump(record["rows"]))
    lines[index] = _dump(record)
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestJournalFuzz:
    """Damaged journals of a real 3-chunk campaign: every case ends in
    a ConfigurationError naming a field or a line, or in a clean replay
    (a torn tail is dropped and its chunk re-run) -- never in any other
    exception, and never in different rows."""

    POINTS = [{"x": i} for i in range(6)]

    @pytest.fixture(scope="class")
    def journal_blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "j.jsonl"
        CampaignRunner(1, journal=str(path)).run(
            _square_row, self.POINTS, affinity=_sized_groups
        )
        return path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damage_ends_in_named_error_or_clean_replay(
        self, journal_blob, data
    ):
        damaged = _damage(data, journal_blob)
        reference = [_square_row(point) for point in self.POINTS]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "j.jsonl")
            with open(path, "wb") as handle:
                handle.write(damaged)

            def run():
                return CampaignRunner(1, journal=path).run(
                    _square_row, self.POINTS, affinity=_sized_groups
                )

            try:
                result = run()
            except ConfigurationError as error:
                assert re.search(r"line \d+|field '\w+'", str(error)), error
                return
            assert result.rows == reference
            again = run()
            assert again.stats["executed"] == 0
            assert again.rows == reference


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def test_merged_rows_are_byte_identical_across_worker_counts(self):
        points = [{"x": i} for i in range(12)]
        results = [
            CampaignRunner(n).run(_square_row, points, affinity=_group_of)
            for n in (1, 2, 4)
        ]
        blobs = [pickle.dumps(r.rows) for r in results]
        assert blobs[0] == blobs[1] == blobs[2]
        assert results[0].rows == [_square_row(p) for p in points]
        # Same plan -> same fingerprint -> same per-chunk digests.
        assert [c.digest for c in results[0].chunks] == [
            c.digest for c in results[1].chunks
        ]

    def test_submissions_are_per_chunk_not_per_point(self):
        points = [{"x": i} for i in range(30)]
        runner = CampaignRunner(2)
        result = runner.run(_square_row, points, affinity=_group_of)
        assert result.stats["chunks"] == 3
        assert result.stats["submissions"] == 3  # not 30

    def test_crash_and_resume_is_byte_identical(self, tmp_path):
        points = [{"x": i} for i in range(12)]
        reference = CampaignRunner(1).run(
            _square_row, points, affinity=_group_of
        )
        path = str(tmp_path / "j.jsonl")

        class Crash(Exception):
            pass

        seen = []

        def crash_after_two(outcome):
            seen.append(outcome.chunk_id)
            if len(seen) == 2:
                raise Crash

        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_group_of,
                on_chunk=crash_after_two,
            )
        _, completed = load_journal(path)
        assert len(completed) == 2  # both chunks durable before the crash
        resumed = CampaignRunner(1, journal=path).run(
            _square_row, points, affinity=_group_of
        )
        assert resumed.stats["resumed"] == 2
        assert resumed.stats["executed"] == 1
        assert pickle.dumps(resumed.rows) == pickle.dumps(reference.rows)

    def test_resume_across_worker_counts_is_byte_identical(self, tmp_path):
        points = [{"x": i} for i in range(12)]
        reference = CampaignRunner(1).run(
            _square_row, points, affinity=_group_of
        )
        path = str(tmp_path / "j.jsonl")

        class Crash(Exception):
            pass

        def crash_immediately(outcome):
            raise Crash

        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_group_of,
                on_chunk=crash_immediately,
            )
        resumed = CampaignRunner(2, journal=path).run(
            _square_row, points, affinity=_group_of
        )
        assert resumed.stats["resumed"] >= 1
        assert pickle.dumps(resumed.rows) == pickle.dumps(reference.rows)

    def test_worker_loss_rebuilds_pool_and_reproduces_result(self, tmp_path):
        flag = str(tmp_path / "killed")
        points = [{"x": i, "flag": flag} for i in range(6)]
        reference = CampaignRunner(1).run(
            _square_row, [{"x": p["x"]} for p in points], affinity=_group_of
        )
        result = CampaignRunner(2).run(
            _kill_once_row, points, affinity=_group_of
        )
        assert os.path.exists(flag)  # the kill actually happened
        assert result.stats["pool_restarts"] >= 1
        assert [row["x"] for row in result.rows] == [
            row["x"] for row in reference.rows
        ]

    def test_deterministic_failure_propagates_as_itself(self):
        points = [{"x": i} for i in range(4)]
        with pytest.raises(ValueError, match="deterministic boom"):
            CampaignRunner(2).run(_failing_row, points, affinity=_group_of)
        with pytest.raises(ValueError, match="deterministic boom"):
            CampaignRunner(1).run(_failing_row, points, affinity=_group_of)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_failure_is_journaled_then_reraised(self, tmp_path, n_jobs):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(4)]
        with pytest.raises(ValueError, match="deterministic boom"):
            CampaignRunner(n_jobs, journal=path).run(
                _failing_row, points, affinity=_group_of
            )
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        failed = [r for r in records if r["record"] == "failed"]
        assert [r["chunk"] for r in failed] == [2]
        assert "deterministic boom" in failed[0]["error"]

    def test_journal_survives_two_kills(self, tmp_path):
        """Crash, tear the last record in half (a kill mid-append),
        resume and crash again, then resume to the end: the torn tail
        is cut off before the first append, so the third run still
        reads the journal and merges the uninterrupted run's rows."""
        points = [{"x": i} for i in range(12)]
        reference = CampaignRunner(1).run(
            _square_row, points, affinity=_six_groups
        )
        path = str(tmp_path / "j.jsonl")

        class Crash(Exception):
            pass

        def crash_after(count):
            seen = []

            def hook(outcome):
                seen.append(outcome.chunk_id)
                if len(seen) == count:
                    raise Crash

            return hook

        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_six_groups,
                on_chunk=crash_after(2),
            )
        with open(path, "rb+") as handle:
            data = handle.read()
            start = data.rstrip(b"\n").rfind(b"\n") + 1
            handle.truncate(start + (len(data) - start) // 2)
        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_six_groups,
                on_chunk=crash_after(1),
            )
        final = CampaignRunner(1, journal=path).run(
            _square_row, points, affinity=_six_groups
        )
        assert final.stats["resumed"] == 2
        assert final.stats["executed"] == 4
        assert pickle.dumps(final.rows) == pickle.dumps(reference.rows)

    def test_completed_records_hold_canonical_rows(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(6)]
        result = CampaignRunner(1, journal=path).run(
            _square_row, points, affinity=_group_of
        )
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        completed = [r for r in records if r["record"] == "completed"]
        assert [r["chunk"] for r in completed] == [0, 1, 2]
        for record, outcome in zip(completed, result.chunks):
            assert "payload" not in record
            assert record["rows"] == outcome.rows
            text = json.dumps(
                record["rows"],
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
            assert record["digest"] == outcome.digest
            assert outcome.digest == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize(
        "n_jobs, kind",
        [(1, kind) for kind in _UNROUNDTRIPPABLE] + [(2, "tuple")],
    )
    def test_row_that_does_not_round_trip_names_chunk_and_row(
        self, n_jobs, kind
    ):
        points = [{"x": i, "kind": kind} for i in range(6)]
        with pytest.raises(CampaignError, match="chunk 2 row 1 "):
            CampaignRunner(n_jobs).run(
                _unroundtrippable_row, points, affinity=_group_of
            )

    def test_journal_replay_detects_divergent_reexecution(self, tmp_path):
        # Corrupt the journal's digest for chunk 0: the loader
        # re-encodes the recorded rows, so rows that do not match their
        # digest raise instead of merging.
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(2)]
        chunks = plan_chunks(points)
        journal = CampaignJournal(path)
        journal.open(grid_fingerprint(points, chunks), chunks)
        journal.complete(0, encode_rows([1, 2], 0), seconds=0.1)
        journal.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[-1])
        record["digest"] = "0" * 64
        lines[-1] = json.dumps(record)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="digest"):
            load_journal(path)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestSweepRunnerIntegration:
    def test_journal_routes_n_jobs_1_through_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runner = SweepRunner(n_jobs=1, journal=path)
        rows = runner.map_rows(_square_row, [{"x": i} for i in range(4)])
        assert rows == [_square_row({"x": i}) for i in range(4)]
        assert runner.last_campaign is not None
        assert os.path.exists(path)
        # Second pass resumes everything from the journal.
        again = SweepRunner(n_jobs=1, journal=path)
        assert again.map_rows(_square_row, [{"x": i} for i in range(4)]) == rows
        assert again.last_campaign.stats["executed"] == 0

    def test_journal_grid_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        SweepRunner(n_jobs=1, journal=path).map_rows(
            _square_row, [{"x": i} for i in range(4)]
        )
        with pytest.raises(ConfigurationError, match="different grid"):
            SweepRunner(n_jobs=1, journal=path).map_rows(
                _square_row, [{"x": i} for i in range(5)]
            )

    def test_parallel_run_merges_worker_stage_timings(self):
        clear_capacity_caches()
        points = [{"lam": lam} for lam in (2e-5, 4e-5)]
        result = SweepRunner(n_jobs=2).run(
            experiment_id="probe",
            title="probe",
            headers=["lam", "top"],
            row_fn=_solving_row,
            points=points,
            affinity=lambda point: point["lam"],
        )
        # The solves happened in pool workers; without the worker-delta
        # merge these stages would read ~0 in the parent.
        assert result.timings["solve"] > 0.0
        assert result.timings["assemble"] > 0.0
        assert result.metadata["solver_stats"]["direct"] + result.metadata[
            "solver_stats"
        ]["iterative"] >= 2
        campaign = result.metadata["campaign"]
        assert campaign["points"] == 2
        assert campaign["workers"] == 2
        assert campaign["submissions"] == campaign["chunks"] == 2
