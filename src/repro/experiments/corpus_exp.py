"""Experiment ``corpus``: the seeded scenario corpus and its scored
cross-solver conformance run.

Two entry points share the machinery:

* :func:`run` -- the registry-style experiment (``--full`` set): runs a
  small seeded corpus inline and reports one row per scenario family
  (cells, statuses, checks, throughput).
* :func:`main` -- the subcommand CLI behind
  ``python -m repro.experiments corpus ...``::

      corpus generate --cells 210 --seed 20260 --out build/corpus
      corpus run      --corpus build/corpus --scorecard build/scorecard.json \\
                      [--jobs N] [--resume build/corpus.journal]
      corpus score    --scorecard build/scorecard.json
      corpus diff     --scorecard build/scorecard.json \\
                      --golden tests/golden/corpus/scorecard.json

  ``generate`` writes the on-disk corpus (metadata + one JSON case per
  cell), ``run`` executes the conformance harness and writes the
  scorecard, ``score`` summarises an existing scorecard (exit status 1
  unless every cell passed), and ``diff`` compares a scorecard against
  a golden one ignoring timing fields (exit status 1 on any
  behavioural difference).

The golden corpus under ``tests/golden/corpus/`` is generated with
:data:`GOLDEN_SEED` / :data:`GOLDEN_CELLS` and pinned by the tier-1
smoke test; after any intentional behaviour change regenerate it with
``corpus generate --cells 30 --seed 20260 --name golden-corpus --out
tests/golden/corpus`` followed by ``corpus run --corpus
tests/golden/corpus --scorecard tests/golden/corpus/scorecard.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.experiments.report import ExperimentResult
from repro.scenarios.generator import FAMILIES, generate_corpus
from repro.scenarios.runner import CellResult, run_corpus
from repro.scenarios.schema import read_corpus, write_corpus
from repro.scenarios.scorer import (
    diff_scorecards,
    load_scorecard,
    score_run,
    scorecard_to_json,
)

__all__ = [
    "GOLDEN_SEED",
    "GOLDEN_CELLS",
    "GOLDEN_DIR",
    "run",
    "main",
]

#: Seed and size of the checked-in golden corpus.
GOLDEN_SEED = 20260
GOLDEN_CELLS = 30

#: Repo-relative location of the golden corpus.
GOLDEN_DIR = os.path.join("tests", "golden", "corpus")


def run(*, n_cells: int = 12, seed: int = GOLDEN_SEED) -> ExperimentResult:
    """Generate a small seeded corpus, run the conformance harness and
    report one row per scenario family."""
    metadata, cases = generate_corpus(n_cells, seed, name="corpus-experiment")
    result = run_corpus(cases)
    scorecard = score_run(result, metadata=metadata)
    summary = scorecard["summary"]
    rows = []
    for family, counts in sorted(summary["families"].items()):
        family_cells = [cell for cell in result.cells if cell.family == family]
        rows.append(
            {
                "family": family,
                "cells": counts["cells"],
                "pass": counts["pass"],
                "fail": counts["fail"],
                "error": counts["error"],
                "checks": sum(len(cell.checks) for cell in family_cells),
                "seconds": sum(cell.seconds for cell in family_cells),
            }
        )
    return ExperimentResult(
        experiment_id="corpus",
        title=f"Scenario-corpus conformance (seed {seed}, {n_cells} cells)",
        headers=["family", "cells", "pass", "fail", "error", "checks", "seconds"],
        rows=rows,
        notes=[
            f"{summary['checks_passed']}/{summary['checks_evaluated']} checks "
            f"passed; {summary['unexplained_fallbacks']} unexplained solver "
            f"fallbacks; {summary['cells_per_sec']:.2f} cells/sec",
        ],
        timings={"total": result.seconds},
        metadata={"scorecard_summary": summary},
    )


def _print_progress(cell: CellResult) -> None:
    print(f"  {cell.case_id}: {cell.status} ({cell.seconds:.2f}s)")


def _cmd_generate(args: argparse.Namespace) -> int:
    metadata, cases = generate_corpus(
        args.cells,
        args.seed,
        name=args.name,
        families=args.families,
        describe_git=args.git_provenance,
    )
    write_corpus(args.out, metadata, cases)
    print(
        f"wrote {len(cases)} cases to {args.out} "
        f"(seed {metadata.seed}, families: "
        + ", ".join(f"{family} x{count}" for family, count in metadata.families)
        + ")"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    metadata, cases = read_corpus(args.corpus)
    print(f"running {len(cases)} cells from {args.corpus} ...")
    extra_checks = ("protocol_mc",) if args.protocol_mc else ()
    result = run_corpus(
        cases,
        progress=_print_progress if args.verbose else None,
        extra_checks=extra_checks,
        n_jobs=args.jobs,
        journal=args.resume,
    )
    print(
        f"campaign: {result.campaign['chunks']} chunks over "
        f"{result.campaign['workers']} worker(s), "
        f"{result.campaign['resumed']} resumed"
    )
    scorecard = score_run(result, metadata=metadata)
    with open(args.scorecard, "w") as handle:
        handle.write(scorecard_to_json(scorecard))
    summary = scorecard["summary"]
    print(
        f"{summary['pass']}/{summary['cells']} cells passed "
        f"({summary['fail']} failed, {summary['error']} errored), "
        f"{summary['cells_per_sec']:.2f} cells/sec -> {args.scorecard}"
    )
    return 0 if summary["all_passed"] else 1


def _cmd_score(args: argparse.Namespace) -> int:
    scorecard = load_scorecard(args.scorecard)
    summary = scorecard["summary"]
    print(json.dumps(summary, indent=2, sort_keys=True))
    for cell in scorecard["cells"]:
        if cell["status"] != "pass":
            failed = [
                check["name"] for check in cell["checks"] if not check["passed"]
            ]
            print(f"{cell['case_id']}: {cell['status']} ({', '.join(failed)})")
    return 0 if summary["all_passed"] else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    golden = load_scorecard(args.golden)
    candidate = load_scorecard(args.scorecard)
    differences = diff_scorecards(golden, candidate)
    if not differences:
        print(f"{args.scorecard} matches {args.golden}")
        return 0
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments corpus",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a seeded corpus on disk"
    )
    generate.add_argument("--cells", type=int, default=210)
    generate.add_argument("--seed", type=int, default=GOLDEN_SEED)
    generate.add_argument("--out", required=True, help="corpus directory")
    generate.add_argument("--name", default="scenario-corpus")
    generate.add_argument(
        "--families",
        nargs="+",
        choices=sorted(FAMILIES),
        default=None,
        help="restrict to these scenario families",
    )
    generate.add_argument(
        "--git-provenance",
        action="store_true",
        help="stamp `git describe` into the metadata (breaks byte-identical "
        "regeneration from metadata alone)",
    )
    generate.set_defaults(func=_cmd_generate)

    runner = commands.add_parser(
        "run", help="run the conformance harness over a corpus"
    )
    runner.add_argument("--corpus", required=True, help="corpus directory")
    runner.add_argument("--scorecard", required=True, help="output JSON path")
    runner.add_argument("--verbose", action="store_true")
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (affinity-sharded campaign orchestrator)",
    )
    runner.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help=(
            "checkpoint the run to this JSONL journal and resume from it "
            "if it exists (must have been recorded for the same corpus)"
        ),
    )
    runner.add_argument(
        "--protocol-mc",
        action="store_true",
        help="force the vector-engine protocol_mc conformance check onto "
        "every cell (off by default; changes the scorecard layout, so do "
        "not combine with golden diffs)",
    )
    runner.set_defaults(func=_cmd_run)

    score = commands.add_parser("score", help="summarise a scorecard")
    score.add_argument("--scorecard", required=True)
    score.set_defaults(func=_cmd_score)

    diff = commands.add_parser(
        "diff", help="compare a scorecard against a golden one"
    )
    diff.add_argument("--scorecard", required=True)
    diff.add_argument(
        "--golden", default=os.path.join(GOLDEN_DIR, "scorecard.json")
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
