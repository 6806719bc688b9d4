"""Layered benchmark of the OAQ reproduction.

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run repeats passes of one workload until ``--seconds`` have passed
(at least three passes untraced, two traced); every pass runs in a
fresh interpreter (``single_pass.py``).  With ``--trace 0`` the run
reports the end-to-end metrics as medians over its passes, times
scaled to a fixed host speed (see ``PROBE_REFERENCE_S``); with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead
(median traced minus median untraced wall time).  Every pass checks
its outputs; ``attempted``/``failed`` count those checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report with the host and provenance.  The
full record of the run (provenance, every pass, the traced spans) is
written to ``.perfbench_out/``.

``--smoke`` runs every workload once untraced and once traced at tiny
sizes and checks that every metric is present and numeric.

Paths resolve from this file: the repository root is its parent
directory, and the package is imported from ``src`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design-sweep", "scaled-structure", "fault-campaign", "protocol-mc")

#: Even the minimum pass count stops once another pass could end after
#: this many seconds, so a run exits well within three minutes.
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 170.0

#: Pass times are reported at a fixed host speed: each pass's set-up
#: and wall seconds are scaled by ``PROBE_REFERENCE_S / probe_s``, where
#: ``probe_s`` is the pass's own host-probe time (see
#: ``single_pass.host_probe``).  Unscaled values are printed and kept in
#: the run record.
PROBE_REFERENCE_S = 0.2


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def run_pass(workload, seed, traced, smoke, workdir):
    """Run one pass in a fresh interpreter; its record, or ``None`` if
    it crashed or timed out."""
    workdir.mkdir(parents=True)
    out = workdir / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "single_pass.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--workdir", str(workdir), "--root", str(ROOT), "--out", str(out),
    ] + (["--smoke"] if smoke else [])
    t0 = time.monotonic()
    process = subprocess.Popen(
        command + ["--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"pass timed out after {PASS_TIMEOUT_S:.0f}s", file=sys.stderr)
        return None
    if process.returncode != 0:
        print(stderr, file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_passes(workload, seed, seconds, trace, smoke, workdir):
    """Passes while another fits in ``seconds`` (at least the minimum
    count, within the run budget); traced runs alternate untraced and
    traced passes."""
    minimum = 2 if trace else 3
    records = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        record = run_pass(workload, seed, traced, smoke, workdir / f"pass{len(records)}")
        records.append((traced, record))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(records)
        if elapsed + per_pass > (seconds if len(records) >= minimum else RUN_BUDGET_S):
            break
    return records


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(records, trace):
    """``(attempted, failed, metrics, samples)`` over a run's passes."""
    done = [(traced, r) for traced, r in records if r is not None]
    attempted = failed = 0
    for _, record in records:
        attempted += record["checks"] if record else 1
        failed += record["failed"] if record else 1
    digests = [r["digest"] for _, r in done if r["digest"] is not None]
    attempted += max(0, len(digests) - 1)
    failed += sum(1 for digest in digests[1:] if digest != digests[0])

    plain = [r for traced, r in done if not traced]
    speed = [PROBE_REFERENCE_S / r["probe_s"] for r in plain]
    samples = {
        "setup_s": [r["setup_s"] * k for r, k in zip(plain, speed)],
        "wall_s": [r["wall_s"] * k for r, k in zip(plain, speed)],
        "items_per_s": [r["items"] / (r["wall_s"] * k) for r, k in zip(plain, speed)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_frac": [1.0 - failed / attempted],
        "unscaled setup_s": [r["setup_s"] for r in plain],
        "unscaled wall_s": [r["wall_s"] for r in plain],
        "host.probe_s": [r["probe_s"] for r in plain],
    }
    declared = END_TO_END
    if trace:
        traced = [r for is_traced, r in done if is_traced]
        for name, _, _ in PER_LAYER:
            samples[name] = [r["layer"][name] for r in traced if name in r["layer"]]
        samples["trace.overhead_s"] = [
            _median(samples["trace.wall_s"]) - _median(samples["unscaled wall_s"])
        ]
        declared = END_TO_END + PER_LAYER
    metrics = {
        entry[0]: {"value": _median(samples[entry[0]]), "unit": entry[1]}
        for entry in declared
    }
    return attempted, failed, metrics, samples


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return result.stdout.strip() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed, seconds, trace, records):
    first = next((r for _, r in records if r is not None), {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(records),
        "size": first.get("size"),
        "items": first.get("items"),
        "item": first.get("item"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "versions": first.get("versions"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(info, attempted, failed, metrics, samples, records):
    print(f"# perfbench {info['workload']} seed={info['seed']} trace={info['trace']}")
    for key in ("size", "items", "item", "passes", "nproc", "usable_cpus",
                "machine", "versions", "git_commit", "source_sha256"):
        print(f"#   {key}: {info[key]}")
    print(f"# checks: {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / attempted if attempted else 0.0:.6g})")
    print(f"# {'metric':34} {'median':>14} {'unit':8} {'n':>3} {'min':>12} {'max':>12}")
    shown = list(metrics) + ["unscaled setup_s", "unscaled wall_s", "host.probe_s"]
    for name in dict.fromkeys(shown):
        values = samples[name]
        low, high = (min(values), max(values)) if values else (math.nan, math.nan)
        unit = metrics[name]["unit"] if name in metrics else "s"
        print(f"# {name:34} {_format(_median(values)):>14} {unit:8} "
              f"{len(values):>3} {_format(low):>12} {_format(high):>12}")
    if info["trace"]:
        print(f"# tracing overhead: {_format(metrics['trace.overhead_s']['value'])} s "
              f"(traced wall {_format(metrics['trace.wall_s']['value'])} s, "
              f"untraced {_format(_median(samples['unscaled wall_s']))} s, unscaled)")
        share = metrics["stress.share"]["value"]
        print(f"# stress share of the workload's layer: {share:.3f} "
              f"({'meets' if share >= 0.5 else 'BELOW'} the 0.5 target)")
        traced = [r for is_traced, r in records if is_traced and r]
        table = traced[-1]["self_times"] if traced else {}
        print(f"# {'span (last traced pass)':34} {'count':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"])[:20]:
            print(f"# {name:34} {row['count']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")


def _write_record(name, payload):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def measure(workload, seed, seconds, trace, smoke=False):
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    try:
        records = run_passes(workload, seed, seconds, trace, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(record for _, record in records):
        return None
    attempted, failed, metrics, samples = summarize(records, trace)
    info = provenance(workload, seed, seconds, trace, records)
    report(info, attempted, failed, metrics, samples, records)
    _write_record(
        f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json",
        {"provenance": info, "attempted": attempted, "failed": failed,
         "metrics": metrics, "samples": samples,
         "passes": [record for _, record in records]},
    )
    return attempted, failed, metrics


def smoke():
    """Every workload at tiny size, one untraced and one traced pass:
    every metric must be present and numeric, and every check must
    pass."""
    problems = []
    for workload in WORKLOADS:
        outcome = measure(workload, 1, 0.0, 1, smoke=True)
        if outcome is None:
            problems.append(f"{workload}: a pass failed to complete")
            continue
        attempted, failed, metrics = outcome
        if failed:
            problems.append(f"{workload}: {failed}/{attempted} checks failed")
        for entry in END_TO_END + PER_LAYER:
            value = metrics.get(entry[0], {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{workload}: {entry[0]} = {value!r}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile up front so no pass pays for it inside set-up time.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    if args.smoke:
        return smoke()
    outcome = measure(args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        print("perfbench: every pass failed", file=sys.stderr)
        return 1
    attempted, failed, metrics = outcome
    declared = {entry[0]: metrics[entry[0]] for entry in (PER_LAYER if args.trace else END_TO_END)}
    missing = [name for name, entry in declared.items() if not math.isfinite(entry["value"])]
    if missing:
        print(f"perfbench: no completed pass measured {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": declared,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
