"""The benchmark's own test: ``run.py --smoke`` runs every workload at
tiny size and checks that every metric is present and numeric, and
``BENCHMARK.json`` names the same workloads and metrics as the code.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import ROOT, WORKLOADS  # noqa: E402


def test_benchmark_json_names_the_code_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_smoke_mode_reports_every_metric():
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("smoke: ok")
