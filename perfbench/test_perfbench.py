"""Smoke test of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload in ``--smoke`` mode, traced and untraced, and checks the
result line against ``BENCHMARK.json`` and the outputs against the digests
committed in ``golden.json``. Takes a few seconds per run.
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    command += ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # Where golden.json holds this environment's pins, the smoke outputs
    # must be checked against them rather than pinned locally.
    golden = re.search(r"^# golden: (\d+) digests .* for '(.*)', (\d+) against local pins$", proc.stdout, re.M)
    if golden[2] in GOLDEN:
        assert int(golden[1]) >= 1 and int(golden[3]) == 0


def test_traced_counts_repeat_exactly_for_a_seed():
    counts = []
    for _ in range(2):
        metrics = json.loads(run_bench(ROOT, "train_default", 1).stdout.strip().splitlines()[-1])["metrics"]
        counts.append(
            {
                name: m["value"]
                for name, m in metrics.items()
                if m["unit"] in ("count", "ratio") and not name.startswith("trace.")
            }
        )
    assert counts[0] == counts[1]


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_gate_checks_committed_pins_and_pins_new_keys_locally():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from workloads import Gate

        gate = Gate({"committed": hashlib.sha256(b"pinned").hexdigest()}, {})
        for key, payload in (("committed", b"pinned"), ("committed", b"changed"), ("new", b"a"), ("new", b"b")):
            gate.pin(key, payload)
        assert (gate.committed_checks, gate.local_checks) == (2, 2)
        assert gate.failed == 2 and gate.local == {"new": hashlib.sha256(b"a").hexdigest()}
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
