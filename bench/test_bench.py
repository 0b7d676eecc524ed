"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))
    return record, json.loads(lines[-1])


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    untraced, traced = run_bench(request.param, 0), run_bench(request.param, 1)
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    return parse(untraced), parse(traced)


def test_spec_matches_metric_definitions():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_reported_with_its_unit(runs):
    (_, untraced), (_, traced) = runs
    for spec, result in ((SPEC["end_to_end"], untraced), (SPEC["per_layer"], traced)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in spec} == \
            {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_no_errors_at_the_seed(runs):
    for record, result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert record["error_rate"] == 0


def test_traced_and_untraced_digests_agree(runs):
    (untraced, _), (traced, _) = runs
    assert untraced["digest"] == traced["digest"]


def test_record_names_the_environment(runs):
    for record, _ in runs:
        env = record["environment"]
        for key in ("commit", "python", "numpy", "blas", "blas_threads", "nproc", "cpu_model"):
            assert env[key] not in (None, "")
        assert record["seed"] == 1 and record["items_per_pass"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("pool", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
