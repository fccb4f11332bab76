"""Every script under ``benchmarks/`` is one that a CI step runs.

A script no CI step invokes measures and asserts nothing anyone reads:
wire it into ``.github/workflows/ci.yml`` or delete it.  CI runs each one
as a plain script through its ``main()``, so none imports pytest.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_every_benchmark_script_is_run_by_a_ci_step():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    steps = [line for line in workflow.splitlines() if not line.lstrip().startswith("#")]
    unrun = [p.name for p in SCRIPTS if not any(f"benchmarks/{p.name}" in s for s in steps)]
    assert not unrun, f"no CI step runs {unrun}"


def test_benchmark_scripts_are_plain_scripts():
    pytest_import = re.compile(r"^\s*(?:import|from)\s+pytest\b", re.M)
    assert not [p.name for p in SCRIPTS if pytest_import.search(p.read_text(encoding="utf-8"))]


def test_storage_baseline_rows_are_the_benchmarked_kernels():
    # check_regression.py fails on a baseline row the fresh run lacks, so a
    # retired kernel must take its baseline rows with it.
    spec = importlib.util.spec_from_file_location(
        "bench_storage", ROOT / "benchmarks" / "bench_storage.py"
    )
    bench_storage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_storage)
    baseline = json.loads(
        (ROOT / "benchmarks" / "baselines" / "BENCH_storage.json").read_text(encoding="utf-8")
    )
    kernels = {row["kernel"] for row in baseline["results"]}
    assert kernels == set(bench_storage.KERNELS)
