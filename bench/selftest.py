"""Self-test of the benchmark on tiny versions of every workload.

    python3 bench/selftest.py        (or: python3 -m pytest -q bench/selftest.py)

For each workload in BENCHMARK.json it checks that every end-to-end and
per-layer metric prints with its unit, that the count metrics repeat
exactly across two traced runs, and that a perturbed reference drives
error_rate above 0.  It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(workload: str, reference: Path, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--size", "tiny", "--reference-file", str(reference), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture
def reference():
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_tmp"))
    yield tmp / "reference.json"
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload: str, reference: Path) -> None:
    untraced = bench(workload, reference, "--trace", "0", "--write-reference")
    assert_metrics(untraced, SPEC["end_to_end"])
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1

    traced = [bench(workload, reference, "--trace", "1") for _ in range(2)]
    for result in traced:
        assert_metrics(result, SPEC["per_layer"])
        assert result["correct"] and result["metrics"]["error_rate"]["value"] == 0
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in ("count", "bytes")} for r in traced]
    assert counts[0] == counts[1]

    data = json.loads(reference.read_text(encoding="utf-8"))
    data["seeds"][str(SEED)]["rows"][0]["exact"]["n_blocks"] += 1
    reference.write_text(json.dumps(data), encoding="utf-8")
    perturbed = bench(workload, reference, "--trace", "1")
    assert not perturbed["correct"] and perturbed["failed"] > 0
    assert perturbed["metrics"]["error_rate"]["value"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
