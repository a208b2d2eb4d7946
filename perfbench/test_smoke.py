"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload on the untraced and the traced path, checks that the
result names exactly the metrics ``BENCHMARK.json`` declares, and shows
that a payload deviating from its recorded digest is counted as a failed
op. Also runs the command where no sources are present, where it must
refuse without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quiet(*_args):
    pass


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    result = run.benchmark(workload, seed=3, seconds=0.01, trace=trace,
                           small=True, log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_digest_counts_as_failed_op(trace):
    result = run.benchmark("cheb-d80", seed=3, seconds=0.01, trace=trace,
                           small=True, digest="0" * 64, log=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_inverse_mix_is_seeded():
    from mopsrel import casebook
    one = workloads.build("inverse-mix", 5, casebook, small=True)
    two = workloads.build("inverse-mix", 5, casebook, small=True)
    other = workloads.build("inverse-mix", 6, casebook, small=True)
    assert [(op.argv, op.stdin) for op in one.ops] == [(op.argv, op.stdin) for op in two.ops]
    assert [op.stdin for op in one.ops] != [op.stdin for op in other.ops]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cheb-d80",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
