"""Smoke and determinism tests of the benchmark, at reduced size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import END_TO_END, PER_LAYER  # noqa: E402

#: Per-layer counts that must repeat exactly under any ``PYTHONHASHSEED``.
DETERMINISTIC_COUNTS = (
    "network.eliminate_ite_calls", "decomp.decompose_ite_calls",
    "network.supernodes", "network.bdd_mappings", "bdd.reorder_swaps",
    "decomp.steps_total", "mapping.gates",
)

#: Small circuit sets that keep each run to a pass or two of a second.
SMALL = {
    "table1_flow": "C432,rot",
    "arith_verify": "bshift8,cmp8",
    "serve_mix": "rot,vda",
}


def _run(workload, trace, seed=7, env=None, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
           "--trace", str(trace), "--circuits", SMALL[workload]]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SMALL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_under_two_hash_seeds():
    seen = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        counts = {}
        for trace, names in ((1, DETERMINISTIC_COUNTS),
                             (0, ("literals", "area"))):
            metrics = _result(_run("table1_flow", trace, env=env))["metrics"]
            counts.update({n: metrics[n]["value"] for n in names})
        seen.append(counts)
    assert seen[0] == seen[1]
    assert all(seen[0][n] > 0 for n in DETERMINISTIC_COUNTS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("table1_flow", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_wrong_result_fails_the_run(monkeypatch, capsys):
    import run

    monkeypatch.chdir(ROOT)
    run.use_repo_sources()
    import flow_workloads

    monkeypatch.setattr(flow_workloads, "simulate_equivalence",
                        lambda a, b: (False, {}))
    code = run.main(["--workload", "table1_flow", "--seed", "1",
                     "--seconds", "0", "--circuits", "rot"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
