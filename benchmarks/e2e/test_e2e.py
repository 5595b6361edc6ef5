"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=600, cwd=cwd, check=False,
    )


def _smoke(workload, trace, *extra):
    return _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--smoke", "--trace", str(trace), *extra)


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (workload, trace): _smoke(workload, trace)
        for workload in run.WORKLOAD_NAMES
        for trace in (0, 1)
    }


def test_smoke_runs_check_out(smoke_runs):
    for key, proc in smoke_runs.items():
        assert proc.returncode == 0, (key, proc.stdout[-2000:], proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_printed_metrics_match_benchmark_json(smoke_runs):
    for (workload, trace), proc in smoke_runs.items():
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == want
        lines = {
            tuple(line.split()[:2])
            for line in proc.stdout.splitlines()[:-1]
            if len(line.split()) == 4
        }
        assert {(name, workload) for name in want} <= lines


def test_workload_names_agree():
    workloads, _ = run.load_workloads()
    declared = tuple(w["name"] for w in BENCHMARK["workloads"])
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES == declared


def test_end_to_end_metrics_are_nonzero(smoke_runs):
    for (_workload, trace), proc in smoke_runs.items():
        if trace:
            continue
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_tail_is_rank_n_minus_10():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == 90.0  # ten samples, 91..100, lie beyond it
    assert run.tail(list(range(11))) == 0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_injected_corruption_fails_the_run():
    proc = _smoke("tree_dp", 0, "--inject-fault")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "FAIL tree_dp" in proc.stdout


def test_wrappers_are_restored_by_identity():
    run.load_workloads()  # puts the program on the import path
    import layers

    bindings = []
    for _span, module, qualname in layers.WRAPPED:
        owner, attr, func = layers._resolve(module, qualname)
        bindings += [(ns, key, func) for ns, key in layers._bindings(owner, attr, func)]
    assert bindings
    with layers.wrapped_layers():
        assert all(vars(ns)[key] is not func for ns, key, func in bindings)
    assert all(vars(ns)[key] is func for ns, key, func in bindings)


def test_missing_wrapped_name_is_an_error():
    run.load_workloads()  # puts the program on the import path
    import layers

    from repro.core import forest

    original = forest.build_forest
    table = (("e2e.forest.build", "repro.core.forest", "build_forest"),
             ("e2e.gone", "repro.core.forest", "no_such_function"))
    with pytest.raises(LookupError), layers.wrapped_layers(table):
        pass
    assert forest.build_forest is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tree_dp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path, check=False,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
