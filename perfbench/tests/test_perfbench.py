"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from charnmt import trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, seconds, trace, size):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, _ = run_bench(workload, seed=3, seconds=1, trace=trace, size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] >= 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])


def test_layer_map_names_match_the_spec():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) | set(entry["unchanged"]) <= e2e
        assert set(entry["on"]) <= set(WORKLOADS)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "translate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check fails on a corrupted output ---------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    sizes = workloads.TINY
    paths = workloads.SetupTimer(work, 5, sizes).sample()
    mc, tc = workloads.configs(paths, sizes, "base", 5)
    call = workloads.run_train(mc, tc, paths, work / "run", sizes)
    return SimpleNamespace(call=call, steps=tc.max_steps, paths=paths)


def test_train_log_check_passes_then_fails_on_corruption(tiny_run):
    log, steps = tiny_run.call.log, tiny_run.steps
    assert checks.check_train_log(log, steps, bleu_floor=0.0) == []
    lines = log.splitlines(keepends=True)
    nan_loss = lines[0].split("\t")
    nan_loss[1] = "nan"
    assert checks.check_train_log("\t".join(nan_loss) + "".join(lines[1:]), steps, 0.0)
    assert checks.check_train_log("".join(lines[:-1]), steps, 0.0)  # a step missing
    assert checks.check_train_log("".join(lines[1:] + lines[:1]), steps, 0.0)  # misnumbered
    assert checks.check_train_log(log, steps, bleu_floor=1.01)  # below the floor


def test_identical_log_check_fails_on_a_changed_log(tiny_run):
    log = tiny_run.call.log
    assert checks.check_identical_logs([log, log]) == []
    assert checks.check_identical_logs([log, log.replace("\t", "\t0", 1)])


def test_reload_check_fails_on_a_corrupted_checkpoint(tiny_run):
    latest = tiny_run.call.result.latest_dir
    loaded = trainer.load_trained_model(latest)
    assert checks.check_reload(loaded, "base", tiny_run.steps) == []
    assert checks.check_reload(loaded, "biscale", tiny_run.steps)
    assert checks.check_reload(loaded, "base", tiny_run.steps + 1)
    blob = latest / "params.bin"
    data = bytearray(blob.read_bytes())
    data[0] ^= 0xFF
    blob.write_bytes(bytes(data))
    ledger = workloads.Ledger()
    with pytest.raises(Exception):
        with ledger.operation():
            trainer.load_trained_model(latest)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_greedy_law_check_fails_on_changed_tokens():
    hyps = [SimpleNamespace(tokens=[5, 6, 2], truncated=False),
            SimpleNamespace(tokens=[7, 2], truncated=False)]
    assert checks.check_greedy_law(hyps, [[5, 6, 2], [7, 2]]) == []
    assert checks.check_greedy_law(hyps, [[5, 6, 2], [8, 2]])
    assert checks.check_greedy_law(hyps, [[5, 6, 2]])
    hyps[1].truncated = True  # capped lines are failures already, not law breaks
    assert checks.check_greedy_law(hyps, [[5, 6, 2], [8, 2]]) == []


def test_floor_check_fails_below_the_floor():
    assert checks.check_floor("BLEU", 0.9, 0.8) == []
    assert checks.check_floor("BLEU", 0.7, 0.8)
    assert checks.check_floor("BLEU", math.nan, 0.8)


# -- quality floors hold on a seed not used to set them ----------------------


@pytest.mark.parametrize("workload", ["train-biscale", "translate"])
def test_fresh_seed_passes_the_quality_floors(workload):
    result, proc = run_bench(workload, seed=90001, seconds=1, trace=0, size="full")
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
