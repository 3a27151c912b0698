"""Tests of the benchmark itself, at reduced size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def bench(*args, env=None, run=RUN):
    """Run the benchmark at reduced size; (process, parsed last line or None)."""
    if env is None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, str(run), "--seconds", "1", "--size", "small", *args],
        cwd=run.parents[1], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, shared by the tests below."""
    return {w: bench("--workload", w, "--trace", "1") for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    proc, result = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(traced, workload):
    proc, result = traced[workload]
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.attributed_fraction"]["value"] >= 0.95


def _is_sim_count(name: str, unit: str) -> bool:
    """A count or simulated-time figure that is not a per-layer call count."""
    return not name.endswith(".calls") and (
        unit == "count" or name.endswith(("busy_sim_s", "extrapolated_fraction", "hit_ratio"))
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    _, first = traced[workload]
    proc, second = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr

    def counts(result):
        # the sweep orchestrator's call counts depend on how long it
        # waits for its workers; every other workload runs in-process
        # and repeats its call counts too
        return {
            k: v["value"] for k, v in result["metrics"].items()
            if _is_sim_count(k, v["unit"])
            or (workload != "sweep-smoke" and k.endswith(".calls"))
        }

    if workload != "sweep-smoke":  # its simulation runs in the workers
        assert counts(first)["simengine.events"] > 0
    assert counts(first) == counts(second)


def _sweep_task(seed: int, kind: str, tmp_path) -> str:
    """Fingerprint of the first small sweep-smoke task of ``seed`` whose
    workload is fuzzed (``kind="spec"``) or named (``kind="named"``)."""
    from perfbench.spans import Spans
    from perfbench.workloads import SweepSmoke

    wl = SweepSmoke("small", seed, {}, ROOT, tmp_path)
    wl.setup(Spans(False))
    return next(
        t.fp for t in wl.plan()
        if (t.payload["workload"]["kind"] == "spec") == (kind == "spec")
    )


@pytest.mark.parametrize("workload,seed,unit", [
    ("characterize-cold", 0, "jbod/nfs"),
    ("btio-eval", 0, "raid5"),
    ("sweep-smoke", 0, "spec"),  # a fuzzed task recorded for seed 0
    ("sweep-smoke", 1, "named"),  # a named task, the same for every seed
])
def test_wrong_reference_fails(tmp_path, workload, seed, unit):
    # a copy of the benchmark beside the checkout's source, with one
    # recorded digest corrupted
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("src", "examples"):
        (tmp_path / name).symlink_to(ROOT / name)
    path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    if workload == "sweep-smoke":
        unit = _sweep_task(seed, unit, tmp_path / "work")
    assert unit in refs["small"][workload]
    refs["small"][workload][unit] = "0000000000000000"
    path.write_text(json.dumps(refs))
    proc, result = bench("--workload", workload, "--seed", str(seed),
                         run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "differs from reference" in proc.stderr


def test_non_default_mode_is_refused():
    proc, result = bench(
        "--workload", "btio-eval", env={**os.environ, "REPRO_NO_PHASE_FASTPATH": "1"}
    )
    assert proc.returncode != 0 and result is None
    assert "REPRO_NO_PHASE_FASTPATH" in proc.stderr


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_map_covers_every_module():
    from perfbench.layers import LAYERS, MODULE_LAYER, layer_of_module, module_name

    package = ROOT / "src" / "repro"
    modules = {module_name(p, package) for p in package.rglob("*.py")}
    for module in sorted(modules):
        assert layer_of_module(module) in LAYERS
    assert set(MODULE_LAYER) == modules, "layer map lists modules that do not exist"


def test_layer_map_rejects_unknown_module():
    from perfbench.layers import layer_of_module

    with pytest.raises(KeyError):
        layer_of_module("storage.brand_new")


def test_attribution_charges_builtins_to_the_calling_layer():
    from perfbench.layers import attribute

    package = ROOT / "src" / "repro"
    disk = (str(package / "hardware" / "disk.py"), 1, "serve")
    nfs = (str(package / "storage" / "nfs.py"), 1, "rpc")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        disk: (3, 3, 1.0, 2.0, {}),
        nfs: (1, 1, 1.0, 1.5, {}),
        builtin: (4, 4, 2.0, 2.0, {disk: (3, 3, 1.5, 1.5), nfs: (1, 1, 0.5, 0.5)}),
    }
    out = attribute(stats, package)
    assert out["self_s"]["hardware.disk"] == pytest.approx(2.5)
    assert out["self_s"]["storage.nfs"] == pytest.approx(1.5)
    assert out["calls"]["hardware.disk"] == 3
    assert out["attributed_fraction"] == pytest.approx(1.0)


def test_default_seed_reproduces_the_fuzz_corpus(tmp_path):
    from perfbench.spans import Spans
    from perfbench.workloads import SweepSmoke

    wl = SweepSmoke("small", 0, {}, ROOT, tmp_path)
    wl.setup(Spans(False))
    fuzzed = [d["doc"] for d in wl.workloads if d["kind"] == "spec"]
    corpus = [
        json.loads((ROOT / "examples" / "fuzz" / f"fuzz-{i}.json").read_text())
        for i in range(3)
    ]
    assert fuzzed == corpus


def test_pass_cost_divides_each_unit_by_its_calibration():
    from perfbench.run import pass_cost

    units = {
        "a": [(1.0, 0.01), (2.0, 0.01), (3.0, 0.02)],  # ratios 100, 200, 150
        "b": [(0.5, 0.01), (0.6, 0.02)],  # ratios 50, 30
    }
    cal, wall = pass_cost(units)
    assert cal == pytest.approx(150 + 40)
    assert wall == pytest.approx(2.0 + 0.55)
