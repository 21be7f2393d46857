"""Tests of the benchmark itself: its checks are live, its traced run is
complete and repeatable, and it refuses to run without the package sources.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

ms = run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ATTRIBUTED_FLOOR = 0.95


def perturbed(fn, scale_of):
    """``fn`` with its result moved by 1e-3 * ||S|| in one entry."""
    def wrong(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out.flat[0] += 1e-3 * scale_of(args, out)
        return out
    return wrong


def input_norm(args, out):
    return np.linalg.norm(args[0])


def output_norm(args, out):
    return np.linalg.norm(out)


# One route per workload, each held against another by a different check.
FAULTS = {
    "flow-spectral": ("toda.flow_factorized", input_norm),
    "flow-plain": ("toda.flaschka", output_norm),
    "polytope": ("polytope.bfr_map", input_norm),
    "chart-cli": ("jacobi.moser_reconstruct", output_norm),
}


def first_block(name, workdir):
    spec = workloads.WORKLOADS[name]
    return workloads.build(name, 7, str(workdir))[:spec.block_size]


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_failed_frac_rises_when_one_route_is_off_by_1e_3(name, tmp_path):
    tasks = first_block(name, tmp_path)
    clean = run.Tally()
    for task in tasks:
        clean.attempt(task)
    assert clean.failed == 0

    key, scale_of = FAULTS[name]
    layer, _, fn_name = key.partition(".")
    original = getattr(spans.module(ms, layer), fn_name)
    undo = spans.replace_everywhere(ms, {key: original}, {key: perturbed(original, scale_of)})
    try:
        faulty = run.Tally()
        for task in tasks:
            faulty.attempt(task)
    finally:
        spans.restore(undo)
    assert faulty.failed > 0
    assert run.check_metrics(faulty)["xval.failed_frac"][0] > run.check_metrics(clean)["xval.failed_frac"][0]


def traced(name, workdir, monkeypatch):
    spec = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(spec, traced_blocks=1))
    metrics, tally = run.measure(ms, workloads, name, 3, 0.0, True, str(workdir))
    assert tally.failed == 0
    return metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_complete_and_repeats(name, tmp_path, monkeypatch):
    first = traced(name, tmp_path, monkeypatch)
    second = traced(name, tmp_path, monkeypatch)
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(first)
    for m in BENCHMARK["per_layer"]:
        assert first[m["name"]][1] == m["unit"]
    assert first["trace.attributed_frac"][0] >= ATTRIBUTED_FLOOR
    counts = [key for key in first if key.endswith(".calls")]
    assert counts
    assert {key: first[key] for key in counts} == {key: second[key] for key in counts}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    metrics, tally = run.measure(ms, workloads, "flow-plain", 3, 1.0, False, str(tmp_path))
    assert tally.failed == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"] and value > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(Path(run.BENCH.name) / "run.py"), "--workload", "flow-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
