"""Smoke tests for the measuring scripts under scripts/: each is loaded by path and
run on a small input, so a change to what it wraps cannot break it unnoticed."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import hurstkit as hk
from hurstkit import ExperimentSpec, GeneratorSource

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fault_profile_meters_every_stage_of_a_pass():
    fault_profile = _load("fault_profile")
    spec = ExperimentSpec(
        source=GeneratorSource(model="fgn", n=4096, hurst=0.7),
        corruptions=(None, hk.CorruptionKind.ar1()),
        runs=1,
        base_seed=11,
    )
    meter = fault_profile._pass(spec)
    stages = {"rows", *hk.METHOD_ORDER, "pass", "run_matrix_self"}
    for totals in (meter.faults, meter.seconds, meter.peak_rise):
        assert set(totals) == stages
    assert meter.seconds["pass"] > 0.0
    assert all(rise >= 0.0 for name, rise in meter.peak_rise.items() if name != "run_matrix_self")
    assert hk.harness.estimate is hk.estimators.estimate  # the wrappers are taken off again


def test_matrix_profile_reports_each_size_from_a_fresh_process():
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["--n", "2048", "--n", "4096", "--passes", "1"]
    out = subprocess.run([sys.executable, str(SCRIPTS / "matrix_profile.py"), *args],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout)
    assert list(report) == ["2048", "4096"]
    stages = {"rows", *hk.METHOD_ORDER, "pass", "run_matrix_self"}
    for entry in report.values():
        assert set(entry["cold_s"]) == set(entry["warm_s"]) == stages
        assert entry["warm_s"]["pass"] > 0.0
        assert entry["peak_rss_mib"]["at_end"] >= entry["peak_rss_mib"]["after_cold_pass"] > 0.0
