"""Smoke tests for the measuring scripts under scripts/: each is loaded by path and
run on a small input, so a change to what it wraps cannot break it unnoticed."""

import importlib.util
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
