"""The benchmark tracer finds every name it patches on the CLI and harness.

``perfbench/tracer.py`` wraps functions where the program looks them up
(``hurstkit.cli.gen_fgn``, ``hurstkit.cli.run_matrix``, ...), so those
names must stay importable there and the CLI must keep calling through
them.  This runs tiny ``generate``, ``matrix``, ``ingest``, ``acf`` and
``estimate`` commands under the tracer and checks that the spans arrive,
so a refactor that bypasses a lookup site cannot silently zero a per-layer
metric.
"""

from pathlib import Path

import pytest

from hurstkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_generate_and_matrix_record_their_spans(tracer, tmp_path):
    out = tmp_path / "fgn.txt"
    assert main(["generate", "--model", "fgn", "--n", "64", "--seed", "1", "--out", str(out)]) == 0
    table = tmp_path / "table.csv"
    assert main(["matrix", "--source", "fgn", "--n", "2048", "--estimator", "aggvar", "--out", str(table)]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"generators.fgn", "harness.config", "harness.run_matrix", "harness.cell"} <= names
    assert tracer.counts["harness.cells"] == 1


def test_every_lookup_site_records_its_span(tracer, tmp_path):
    from perfbench.tracer import _SITES

    trace = tmp_path / "trace.txt"
    trace.write_text("".join(f"{i * 0.01:.2f} {40 + i % 3}\n" for i in range(4000)), encoding="ascii")
    bins, out = str(tmp_path / "bins.txt"), str(tmp_path / "out.txt")
    commands = [
        ["generate", "--model", "fgn", "--n", "64", "--seed", "1", "--out", out],
        ["generate", "--model", "farima", "--n", "64", "--seed", "1", "--out", out],
        ["matrix", "--source", "fgn", "--n", "2048", "--corruption", "none", "--corruption", "ar1",
         "--corruption", "sine", "--corruption", "trend", "--out", out],
        ["ingest", "--trace", str(trace), "--mode", "bins", "--bin-width", "0.02", "--out", bins],
        ["matrix", "--source", "file", "--path", bins, "--filter", "none", "--filter", "log",
         "--filter", "linear", "--filter", "poly", "--out", out],
        ["acf", "--in", bins, "--max-lag", "10", "--out", out],
        ["estimate", "--method", "rs", "--in", bins, "--out", out],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    names = {span[0] for span in tracer.spans}
    sites = {name for _, _, name in _SITES}
    assert len(sites) == 24
    assert sites - names == set()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_all_estimator_matrix_takes_one_periodogram_per_row(tracer, tmp_path, workers):
    argv = ["matrix", "--source", "fgn", "--n", "2048", "--runs", "2", "--corruption", "none",
            "--corruption", "ar1", "--corruption", "trend", "--workers", workers, "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    assert tracer.counts["harness.cells"] == 6 * 5
    assert sum(span[0] == "spectral.periodogram" for span in tracer.spans) == 6
