"""The benchmark tracer finds every name it patches on the CLI and harness.

``perfbench/tracer.py`` wraps functions where the program looks them up
(``hurstkit.cli.gen_fgn``, ``hurstkit.cli.run_matrix``, ...), so those
names must stay importable there and the CLI must keep calling through
them.  This runs a tiny ``generate`` and ``matrix`` under the tracer and
checks that the spans arrive.
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
