"""A matrix cell is the library calls its row names, composed by hand.

Each cell's H must equal, bit for bit (``float.hex``), the H that
``estimate`` gives on the series built from the run's generator, its
corruption seed (run seed + 2**32) and the row's filter; a cell that
failed must carry the class name of the exception that call raised.
"""

import numpy as np
import pytest

import hurstkit as hk
from hurstkit import (
    CellError,
    CorruptionKind,
    ExperimentSpec,
    FileSource,
    FilterKind,
    GeneratorSource,
    run_matrix,
)
from hurstkit.cli import main

CORRUPTIONS = {"AR(1)": CorruptionKind.ar1(), "Sin": CorruptionKind.sine(), "Trend": CorruptionKind.linear_trend()}
FILTERS = {"Log": FilterKind.log(), "Trend": FilterKind.linear_detrend(), "Poly": FilterKind.poly_detrend()}


def _by_hand(build, row):
    """Each method's ``float.hex`` of H, or the class name of what
    ``build(row)`` or the estimate raised."""
    try:
        series = build(row)
    except hk.HurstkitError as exc:
        return {method: type(exc).__name__ for method in hk.METHOD_ORDER}
    out = {}
    for method in hk.METHOD_ORDER:
        try:
            out[method] = hk.estimate(series, method).hurst.hex()
        except hk.HurstkitError as exc:
            out[method] = type(exc).__name__
    return out


def _row(matrix, idx):
    cells = [(method, matrix.cells[(idx, method)]) for method in matrix.methods]
    return {m: cell.code if isinstance(cell, CellError) else cell.hurst.hex() for m, cell in cells}


@pytest.mark.parametrize("n", [4096, 100], ids=["4096", "100-some-estimators-refuse"])
def test_fgn_matrix_cells_equal_the_hand_built_series(n):
    spec = ExperimentSpec(
        source=GeneratorSource(model="fgn", n=n, hurst=0.75),
        corruptions=(None, *CORRUPTIONS.values()),
        runs=2,
        base_seed=5,
    )
    matrix = run_matrix(spec)
    assert [(row.run, row.label) for row in matrix.rows] == [
        (run, label) for run in (0, 1) for label in ("None", *CORRUPTIONS)
    ]

    def build(row):
        series = hk.gen_fgn(hk.FgnSpec(hurst=0.75, n=n, seed=row.seed))
        return series if row.label == "None" else hk.corrupt(series, CORRUPTIONS[row.label], seed=row.seed + 2**32)

    for idx, row in enumerate(matrix.rows):
        assert _row(matrix, idx) == _by_hand(build, row), row
    codes = {cell.code for cell in matrix.cells.values() if isinstance(cell, CellError)}
    assert codes == (set() if n == 4096 else {"SeriesTooShort"})


@pytest.mark.parametrize("data", ["fgn", "positive"])
def test_file_matrix_cells_equal_the_hand_filtered_series(tmp_path, data):
    values = hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=4096, seed=3)).values
    path = tmp_path / "series.txt"
    with open(path, "w") as fh:
        hk.write_series(hk.TimeSeries(np.exp(values) if data == "positive" else values), fh)
    spec = ExperimentSpec(source=FileSource(str(path)), filters=(None, *FILTERS.values()))
    matrix = run_matrix(spec)
    assert [row.label for row in matrix.rows] == ["None", *FILTERS]

    def build(row):
        with open(path, "rb") as fh:
            series = hk.read_series(fh)
        return series if row.label == "None" else hk.apply_filter(series, FILTERS[row.label])

    for idx, row in enumerate(matrix.rows):
        assert _row(matrix, idx) == _by_hand(build, row), row
    log_errors = {cell.code for (idx, _), cell in matrix.cells.items() if idx == 1 and isinstance(cell, CellError)}
    assert log_errors == ({"NonPositiveData"} if data == "fgn" else set())


def test_cli_generate_then_corrupt_equals_the_matrix_cell(tmp_path):
    seed = 7
    spec = ExperimentSpec(
        source=GeneratorSource(model="fgn", n=4096, hurst=0.75),
        corruptions=(CorruptionKind.ar1(),),
        base_seed=seed,
    )
    matrix = run_matrix(spec)
    assert [row.label for row in matrix.rows] == ["AR(1)"]
    fgn, noisy = tmp_path / "fgn.txt", tmp_path / "noisy.txt"
    assert main(["generate", "--model", "fgn", "--h", "0.75", "--n", "4096", "--seed", str(seed),
                 "--out", str(fgn)]) == 0
    assert main(["corrupt", "--kind", "ar1", "--seed", str(seed + 2**32),
                 "--in", str(fgn), "--out", str(noisy)]) == 0
    with open(noisy, "rb") as fh:
        series = hk.read_series(fh)
    want = {method: hk.estimate(series, method).hurst.hex() for method in hk.METHOD_ORDER}
    assert _row(matrix, 0) == want
