"""R/S splits each block size's blocks over threads, on the reader's runner.

The ratios must keep every bit at any thread count, a call must leave no
thread behind and the caller's CPU set as it was, matrix cells on
``workers`` > 1 threads must not start more, and a platform that refuses
to pin a thread must get the same results, unpinned.
"""

import io
import os
import sys
import threading

import numpy as np
import pytest

import hurstkit as hk
from hurstkit import estimators, series
from hurstkit.estimators import _RS_STEPPED_BLOCKS, _log_grid, _rs_ratios
from hurstkit.harness import ExperimentSpec, GeneratorSource, run_matrix


def _reference(values, grid):
    """Mean R/S per size by plain per-block numpy: chunk.std and a per-row cumsum."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        walks = np.cumsum(chunk - chunk.mean(axis=1)[:, None], axis=1)
        rng_ = walks.max(axis=1) - walks.min(axis=1)
        std = chunk.std(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return [ratio.hex() for ratio in ratios]


def _series(n, offset):
    rng = np.random.default_rng(n)
    values = np.cumsum(rng.standard_normal(n)) * 0.01 + rng.standard_normal(n) + offset
    values[:5000] = offset + 3.0  # constant blocks: std == 0, skipped
    return values


def _ratios(monkeypatch, threads, values, grid):
    monkeypatch.setattr(estimators, "_thread_cpus", lambda parts: [None] * threads)
    return [ratio.hex() for ratio in _rs_ratios(values, grid)]


@pytest.mark.parametrize("n", [2**17, 98183, 10**6])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_ratios_do_not_depend_on_the_thread_count(monkeypatch, n, offset):
    values = _series(n, offset)
    grid = _log_grid(10, n // 10, 30)
    grid = np.concatenate([grid, [n // 2, n]])  # two blocks and one: fewer than the threads
    want = _reference(values, grid)
    for threads in (1, 2, 3):
        assert _ratios(monkeypatch, threads, values, grid) == want


def test_parts_on_both_sides_of_the_stepped_walk_threshold(monkeypatch):
    # 3 threads over 1535 blocks of 10 take 511, 512 and 512: one per-row cumsum, two stepped
    nblocks = 3 * _RS_STEPPED_BLOCKS - 1
    values = _series(10 * nblocks, 1e8)
    grid = np.array([10, 11, 3, 30])
    assert [nblocks * (t + 1) // 3 - nblocks * t // 3 for t in range(3)] == [511, 512, 512]
    want = _reference(values, grid)
    for threads in (1, 2, 3):
        assert _ratios(monkeypatch, threads, values, grid) == want


def test_more_threads_than_cpus_switching_often_keep_the_ratios(monkeypatch):
    values = _series(3 * 10**4, 0.0)
    grid = np.array([10, 16, 100, 1000, 30000])
    want = _reference(values, grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _ratios(monkeypatch, 6, values, grid) == want
    finally:
        sys.setswitchinterval(interval)


def test_a_constant_series_keeps_a_zero_ratio_on_every_thread(monkeypatch):
    values = np.full(2**16, 7.5)
    assert _ratios(monkeypatch, 3, values, np.array([16, 100, 1000])) == [(0.0).hex()] * 3


def test_est_rs_reports_do_not_depend_on_the_thread_count(monkeypatch):
    ts = hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=2**17, seed=3))
    reports = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(estimators, "_thread_cpus", lambda parts: [None] * threads)
        report = hk.est_rs(ts)
        reports.append((report.hurst.hex(), report.fit.ys.tobytes(), report.fit.slope_se.hex()))
    assert len(set(reports)) == 1


def _two_cpus(monkeypatch):
    """Two CPUs to split on any host; pinning is recorded, not done."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


def _recording_pools(monkeypatch):
    """Whether each pool the runner starts is started on the main thread."""
    started = []
    pool = series.ThreadPoolExecutor

    def recording(*args, **kwargs):
        started.append(threading.current_thread() is threading.main_thread())
        return pool(*args, **kwargs)

    monkeypatch.setattr(series, "ThreadPoolExecutor", recording)
    return started


@pytest.mark.parametrize("n, pools", [(2 * estimators._RS_PART - 1, 0), (2 * estimators._RS_PART, 1)])
def test_a_series_under_two_parts_runs_inline(monkeypatch, n, pools):
    _two_cpus(monkeypatch)
    started = _recording_pools(monkeypatch)
    _rs_ratios(_series(n, 0.0), np.array([16, 100]))
    assert started == [True] * pools


def test_off_the_main_thread_there_is_one_thread(monkeypatch):
    _two_cpus(monkeypatch)
    sets = []
    helper = threading.Thread(target=lambda: sets.append(series._thread_cpus(8)))
    helper.start()
    helper.join(timeout=10)
    assert not helper.is_alive()
    assert sets == [[None]]
    assert len(series._thread_cpus(8)) == 2


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs it can name")
def test_an_rs_call_leaves_no_thread_and_the_callers_cpus():
    values = _series(2**17, 0.0)
    before_threads, before_cpus = threading.active_count(), os.sched_getaffinity(0)
    assert len(estimators._thread_cpus(values.size // estimators._RS_PART)) > 1
    _rs_ratios(values, _log_grid(10, 2**17 // 10, 30))
    assert threading.active_count() == before_threads
    assert os.sched_getaffinity(0) == before_cpus


@pytest.mark.parametrize("failing", [0, 1])
def test_a_raising_part_leaves_no_thread_and_the_callers_cpus(failing):
    before_threads = threading.active_count()
    before_cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpu_sets = series._thread_cpus(3)
    cpu_sets = cpu_sets if len(cpu_sets) > 1 else [None, None]
    ran = []

    def work(thread):
        ran.append(thread)
        if thread == failing:
            raise RuntimeError(f"part {thread}")

    with pytest.raises(RuntimeError, match=f"part {failing}"):
        series._run_threads(cpu_sets, work)
    assert sorted(ran) == list(range(len(cpu_sets)))  # the other parts still ran
    assert threading.active_count() == before_threads
    if before_cpus is not None:
        assert os.sched_getaffinity(0) == before_cpus


@pytest.mark.parametrize("workers, pools", [(1, 1), (2, 0)])
def test_rs_in_matrix_cells_starts_threads_only_on_one_worker(monkeypatch, workers, pools):
    _two_cpus(monkeypatch)
    started = _recording_pools(monkeypatch)
    spec = ExperimentSpec(source=GeneratorSource(model="fgn", n=2**17), estimators=("rs",), workers=workers)
    run_matrix(spec)
    assert started == [True] * pools


def _refuse(pid, cpus):
    raise PermissionError(1, "Operation not permitted")


def test_a_refused_affinity_call_reads_and_estimates_the_same(monkeypatch):
    text = "".join(f"{v}.{v % 7}\n" for v in np.random.default_rng(9).integers(0, 10**6, 300_000).tolist())
    assert len(text) > 2_500_000  # three windows
    values = _series(2**17, 1e8)
    grid = _log_grid(10, 2**17 // 10, 30)
    want_values = series.read_series(io.BytesIO(text.encode("ascii"))).values.tobytes()
    want_ratios = _ratios(monkeypatch, 1, values, grid)

    monkeypatch.setattr(os, "sched_setaffinity", _refuse)
    monkeypatch.setattr(series, "_thread_cpus", lambda parts: [{0}, {0}, {0}])
    monkeypatch.setattr(estimators, "_thread_cpus", lambda parts: [{0}, {0}, {0}])
    before_threads = threading.active_count()
    assert series.read_series(io.BytesIO(text.encode("ascii"))).values.tobytes() == want_values
    assert [ratio.hex() for ratio in _rs_ratios(values, grid)] == want_ratios
    assert threading.active_count() == before_threads


def test_a_refused_affinity_query_runs_unpinned(monkeypatch):
    def refuse(pid):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "sched_getaffinity", refuse)
    assert series._thread_cpus(3) == [None] * min(3, os.cpu_count() or 1, series._MAX_THREADS)
