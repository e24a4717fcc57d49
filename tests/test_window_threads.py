"""The plain-decimal kernel reads its windows on several threads.

The columns must not depend on the thread count, a parse must leave no
thread behind, and the serial pass that cuts the windows must decline
only text the kernel would decline anyway.
"""

import io
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import parse_packet_trace, read_series
from hurstkit import series
from hurstkit.series import _SERIES_LINE, _TRACE_LINE, _cut_windows, _decimal_columns

# float64 midpoints (and one just past one): their quotients are read again with float()
MIDPOINTS = ["9007199254740993.0", "4503599627370496.5", "4503599627370497.5", "0.50000000000000005"]


def _trace_text(count, stamps=()):
    rows = [f"{i}.{(i * 7919) % 100000:05d} {40 + i % 1461}" for i in range(count)]
    rows[count // 2 : count // 2 + len(stamps)] = [f"{t} {i}" for i, t in enumerate(stamps)]
    return "".join(f"{row}\n" for row in rows)


def _series_text(count, values=()):
    rows = [f"{(i * 7919) % 100003}.{i % 10}" for i in range(count)]
    rows[count // 2 : count // 2 + len(values)] = values
    return "".join(f"{row}\n" for row in rows)


def _columns(monkeypatch, threads, text, line):
    monkeypatch.setattr(series, "_thread_cpus", lambda windows: [None] * threads)
    columns = _decimal_columns(text.encode("ascii"), line)
    return None if columns is None else [column.tobytes() for column in columns]


def _windows(text, line):
    buf = text.encode("ascii")
    return _cut_windows(buf, np.frombuffer(buf, np.uint8), len(line))[0]


def _by_float(text, line):
    """The columns as float() and int() read each line."""
    rows = [row.split(" ") for row in text.removesuffix("\n").split("\n")]
    columns = [np.array([float(row[0]) for row in rows])]
    if line == _TRACE_LINE:
        columns.append(np.array([int(row[1]) for row in rows], np.int64))
    return [column.tobytes() for column in columns]


@pytest.mark.parametrize("line, text", [(_TRACE_LINE, _trace_text(3000, MIDPOINTS)),
                                        (_SERIES_LINE, _series_text(4000, MIDPOINTS))], ids=["trace", "series"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_columns_do_not_depend_on_the_thread_count(monkeypatch, line, text, final_newline):
    monkeypatch.setattr(series, "_WINDOW", 2048)
    text = text if final_newline else text[:-1]
    windows = _windows(text, line)
    assert len(windows) > 10
    late = text.index(MIDPOINTS[0])
    assert any(start > 0 and start <= late < stop for start, stop, _ in windows)  # a later window
    one = _columns(monkeypatch, 1, text, line)
    assert one == _by_float(text, line)
    assert _columns(monkeypatch, 3, text, line) == one


def test_columns_at_full_window_size_do_not_depend_on_the_thread_count(monkeypatch):
    text = _trace_text(130_000, MIDPOINTS)
    assert len(_windows(text, _TRACE_LINE)) >= 3
    one = _columns(monkeypatch, 1, text, _TRACE_LINE)
    assert one == _by_float(text, _TRACE_LINE)
    assert _columns(monkeypatch, 3, text, _TRACE_LINE) == one


@pytest.mark.parametrize(
    "line, text, bad, parse",
    [
        (_TRACE_LINE, _trace_text(3000), "7.5.40", parse_packet_trace),  # as many separators as a line
        (_SERIES_LINE, _series_text(4000), "7 5", read_series),
    ],
    ids=["trace", "series"],
)
def test_a_decline_in_the_last_window_keeps_the_scanners_diagnostic(monkeypatch, line, text, bad, parse):
    monkeypatch.setattr(series, "_WINDOW", 2048)
    lines = text.split("\n")
    lines[-3] = bad
    text = "\n".join(lines)
    windows = _windows(text, line)
    assert windows[-1][0] <= text.index(bad)  # only the last window declines
    diagnostics = set()
    for threads in (1, 3):
        assert _columns(monkeypatch, threads, text, line) is None
        with pytest.raises(hk.MalformedLine) as exc:
            parse(io.BytesIO(text.encode("ascii")))
        diagnostics.add(str(exc.value))
    assert diagnostics == {f"line {len(lines) - 2}: " + (
        f"expected '<timestamp> <size>', got {bad!r}" if line == _TRACE_LINE else f"not a decimal value: {bad!r}"
    )}


def test_crlf_text_reads_the_same_on_any_thread_count(monkeypatch):
    monkeypatch.setattr(series, "_WINDOW", 2048)
    text = _trace_text(3000)
    crlf = text.replace("\n", "\r\n").encode("ascii")
    columns = set()
    for threads in (1, 3):
        monkeypatch.setattr(series, "_thread_cpus", lambda windows: [None] * threads)
        trace = parse_packet_trace(io.BytesIO(crlf))
        columns.add((trace.timestamps.tobytes(), trace.sizes.tobytes()))
    assert columns == {tuple(_by_float(text, _TRACE_LINE))}


@pytest.mark.parametrize("declines", [False, True])
def test_a_parse_leaves_no_thread_behind(monkeypatch, declines):
    monkeypatch.setattr(series, "_WINDOW", 2048)
    monkeypatch.setattr(series, "_thread_cpus", lambda windows: [None] * 3)
    text = _trace_text(3000) + ("1.5.4\n" if declines else "")
    before = threading.active_count()
    assert (_decimal_columns(text.encode("ascii"), _TRACE_LINE) is None) == declines
    assert threading.active_count() == before


def test_more_threads_than_cpus_switching_often_read_every_window_once(monkeypatch):
    monkeypatch.setattr(series, "_WINDOW", 256)
    text = _trace_text(3000, MIDPOINTS)
    assert len(_windows(text, _TRACE_LINE)) > 100
    want = _by_float(text, _TRACE_LINE)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _columns(monkeypatch, 6, text, _TRACE_LINE) == want
    finally:
        sys.setswitchinterval(interval)

@pytest.mark.parametrize("cpus, windows", [(2, 21), (64, 21), (64, 3), (5, 2)])
def test_window_threads_split_the_cpus_between_them(monkeypatch, cpus, windows):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100, 100 + cpus)))
    sets = series._thread_cpus(windows)
    assert len(sets) == min(cpus, windows, series._MAX_THREADS)
    assert set().union(*sets) == set(range(100, 100 + cpus))
    assert sum(map(len, sets)) == cpus
    assert max(map(len, sets)) - min(map(len, sets)) <= 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs it can name")
def test_each_window_thread_keeps_to_its_cpus_and_the_caller_gets_its_cpus_back(monkeypatch):
    monkeypatch.setattr(series, "_WINDOW", 16384)
    read = series._read_window
    masks = set()

    def reading(*args):
        masks.add((threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return read(*args)

    monkeypatch.setattr(series, "_read_window", reading)
    before = os.sched_getaffinity(0)
    assert _decimal_columns(_trace_text(30000).encode("ascii"), _TRACE_LINE) is not None
    assert os.sched_getaffinity(0) == before
    threads = {ident for ident, _ in masks}
    sets = {mask for _, mask in masks}
    assert len(threads) == len(sets) > 1  # one set per thread
    assert sum(map(len, sets)) == len(set().union(*sets)) and set().union(*sets) <= before  # disjoint


def test_one_window_or_one_cpu_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(series, "ThreadPoolExecutor", no_pool)
    text = _trace_text(3000)
    assert _decimal_columns(text.encode("ascii"), _TRACE_LINE) is not None  # one 1-MiB window
    monkeypatch.setattr(series, "_WINDOW", 2048)
    monkeypatch.setattr(series, "_thread_cpus", lambda windows: [None])
    assert _decimal_columns(text.encode("ascii"), _TRACE_LINE) is not None


# --- the window cutter declines only what the kernel declines ---------------

_FIELD = st.text("0123456789", min_size=1, max_size=10)
_SHAPES = {_TRACE_LINE: re.compile(r"([0-9]+)\.([0-9]+) ([0-9]+)"), _SERIES_LINE: re.compile(r"([0-9]+)\.([0-9]+)")}


def _in_grammar(text, line):
    """Whether every line is the kernel's shape, with at most 18 digits per
    number and in the decimal (the last newline optional)."""
    rows = text.removesuffix("\n").split("\n")
    for row in rows:
        match = _SHAPES[line].fullmatch(row)
        if match is None or len(match[1]) + len(match[2]) > 18 or max(map(len, match.groups())) > 18:
            return False
    return True


@st.composite
def _near_kernel_text(draw, line):
    """Kernel lines with a few bytes inserted or dropped."""
    size = st.text("0123456789", min_size=1, max_size=19) if line == _TRACE_LINE else st.just(None)
    rows = draw(st.lists(st.tuples(_FIELD, _FIELD, size), min_size=1, max_size=25))
    text = "".join(f"{w}.{f}\n" if s is None else f"{w}.{f} {s}\n" for w, f, s in rows)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text) - 1))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from("-+# \t\n.5")) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([_TRACE_LINE, _SERIES_LINE]), st.sampled_from([48, 64, 1 << 20]))
def test_the_window_cutter_never_declines_text_the_kernel_reads(data, line, window):
    text = data.draw(_near_kernel_text(line))
    buf = text.encode("ascii")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_WINDOW", window)
        if _in_grammar(text, line):
            assert _cut_windows(buf, np.frombuffer(buf, np.uint8), len(line)) is not None
            assert _decimal_columns(buf, line) is not None
        else:
            assert _decimal_columns(buf, line) is None
