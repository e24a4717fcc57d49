"""The estimate gate's fast subset: each estimator's H and slope_se within
1e-12 relative of the committed values (``tests/gate.py``;
``scripts/estimate_gate.py`` checks the whole corpus)."""

import math

import pytest

import gate


@pytest.fixture(scope="module")
def committed():
    return gate.committed()


def test_the_committed_values_cover_the_corpus_and_nothing_else(committed):
    assert list(committed) == list(gate.CASES)
    assert len(gate.CASES) == 330 and set(gate.FAST) < set(gate.CASES)


@pytest.mark.parametrize("case", gate.FAST)
def test_estimates_stay_within_the_bound(committed, case):
    moves = gate.relative_moves(committed[case], gate.measure(case))
    assert {name: move for name, move in moves.items() if not move <= gate.BOUND} == {}


def test_the_comparison_flags_a_move_over_the_bound_and_a_changed_refusal():
    want = {"rs": [(0.75).hex(), (0.01).hex()], "wavelet": "ERR:SeriesTooShort", "local_whittle": [(0.8).hex(), None]}
    inside = {"rs": [(0.75 * (1 + 5e-13)).hex(), (0.01).hex()], "wavelet": "ERR:SeriesTooShort",
              "local_whittle": [(0.8).hex(), None]}
    assert max(gate.relative_moves(want, inside).values()) <= gate.BOUND
    over = dict(inside, rs=[(0.75 * (1 + 4e-12)).hex(), (0.01).hex()])
    assert gate.relative_moves(want, over)["rs.hurst"] > gate.BOUND
    refused = dict(inside, local_whittle="ERR:BandwidthOutOfRange")
    assert gate.relative_moves(want, refused)["local_whittle.hurst"] == math.inf
    assert gate.relative_moves(want, dict(inside, wavelet=[(0.7).hex(), (0.1).hex()]))["wavelet.hurst"] == math.inf
