"""Plain reference forms of the estimators' kernels, for the bitwise tests and
the estimate gate (``tests/gate.py``).

Each is the textbook numpy form of what a kernel in ``hurstkit`` computes in
place, in threads or with reused buffers.  Where a kernel keeps the
reference's arithmetic, the tests require equal bits; where it changed the
order of an operation, the reference states the new order and the old form
stays here for the 1e-12 gate.
"""

from __future__ import annotations

import numpy as np

from hurstkit import estimators


def rs_ratios_per_row(values, grid):
    """Mean R/S per block size: a cumsum per block and chunk.std."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        walks = np.cumsum(chunk - chunk.mean(axis=1, keepdims=True), axis=1)
        rng_ = walks.max(axis=1) - walks.min(axis=1)
        std = chunk.std(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return ratios


def _group_walks(dev):
    """Each block's walk as a stretch of one running sum over each of the
    ``_MAX_THREADS`` runs of consecutive blocks that start at block
    ``nblocks * g // _MAX_THREADS``."""
    nblocks, groups = dev.shape[0], estimators._MAX_THREADS
    walks = np.empty_like(dev)
    for g in range(groups):
        a, b = nblocks * g // groups, nblocks * (g + 1) // groups
        walks[a:b] = np.cumsum(dev[a:b].ravel()).reshape(b - a, dev.shape[1])
    return walks


def rs_ratios(values, grid):
    """``estimators._rs_ratios``' arithmetic: rs_ratios_per_row with the walks
    of a size of fewer than ``_RS_STEPPED_BLOCKS`` blocks taken as running sums
    over runs of its blocks (``_group_walks``)."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        dev = chunk - chunk.mean(axis=1, keepdims=True)
        walks = np.cumsum(dev, axis=1) if nblocks >= estimators._RS_STEPPED_BLOCKS else _group_walks(dev)
        rng_ = walks.max(axis=1) - walks.min(axis=1)
        std = chunk.std(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return ratios


def rs_ratios_allocating(values, grid):
    """rs_ratios with the walks of a size of at least ``_RS_STEPPED_BLOCKS``
    blocks stepped over all blocks at once, fresh arrays for every size."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        dev = chunk - chunk.mean(axis=1)[:, None]
        std = chunk.std(axis=1)
        if nblocks >= estimators._RS_STEPPED_BLOCKS:
            walks = np.empty((block, nblocks))
            walks[0] = dev[:, 0]
            for k in range(1, block):
                np.add(walks[k - 1], dev[:, k], out=walks[k])
            rng_ = walks.max(axis=0) - walks.min(axis=0)
        else:
            walks = _group_walks(dev)
            rng_ = walks.max(axis=1) - walks.min(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return ratios


def aggvar_variances(values, sizes):
    """Variance of the block means per block size: ``chunk.mean(axis=1).var()``."""
    out = []
    for m in sizes:
        k = values.size // m
        out.append(float(values[: k * m].reshape(k, m).mean(axis=1).var()))
    return out


def local_whittle_objective(hurst, log_lam, mean_log, power):
    """The local Whittle objective with a fresh array for each step."""
    scaled = power * np.exp((2.0 * hurst - 1.0) * log_lam)
    return float(np.log(scaled.mean()) - (2.0 * hurst - 1.0) * mean_log)
