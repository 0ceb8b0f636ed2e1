"""Batched evaluation of check cells: the engine behind sweeps and searches.

A run is a validated :class:`~majent.search.SweepConfig`, and a cell one
(kind, alpha, beta) check of its grid on ``trials_per_cell`` pairs.  Cells
are found by index in the order of :class:`_Grid`; a run holds no list of
them, and yields each finished :class:`~majent.search.CellReport`.  The
engine takes the (cell, trial) rows of the grid in order, at most
``BATCH_ROWS`` at a time, and sends each width class of a batch through
the row kernels of ``lattice`` and ``entropy`` once
(:func:`_evaluate_batch`).  A batch keeps only its margins, in row order,
and which rows failed, so each cell's worst margin, first violation and
first failure are those of a trial-by-trial loop over
:func:`~majent.properties.run_check`, and a cell's first violation or
failed row is replayed from its key (:func:`_replay`).  Pairs are drawn
on one Philox generator per :func:`run_cells` call, so runs share none.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .entropy import EntropyParams, family_rows
from .lattice import bound_rows
from .properties import _CHECKS, CHECK_TOL, oriented_sides, run_check
from .reference import REFERENCE_PAIRS, CounterexampleRecord
from .search import CellReport, SweepConfig, TrialEvaluationError, draw_pairs, trial_pair

#: Most (cell, trial) rows evaluated at once.  The arrays of a batch hold a
#: few times this many rows of up to 2n floats, whatever the sweep's size.
BATCH_ROWS = 1024

#: Rows are zero-padded to a multiple of this width, and a batch runs the
#: kernels once per width class.  Eight float64 fill one 64-byte cache
#: line, so a row wastes fewer than 8 entries, while the dimensions of a
#: typical sweep share one or a few classes instead of one group each.
CLASS_WIDTH = 8


class _Grid(NamedTuple):
    """A run's config and the arrays of its grid and dims.  Cells run alpha
    x beta x properties: with K kinds and B beta points, cell c checks
    ``config.properties[c % K]`` at alpha ``alpha_grid[c // (B * K)]`` and
    beta ``beta_grid[c // K % B]``."""

    config: SweepConfig
    alphas: np.ndarray
    betas: np.ndarray
    dims: np.ndarray

    def columns(self, cell):
        """The indices into the kinds, the alpha grid and the beta grid of a
        cell index or an array of them."""
        k, b = len(self.config.properties), len(self.betas)
        return cell % k, cell // (k * b), cell // k % b


def _is_reference(alpha, trial):
    """Whether a trial at order ``alpha`` takes ``REFERENCE_PAIRS[trial]``."""
    return (alpha >= 0.0) & (trial < len(REFERENCE_PAIRS))


def evaluate(pairs, dims, alpha, beta, joined) -> tuple[np.ndarray, np.ndarray]:
    """S(p), S(q), S(p meet q) and, where ``joined``, S(p join q) (else nan)
    for each row of (2, k, m) pairs zero-padded past ``dims``, at the row's
    alpha and beta, as a (4, k) array; and which rows ``family_rows`` flags.
    An ordered row's meet and join are its operands (``bound_rows``), so
    their values are copies of S(p) and S(q); only a crossing row's bounds
    go through ``family_rows``, whose zero-weight rule alone reads ``dims``."""
    k = len(dims)
    order, meets, joins = bound_rows(pairs, joined)
    at = np.arange(k)
    cross = order == 0
    cross_joined = cross & joined
    owner = np.concatenate([at, at, at[cross], at[cross_joined]])
    vals, flagged = family_rows(
        np.concatenate([*pairs, meets, joins]), alpha[owner], beta[owner], dims[owner]
    )
    values = np.empty((4, k))
    # An ordered row's meet is its lower operand and its join the upper one.
    values[:2] = values[2:] = vals[: 2 * k].reshape(2, -1)
    swap = order == 2
    values[2:, swap] = values[1::-1, swap]
    values[2, cross] = vals[2 * k : 2 * k + len(meets)]
    values[3, cross_joined] = vals[2 * k + len(meets) :]
    values[3, ~joined] = np.nan
    failed = np.zeros(k, dtype=bool)
    failed[owner[flagged]] = True
    return values, failed


def _runs(key: np.ndarray):
    """(start, end) of each run of equal entries of the 1-d ``key``."""
    edges = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
    return zip(edges, edges[1:])


def _evaluate_batch(gen, grid: _Grid, cell, trial) -> tuple[np.ndarray, np.ndarray]:
    """The margin of each (cell, trial) row, and which rows failed.  A row of
    dimension n is zero-padded to n rounded up to ``CLASS_WIDTH``, and each
    width class goes through :func:`evaluate` once, joined or not.  The rows
    are sorted by the source of their pair alone, reference pairs first:
    none is wider than ``CLASS_WIDTH``, so the widths never descend, each
    class is one slice of the sorted rows and each source one slice of its
    class.  Each kind's margin is taken of every
    row, and each row keeps its own kind's: a few operations on whole
    arrays cost less than selecting each kind's rows."""
    kind_index, alpha_at, beta_at = grid.columns(cell)
    alpha = grid.alphas[alpha_at]
    ref = _is_reference(alpha, trial)
    dims = grid.dims[trial % len(grid.dims)]
    for t, pair in enumerate(REFERENCE_PAIRS):
        dims[ref & (trial == t)] = pair.p.dim
    # A pair's source: the dimension of a draw, or -1 - t for REFERENCE_PAIRS[t].
    source = np.where(ref, -1 - trial, dims)
    order = np.argsort(source, kind="stable")
    cell, trial, dims, source = cell[order], trial[order], dims[order], source[order]
    kind_index, alpha, beta = kind_index[order], alpha[order], grid.betas[beta_at[order]]
    kinds, seed = grid.config.properties, grid.config.seed
    joined = np.array([_CHECKS[kind][0] for kind in kinds])[kind_index]
    values = np.empty((4, len(cell)))  # S(p), S(q), S(meet), S(join)
    failed = np.empty(len(cell), dtype=bool)
    width = -(-dims // CLASS_WIDTH) * CLASS_WIDTH
    for a, b in _runs(width):
        pairs = np.zeros((2, b - a, width.item(a)))
        p, q = pairs
        for lo, hi in _runs(source[a:b]):
            s, rows = source.item(a + lo), slice(a + lo, a + hi)
            if s >= 0:
                p[lo:hi, :s], q[lo:hi, :s] = draw_pairs(gen, seed, cell[rows], trial[rows], s)
            else:
                pair = REFERENCE_PAIRS[-1 - s]
                p[lo:hi, : pair.p.dim], q[lo:hi, : pair.q.dim] = pair.p.weights, pair.q.weights
        values[:, a:b], failed[a:b] = evaluate(pairs, dims[a:b], alpha[a:b], beta[a:b], joined[a:b])
    with np.errstate(all="ignore"):  # inf - inf is a nan margin
        margins = [oriented_sides(kind, alpha, beta, *values)[2] for kind in kinds]
    # Back to row order.
    margin, failed_rows = np.empty(len(cell)), np.empty(len(cell), dtype=bool)
    margin[order], failed_rows[order] = np.choose(kind_index, margins), failed
    return margin, failed_rows


def _replay(gen, grid: _Grid, c: int, t: int, margin: float, failed: bool) -> CounterexampleRecord:
    """The :func:`~majent.properties.run_check` record of trial ``t`` of cell
    ``c``, on the pair rebuilt from its replay key, with that key.  A failing
    check raises :class:`~majent.search.TrialEvaluationError`; a check that
    disagrees with the batch's row, ``failed`` or other margin bits, raises
    RuntimeError.

    A random pair is drawn by :func:`~majent.search.trial_pair` on ``gen``,
    never through ``draw_pairs``: a replay drawn by the batch's own code
    would repeat a draw off its key and agree with it.  Both set ``gen`` to
    the key's fresh state the same way, though, so a fault in that reset
    (say, a numpy that handles a set Philox state differently) would reach
    both alike; only the tests that compare them with a fresh
    :func:`~majent.search.trial_stream` show it."""
    config = grid.config
    i, a, b = grid.columns(c)
    kind, params = config.properties[i], EntropyParams(config.alpha_grid[a], config.beta_grid[b])
    if _is_reference(params.alpha, t):
        source, p, q = REFERENCE_PAIRS[t].name, REFERENCE_PAIRS[t].p, REFERENCE_PAIRS[t].q
    else:
        p, q = trial_pair(gen, config.seed, c, t, config.dims[t % len(config.dims)])
        source = "random"
    try:
        check = run_check(kind, p, q, params)
    except (ValueError, OverflowError) as err:
        # A C library error carries (errno, message).
        raise TrialEvaluationError(
            f"evaluation failed: {kind.value} at alpha={params.alpha}, "
            f"beta={params.beta}, seed {config.seed}, cell {c}, trial {t}: {err.args[-1]}"
        ) from err
    # .hex() spells every nan alike, so a nan margin matches a nan margin.
    if failed or check.margin.hex() != margin.hex():
        raise RuntimeError("the batched and the single-pair evaluation disagree")
    return CounterexampleRecord(check, config.seed, c, t, source)


def run_cells(config: SweepConfig) -> Iterator[CellReport]:
    """Yield the :class:`~majent.search.CellReport` of each cell of the grid
    of ``config``, alpha x beta x properties, in that order.

    Cell ``i`` of that order has cell index ``i``, and its report reads its
    alpha, beta and kind off ``i`` (:class:`_Grid`).  The pairs of
    ``reference.REFERENCE_PAIRS`` are its leading trials whenever the order is
    non-negative (they may contain a zero weight, so negative orders skip
    them); the rest are fresh samples with the dimension cycling through
    ``dims``.  A cell without a violation has None for its counterexample.
    A flagged row, a cell's first violation or a trial whose evaluation
    fails, is replayed from its key (:func:`_replay`); the error a failing
    trial raises comes out as :class:`~majent.search.TrialEvaluationError`,
    and as in a trial-by-trial loop, the first failing trial of a cell
    raises before the cell is yielded.

    The cells of a batch are tallied by ``np.minimum.reduceat`` over each
    cell's rows, of row indices under three masks: each cell's first row of
    least margin (nan ranked as inf; of equal margins the first, as a strict
    ``<`` loop keeps), failed row and violating row (a nan margin violates),
    or the batch's row count.  A cell that runs over several batches keeps its
    worst margin and first violation from the earliest batch that set
    them, and replays at most one row for its counterexample.
    """
    # Every trial sets its own key; a fixed one here draws no OS entropy.
    gen = np.random.Generator(np.random.Philox(key=0))
    grid = _Grid(config, np.array(config.alpha_grid), np.array(config.beta_grid), np.array(config.dims))
    trials = config.trials_per_cell
    total = grid.alphas.size * grid.betas.size * len(config.properties) * trials
    worst, first = math.inf, None
    for start in range(0, total, BATCH_ROWS):
        cell, trial = np.divmod(np.arange(start, min(start + BATCH_ROWS, total)), trials)
        margin, failed = _evaluate_batch(gen, grid, cell, trial)
        # Cell c0 + j holds the batch's rows lo[j] to hi[j] - 1.
        c0 = int(cell[0])
        lo = np.maximum(np.arange(c0, int(cell[-1]) + 1) * trials - start, 0)
        hi = np.append(lo[1:], len(cell)).tolist()
        # Each cell's first least (nan as inf), failed and violating row, or len(cell).
        ranked = np.where(np.isnan(margin), math.inf, margin)
        marks = [ranked == np.minimum.reduceat(ranked, lo)[cell - c0], failed, ~(margin >= -CHECK_TOL)]
        rows = np.where(marks, np.arange(len(cell)), len(cell))
        least, fails, hits = np.minimum.reduceat(rows, lo, axis=1).tolist()
        for c, w, f, r, end in zip(range(c0, c0 + len(lo)), least, fails, hits, hi):
            if f < end:  # the replay raises: the row failed
                _replay(gen, grid, c, int(trial[f]), margin.item(f), True)
            worst = min(worst, margin.item(w))
            if first is None and r < end:
                first = _replay(gen, grid, c, int(trial[r]), margin.item(r), bool(failed[r]))
            if start + end == (c + 1) * trials:
                i, a, b = grid.columns(c)
                alpha, beta, kind = config.alpha_grid[a], config.beta_grid[b], config.properties[i]
                yield CellReport(alpha, beta, kind, worst, trials, config.seed, first)
                worst, first = math.inf, None
