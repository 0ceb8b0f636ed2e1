"""Batched evaluation of check cells: the engine behind sweeps and searches.

A cell is one (kind, alpha, beta) check run on ``trials`` pairs.  The cells
of a run are those of a grid, alpha points x beta points x kinds in that
order, and a batch works out its cells from their indices, so a run holds
no list of them.  The engine takes the (cell, trial) rows of the grid in
order, at most ``BATCH_ROWS`` at a time, groups a batch by width class
(the dimension rounded up to ``CLASS_WIDTH``) into zero-padded (k, m)
arrays and sends each class through the row kernels of ``lattice`` and
``entropy`` once, with one dimension and one (alpha, beta) per row.  The
padding is exact: the kernels leave a row's bits as they are at its own
length.  The margins go back into row order, so each cell's worst margin,
first violation and first failure are those of a trial-by-trial loop over
:func:`~majent.properties.run_check`.  The record of a cell's first
violation is that loop's own: the engine runs the row's pair through
``run_check`` once, and margin bits that differ from the batch's are an
error.  The kernels build no error: a row that ``family_rows`` flags runs
through ``run_check`` the same way and raises the trial's error.

The draws come from one Philox bit generator per :func:`run_cells` call.
Each trial resets its key to ``search.trial_key``, with counter 0 and an
empty buffer, the state a fresh keyed stream starts in, so the draws are
those of ``search.trial_stream`` and ``search.sample_simplex``.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .entropy import EntropyParams, family_rows
from .lattice import bound_rows, row_distribution, sorted_rows
from .properties import _CHECKS, CHECK_TOL, PropertyKind, oriented_sides, run_check
from .reference import REFERENCE_PAIRS, CounterexampleRecord
from .search import TrialEvaluationError, trial_key

#: Most (cell, trial) rows evaluated at once.  The arrays of a batch hold a
#: few times this many rows of up to 2n floats, whatever the sweep's size.
BATCH_ROWS = 1024

#: Rows are zero-padded to a multiple of this width, and a batch runs the
#: kernels once per width class.  Eight float64 fill one 64-byte cache
#: line, so a row wastes fewer than 8 entries, while the dimensions of a
#: typical sweep share one or a few classes instead of one group each.
CLASS_WIDTH = 8


class _Grid(NamedTuple):
    """The cells, trials and seed of a run.  With K kinds and B beta points,
    cell c checks ``kinds[c % K]`` at alpha ``alphas[c // (B * K)]`` and beta
    ``betas[c // K % B]``."""

    alphas: np.ndarray
    betas: np.ndarray
    kinds: tuple[PropertyKind, ...]
    dims: np.ndarray
    trials: int
    seed: int

    def columns(self, cell):
        """(index into ``kinds``, alpha, beta) of a cell index or an array of them."""
        k, b = len(self.kinds), len(self.betas)
        return cell % k, self.alphas[cell // (k * b)], self.betas[cell // k % b]

    def check(self, c: int) -> tuple[PropertyKind, EntropyParams]:
        """The kind and params of cell ``c``."""
        i, alpha, beta = self.columns(c)
        return self.kinds[i], EntropyParams(float(alpha), float(beta))


def draw_pairs(
    gen: np.random.Generator, seed: int, cells: np.ndarray, trials: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs that two ``sample_simplex(n, trial_stream(seed, c, t))``
    calls draw for each (c, t), as two (k, n) arrays of sorted rows.

    ``gen`` runs on a Philox bit generator.  Each trial sets its key, with
    counter 0 and an empty buffer, and draws its 2n exponentials in one
    call.  The rows are normalized at their own length: numpy's pairwise
    ``sum`` associates differently on a longer row.
    """
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    seed_word, words = trial_key(seed, cells.astype(np.uint64), trials.astype(np.uint64))
    bit_generator, standard_exponential = gen.bit_generator, gen.standard_exponential
    draws = np.empty((len(cells), 2 * n))
    for row, word in zip(draws, words.tolist()):
        state["state"]["key"] = [seed_word, word]
        bit_generator.state = state
        standard_exponential(out=row)
    p, q = draws[:, :n], draws[:, n:]
    return (
        sorted_rows(p / p.sum(axis=1, keepdims=True)),
        sorted_rows(q / q.sum(axis=1, keepdims=True)),
    )


class _Batch:
    """Consecutive (cell, trial) rows, evaluated at once.

    ``margin`` and ``failed`` are in row order; :meth:`replay` runs one row
    through :func:`~majent.properties.run_check`.  Rows are evaluated in
    width classes: a row of dimension n is zero-padded to n rounded up to
    ``CLASS_WIDTH``, and the rows of a class, joined or not, go through the
    kernels as one array.
    """

    def __init__(self, gen, grid: _Grid, cell, trial):
        self.cell, self.trial = cell, trial
        k = len(cell)
        kind_index, alpha, beta = grid.columns(cell)
        self.ref = (alpha >= 0.0) & (trial < len(REFERENCE_PAIRS))
        self.dims = grid.dims[trial % len(grid.dims)]
        for t, ref in enumerate(REFERENCE_PAIRS):
            self.dims[self.ref & (trial == t)] = ref.p.dim
        joined_rows = np.array([_CHECKS[kind][0] for kind in grid.kinds])[kind_index]
        self.width = -(-self.dims // CLASS_WIDTH) * CLASS_WIDTH
        values = np.full((4, k), np.nan)  # S(p), S(q), S(meet), S(join)
        self.failed = np.zeros(k, dtype=bool)
        self.classes = {}
        self.index = np.empty(k, dtype=np.intp)  # each row's index in its class
        for width in sorted(set(self.width.tolist())):
            at = np.flatnonzero(self.width == width)
            n, joined = self.dims[at], joined_rows[at]
            pairs = np.zeros((2, len(at), width))
            p, q = pairs
            drawn = ~self.ref[at]
            for d in sorted(set(n[drawn].tolist())):
                rows = np.flatnonzero(drawn & (n == d))
                p[rows, :d], q[rows, :d] = draw_pairs(
                    gen, grid.seed, cell[at[rows]], trial[at[rows]], d
                )
            for t, ref in enumerate(REFERENCE_PAIRS):
                rows = ~drawn & (trial[at] == t)
                p[rows, : ref.p.dim], q[rows, : ref.q.dim] = ref.p.weights, ref.q.weights
            meets, joins = bound_rows(pairs, joined)
            self.classes[width] = pairs
            self.index[at] = np.arange(len(at))
            owner = np.concatenate([at, at, at, at[joined]])
            vals, failed = family_rows(
                np.concatenate([p, q, meets, joins]), alpha[owner], beta[owner], self.dims[owner]
            )
            values[:3, at] = vals[: 3 * len(at)].reshape(3, -1)
            values[3, at[joined]] = vals[3 * len(at) :]
            self.failed[owner[failed]] = True
        self.margin = np.empty(k)
        for i, kind in enumerate(grid.kinds):
            rows = kind_index == i
            if rows.any():
                with np.errstate(all="ignore"):  # inf - inf is a nan margin
                    _, _, self.margin[rows] = oriented_sides(
                        kind, alpha[rows], beta[rows], *values[:, rows]
                    )

    def replay(self, grid: _Grid, r: int) -> CounterexampleRecord:
        """Row ``r``'s check, as :func:`~majent.properties.run_check` gives
        it for the row's pair, with its replay key.

        The error of a failing row comes out as
        :class:`~majent.search.TrialEvaluationError`.  A replay that
        disagrees with the batch, a failed row that evaluates or other
        margin bits, raises RuntimeError.
        """
        c, t = int(self.cell[r]), int(self.trial[r])
        kind, params = grid.check(c)
        p, q = self.classes[int(self.width[r])][:, self.index[r], : self.dims[r]]
        try:
            check = run_check(kind, row_distribution(p), row_distribution(q), params)
        except (ValueError, OverflowError) as err:
            # A C library error carries (errno, message).
            raise TrialEvaluationError(
                f"evaluation failed: {kind.value} at alpha={params.alpha}, "
                f"beta={params.beta}, seed {grid.seed}, cell {c}, trial {t}: {err.args[-1]}"
            ) from err
        # .hex() spells every nan alike, so a nan margin matches a nan margin.
        if self.failed[r] or check.margin.hex() != self.margin[r].hex():
            raise RuntimeError("the batched and the single-pair evaluation disagree")
        source = REFERENCE_PAIRS[t].name if self.ref[r] else "random"
        return CounterexampleRecord(check, grid.seed, c, t, source)


def run_cells(
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    kinds: Sequence[PropertyKind],
    dims: Sequence[int],
    trials: int,
    seed: int,
) -> Iterator[tuple[float, CounterexampleRecord | None]]:
    """Yield (worst margin, first counterexample) for each cell of the grid
    alpha x beta x kinds, in that order.

    Cell ``i`` of that order has cell index ``i``.  The pairs of
    ``reference.REFERENCE_PAIRS`` are its leading trials whenever the order is
    non-negative (they may contain a zero weight, so negative orders skip
    them); the rest are fresh samples with the dimension cycling through
    ``dims``.  A cell without a violation has None for its counterexample.
    A trial whose evaluation fails is replayed through
    :func:`~majent.properties.run_check`, and the error it raises comes out
    as :class:`~majent.search.TrialEvaluationError`; as in a trial-by-trial
    loop, the first failing trial of a cell raises before the cell is
    yielded.

    The cells of a batch are tallied at once: ``np.minimum.reduceat``
    gives each cell's least margin (nan ranked as inf, and the first of
    equal margins wins, as in a strict ``<`` loop) and ``np.searchsorted``
    its first violating row, a nan margin counting as a violation.  A cell
    that runs over several batches keeps its worst margin and first
    violation from the earliest batch that set them, and replays at most
    one row for its counterexample.
    """
    # Every trial sets its own key; a fixed one here draws no OS entropy.
    gen = np.random.Generator(np.random.Philox(key=0))
    grid = _Grid(
        np.array(alpha_grid, dtype=float),
        np.array(beta_grid, dtype=float),
        tuple(kinds),
        np.array(dims),
        trials,
        seed,
    )
    total = len(grid.alphas) * len(grid.betas) * len(grid.kinds) * trials
    worst, first = math.inf, None
    for start in range(0, total, BATCH_ROWS):
        cell, trial = np.divmod(np.arange(start, min(start + BATCH_ROWS, total)), trials)
        batch = _Batch(gen, grid, cell, trial)
        # Cell c0 + j holds the batch's rows lo[j] to hi[j] - 1.
        c0 = int(cell[0])
        lo = np.maximum(np.arange(c0, int(cell[-1]) + 1) * trials - start, 0)
        hi = np.append(lo[1:], len(cell)).tolist()
        # Each cell's first row with its least margin, nan ranked as inf.
        ranked = np.where(np.isnan(batch.margin), math.inf, batch.margin)
        least = np.flatnonzero(ranked == np.minimum.reduceat(ranked, lo)[cell - c0])
        worsts = batch.margin[least[np.searchsorted(least, lo)]].tolist()
        # Each cell's first row that does not hold; len(cell) stands for none.
        hits = np.append(np.flatnonzero(~(batch.margin >= -CHECK_TOL)), len(cell))
        firsts = hits[np.searchsorted(hits, lo)].tolist()
        failed = np.flatnonzero(batch.failed)
        failed_cell = int(cell[failed[0]]) if failed.size else -1
        for c, margin, r, end in zip(range(c0, c0 + len(lo)), worsts, firsts, hi):
            if c == failed_cell:
                batch.replay(grid, int(failed[0]))  # raises: the row failed
            if margin < worst:
                worst = margin
            if first is None and r < end:
                first = batch.replay(grid, r)
            if start + end == (c + 1) * trials:
                yield worst, first
                worst, first = math.inf, None
