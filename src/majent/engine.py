"""Batched evaluation of check cells: the engine behind sweeps and searches.

A cell is one (kind, params) check run on ``trials`` pairs.  The engine
takes the (cell, trial) rows of a list of cells in order, at most
``BATCH_ROWS`` at a time, groups a batch by width class (the dimension
rounded up to ``CLASS_WIDTH``) into zero-padded (k, m) arrays and sends
each class through the row kernels of ``lattice`` and ``entropy`` once,
with one dimension and one (alpha, beta) per row.  The padding is exact:
the kernels leave a row's bits as they are at its own length.  The
margins go back into row order, so each cell's worst margin, first
violation and first failure are those of a trial-by-trial loop over
:func:`~majent.properties.run_check`, and the record of a violation,
built from the batch, equals that loop's bit for bit.

The draws come from one Philox bit generator per :func:`run_cells` call.
Each trial resets its key to ``search.trial_key``, with counter 0 and an
empty buffer, the state a fresh keyed stream starts in, so the draws are
those of ``search.trial_stream`` and ``search.sample_simplex``.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .entropy import EntropyParams, family_rows
from .lattice import bound_rows, row_distribution, sorted_rows
from .properties import (
    _CHECKS,
    CHECK_TOL,
    PropertyKind,
    check_record,
    oriented_sides,
    run_check,
)
from .search import REFERENCE_PAIRS, CounterexampleRecord, trial_key
from .simplex import ProbabilityDistribution

#: Most (cell, trial) rows evaluated at once.  The arrays of a batch hold a
#: few times this many rows of up to 2n floats, whatever the sweep's size.
BATCH_ROWS = 1024

#: Rows are zero-padded to a multiple of this width, and a batch runs the
#: kernels once per width class.  Eight float64 fill one 64-byte cache
#: line, so a row wastes fewer than 8 entries, while the dimensions of a
#: typical sweep share one or a few classes instead of one group each.
CLASS_WIDTH = 8


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

    ``lhs``, ``rhs``, ``margin`` and ``failed`` are in row order;
    :meth:`pair` rebuilds the pair of one row for a replay and
    :meth:`counterexample` the record of a violating row.  Rows are
    evaluated in width classes: a row of dimension n is zero-padded to n
    rounded up to ``CLASS_WIDTH``, and the rows of a class, joined or not,
    go through the kernels as one array.
    """

    def __init__(self, gen, grid, dims, seed, cell, trial):
        self.seed, self.cell, self.trial = seed, cell, trial
        k = len(cell)
        kind_index, alpha, beta = (column[cell] for column in grid)
        self.ref = (alpha >= 0.0) & (trial < len(REFERENCE_PAIRS))
        self.dims = np.asarray(dims)[trial % len(dims)]
        for t, ref in enumerate(REFERENCE_PAIRS):
            self.dims[self.ref & (trial == t)] = ref.p.dim
        self.joined = np.array([_CHECKS[kind][0] for kind in PropertyKind])[kind_index]
        self.width = -(-self.dims // CLASS_WIDTH) * CLASS_WIDTH
        values = np.full((4, k), np.nan)  # S(p), S(q), S(meet), S(join)
        self.failed = np.zeros(k, dtype=bool)
        self.classes = {}
        # Each row's index in its class, and among the class's joined rows.
        self.slot = np.empty((2, k), dtype=np.intp)
        for width in sorted(set(self.width.tolist())):
            at = np.flatnonzero(self.width == width)
            n, joined = self.dims[at], self.joined[at]
            pairs = np.zeros((2, len(at), width))
            p, q = pairs
            drawn = ~self.ref[at]
            for d in sorted(set(n[drawn].tolist())):
                rows = np.flatnonzero(drawn & (n == d))
                p[rows, :d], q[rows, :d] = draw_pairs(gen, seed, cell[at[rows]], trial[at[rows]], d)
            for t, ref in enumerate(REFERENCE_PAIRS):
                rows = ~drawn & (trial[at] == t)
                p[rows, : ref.p.dim], q[rows, : ref.q.dim] = ref.p.weights, ref.q.weights
            meets, joins = bound_rows(pairs, joined)
            self.classes[width] = (p, q, meets, joins)
            self.slot[:, at] = np.arange(len(at)), np.cumsum(joined) - 1
            owner = np.concatenate([at, at, at, at[joined]])
            vals, errors = family_rows(
                np.concatenate([p, q, meets, joins]), alpha[owner], beta[owner], self.dims[owner]
            )
            values[:3, at] = vals[: 3 * len(at)].reshape(3, -1)
            values[3, at[joined]] = vals[3 * len(at) :]
            self.failed[owner[list(errors)]] = True
        self.lhs, self.rhs, self.margin = np.empty((3, k))
        for i, kind in enumerate(PropertyKind):
            rows = kind_index == i
            if rows.any():
                with np.errstate(all="ignore"):  # inf - inf is a nan margin
                    sides = oriented_sides(kind, alpha[rows], beta[rows], *values[:, rows])
                self.lhs[rows], self.rhs[rows], self.margin[rows] = sides

    def _slot(self, r: int):
        """Row ``r``'s class arrays (p, q, meets, joins), its index in them
        and among the joins, and its dimension."""
        i, j = self.slot[:, r].tolist()
        return self.classes[int(self.width[r])], i, j, int(self.dims[r])

    def pair(self, r: int) -> tuple[ProbabilityDistribution, ProbabilityDistribution, str]:
        """(p, q, source) of row ``r``; a reference pair's rows are its p and q."""
        (p, q, _, _), i, _, n = self._slot(r)
        source = REFERENCE_PAIRS[self.trial[r]].name if self.ref[r] else "random"
        return row_distribution(p[i, :n]), row_distribution(q[i, :n]), source

    def counterexample(
        self, r: int, kind: PropertyKind, params: EntropyParams
    ) -> CounterexampleRecord:
        """Row ``r`` with its replay key; its check is the record
        :func:`~majent.properties.run_check` would return, built by the same
        :func:`~majent.properties.check_record` from the batch's own rows."""
        p, q, source = self.pair(r)
        (_, _, meets, joins), i, j, n = self._slot(r)
        sides = self.lhs[r], self.rhs[r], self.margin[r]
        join = joins[j, :n] if self.joined[r] else None
        check = check_record(kind, p, q, params, sides, meets[i, :n], join)
        return CounterexampleRecord(
            check, self.seed, int(self.cell[r]), int(self.trial[r]), source
        )


def run_cells(
    cells: Sequence[tuple[PropertyKind, EntropyParams]],
    dims: Sequence[int],
    trials: int,
    seed: int,
) -> Iterator[tuple[float, CounterexampleRecord | None]]:
    """Yield (worst margin, first counterexample) for each cell, in order.

    Cell ``i`` runs the check ``cells[i]`` with cell index ``i``.  The
    pairs of ``search.REFERENCE_PAIRS`` are its leading trials whenever the
    order is non-negative (they may contain a zero weight, so negative
    orders skip them); the rest are fresh samples with the dimension
    cycling through ``dims``.  A cell without a violation has None for its
    counterexample.  A trial whose evaluation fails is replayed through
    :func:`~majent.properties.run_check`, which raises its error; as in a
    trial-by-trial loop, the first failing trial of a cell raises before
    the cell is yielded.

    The cells of a batch are tallied at once: ``np.minimum.reduceat``
    gives each cell's least margin (nan ranked as inf, and the first of
    equal margins wins, as in a strict ``<`` loop) and ``np.searchsorted``
    its first violating row.  A cell that runs over several batches keeps
    its worst margin and first violation from the earliest batch that set
    them.
    """
    # Every trial sets its own key; a fixed one here draws no OS entropy.
    gen = np.random.Generator(np.random.Philox(key=0))
    kinds = list(PropertyKind)
    grid = (
        np.array([kinds.index(kind) for kind, _ in cells]),
        np.array([params.alpha for _, params in cells]),
        np.array([params.beta for _, params in cells]),
    )
    total = len(cells) * trials
    worst, first = math.inf, None
    for start in range(0, total, BATCH_ROWS):
        cell, trial = np.divmod(np.arange(start, min(start + BATCH_ROWS, total)), trials)
        batch = _Batch(gen, grid, dims, seed, cell, trial)
        # Cell c0 + j holds the batch's rows lo[j] to hi[j] - 1.
        c0 = int(cell[0])
        lo = np.maximum(np.arange(c0, int(cell[-1]) + 1) * trials - start, 0)
        hi = np.append(lo[1:], len(cell))
        # Each cell's first row with its least margin, nan ranked as inf.
        ranked = np.where(np.isnan(batch.margin), math.inf, batch.margin)
        least = np.flatnonzero(ranked == np.minimum.reduceat(ranked, lo)[cell - c0])
        worsts = batch.margin[least[np.searchsorted(least, lo)]].tolist()
        # Each cell's first row with a violation; len(cell) stands for none.
        hits = np.append(np.flatnonzero(batch.margin < -CHECK_TOL), len(cell))
        firsts = hits[np.searchsorted(hits, lo)].tolist()
        failed = np.flatnonzero(batch.failed)
        failed_cell = int(cell[failed[0]]) if failed.size else -1
        for c, margin, r, end in zip(range(c0, c0 + len(lo)), worsts, firsts, hi.tolist()):
            kind, params = cells[c]
            if c == failed_cell:
                p, q, _ = batch.pair(int(failed[0]))
                run_check(kind, p, q, params)
                raise RuntimeError("the batched and the single-pair evaluation disagree")
            if margin < worst:
                worst = margin
            if first is None and r < end:
                first = batch.counterexample(r, kind, params)
            if start + end == (c + 1) * trials:
                yield worst, first
                worst, first = math.inf, None
