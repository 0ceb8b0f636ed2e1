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
:func:`~majent.properties.run_check`, and the record of a violation,
built from the batch, equals that loop's bit for bit.

The draws come from one Philox bit generator per :func:`run_cells` call.
Each trial resets its key to ``search.trial_key``, with counter 0 and an
empty buffer, the state a fresh keyed stream starts in, so the draws are
those of ``search.trial_stream`` and ``search.sample_simplex``.

A batch of at least ``SPLIT_ROWS`` rows is split at its midpoint when the
process may run on two CPUs: one worker process, forked once the process
has tallied ``FORK_ROWS`` rows of such batches whole and kept for the life
of the process, tallies the second half while the process tallies the
first.  The two tallies go through the merge that joins the tallies of
consecutive batches, so a split changes no result.
"""
from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import threading
from itertools import count
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .entropy import EntropyParams, family_rows
from .lattice import bound_rows, row_distribution, sorted_rows
from .properties import (
    _CHECKS,
    CHECK_TOL,
    PropertyCheckRecord,
    PropertyKind,
    oriented_sides,
    run_check,
)
from .search import REFERENCE_PAIRS, CounterexampleRecord, trial_key
from .simplex import ProbabilityDistribution

#: Most (cell, trial) rows evaluated at once.  The arrays of a batch hold a
#: few times this many rows of up to 2n floats, whatever the sweep's size.
BATCH_ROWS = 1024

#: Fewest rows of a batch that are split with the worker process (at least
#: 2, so that each half has a row).  A split runs the fixed per-batch work
#: in both processes and adds a round trip through two pipes with the
#: pickling of the task and the tally, so it pays from a size set by the
#: per-row cost.  Measured on a 2-vCPU KVM guest (medians of 2,000
#: alternating pairs), a split batch of the c3 grid's meet-only rows of 2
#: to 8, the cheapest per row, took 1.27x the whole batch's time at 112
#: rows and 0.89x at 128; on the five-property grid with rows up to 64 it
#: breaks even at 64 rows.
SPLIT_ROWS = 128

#: Rows a process tallies whole, in batches of at least ``SPLIT_ROWS``,
#: before it forks the worker.  The fork, the copy-on-write faults it
#: leaves to both processes and the reaping at exit cost a one-shot sweep
#: of 240 rows 6.6 ms (93.5 -> 100.1 ms, raw medians of 10 runs on the
#: 2-vCPU guest), and a split saves about 0.66 us a row of the c3 grid, so
#: the worker is forked once the rows already run could have paid for it.
FORK_ROWS = 10_000

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

    ``lhs``, ``rhs``, ``margin`` and ``failed`` are in row order;
    :meth:`pair` rebuilds the pair of one row for a replay and
    :meth:`counterexample` the record of a violating row.  Rows are
    evaluated in width classes: a row of dimension n is zero-padded to n
    rounded up to ``CLASS_WIDTH``, and the rows of a class, joined or not,
    go through the kernels as one array.
    """

    def __init__(self, gen, grid: _Grid, cell, trial):
        self.seed, self.cell, self.trial = grid.seed, cell, trial
        k = len(cell)
        kind_index, alpha, beta = grid.columns(cell)
        self.ref = (alpha >= 0.0) & (trial < len(REFERENCE_PAIRS))
        self.dims = grid.dims[trial % len(grid.dims)]
        for t, ref in enumerate(REFERENCE_PAIRS):
            self.dims[self.ref & (trial == t)] = ref.p.dim
        self.joined = np.array([_CHECKS[kind][0] for kind in grid.kinds])[kind_index]
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
                p[rows, :d], q[rows, :d] = draw_pairs(
                    gen, grid.seed, cell[at[rows]], trial[at[rows]], d
                )
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
        for i, kind in enumerate(grid.kinds):
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
        """Row ``r`` with its replay key; its check, built from the batch's
        own rows, is the record :func:`~majent.properties.run_check` would
        return."""
        p, q, source = self.pair(r)
        (_, _, meets, joins), i, j, n = self._slot(r)
        sides = self.lhs[r], self.rhs[r], self.margin[r]
        join = row_distribution(joins[j, :n]) if self.joined[r] else None
        meet = row_distribution(meets[i, :n])
        check = PropertyCheckRecord(kind, p, q, params, *map(float, sides), CHECK_TOL, meet, join)
        return CounterexampleRecord(
            check, self.seed, int(self.cell[r]), int(self.trial[r]), source
        )


class _Tally(NamedTuple):
    """Rows [start, ``stop``) of a run, tallied per cell from cell ``c0`` on:
    each cell's least margin over those rows (nan ranked as inf, the first
    of equal margins winning) and the record of its first violation among
    them, or None.  ``failed`` is (cell, batch, row) of the first row whose
    evaluation failed, or None."""

    c0: int
    stop: int
    worsts: list
    records: list
    failed: tuple | None


def _tally(gen, grid: _Grid, start: int, stop: int) -> _Tally:
    """Evaluate rows [start, stop) as one batch and tally them per cell:
    ``np.minimum.reduceat`` gives each cell's least margin and
    ``np.searchsorted`` its first violating row."""
    c0, t0 = divmod(start, grid.trials)
    cell, trial = np.divmod(np.arange(t0, t0 + stop - start), grid.trials)
    cell += c0
    batch = _Batch(gen, grid, cell, trial)
    # Cell c0 + j holds the batch's rows lo[j] to hi[j] - 1.
    lo = np.maximum(np.arange(int(cell[-1]) - c0 + 1) * grid.trials - t0, 0)
    hi = np.append(lo[1:], len(cell)).tolist()
    ranked = np.where(np.isnan(batch.margin), math.inf, batch.margin)
    least = np.flatnonzero(ranked == np.minimum.reduceat(ranked, lo)[cell - c0])
    worsts = batch.margin[least[np.searchsorted(least, lo)]].tolist()
    # Each cell's first row with a violation; len(cell) stands for none.
    hits = np.append(np.flatnonzero(batch.margin < -CHECK_TOL), len(cell))
    firsts = hits[np.searchsorted(hits, lo)].tolist()
    records = [
        batch.counterexample(r, *grid.check(c)) if r < end else None
        for c, r, end in zip(count(c0), firsts, hi)
    ]
    failed = np.flatnonzero(batch.failed)
    row = int(failed[0]) if failed.size else None
    return _Tally(c0, stop, worsts, records, None if row is None else (int(cell[row]), batch, row))


def _send(fd: int, obj) -> None:
    """Write ``obj`` to ``fd`` as one length-prefixed pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(fd: int):
    """The next object :func:`_send` wrote to ``fd``; EOFError once its
    writer is gone."""

    def read(n: int) -> bytearray:
        data = bytearray()
        while len(data) < n:
            chunk = os.read(fd, n - len(data))
            if not chunk:
                raise EOFError
            data += chunk
        return data

    return pickle.loads(read(int.from_bytes(read(8), "little")))


def _serve(tasks, replies) -> None:
    """The worker's loop: tally the rows of each task until the task pipe
    ends, then leave.  A task is (grid or None, start, stop), the grid only
    when it is new to the worker.  A half with a failing row goes back
    empty, so that the parent tallies it and its replay raises the error."""
    import signal  # only the worker needs it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        gen = np.random.Generator(np.random.Philox(key=0))
        grid = None
        while True:
            new_grid, start, stop = _receive(tasks)
            grid = grid if new_grid is None else new_grid
            tally = _tally(gen, grid, start, stop)
            _send(replies, None if tally.failed else tally)
    finally:
        os._exit(0)


class _Worker:
    """The process's one worker, which tallies the second half of each
    split batch.

    It is forked on the first split after the process has run
    ``FORK_ROWS`` rows and kept for the life of the process; a fork of the
    process drops the worker it inherits and forks its own.  It ignores
    SIGINT and leaves when its task pipe ends, which :meth:`close`, run at
    exit, brings about before reaping it.  No answer depends on the worker:
    a half it does not send back is tallied here.
    """

    def __init__(self) -> None:
        self.pid = None
        self.lock = threading.Lock()
        self.unsplit_rows = 0

    def split(self, gen, grid: _Grid, start: int, stop: int) -> list[_Tally] | None:
        """The tallies of rows [start, mid) here and [mid, stop) in the
        worker, or None when another thread holds the worker, the process
        has not run ``FORK_ROWS`` rows yet or no worker can be forked."""
        if not self.lock.acquire(blocking=False):
            return None
        try:
            if self.pid is None and self.unsplit_rows < FORK_ROWS:
                self.unsplit_rows += stop - start
                return None
            mid = (start + stop) // 2
            if not self._pipe(self._task, grid, mid, stop):
                return None
            try:
                first = _tally(gen, grid, start, mid)
            finally:
                second = self._pipe(_receive, self.replies)  # drained even if the above raised
            return [first, second or _tally(gen, grid, mid, stop)]
        finally:
            self.lock.release()

    def _task(self, grid: _Grid, start: int, stop: int) -> bool:
        if self.pid is None:
            self._fork()
        _send(self.tasks, (None if self.grid is grid else grid, start, stop))
        self.grid = grid
        return True

    def _pipe(self, fn, *args):
        """``fn(*args)``, or None, with the worker closed, when no worker can
        be forked or it is gone; the next split forks one."""
        try:
            return fn(*args)
        except (OSError, EOFError):
            self.close()
            return None
        except BaseException:  # a message cut short leaves the pipes unusable
            self.close()
            raise

    def _fork(self) -> None:
        tasks_r, tasks_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(tasks_w)
            os.close(replies_r)
            _serve(tasks_r, replies_w)
        os.close(tasks_r)
        os.close(replies_w)
        self.pid, self.grid, self.tasks, self.replies = pid, None, tasks_w, replies_r
        atexit.register(self.close)

    def forget(self) -> None:
        """Close this process's ends of the pipes, without reaping.  The
        pipes are plain descriptors, so that a fork made while another
        thread writes to one can still close it."""
        if self.pid is not None:
            os.close(self.tasks)
            os.close(self.replies)
        self.pid = None

    def close(self) -> None:
        """Close the pipes, so that the worker leaves, and reap it."""
        pid = self.pid
        self.forget()
        if pid is not None:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            atexit.unregister(self.close)

    def _after_fork_in_child(self) -> None:
        """A fork of this process, the worker included, starts without one."""
        self.lock = threading.Lock()
        self.forget()


_WORKER = _Worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_WORKER._after_fork_in_child)


def _tallies(gen, grid: _Grid, start: int, stop: int) -> list[_Tally]:
    """The tallies of rows [start, stop), in row order: the halves of a
    split batch, or the batch whole."""
    if (
        stop - start >= SPLIT_ROWS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    ):
        halves = _WORKER.split(gen, grid, start, stop)
        if halves:
            return halves
    return [_tally(gen, grid, start, stop)]


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
    ``search.REFERENCE_PAIRS`` are its leading trials whenever the order is
    non-negative (they may contain a zero weight, so negative orders skip
    them); the rest are fresh samples with the dimension cycling through
    ``dims``.  A cell without a violation has None for its counterexample.
    A trial whose evaluation fails is replayed through
    :func:`~majent.properties.run_check`, which raises its error; as in a
    trial-by-trial loop, the first failing trial of a cell raises before
    the cell is yielded.

    The tallies of consecutive batches, and of the two halves of a split
    batch, are merged in row order: a cell keeps its worst margin and first
    violation from the earliest tally that set them.
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
        for tally in _tallies(gen, grid, start, min(start + BATCH_ROWS, total)):
            for c, margin, found in zip(count(tally.c0), tally.worsts, tally.records):
                if tally.failed and c == tally.failed[0]:
                    kind, params = grid.check(c)
                    p, q, _ = tally.failed[1].pair(tally.failed[2])
                    run_check(kind, p, q, params)
                    raise RuntimeError("the batched and the single-pair evaluation disagree")
                if margin < worst:
                    worst = margin
                if first is None:
                    first = found
                if (c + 1) * trials <= tally.stop:
                    yield worst, first
                    worst, first = math.inf, None
