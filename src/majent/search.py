"""Randomized counterexample search and region sweeps.

Sampling is flat on the simplex (unit exponentials, normalized, sorted) and
driven by a counter-based generator so that every trial is reproducible in
isolation: the stream for a trial is keyed by (seed, cell index, trial
index) and nothing else.  Reports are therefore byte-identical across runs
and platforms that agree on the generator, whose identifier is stamped into
every report header.  One trial's pair is two :func:`sample_simplex`
draws from its :func:`trial_stream`; :func:`trial_pair` draws that pair,
and :func:`draw_pairs` many trials' pairs, bit for bit, on one reused
Philox generator set to each trial's key.

The two reference pairs of :mod:`majent.reference` are injected as the
leading trials of every cell whose order parameter admits them (one pair
carries a zero weight, so negative orders skip the injection), so their
known violations at (2, 3) are found regardless of seed.

Sweeps and searches run on the batched engine of :mod:`majent.engine`.
numpy is imported where a stream is made and the engine where it runs, so
a config parses without either.
"""
from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .entropy import EntropyParams, is_finite
from .properties import PropertyKind, json_float
from .reference import CounterexampleRecord
from .simplex import FrozenValue, ProbabilityDistribution, _set, make_distribution

if TYPE_CHECKING:
    import numpy as np

#: Identifier of the random stream, for cross-language reproduction.
STREAM_ALGORITHM = "philox4x64 (numpy.random.Philox, keyed counter-based)"

#: Seed used when neither the caller nor the environment supplies one.
DEFAULT_SEED = 2718281828

#: Most points a ``start:step:end`` grid range may have.  Each point adds
#: cells of ``trials_per_cell`` trials, so a sweep over more would not end,
#: and a step far below the range's span (1e-300 on [0, 1]) would otherwise
#: build its tuple of points until memory runs out.
MAX_GRID_POINTS = 10**6

#: Largest pair dimension a sweep or search takes.  A batch of 1024 trials
#: then holds 64 MiB per (2, k, n) pair array, and its kernels make several.
MAX_DIM = 4096


class SweepConfigError(ValueError):
    """A sweep configuration is malformed."""


class GuaranteeViolationError(RuntimeError):
    """A violation turned up inside a region the guarantee table marks proven.

    Either the implementation or the guarantee table is wrong, and a report
    that contradicts its own labels would be worse than no report, so the
    sweep aborts loudly with the offending cell and trial.
    """


class TrialEvaluationError(ValueError):
    """A sweep trial's check could not be evaluated.  The message names the
    check and the trial's replay key (seed, cell, trial), then the error of
    the evaluation, which is chained as the cause."""


class Verdict(Enum):
    NO_VIOLATION_FOUND = "no-violation-found"
    VIOLATION_FOUND = "violation-found"
    THEOREM_GUARANTEED = "theorem-guaranteed"


def trial_key(seed: int, cell_index, trial_index) -> list:
    """The two 64-bit words of one trial's Philox key: the seed, then the
    cell and the trial index in the high and low 32 bits.

    The indices are ints below 2**32, or two ``uint64`` arrays of them, one
    entry per trial, which give an array of second words.
    """
    return [seed, (cell_index << 32) | trial_index]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool.  ``type(value) is
    int`` settles the common case without the slower ABC check."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_word(name: str, value, bits: int, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, in [0, 2**bits)."""
    if not (_is_int(value) and 0 <= value < 2**bits):
        raise error(f"{name} must be an integer in [0, 2**{bits}): {value!r}")


def _checked_key(seed: int, cell_index: int, trial_index: int) -> list:
    """The :func:`trial_key` of one trial; ValueError unless the seed fits
    64 bits and each index 32."""
    _check_word("seed", seed, 64)
    _check_word("cell_index", cell_index, 32)
    _check_word("trial_index", trial_index, 32)
    return trial_key(int(seed), int(cell_index), int(trial_index))


def _fresh_state(key: list) -> dict:
    """The Philox state a stream keyed by ``key`` starts in: counter 0 and
    an empty buffer."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def trial_stream(seed: int, cell_index: int, trial_index: int) -> np.random.Generator:
    """The counter-based stream for one trial, independent of all others;
    ValueError unless the seed fits 64 bits and each index 32.  numpy is
    imported here, so that only what samples loads it."""
    import numpy as np

    key = np.array(_checked_key(seed, cell_index, trial_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_dim(n) -> None:
    """Raise ValueError unless ``n`` is an int, not a bool, of at least 1."""
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1: {n!r}")


def sample_simplex(n: int, stream: np.random.Generator) -> ProbabilityDistribution:
    """One draw from the flat (uniform) distribution on the n-simplex.

    Normalized unit exponentials; ``make_distribution`` sorts them
    non-increasingly.  ValueError unless n is an integer >= 1.
    """
    _check_dim(n)
    draws = stream.standard_exponential(n)
    return make_distribution((draws / draws.sum()).tolist())


def trial_pair(
    gen: np.random.Generator, seed: int, cell_index: int, trial_index: int, n: int
) -> tuple[ProbabilityDistribution, ProbabilityDistribution]:
    """The pair that two ``sample_simplex(n, trial_stream(seed, cell_index,
    trial_index))`` calls draw, bit for bit, drawn on ``gen``.

    ``gen`` runs on a Philox bit generator, set to the state a fresh keyed
    stream starts in, so no ``SeedSequence`` is built and discarded.  The
    trial's 2n exponentials come from one call, as the rows of a (2, n)
    array, and p and q are each normalized at their own n: numpy sums a
    row as it sums a 1-d array.  ValueError as :func:`trial_stream` and
    :func:`sample_simplex` raise it.
    """
    key = _checked_key(seed, cell_index, trial_index)
    _check_dim(n)
    gen.bit_generator.state = _fresh_state(key)
    draws = gen.standard_exponential((2, int(n)))
    p, q = (draws / draws.sum(axis=1, keepdims=True)).tolist()
    return make_distribution(p), make_distribution(q)


def draw_pairs(
    gen: np.random.Generator, seed: int, cells: np.ndarray, trials: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs that two ``sample_simplex(n, trial_stream(seed, c, t))`` calls
    draw for each (c, t), as two (k, n) arrays of sorted rows.

    ``gen`` runs on a Philox bit generator, and each trial draws its 2n
    exponentials in one call.  One state, built per call, is set before
    each trial with only its key's second word changed.  The rows are
    normalized and sorted at their own length, p and q together on a
    (k, 2, n) view: numpy's pairwise ``sum`` associates differently on a
    longer row.
    """
    import numpy as np

    seed_word, words = trial_key(seed, cells.astype(np.uint64), trials.astype(np.uint64))
    key = [seed_word, 0]
    state = _fresh_state(key)
    bit_generator, standard_exponential = gen.bit_generator, gen.standard_exponential
    draws = np.empty((len(cells), 2, n))
    for row, word in zip(draws, words.tolist()):
        key[1] = word
        bit_generator.state = state
        standard_exponential(out=row)
    draws /= draws.sum(axis=2, keepdims=True)
    draws.sort(axis=2)
    return draws[:, 0, ::-1], draws[:, 1, ::-1]


def theorem_guaranteed(kind: PropertyKind, alpha: float, beta: float) -> bool:
    """Whether (alpha, beta) lies in a region where ``kind`` is proven.

    Subadditivity holds for alpha >= 0, beta >= 1; superadditivity for
    alpha < 0, beta <= 1; supermodularity for alpha > 0, beta <= alpha.
    Boundaries are inclusive.  Everything else is treated as open territory
    and only ever reported empirically.

    Sampling refutes the superadditive row: at negative order the family is
    Schur-convex, so S(p meet q) <= min(S(p), S(q)) < S(p) + S(q) on every
    full-support pair (acceptance test c5; README, "A refuted guarantee").
    The row is kept as stated, so a sweep of that region still aborts.
    """
    if kind is PropertyKind.SUBADDITIVE:
        return alpha >= 0.0 and beta >= 1.0
    if kind is PropertyKind.SUPERADDITIVE:
        return alpha < 0.0 and beta <= 1.0
    if kind is PropertyKind.SUPERMODULAR:
        return alpha > 0.0 and beta <= alpha
    return False


def find_counterexample(
    kind: PropertyKind,
    params: EntropyParams,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> CounterexampleRecord | None:
    """Search ``trials`` random n-dimensional pairs for a violation.

    Returns the first violating pair found, or None.  The reference pairs
    lead the trial order, so the known breakdowns at (2, 3) are found
    independent of seed.  It runs ``SweepConfig((alpha,), (beta,), (n,),
    trials, seed, (kind,))``, which validates the arguments, and returns the
    counterexample of that run's one cell.
    """
    from .engine import run_cells

    config = SweepConfig((params.alpha,), (params.beta,), (n,), trials, seed, (kind,))
    return next(run_cells(config)).counterexample


def _as_tuple(name: str, values) -> tuple:
    """``values`` read once into a tuple; SweepConfigError if not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise SweepConfigError(f"{name} must be a sequence: {values!r}") from None


def _check_ascending(name: str, values: tuple) -> None:
    if not values:
        raise SweepConfigError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise SweepConfigError(f"{name} must be strictly ascending: {values}")


class SweepConfig(FrozenValue):
    """Grid description for :func:`sweep`.

    Grids, dims and properties are read once, from any iterable.  Grids
    are finite ascending real numbers stored as ``float``, and dims the
    pair dimensions the trials cycle through, integral numbers stored as
    ``int``.  Properties are stored in a canonical order so that equal
    configs always produce identical reports.  This is the one place where
    a run is validated; :func:`parse_sweep_config` only converts text.
    """

    __slots__ = ("alpha_grid", "beta_grid", "dims", "trials_per_cell", "seed", "properties")

    def __init__(
        self,
        alpha_grid: tuple[float, ...],
        beta_grid: tuple[float, ...],
        dims: tuple[int, ...] = (2, 3, 4, 6, 8),
        trials_per_cell: int = 10_000,
        seed: int = DEFAULT_SEED,
        properties: tuple[PropertyKind, ...] = tuple(PropertyKind),
    ) -> None:
        for name, grid in (("alpha_grid", alpha_grid), ("beta_grid", beta_grid)):
            grid = _as_tuple(name, grid)
            if not all(isinstance(v, numbers.Real) for v in grid):
                raise SweepConfigError(f"{name} must be real numbers: {grid}")
            _check_ascending(name, grid)
            if any(not is_finite(v) for v in grid):
                raise SweepConfigError(f"{name} must be finite: {grid}")
            _set(self, name, tuple(map(float, grid)))
        dims = _as_tuple("dims", dims)
        real = all(isinstance(d, numbers.Real) for d in dims)
        if not real or any(not is_finite(d) or int(d) != d or not 2 <= d <= MAX_DIM for d in dims):
            raise SweepConfigError(
                f"dims must be integers >= 2 and <= {MAX_DIM} (a batch of trials holds "
                f"its pairs in memory at full width): {dims}"
            )
        _set(self, "dims", tuple(map(int, dims)))
        _check_ascending("dims", self.dims)
        trials = trials_per_cell
        if not (_is_int(trials) and trials >= 1):
            raise SweepConfigError(f"trials_per_cell must be an integer >= 1: {trials!r}")
        _check_word("seed", seed, 64, SweepConfigError)
        properties = _as_tuple("properties", properties)
        if not properties:
            raise SweepConfigError("properties must not be empty")
        unknown = [k for k in properties if not isinstance(k, PropertyKind)]
        if unknown:
            raise SweepConfigError(f"properties must be PropertyKind members: {unknown!r}")
        canonical = tuple(k for k in PropertyKind if k in properties)
        _set(self, "properties", canonical)
        # A replay key holds the cell and the trial index in 32 bits each.
        _check_word("last trial index", trials - 1, 32, SweepConfigError)
        cells = len(self.alpha_grid) * len(self.beta_grid) * len(canonical)
        _check_word("last cell index", cells - 1, 32, SweepConfigError)
        _set(self, "trials_per_cell", int(trials))
        _set(self, "seed", int(seed))

    def to_json_dict(self) -> dict:
        return {
            "alpha_grid": list(self.alpha_grid),
            "beta_grid": list(self.beta_grid),
            "dims": list(self.dims),
            "trials_per_cell": self.trials_per_cell,
            "seed": self.seed,
            "properties": [k.value for k in self.properties],
        }


class CellReport(NamedTuple):
    alpha: float
    beta: float
    kind: PropertyKind
    worst_margin: float
    trials: int
    seed: int
    counterexample: CounterexampleRecord | None

    @property
    def guaranteed(self) -> bool:
        return theorem_guaranteed(self.kind, self.alpha, self.beta)

    @property
    def verdict(self) -> Verdict:
        if self.counterexample is not None:
            return Verdict.VIOLATION_FOUND
        if self.guaranteed:
            return Verdict.THEOREM_GUARANTEED
        return Verdict.NO_VIOLATION_FOUND

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "property": self.kind.value,
            "verdict": self.verdict.value,
            "guaranteed": self.guaranteed,
            "worst_margin": json_float(self.worst_margin),
            "trials": self.trials,
            "seed": self.seed,
            "counterexample": (
                self.counterexample.to_json_dict() if self.counterexample else None
            ),
        }

    def to_csv_row(self) -> str:
        return (
            f"{self.alpha!r},{self.beta!r},{self.kind.value},{self.verdict.value},"
            f"{self.worst_margin!r},{self.trials},{self.seed}\n"
        )


class RegionSweepReport(NamedTuple):
    """All cell outcomes of one sweep, plus the reproduction header."""

    config: SweepConfig
    cells: tuple[CellReport, ...]

    algorithm = STREAM_ALGORITHM

    @property
    def seed(self) -> int:
        return self.config.seed

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config": self.config.to_json_dict(),
            "cells": [c.to_json_dict() for c in self.cells],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        return "".join([
            f"# generator: {self.algorithm}; seed: {self.seed}\n",
            "alpha,beta,property,verdict,worst_margin,trials,seed\n",
            *(c.to_csv_row() for c in self.cells),
        ])


def sweep(config: SweepConfig) -> RegionSweepReport:
    """Run every (alpha, beta, property) cell of the grid.

    The engine yields the cells in grid order, each a finished
    :class:`CellReport` with a stable cell index, and each trial's
    randomness is keyed by (seed, cell, trial), so the report is
    deterministic no matter how the work would be scheduled.  This function
    only guards the guarantee table over that stream: a violation inside a
    guaranteed region aborts with :class:`GuaranteeViolationError`.
    """
    from .engine import run_cells

    cells = []
    for cell in run_cells(config):
        found = cell.counterexample
        if found is not None and cell.guaranteed:
            raise GuaranteeViolationError(
                f"violation in guaranteed region: {cell.kind.value} at alpha={cell.alpha}, "
                f"beta={cell.beta}, trial {found.trial_index}, margin {found.check.margin!r}; "
                "either the implementation or the guarantee table is wrong"
            )
        cells.append(cell)
    return RegionSweepReport(config, tuple(cells))


def _parse_grid(text: str) -> tuple[float, ...]:
    """A grid literal: ``start:step:end`` (end inclusive) or a comma list."""
    text = text.strip()
    if ":" not in text:
        items = text.split(",") if text else []
        if any(not x.strip() for x in items):
            raise SweepConfigError(f"empty item in grid list {text!r}")
        try:
            return tuple(float(x) for x in items)
        except ValueError as err:
            raise SweepConfigError(f"bad grid list {text!r}") from err
    parts = text.split(":")
    if len(parts) != 3:
        raise SweepConfigError(f"grid ranges need start:step:end, got {text!r}")
    try:
        start, step, end = (float(x) for x in parts)
    except ValueError as err:
        raise SweepConfigError(f"bad grid range {text!r}") from err
    if not step > 0:
        raise SweepConfigError(f"grid step must be positive in {text!r}")
    if not (math.isfinite(start) and math.isfinite(end)):
        return (start, end)  # not enumerable; SweepConfig rejects it
    span = (end - start) / step
    if not math.isfinite(span) or round(span) >= MAX_GRID_POINTS:
        raise SweepConfigError(
            f"grid range {text!r} spans {span:g} steps; at most {MAX_GRID_POINTS - 1} are allowed"
        )
    count = round(span) + 1
    last = end + 4 * math.ulp(max(abs(start), abs(end)))  # rounding slack of start + i * step
    return tuple(v for v in (start + i * step for i in range(count)) if v <= last)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise SweepConfigError(f"expected an integer, got {text!r}") from err


def _parse_properties(text: str) -> tuple[PropertyKind, ...]:
    names = [x.strip() for x in text.split(",")] if text.strip() else []
    if "" in names:
        raise SweepConfigError(f"empty item in properties list {text!r}")
    choices = sorted(k.value for k in PropertyKind)
    for name in names:
        if name not in choices:
            raise SweepConfigError(f"unknown property {name!r}; choose from {choices}")
    return tuple(map(PropertyKind, names))


#: How each config key's text becomes a SweepConfig field value.
_FIELD_PARSERS = {
    "alpha_grid": _parse_grid,
    "beta_grid": _parse_grid,
    "dims": _parse_grid,
    "trials_per_cell": _parse_int,
    "seed": _parse_int,
    "properties": _parse_properties,
}


def parse_sweep_config(text: str, *, default_seed: int | None = None) -> SweepConfig:
    """Parse the flat key-value sweep format.

    One ``key = value`` pair per line, ``#`` comments allowed.  Keys mirror
    the SweepConfig fields; grids and dims accept ``start:step:end`` or
    comma lists, properties are a comma list of kind names.  A seed in the
    file wins over ``default_seed``, which wins over the built-in default.
    Values are only converted here; :class:`SweepConfig` validates them.
    """
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SweepConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in data:
            raise SweepConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value.strip()

    unknown = data.keys() - _FIELD_PARSERS.keys()
    if unknown:
        raise SweepConfigError(f"unknown keys: {sorted(unknown)}")
    for required in ("alpha_grid", "beta_grid"):
        if required not in data:
            raise SweepConfigError(f"missing required key {required!r}")
    kwargs = {
        key: parse(data[key]) for key, parse in _FIELD_PARSERS.items() if key in data
    }
    if default_seed is not None:
        kwargs.setdefault("seed", int(default_seed))
    return SweepConfig(**kwargs)
