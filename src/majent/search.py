"""Randomized counterexample search and region sweeps.

Sampling is flat on the simplex (unit exponentials, normalized, sorted) and
driven by a counter-based generator so that every trial is reproducible in
isolation: the stream for a trial is keyed by (seed, cell index, trial
index) and nothing else.  Reports are therefore byte-identical across runs
and platforms that agree on the generator, whose identifier is stamped into
every report header.

Two fixed reference pairs at (alpha, beta) = (2, 3) are built in.  The
first breaks supermodularity, the second breaks submodularity, and both are
injected as the leading trials of every cell whose order parameter admits
them (one pair carries a zero weight, so negative orders skip the
injection).  Known violations are therefore found regardless of seed.

Sweeps and searches run on the batched engine of :mod:`majent.engine`,
which draws the same numbers as :func:`trial_stream` and finds the same
worst margins, first counterexamples and first errors as a trial-by-trial
loop over :func:`run_check`.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entropy import EntropyParams, is_finite, sharma_mittal
from .properties import PropertyCheckRecord, PropertyKind, json_float, run_check
from .simplex import ProbabilityDistribution, make_distribution

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


class ReproductionError(RuntimeError):
    """The built-in reference counterexamples failed to reproduce."""


class Verdict(Enum):
    NO_VIOLATION_FOUND = "no-violation-found"
    VIOLATION_FOUND = "violation-found"
    THEOREM_GUARANTEED = "theorem-guaranteed"


@dataclass(frozen=True)
class ReferencePair:
    """A hard-coded pair with known check values at (2, 3)."""

    name: str
    p: ProbabilityDistribution
    q: ProbabilityDistribution
    violates: PropertyKind
    expected_meet: tuple[float, ...]
    expected_join: tuple[float, ...]
    # S values at (alpha, beta) = (2, 3), order: p, q, meet, join
    expected_values: tuple[float, float, float, float]
    expected_margin: float


#: Breaks supermodularity at (2, 3): the pair's entropies sum to 0.8704 but
#: the meet and join entropies only to 0.8700.
KNOWN_SUPERMODULARITY_VIOLATION = ReferencePair(
    "reference-pair-1",
    make_distribution((0.5, 0.3, 0.1, 0.1)),
    make_distribution((0.4, 0.4, 0.2, 0.0)),
    PropertyKind.SUPERMODULAR,
    (0.4, 0.4, 0.1, 0.1),
    (0.5, 0.3, 0.2, 0.0),
    (0.4352, 0.4352, 0.4422, 0.4278),
    -0.0004,
)

#: Breaks submodularity at (2, 3): 0.8826875 on the pair side against
#: 0.8883875 on the lattice side.
KNOWN_SUBMODULARITY_VIOLATION = ReferencePair(
    "reference-pair-2",
    make_distribution((0.5, 0.2, 0.2, 0.1)),
    make_distribution((0.4, 0.4, 0.15, 0.05)),
    PropertyKind.SUBMODULAR,
    (0.4, 0.3, 0.2, 0.1),
    (0.5, 0.3, 0.15, 0.05),
    (0.4422, 0.4404875, 0.455, 0.4333875),
    -0.0057,
)

REFERENCE_PAIRS = (KNOWN_SUPERMODULARITY_VIOLATION, KNOWN_SUBMODULARITY_VIOLATION)

#: How far a replayed reference value may stray from its stored one.
REPRODUCTION_TOL = 1e-12


def trial_key(seed: int, cell_index, trial_index) -> list:
    """The two 64-bit words of one trial's Philox key: the seed, then the
    cell and the trial index in the high and low 32 bits.

    The indices are ints below 2**32, or two ``uint64`` arrays of them, one
    entry per trial, which give an array of second words.
    """
    return [seed, (cell_index << 32) | trial_index]


def _check_word(name: str, value, bits: int, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, in [0, 2**bits)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and 0 <= value < 2**bits):
        raise error(f"{name} must be an integer in [0, 2**{bits}): {value!r}")


def trial_stream(seed: int, cell_index: int, trial_index: int) -> np.random.Generator:
    """The counter-based stream for one trial, independent of all others;
    ValueError unless the seed fits 64 bits and each index 32."""
    _check_word("seed", seed, 64)
    _check_word("cell_index", cell_index, 32)
    _check_word("trial_index", trial_index, 32)
    key = np.array(trial_key(int(seed), int(cell_index), int(trial_index)), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_simplex(n: int, stream: np.random.Generator) -> ProbabilityDistribution:
    """One draw from the flat (uniform) distribution on the n-simplex.

    Normalized unit exponentials; ``make_distribution`` sorts them
    non-increasingly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    draws = stream.standard_exponential(n)
    return make_distribution((draws / draws.sum()).tolist())


@dataclass(frozen=True)
class CounterexampleRecord:
    """A violating check with enough provenance to replay it exactly.

    ``source`` is ``"random"`` for sampled pairs (then seed, cell and trial
    identify the stream) or the name of a built-in reference pair.
    Re-running the check on the stored vectors reproduces lhs, rhs and
    margin bit for bit.
    """

    check: PropertyCheckRecord
    seed: int | None
    cell_index: int | None
    trial_index: int | None
    source: str

    def to_json_dict(self) -> dict:
        # A counterexample is a violation by definition, so the verdict
        # fields give way to the provenance, in the schemas' key order.
        out = self.check.to_json_dict()
        for key in ("holds", "verdict", "tolerance"):
            del out[key]
        out["seed"] = self.seed
        out["cell_index"] = self.cell_index
        out["trial_index"] = self.trial_index
        out["source"] = self.source
        return out


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
    independent of seed.
    """
    if isinstance(trials, bool) or not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"need an integer trials >= 1, got {trials!r}")
    _check_word("last trial index", trials - 1, 32)
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and 1 <= n <= MAX_DIM):
        raise ValueError(f"need an integer n from 1 to {MAX_DIM}, got {n!r}")
    _check_word("seed", seed, 64)
    # Imported on use, so that commands that run no search (verify-paper)
    # do not compile the engine.
    from .engine import run_cells

    return next(run_cells((params.alpha,), (params.beta,), (kind,), (int(n),), trials, seed))[1]


def verify_paper_counterexamples() -> tuple[CounterexampleRecord, CounterexampleRecord]:
    """Re-derive the two reference pairs and check every stored number.

    For each pair the lattice vectors must match entrywise and the four
    entropy values and the margin must match to ``REPRODUCTION_TOL``.
    Raises :class:`ReproductionError` on any mismatch; returns the two
    replayed records otherwise.
    """
    params = EntropyParams.make(2.0, 3.0)
    records = []
    for ref in REFERENCE_PAIRS:
        check = run_check(ref.violates, ref.p, ref.q, params)
        problems: list[str] = []

        def vec_close(got: ProbabilityDistribution, want: tuple[float, ...]) -> bool:
            return got.dim == len(want) and all(
                abs(g - w) <= REPRODUCTION_TOL for g, w in zip(got.weights, want)
            )

        if not vec_close(check.meet, ref.expected_meet):
            problems.append(f"meet {check.meet.weights} != {ref.expected_meet}")
        if check.join is None or not vec_close(check.join, ref.expected_join):
            got = None if check.join is None else check.join.weights
            problems.append(f"join {got} != {ref.expected_join}")
        s_p, s_q, s_meet, s_join = ref.expected_values
        pairs = [
            ("S(p)", sharma_mittal(ref.p, params), s_p),
            ("S(q)", sharma_mittal(ref.q, params), s_q),
            ("S(meet)", sharma_mittal(check.meet, params), s_meet),
            ("S(join)", sharma_mittal(check.join, params) if check.join else math.nan, s_join),
            ("margin", check.margin, ref.expected_margin),
        ]
        for label, got_v, want_v in pairs:
            if not abs(got_v - want_v) <= REPRODUCTION_TOL:
                problems.append(f"{label} = {got_v!r}, expected {want_v!r}")
        if check.holds:
            problems.append(f"expected a violation of {ref.violates.value}, margin {check.margin!r}")
        if problems:
            raise ReproductionError(f"{ref.name}: " + "; ".join(problems))
        records.append(CounterexampleRecord(check, None, None, None, ref.name))
    return records[0], records[1]


def _check_ascending(name: str, values: tuple) -> None:
    if not values:
        raise SweepConfigError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise SweepConfigError(f"{name} must be strictly ascending: {values}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`sweep`.

    Grids are finite ascending sequences stored as ``float``, and dims the
    pair dimensions the trials cycle through, integral numbers stored as
    ``int``.  Properties are stored in a canonical order so that equal
    configs always produce identical reports.  This is the one place where
    a config is validated; :func:`parse_sweep_config` only converts text.
    """

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    dims: tuple[int, ...] = (2, 3, 4, 6, 8)
    trials_per_cell: int = 10_000
    seed: int = DEFAULT_SEED
    properties: tuple[PropertyKind, ...] = (
        PropertyKind.SUBADDITIVE,
        PropertyKind.SUPERADDITIVE,
        PropertyKind.GENERALIZED_SUB_SUPER,
        PropertyKind.SUPERMODULAR,
        PropertyKind.SUBMODULAR,
    )

    def __post_init__(self) -> None:
        for name in ("alpha_grid", "beta_grid"):
            grid = getattr(self, name)
            _check_ascending(name, grid)
            if any(not is_finite(v) for v in grid):
                raise SweepConfigError(f"{name} must be finite: {grid}")
            object.__setattr__(self, name, tuple(map(float, grid)))
        if any(not is_finite(d) or int(d) != d or not 2 <= d <= MAX_DIM for d in self.dims):
            raise SweepConfigError(
                f"dims must be integers >= 2 and <= {MAX_DIM} (a batch of trials holds "
                f"its pairs in memory at full width): {self.dims}"
            )
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        _check_ascending("dims", self.dims)
        trials = self.trials_per_cell
        if isinstance(trials, bool) or not (isinstance(trials, numbers.Integral) and trials >= 1):
            raise SweepConfigError(f"trials_per_cell must be an integer >= 1: {trials!r}")
        _check_word("seed", self.seed, 64, SweepConfigError)
        if not self.properties:
            raise SweepConfigError("properties must not be empty")
        canonical = tuple(k for k in PropertyKind if k in set(self.properties))
        if canonical != self.properties:
            object.__setattr__(self, "properties", canonical)
        # A replay key holds the cell and the trial index in 32 bits each.
        _check_word("last trial index", trials - 1, 32, SweepConfigError)
        cells = len(self.alpha_grid) * len(self.beta_grid) * len(canonical)
        _check_word("last cell index", cells - 1, 32, SweepConfigError)

    def to_json_dict(self) -> dict:
        return {
            "alpha_grid": list(self.alpha_grid),
            "beta_grid": list(self.beta_grid),
            "dims": list(self.dims),
            "trials_per_cell": self.trials_per_cell,
            "seed": self.seed,
            "properties": [k.value for k in self.properties],
        }


@dataclass(frozen=True)
class CellReport:
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


@dataclass(frozen=True)
class RegionSweepReport:
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
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# generator: {self.algorithm}; seed: {self.seed}\n")
        out.write("alpha,beta,property,verdict,worst_margin,trials,seed\n")
        for c in self.cells:
            out.write(
                f"{c.alpha!r},{c.beta!r},{c.kind.value},{c.verdict.value},"
                f"{c.worst_margin!r},{c.trials},{c.seed}\n"
            )
        return out.getvalue()


def sweep(config: SweepConfig) -> RegionSweepReport:
    """Run every (alpha, beta, property) cell of the grid.

    Cells are enumerated in grid order with a stable cell index, and each
    trial's randomness is keyed by (seed, cell, trial), so the report is
    deterministic no matter how the work would be scheduled.  A violation
    inside a guaranteed region aborts with :class:`GuaranteeViolationError`.
    """
    from .engine import run_cells

    grid = (config.alpha_grid, config.beta_grid, config.properties)
    reports: list[CellReport] = []
    outcomes = run_cells(*grid, config.dims, config.trials_per_cell, config.seed)
    for (alpha, beta, kind), (worst, found) in zip(itertools.product(*grid), outcomes):
        cell = CellReport(alpha, beta, kind, worst, config.trials_per_cell, config.seed, found)
        if found is not None and cell.guaranteed:
            raise GuaranteeViolationError(
                f"violation in guaranteed region: {kind.value} at alpha={cell.alpha}, "
                f"beta={cell.beta}, trial {found.trial_index}, margin {found.check.margin!r}; "
                "either the implementation or the guarantee table is wrong"
            )
        reports.append(cell)
    return RegionSweepReport(config, tuple(reports))


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
    values = (start + i * step for i in range(count))
    return tuple(v for v in values if v <= end + 1e-9)


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
