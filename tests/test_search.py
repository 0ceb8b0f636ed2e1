"""Sampling determinism, counterexample search, sweeps and their reports."""
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from majent.engine import run_cells
from majent.entropy import (
    EntropyParams,
    ZeroWeightNegativeAlphaError,
    family_rows,
    sharma_mittal,
)
from majent.properties import PropertyKind, run_check
from majent.reference import (
    KNOWN_SUBMODULARITY_VIOLATION,
    KNOWN_SUPERMODULARITY_VIOLATION,
    REFERENCE_PAIRS,
    CounterexampleRecord,
    ReproductionError,
    verify_paper_counterexamples,
)
from majent.search import (
    DEFAULT_SEED,
    MAX_DIM,
    STREAM_ALGORITHM,
    CellReport,
    GuaranteeViolationError,
    SweepConfig,
    SweepConfigError,
    TrialEvaluationError,
    Verdict,
    draw_pairs,
    find_counterexample,
    parse_sweep_config,
    sample_simplex,
    sweep,
    theorem_guaranteed,
    trial_pair,
    trial_stream,
)
from majent.simplex import MajorizationOrder, compare, make_distribution
import majent.engine
import majent.reference

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
SRC = DOCS.parent / "src"

#: 2**16 grid points: two such grids make 2**32 cells per property.
GRID_2_16 = tuple(map(float, range(2**16)))

# One fixed draw, recorded from the stream's first run and frozen.  If this
# ever changes, every published report seed is silently worthless, so the
# comparison is bitwise.
GOLDEN_4 = (
    0.41868470830476473,
    0.32078447880506034,
    0.16213604528788578,
    0.09839476760228924,
)


class TestSampling:
    def test_golden_draw_is_frozen(self):
        d = sample_simplex(4, trial_stream(DEFAULT_SEED, 0, 0))
        assert d.weights == GOLDEN_4

    def test_stream_is_keyed_not_sequential(self):
        a = sample_simplex(4, trial_stream(1, 2, 3)).weights
        b = sample_simplex(4, trial_stream(1, 2, 3)).weights
        c = sample_simplex(4, trial_stream(1, 2, 4)).weights
        d = sample_simplex(4, trial_stream(1, 3, 3)).weights
        e = sample_simplex(4, trial_stream(2, 2, 3)).weights
        assert a == b
        assert len({a, c, d, e}) == 4

    def test_single_point(self):
        assert sample_simplex(1, trial_stream(0, 0, 0)).weights == (1.0,)

    @pytest.mark.parametrize(
        "key",
        [
            (-1, 0, 0), (2**64, 0, 0), (2**64 + 5, 0, 0), (True, 0, 0), (5.0, 0, 0),
            (5, -1, 0), (5, 2**32, 0), (5, 2**32 + 3, 7), (5, True, 0),
            (5, 0, -1), (5, 0, 2**32), (5, 0, False),
        ],
    )
    def test_stream_refuses_a_key_outside_its_words(self, key):
        # Each of these would draw the pair of another key: the seed fills
        # one 64-bit word, the cell and trial index 32 bits each.
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*(64|32)\): "):
            trial_stream(*key)
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*(64|32)\): "):
            trial_pair(np.random.Generator(np.random.Philox(key=0)), *key, 3)

    def test_keys_at_the_ends_of_their_words_name_distinct_trials(self):
        ends = [
            (0, 0, 0), (2**64 - 1, 0, 0), (5, 0, 0),
            (5, 2**32 - 1, 0), (5, 0, 2**32 - 1), (5, 2**32 - 1, 2**32 - 1),
        ]
        draws = {trial_stream(*key).standard_exponential(2).tobytes() for key in ends}
        assert len(draws) == len(ends)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
    def test_numpy_integer_keys_name_the_trial_of_their_value(self, dtype):
        # A uint32 cell index shifted into the high half of its word in its
        # own type would lose every bit.
        want = trial_stream(5, 2**32 - 1, 7).standard_exponential(2)
        got = trial_stream(np.uint64(5), dtype(2**32 - 1), dtype(7)).standard_exponential(2)
        assert got.tobytes() == want.tobytes()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_simplex(0, trial_stream(0, 0, 0))

    @pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, True, False, "3", None])
    def test_a_dimension_that_is_not_a_positive_int_is_refused_by_name(self, n):
        # numpy alone would end 2.5 and True in a bare TypeError, and "3"
        # in a failed comparison of a str with an int.
        message = re.escape(f"n must be an integer >= 1: {n!r}")
        with pytest.raises(ValueError, match=message):
            sample_simplex(n, trial_stream(0, 0, 0))
        with pytest.raises(ValueError, match=message):
            trial_pair(np.random.Generator(np.random.Philox(key=0)), 0, 0, 0, n)

    def test_a_numpy_integer_dimension_draws_as_its_int(self):
        gen = np.random.Generator(np.random.Philox(key=0))
        assert sample_simplex(np.int64(3), trial_stream(0, 0, 0)) == sample_simplex(3, trial_stream(0, 0, 0))
        assert trial_pair(gen, 0, 0, 0, np.uint8(3)) == trial_pair(gen, 0, 0, 0, 3)
        # 2n in the dimension's own type would wrap at 256.
        assert trial_pair(gen, 0, 0, 0, np.uint8(200)) == trial_pair(gen, 0, 0, 0, 200)

    def test_samples_are_sorted_and_normalized(self):
        for t in range(50):
            d = sample_simplex(6, trial_stream(3, 0, t))
            assert d.weights == tuple(sorted(d.weights, reverse=True))
            assert sum(d.weights) == pytest.approx(1.0, abs=1e-9)

    def test_sorted_coordinate_means(self):
        # Uniform-spacings order statistics at n = 3: the sorted coordinates
        # have means 11/18, 5/18 and 2/18.
        stream = trial_stream(DEFAULT_SEED, 99, 0)
        totals = [0.0, 0.0, 0.0]
        n_samples = 100_000
        for _ in range(n_samples):
            d = sample_simplex(3, stream)
            for i, w in enumerate(d.weights):
                totals[i] += w
        means = [t / n_samples for t in totals]
        assert means[0] == pytest.approx(11 / 18, abs=0.01)
        assert means[1] == pytest.approx(5 / 18, abs=0.01)
        assert means[2] == pytest.approx(2 / 18, abs=0.01)


class TestGuaranteeTable:
    @pytest.mark.parametrize(
        "kind,alpha,beta,expected",
        [
            (PropertyKind.SUBADDITIVE, 0.0, 1.0, True),
            (PropertyKind.SUBADDITIVE, 2.0, 5.0, True),
            (PropertyKind.SUBADDITIVE, 2.0, 0.999, False),
            (PropertyKind.SUBADDITIVE, -0.1, 2.0, False),
            (PropertyKind.SUPERADDITIVE, -0.5, 1.0, True),
            (PropertyKind.SUPERADDITIVE, -2.0, -1.0, True),
            (PropertyKind.SUPERADDITIVE, 0.0, 0.0, False),
            (PropertyKind.SUPERADDITIVE, -1.0, 1.1, False),
            (PropertyKind.SUPERMODULAR, 2.0, 2.0, True),
            (PropertyKind.SUPERMODULAR, 2.0, -5.0, True),
            (PropertyKind.SUPERMODULAR, 2.0, 2.1, False),
            (PropertyKind.SUPERMODULAR, 0.0, -1.0, False),
            (PropertyKind.GENERALIZED_SUB_SUPER, 2.0, 3.0, False),
            (PropertyKind.SUBMODULAR, 2.0, 3.0, False),
        ],
    )
    def test_regions(self, kind, alpha, beta, expected):
        assert theorem_guaranteed(kind, alpha, beta) is expected


class TestFindCounterexample:
    def test_reference_pairs_lead_the_trials(self):
        params = EntropyParams.make(2.0, 3.0)
        rec = find_counterexample(PropertyKind.SUPERMODULAR, params, 4, 10)
        assert rec is not None
        assert rec.trial_index == 0
        assert rec.source == "reference-pair-1"
        rec = find_counterexample(PropertyKind.SUBMODULAR, params, 4, 10)
        assert rec.trial_index == 1
        assert rec.source == "reference-pair-2"

    def test_none_in_guaranteed_regions(self):
        params = EntropyParams.make(2.0, 3.0)
        assert find_counterexample(PropertyKind.SUBADDITIVE, params, 4, 10_000) is None
        params = EntropyParams.make(2.0, 1.5)
        assert find_counterexample(PropertyKind.SUPERMODULAR, params, 4, 10_000) is None

    def test_requires_trials(self):
        for trials in (0, 2.5, True):
            with pytest.raises(ValueError, match="trials_per_cell must be an integer >= 1"):
                find_counterexample(PropertyKind.SUBADDITIVE, EntropyParams.make(2, 3), 4, trials)

    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, True, MAX_DIM + 1, None, "4"])
    def test_requires_an_integer_dimension_up_to_the_cap(self, n):
        with pytest.raises(ValueError, match=f"dims must be integers >= 2 and <= {MAX_DIM}"):
            find_counterexample(PropertyKind.SUBADDITIVE, EntropyParams.make(2, 3), n, 10)

    def test_trials_up_to_2_to_the_32(self, monkeypatch):
        # A cell's trial indices fill 32 bits of its replay key.
        calls = []

        def run_cells(config):
            calls.append(config.trials_per_cell)
            kind, trials, seed = config.properties[0], config.trials_per_cell, config.seed
            yield CellReport(2.0, 3.0, kind, 0.0, trials, seed, None)

        monkeypatch.setattr(majent.engine, "run_cells", run_cells)
        params = EntropyParams.make(2, 3)
        assert find_counterexample(PropertyKind.SUBADDITIVE, params, 4, 2**32) is None
        assert calls == [2**32]
        with pytest.raises(
            ValueError, match=r"last trial index must be an integer in \[0, 2\*\*32\): 4294967296"
        ):
            find_counterexample(PropertyKind.SUBADDITIVE, params, 4, 2**32 + 1)

    def test_a_numpy_integer_seed_gives_a_json_record(self):
        params = EntropyParams.make(2, 3)
        rec = find_counterexample(PropertyKind.SUPERMODULAR, params, 4, 10, np.uint64(5))
        assert type(rec.seed) is int
        assert json.dumps(rec.to_json_dict()) == json.dumps(
            find_counterexample(PropertyKind.SUPERMODULAR, params, 4, 10, 5).to_json_dict()
        )

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 - 2**64, 2**64 + 5, 1.5])
    def test_requires_a_seed_that_fits_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            find_counterexample(PropertyKind.SUBADDITIVE, EntropyParams.make(2, 3), 4, 10, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_run(self, seed):
        params = EntropyParams.make(-1.0, 0.0)
        rec = find_counterexample(PropertyKind.GENERALIZED_SUB_SUPER, params, 3, 50, seed)
        assert (rec.seed, rec.source) == (seed, "random")
        stream = trial_stream(seed, rec.cell_index, rec.trial_index)
        assert sample_simplex(3, stream).weights == rec.check.p.weights

    def test_random_record_replays_bit_for_bit(self):
        params = EntropyParams.make(-1.0, 0.0)
        rec = find_counterexample(PropertyKind.GENERALIZED_SUB_SUPER, params, 3, 50)
        assert rec is not None
        assert rec.source == "random"
        assert (rec.seed, rec.cell_index, rec.trial_index) == (DEFAULT_SEED, 0, 0)
        # Reconstruct the exact trial from the provenance triple alone.
        stream = trial_stream(rec.seed, rec.cell_index, rec.trial_index)
        p = sample_simplex(3, stream)
        q = sample_simplex(3, stream)
        assert p.weights == rec.check.p.weights
        assert q.weights == rec.check.q.weights
        check = run_check(rec.check.kind, rec.check.p, rec.check.q, rec.check.params)
        assert check.lhs == rec.check.lhs
        assert check.rhs == rec.check.rhs
        assert check.margin == rec.check.margin

    def test_negative_order_region_violates_superadditivity(self):
        # The guarantee table marks alpha < 0, beta <= 1 as proven for
        # superadditivity, but the checks themselves refute it on the very
        # first sampled pair; see the sweep abort test below for how the
        # report layer treats that contradiction.
        params = EntropyParams.make(-1.0, 0.0)
        rec = find_counterexample(PropertyKind.SUPERADDITIVE, params, 3, 50)
        assert rec is not None
        assert rec.trial_index == 0
        assert rec.check.margin < -1.0  # an order-one breach, not float noise

    def test_json_payload_shape(self):
        rec = find_counterexample(
            PropertyKind.SUPERMODULAR, EntropyParams.make(2.0, 3.0), 4, 10
        )
        data = rec.to_json_dict()
        assert set(data) == {
            "kind", "params", "p", "q", "meet", "join", "lhs", "rhs",
            "margin", "seed", "cell_index", "trial_index", "source",
        }
        assert data["kind"] == "supermodular"
        assert data["source"] == "reference-pair-1"
        # Reports are compared byte for byte, so the key order is pinned to
        # the order the schemas list the fields in.
        for schema, record in (
            ("sweep-report.schema.json", rec),
            ("verify-records.schema.json", verify_paper_counterexamples()[0]),
        ):
            defs = json.loads((DOCS / schema).read_text())["$defs"]
            assert list(record.to_json_dict()) == defs["counterexample"]["required"]


class TestReferenceVerification:
    def test_both_records_reproduce(self):
        first, second = verify_paper_counterexamples()
        assert first.check.kind is PropertyKind.SUPERMODULAR
        assert second.check.kind is PropertyKind.SUBMODULAR
        assert first.check.margin == pytest.approx(-0.0004, abs=1e-12)
        assert second.check.margin == pytest.approx(-0.0057, abs=1e-12)
        assert first.source == "reference-pair-1"
        assert second.source == "reference-pair-2"
        assert first.seed is None and first.trial_index is None

    def test_expected_values_frozen_on_the_pairs(self):
        assert KNOWN_SUPERMODULARITY_VIOLATION.expected_values == (
            0.4352, 0.4352, 0.4422, 0.4278,
        )
        assert KNOWN_SUBMODULARITY_VIOLATION.expected_values == (
            0.4422, 0.4404875, 0.455, 0.4333875,
        )
        assert len(REFERENCE_PAIRS) == 2

    def test_tampered_expectation_is_caught(self, monkeypatch):
        broken = KNOWN_SUPERMODULARITY_VIOLATION._replace(expected_margin=-0.0005)
        monkeypatch.setattr(
            majent.reference, "REFERENCE_PAIRS", (broken, KNOWN_SUBMODULARITY_VIOLATION)
        )
        with pytest.raises(ReproductionError, match="reference-pair-1"):
            verify_paper_counterexamples()

    def test_a_pair_whose_check_holds_is_caught(self, monkeypatch):
        # Pair 1 is subadditive at (2, 3), a guaranteed region.
        holds = KNOWN_SUPERMODULARITY_VIOLATION._replace(violates=PropertyKind.SUBADDITIVE)
        monkeypatch.setattr(
            majent.reference, "REFERENCE_PAIRS", (holds, KNOWN_SUBMODULARITY_VIOLATION)
        )
        with pytest.raises(
            ReproductionError, match=r"^reference-pair-1: .*expected a violation of subadditive, margin "
        ):
            verify_paper_counterexamples()

    def test_tolerance_is_honored(self, monkeypatch):
        # The replayed floats are close to the stored values, not equal.
        monkeypatch.setattr(majent.reference, "REPRODUCTION_TOL", 1e-18)
        with pytest.raises(ReproductionError):
            verify_paper_counterexamples()


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig(alpha_grid=(0.0, 1.0), beta_grid=(1.0,))
        assert cfg.dims == (2, 3, 4, 6, 8)
        assert cfg.trials_per_cell == 10_000
        assert cfg.seed == DEFAULT_SEED
        assert len(cfg.properties) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha_grid=(), beta_grid=(1.0,)),
            dict(alpha_grid=(1.0, 0.5), beta_grid=(1.0,)),
            dict(alpha_grid=(0.0, math.inf), beta_grid=(1.0,)),
            dict(alpha_grid=(10**400,), beta_grid=(1.0,)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=(10**400,)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=()),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=(1, 2)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=(3, 2)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=(2, 2)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), trials_per_cell=0),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), properties=()),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), trials_per_cell=2.5),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), trials_per_cell=True),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), trials_per_cell=2**32 + 1),
            dict(alpha_grid=GRID_2_16, beta_grid=GRID_2_16, properties=tuple(PropertyKind)[:2]),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=(2, MAX_DIM + 1)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), seed=2**64 + 5),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), seed=5 - 2**64),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), seed=5.0),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), seed=True),
            # Not iterable, or entries that are not real numbers: refused
            # before they are compared, converted or counted.
            dict(alpha_grid=("a",), beta_grid=(1.0,)),
            dict(alpha_grid=(1.0, "a"), beta_grid=(1.0,)),
            dict(alpha_grid=(0.0,), beta_grid=(None,)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0, 1j)),
            dict(alpha_grid=1.0, beta_grid=(1.0,)),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=4),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), properties=PropertyKind.SUBADDITIVE),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), properties=None),
            dict(alpha_grid=(0.0,), beta_grid=(1.0,), properties=3),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SweepConfigError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(alpha_grid=(1.0, "a"), beta_grid=(1.0,)), "alpha_grid must be real numbers: (1.0, 'a')"),
            (dict(alpha_grid=1.0, beta_grid=(1.0,)), "alpha_grid must be a sequence: 1.0"),
            (dict(alpha_grid=(0.0,), beta_grid=(1.0,), dims=4), "dims must be a sequence: 4"),
            (dict(alpha_grid=(0.0,), beta_grid=(1.0,), properties=None), "properties must be a sequence: None"),
        ],
    )
    def test_malformed_grids_are_named(self, kwargs, message):
        with pytest.raises(SweepConfigError) as err:
            SweepConfig(**kwargs)
        assert str(err.value) == message

    def test_grids_and_dims_are_read_once(self):
        # A numpy array is a grid like any sequence, and a generator of dims
        # or of kinds is read once, by the conversion, not by a check before it.
        kinds = (PropertyKind.SUPERMODULAR, PropertyKind.SUBADDITIVE)
        cfg = SweepConfig(
            np.array([1.0, 2.0]), (1.0,), dims=(d for d in (2, 3)), properties=(k for k in kinds)
        )
        assert (cfg.alpha_grid, cfg.dims) == ((1.0, 2.0), (2, 3))
        assert all(type(a) is float for a in cfg.alpha_grid)
        assert cfg == SweepConfig((1.0, 2.0), (1.0,), dims=(2, 3), properties=kinds[::-1])

    def test_cells_and_trials_up_to_2_to_the_32(self):
        # The cell and trial indices of a replay key fill 32 bits each.
        # Each config is built through the constructor, which validates.
        fields = dict(
            alpha_grid=GRID_2_16,
            beta_grid=GRID_2_16,
            trials_per_cell=2**32,
            properties=(PropertyKind.SUBADDITIVE,),
        )
        cfg = SweepConfig(**fields)
        assert (len(cfg.alpha_grid) * len(cfg.beta_grid), cfg.trials_per_cell) == (2**32, 2**32)
        with pytest.raises(SweepConfigError, match=rf"^last cell index .*: {2**16 * (2**16 + 1) - 1}$"):
            SweepConfig(**dict(fields, beta_grid=GRID_2_16 + (2.0**16,)))
        with pytest.raises(SweepConfigError, match=r"^last trial index .*: 4294967296$"):
            SweepConfig(**dict(fields, trials_per_cell=2**32 + 1))

    def test_integral_float_dims_are_stored_as_ints(self):
        cfg = SweepConfig(
            alpha_grid=(2.0,), beta_grid=(3.0,), dims=(2.0, 3.0), trials_per_cell=4
        )
        assert cfg.dims == (2, 3)
        assert all(type(d) is int for d in cfg.dims)
        assert len(sweep(cfg).cells) == len(cfg.properties)

    def test_int_valued_grids_write_the_float_report(self):
        # Equal configs, built from ints or from floats, give identical bytes.
        ints, floats = (
            SweepConfig((a,), (b,), (2, 3), 5, 1, (PropertyKind.SUBADDITIVE,))
            for a, b in ((2, 3), (2.0, 3.0))
        )
        assert ints == floats
        assert sweep(ints).to_json() == sweep(floats).to_json()

    def test_numpy_integer_trials_and_seed_are_stored_as_ints(self):
        kinds = (PropertyKind.SUPERMODULAR,)
        cfg = SweepConfig((2.0,), (3.0,), (4,), np.int64(3), np.uint64(7), kinds)
        assert (type(cfg.trials_per_cell), type(cfg.seed)) == (int, int)
        assert sweep(cfg).to_json() == sweep(SweepConfig((2.0,), (3.0,), (4,), 3, 7, kinds)).to_json()

    @pytest.mark.parametrize(
        "properties, named",
        [(("subadditive",), "['subadditive']"), ((PropertyKind.SUBADDITIVE, "bogus"), "['bogus']")],
    )
    def test_properties_that_are_not_kinds_are_named(self, properties, named):
        with pytest.raises(SweepConfigError) as err:
            SweepConfig((1.0,), (2.0,), properties=properties)
        assert str(err.value) == f"properties must be PropertyKind members: {named}"

    def test_properties_canonicalized(self):
        cfg = SweepConfig(
            alpha_grid=(0.0,),
            beta_grid=(1.0,),
            properties=(PropertyKind.SUBMODULAR, PropertyKind.SUBADDITIVE),
        )
        assert cfg.properties == (PropertyKind.SUBADDITIVE, PropertyKind.SUBMODULAR)


class TestConfigParsing:
    def test_full_file(self):
        cfg = parse_sweep_config(
            """
            # grid over the first quadrant
            alpha_grid = 0:0.5:2
            beta_grid = 1,2,5
            dims = 2,4
            trials_per_cell = 50
            seed = 7
            properties = subadditive, supermodular
            """
        )
        assert cfg.alpha_grid == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert cfg.beta_grid == (1.0, 2.0, 5.0)
        assert cfg.dims == (2, 4)
        assert cfg.trials_per_cell == 50
        assert cfg.seed == 7
        assert cfg.properties == (
            PropertyKind.SUBADDITIVE,
            PropertyKind.SUPERMODULAR,
        )

    def test_a_range_ends_at_its_end_whatever_the_step(self):
        # Rounding slack scaled to the endpoints: a step below 1e-9 must not
        # let a point past the inclusive end through.
        def grid(text):
            return parse_sweep_config(f"alpha_grid = {text}\nbeta_grid = 2\n").alpha_grid

        assert grid("0:1e-12:1.06e-11") == tuple(i * 1e-12 for i in range(11))
        assert grid("0:1e-10:2.6e-10") == (0.0, 1e-10, 2e-10)
        # The last point may still exceed the end by rounding.
        assert grid("0.1:0.1:0.3") == (0.1, 0.2, 0.30000000000000004)

    def test_seed_precedence(self):
        file_with = "alpha_grid = 1\nbeta_grid = 2\nseed = 7\n"
        file_without = "alpha_grid = 1\nbeta_grid = 2\n"
        assert parse_sweep_config(file_with, default_seed=9).seed == 7
        assert parse_sweep_config(file_without, default_seed=9).seed == 9
        assert parse_sweep_config(file_without).seed == DEFAULT_SEED

    @pytest.mark.parametrize(
        "text",
        [
            "beta_grid = 1\n",  # missing alpha_grid
            "alpha_grid = 1\nbeta_grid = 2\nalpha_grid = 3\n",
            "alpha_grid = 1\nbeta_grid = 2\ncolor = red\n",
            "alpha_grid = 1\nbeta_grid = 2\nproperties = shiny\n",
            "alpha_grid = 1\nbeta_grid = 2\ntrials_per_cell = many\n",
            "alpha_grid = 1\nbeta_grid = 2\ntrials_per_cell = 4294967297\n",  # 2**32 + 1
            # 2**33 cells
            "alpha_grid = 0:1:65535\nbeta_grid = 0:1:65535\nproperties = subadditive,superadditive\n",
            "alpha_grid = 1\nbeta_grid = 2\nseed = pi\n",
            "alpha_grid = 1\nbeta_grid = 2\ndims = 2.5\n",
            "alpha_grid = one\nbeta_grid = 2\n",
            "alpha_grid = 0:0.5\nbeta_grid = 2\n",
            "alpha_grid = 0:-1:2\nbeta_grid = 2\n",
            "alpha_grid = 2:1:0\nbeta_grid = 2\n",  # end before start
            "alpha_grid = 0:nan:1\nbeta_grid = 2\n",
            "alpha_grid = 0:1:inf\nbeta_grid = 2\n",
            "alpha_grid = 0:1e-320:1\nbeta_grid = 2\n",  # infinitely many points
            "alpha_grid = 0:1e-300:1\nbeta_grid = 2\n",  # 1e300 points
            "alpha_grid = 1\nbeta_grid = 2\ndims = nan\n",
            "alpha_grid = 1\nbeta_grid = 2\ndims = inf\n",
            "alpha_grid = 1,,2\nbeta_grid = 2\n",  # empty grid item
            "alpha_grid = 1\nbeta_grid = 2\ndims = 2,3,\n",
            "alpha_grid = 1\nbeta_grid = 2\nproperties = subadditive,,supermodular\n",
            "alpha_grid = 1\nbeta_grid = 2\nproperties = subadditive,\n",
            "alpha_grid = 1\nbeta_grid = 2\nproperties = \n",
            "just some words\n",
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(SweepConfigError):
            parse_sweep_config(text)

    def test_a_range_with_a_non_number_is_a_bad_range(self):
        with pytest.raises(SweepConfigError, match=r"^bad grid range '0:x:1'$"):
            parse_sweep_config("alpha_grid = 0:x:1\nbeta_grid = 2\n")


SMALL = SweepConfig(
    alpha_grid=(2.0,), beta_grid=(1.5, 3.0), dims=(3, 4), trials_per_cell=200
)


class TestSweep:
    def test_verdict_matrix(self):
        report = sweep(SMALL)
        by_key = {(c.alpha, c.beta, c.kind): c for c in report.cells}
        assert by_key[(2.0, 3.0, PropertyKind.SUPERMODULAR)].verdict is Verdict.VIOLATION_FOUND
        assert by_key[(2.0, 3.0, PropertyKind.SUBMODULAR)].verdict is Verdict.VIOLATION_FOUND
        assert by_key[(2.0, 3.0, PropertyKind.SUBADDITIVE)].verdict is Verdict.THEOREM_GUARANTEED
        assert by_key[(2.0, 1.5, PropertyKind.SUPERMODULAR)].verdict is Verdict.THEOREM_GUARANTEED
        assert by_key[(2.0, 1.5, PropertyKind.GENERALIZED_SUB_SUPER)].verdict is Verdict.NO_VIOLATION_FOUND
        super_cell = by_key[(2.0, 3.0, PropertyKind.SUPERMODULAR)]
        assert super_cell.counterexample.source == "reference-pair-1"
        assert not super_cell.guaranteed is True or super_cell.verdict is not Verdict.VIOLATION_FOUND

    def test_cell_indices_follow_grid_order(self):
        report = sweep(SMALL)
        for index, cell in enumerate(report.cells):
            if cell.counterexample is not None and cell.counterexample.source == "random":
                assert cell.counterexample.cell_index == index
            assert cell.trials == SMALL.trials_per_cell
            assert math.isfinite(cell.worst_margin)

    def test_reports_are_byte_identical(self):
        first = sweep(SMALL)
        second = sweep(
            SweepConfig(
                alpha_grid=(2.0,), beta_grid=(1.5, 3.0), dims=(3, 4), trials_per_cell=200
            )
        )
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()

    def test_csv_shape(self):
        report = sweep(SMALL)
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == f"# generator: {STREAM_ALGORITHM}; seed: {DEFAULT_SEED}"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == len(report.cells)
        assert rows[0]["alpha"] == "2.0"
        for row in rows:
            float(row["worst_margin"])  # repr round-trips through float()
            assert row["verdict"] in {v.value for v in Verdict}

    def test_json_round_trip(self):
        report = sweep(SMALL)
        data = json.loads(report.to_json())
        assert data == report.to_json_dict()
        assert data["algorithm"] == STREAM_ALGORITHM
        assert len(data["cells"]) == 10

    def test_abort_on_guarantee_contradiction(self):
        # The negative-order superadditivity region is marked guaranteed in
        # the table but fails on every sampled pair, so the sweep must
        # refuse to emit a report that contradicts its own labels.
        cfg = SweepConfig(
            alpha_grid=(-1.0,),
            beta_grid=(0.0,),
            dims=(3,),
            trials_per_cell=10,
            properties=(PropertyKind.SUPERADDITIVE,),
        )
        with pytest.raises(GuaranteeViolationError, match="alpha=-1.0"):
            sweep(cfg)

    def test_negative_order_sweep_without_superadditivity(self):
        # Dropping the contradicted property lets the rest of the negative
        # order plane report normally.
        cfg = SweepConfig(
            alpha_grid=(-1.0,),
            beta_grid=(0.0,),
            dims=(3,),
            trials_per_cell=25,
            properties=(PropertyKind.SUPERMODULAR, PropertyKind.SUBMODULAR),
        )
        report = sweep(cfg)
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.verdict in (Verdict.NO_VIOLATION_FOUND, Verdict.VIOLATION_FOUND)


    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig((0.9999999,), (0.9999999,), (2, 5, 33), 40, 8, (PropertyKind.SUPERMODULAR,)),
            SweepConfig((0.999999,), (-1.0,), (16,), 15, 5, (PropertyKind.SUPERMODULAR,)),
        ],
    )
    def test_ordered_pairs_keep_a_proven_region_clean(self, config):
        # Trials 9 and 12 are comparable pairs.  Their bounds, rebuilt from
        # differences of curves, gave margins of -2.2e-9 and -1.8e-8, which
        # aborted these sweeps with a GuaranteeViolationError.
        (cell,) = sweep(config).cells
        assert (cell.verdict, cell.worst_margin) == (Verdict.THEOREM_GUARANTEED, 0.0)

    def test_modular_counterexamples_at_negative_order_are_crossing_pairs(self):
        # An ordered pair's modular margin is +0.0, so every counterexample
        # is a pair whose curves cross, in exact arithmetic too.
        config = SweepConfig(
            (-2.0, -1.0), (-2.0, -1.0, -0.5, 0.0), (3, 4, 5, 6, 8), 300, 22,
            (PropertyKind.SUPERMODULAR, PropertyKind.SUBMODULAR),
        )
        found = [cell.counterexample.check for cell in sweep(config).cells if cell.counterexample]
        assert len(found) == 9
        for check in found:
            p, q = (list(map(Fraction, d.weights)) for d in (check.p, check.q))
            p, q = (make_distribution([w / sum(d) for w in d]) for d in (p, q))
            assert compare(p, q) == MajorizationOrder.INCOMPARABLE

class TestFrozenReports:
    """Whole sweep reports against sha256 digests recorded from an earlier
    engine.  ``TestBatchedEngine`` compares the engine with a ``run_check``
    loop that shares its row kernels, so it cannot see a last-bit change in
    the kernels themselves; these digests can.  Both configs cross width
    classes and run to completion (superadditivity at alpha < 0, beta <= 1
    would abort), and a batch of 7 rows keeps every kernel call small."""

    @pytest.mark.parametrize("batch_rows", [1024, 7])
    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                SweepConfig(
                    alpha_grid=(-2.0, -0.5, 1.0), beta_grid=(1.5, 3.0),
                    dims=(2, 7, 9, 17, 64), trials_per_cell=24, seed=91,
                ),
                "798db9e5e13aeefa2129f2d9109d801abc8481885e2b47f373cf75e5fbd0a57f",
            ),
            (
                SweepConfig(
                    alpha_grid=(0.0, 0.5, 1.0, 2.5), beta_grid=(-1.0, 1.0, 3.0),
                    dims=(2, 7, 9, 17, 64), trials_per_cell=24, seed=92,
                ),
                "871fa1d5b6e9f777cb0da312f123f69cd73ddbb7d7dbd4428b28e98aa350a8ee",
            ),
        ],
        ids=["negative-orders", "limit-branches"],
    )
    def test_report_is_frozen(self, config, digest, batch_rows, monkeypatch):
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        assert hashlib.sha256(sweep(config).to_json().encode()).hexdigest() == digest


class TestBatchedEngine:
    """The sweep engine against a trial-by-trial loop over the public API."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 32, 64, 129, 4096])
    def test_draws_match_trial_stream(self, n):
        cells = np.array([0, 0, 5, 2**32 - 1, 17])
        trials = np.array([0, 1, 3, 2**32 - 1, 12345])
        gen = np.random.Generator(np.random.Philox())
        p_rows, q_rows = draw_pairs(gen, DEFAULT_SEED, cells, trials, n)
        for c, t, p_row, q_row in zip(cells.tolist(), trials.tolist(), p_rows, q_rows):
            stream = trial_stream(DEFAULT_SEED, c, t)
            p, q = sample_simplex(n, stream), sample_simplex(n, stream)
            assert (tuple(p_row.tolist()), tuple(q_row.tolist())) == (p.weights, q.weights)
            assert trial_pair(gen, DEFAULT_SEED, c, t, n) == (p, q)

    def test_calls_on_one_generator_leave_nothing_behind(self):
        # One generator through calls that change the seed, the dimension
        # and both key words, each at the ends of its range: no key word,
        # counter, buffered value or sorted row of one trial or call reaches
        # the next, so each row is a fresh stream's.
        gen = np.random.Generator(np.random.Philox())
        last = 2**32 - 1
        calls = [
            (DEFAULT_SEED, [0, last, 3, last], [last, 0, 7, last], 5),
            (0, [last, last, 0], [last, last - 1, 0], 1),
            (2**64 - 1, [1, 0, 1], [0, 0, 0], 64),
            (12345, [9] * 4, [2, 1, 2, 1], 13),
            (DEFAULT_SEED, [0, last, 3, last], [last, 0, 7, last], 5),
            (DEFAULT_SEED, [last, 0], [0, last], 2),
        ]
        for seed, cells, trials, n in calls:
            p_rows, q_rows = draw_pairs(gen, seed, np.array(cells), np.array(trials), n)
            assert p_rows.shape == q_rows.shape == (len(cells), n)
            for c, t, p_row, q_row in zip(cells, trials, p_rows, q_rows):
                stream = trial_stream(seed, c, t)
                p, q = sample_simplex(n, stream), sample_simplex(n, stream)
                assert (tuple(p_row.tolist()), tuple(q_row.tolist())) == (p.weights, q.weights)
                assert trial_pair(gen, seed, c, t, n) == (p, q)

    @staticmethod
    def plain_loop(config):
        """(alpha, beta, kind, worst margin, first counterexample) per cell, in
        nested loops over the grid, one run_check per trial."""
        out = []
        cell_index = 0
        for alpha in config.alpha_grid:
            for beta in config.beta_grid:
                params = EntropyParams.make(alpha, beta)
                for kind in config.properties:
                    worst, found = math.inf, None
                    for t in range(config.trials_per_cell):
                        if alpha >= 0.0 and t < len(REFERENCE_PAIRS):
                            ref = REFERENCE_PAIRS[t]
                            p, q, source = ref.p, ref.q, ref.name
                        else:
                            n = config.dims[t % len(config.dims)]
                            stream = trial_stream(config.seed, cell_index, t)
                            p = sample_simplex(n, stream)
                            q = sample_simplex(n, stream)
                            source = "random"
                        check = run_check(kind, p, q, params)
                        if check.margin < worst:
                            worst = check.margin
                        if found is None and not check.holds:
                            found = CounterexampleRecord(check, config.seed, cell_index, t, source)
                    out.append((alpha, beta, kind, worst, found))
                    cell_index += 1
        return out

    CONFIGS = {
        # c3: the subadditive region, beta = 1 included
        "c3": SweepConfig(
            alpha_grid=(0.0, 0.5, 1.0, 2.0, 5.0), beta_grid=(1.0, 2.0, 5.0),
            dims=tuple(range(2, 9)), trials_per_cell=30, seed=11,
            properties=(PropertyKind.SUBADDITIVE,),
        ),
        # c4: supermodularity on and off its proven region
        "c4": SweepConfig(
            alpha_grid=(0.25, 0.5, 1.0, 2.0, 4.0), beta_grid=(-1.0, 0.0, 0.5, 2.0, 4.0),
            dims=tuple(range(2, 9)), trials_per_cell=30, seed=12,
            properties=(PropertyKind.SUPERMODULAR,),
        ),
        # sweep-mixed: every property, negative orders, alpha = 1, n up to 64
        "mixed": SweepConfig(
            alpha_grid=(-1.0, 0.5, 1.0, 2.0), beta_grid=(1.5, 2.0, 3.0),
            dims=(2, 4, 8, 16, 32, 64), trials_per_cell=14, seed=13,
        ),
        # three trials, two of them the reference pairs, from order 0 up
        "references": SweepConfig(
            alpha_grid=(0.0, 1.0, 2.0), beta_grid=(1.0, 3.0), dims=(2,),
            trials_per_cell=3, seed=14,
        ),
        # dimensions on both sides of the width-class edges, in one batch
        "class-edges": SweepConfig(
            alpha_grid=(-2.0, -0.5, 1.0, 2.5), beta_grid=(1.5, 3.0),
            dims=(2, 7, 8, 9, 15, 16, 17, 63), trials_per_cell=16, seed=15,
        ),
    }

    def assert_matches_plain_loop(self, report, config):
        for cell, (alpha, beta, kind, worst, found) in zip(
            report.cells, self.plain_loop(config), strict=True
        ):
            assert (type(cell.alpha), type(cell.beta)) == (float, float)
            assert (cell.alpha, cell.beta, cell.kind) == (alpha, beta, kind)
            assert cell.worst_margin.hex() == worst.hex()
            want = Verdict.VIOLATION_FOUND if found else (
                Verdict.THEOREM_GUARANTEED if cell.guaranteed else Verdict.NO_VIOLATION_FOUND
            )
            assert cell.verdict is want
            got = cell.counterexample.to_json_dict() if cell.counterexample else None
            assert json.dumps(got) == json.dumps(found.to_json_dict() if found else None)

    # 1 merges a tally per row; 31 is one row over a c3 or c4 cell, so no
    # batch but the first starts on a cell's first trial.
    @pytest.mark.parametrize("batch_rows", [1024, 7, 1, 31])
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_batches_equal_the_single_pair_loop(self, config, batch_rows, monkeypatch):
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        self.assert_matches_plain_loop(sweep(config), config)

    def test_a_batch_evaluates_each_width_class_once(self, monkeypatch):
        # The reference pairs (4 wide) and draws of dims 2 to 64 share one
        # batch.  Its rows are ordered by pair source alone, so each width
        # class must be one slice: a reference pair wider than CLASS_WIDTH
        # would split a class in two.
        widths, evaluate = [], majent.engine.evaluate

        def counted(pairs, *args):
            widths.append(pairs.shape[2])
            return evaluate(pairs, *args)

        monkeypatch.setattr(majent.engine, "evaluate", counted)
        config = SweepConfig((0.0, 2.0), (3.0,), (2, 8, 9, 16, 17, 64), 14, 16)
        self.assert_matches_plain_loop(sweep(config), config)
        assert widths == [8, 16, 24, 64]

    def test_a_failed_row_that_replays_cleanly_is_an_error(self, monkeypatch):
        # alpha = -300 overflows the power sum of every 64-dimensional row;
        # the replay of the first failed row is made to return instead of
        # raising, so the batch and the single-pair path disagree.
        monkeypatch.setattr(majent.engine, "run_check", lambda *args: None)
        config = SweepConfig(
            alpha_grid=(-300.0,), beta_grid=(2.0,), dims=(64,), trials_per_cell=5,
            properties=(PropertyKind.SUBMODULAR,),
        )
        with pytest.raises(RuntimeError, match="batched and the single-pair evaluation disagree"):
            sweep(config)

    def test_a_failed_row_raises_its_error_with_its_replay_key(self):
        # Order 300 takes the power sum of a 64-dimensional row to 0, so cell
        # 1 first fails on trial 2, after its two reference pairs.
        config = SweepConfig(
            alpha_grid=(2.0, 300.0), beta_grid=(2.0,), dims=(64,), trials_per_cell=5, seed=3,
            properties=(PropertyKind.SUBADDITIVE,),
        )
        with pytest.raises(TrialEvaluationError) as info:
            sweep(config)
        assert str(info.value) == (
            "evaluation failed: subadditive at alpha=300.0, beta=2.0, seed 3, cell 1, "
            "trial 2: h_alpha_beta needs x > 0, got 0.0"
        )
        assert type(info.value.__cause__) is ValueError

    def test_padding_hides_no_zero_weight(self):
        # Row 0 holds a real zero weight; row 1 is (0.5, 0.5) zero-padded.
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        values, failed = family_rows(rows, np.full(2, -1.0), np.full(2, 2.0), np.array([3, 2]))
        assert failed.tolist() == [True, False]
        params = EntropyParams.make(-1.0, 2.0)
        assert values[1] == sharma_mittal(make_distribution([0.5, 0.5]), params)
        with pytest.raises(ZeroWeightNegativeAlphaError):
            sharma_mittal(make_distribution([0.5, 0.5, 0.0]), params)

    def test_padded_rows_equal_the_unpadded_values(self):
        dists = [
            sample_simplex(n, trial_stream(16, n, t))
            for n in (2, 3, 7, 8, 9, 16, 17, 40) for t in range(3)
        ]
        width = 48
        rows = np.zeros((len(dists), width))
        for row, d in zip(rows, dists):
            row[: d.dim] = d.weights
        lengths = np.array([d.dim for d in dists])
        for alpha in (-2.5, 0.0, 0.5, 1.0, 3.0):
            for beta in (-1.0, 1.0, 2.0):
                values, failed = family_rows(
                    rows, np.full(len(rows), alpha), np.full(len(rows), beta), lengths
                )
                params = EntropyParams.make(alpha, beta)
                assert failed.tolist() == [False] * len(rows)  # no sharma_mittal raised
                assert values.tolist() == [sharma_mittal(d, params) for d in dists]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_a_grid_of_2_to_the_32_cells_streams_its_cells(self):
        # Under an address-space cap 512 MiB above the interpreter's size, a
        # run over 2**32 cells yields its first cell; a list of its cells
        # would not fit.
        code = (
            "import os, resource\n"
            "from majent.engine import run_cells\n"
            "from majent.properties import PropertyKind\n"
            "from majent.search import SweepConfig\n"
            "grid = tuple(map(float, range(2**16)))\n"
            "pages = int(open('/proc/self/statm').read().split()[0])\n"
            "cap = pages * os.sysconf('SC_PAGE_SIZE') + 2**29\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "config = SweepConfig(grid, grid, (2,), 1, 5, (PropertyKind.SUBADDITIVE,))\n"
            "cell = next(run_cells(config))\n"
            "print(repr(cell.worst_margin), cell.counterexample)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        cell = next(run_cells(SweepConfig((0.0,), (0.0,), (2,), 1, 5, (PropertyKind.SUBADDITIVE,))))
        worst, first = cell.worst_margin, cell.counterexample
        assert proc.stdout == f"{worst!r} {first}\n"


def outcome(fn, *args):
    """``fn(*args)`` as JSON, or the type, cause type and message of what it
    raised."""
    try:
        result = fn(*args)
    except Exception as err:
        return type(err), type(err.__cause__), str(err)
    return json.dumps(result and result.to_json_dict())


class TestBatchOrder:
    """Every batch is tallied in the process, in row order: the batch size
    changes no report and no error, and a run shares no state with another."""

    #: Configs of two 100-trial cells.
    EVENTS = {
        # Order 300 takes the power sum of a 64-dimensional row to 0, so
        # every trial of cell 1 but the reference pairs fails.
        "error": (
            SweepConfig(
                alpha_grid=(2.0, 300.0), beta_grid=(2.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE,),
            ),
            (
                TrialEvaluationError, ValueError,
                "evaluation failed: subadditive at alpha=300.0, beta=2.0, seed 2718281828, "
                "cell 1, trial 2: h_alpha_beta needs x > 0, got 0.0",
            ),
        ),
        # Superadditivity at (-1, 1) is in the table and fails on every pair.
        "guarantee": (
            SweepConfig(
                alpha_grid=(-1.0,), beta_grid=(1.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE, PropertyKind.SUPERADDITIVE),
            ),
            (
                GuaranteeViolationError, type(None),
                "violation in guaranteed region: superadditive at alpha=-1.0, beta=1.0, "
                "trial 0, margin -5.7122080863721045; "
                "either the implementation or the guarantee table is wrong",
            ),
        ),
        # Order -300 overflows cell 0's power sums before cell 1 fails.
        "error-in-cell-0-first": (
            SweepConfig(
                alpha_grid=(-300.0, 300.0), beta_grid=(2.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE,),
            ),
            (
                TrialEvaluationError, OverflowError,
                "evaluation failed: subadditive at alpha=-300.0, beta=2.0, seed 2718281828, "
                "cell 0, trial 0: Numerical result out of range",
            ),
        ),
        # Cell 0 breaks the guarantee before cell 1 fails.
        "guarantee-in-cell-0-first": (
            SweepConfig(
                alpha_grid=(-1.0, 300.0), beta_grid=(1.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUPERADDITIVE,),
            ),
            (
                GuaranteeViolationError, type(None),
                "violation in guaranteed region: superadditive at alpha=-1.0, beta=1.0, "
                "trial 0, margin -5.038368785216617; "
                "either the implementation or the guarantee table is wrong",
            ),
        ),
    }

    # 1024 holds both cells in one batch, 100 gives each cell its own, and
    # 7 splits both cells across batches.
    @pytest.mark.parametrize("batch_rows", [1024, 100, 7])
    @pytest.mark.parametrize("name", EVENTS)
    def test_the_first_event_in_cell_order_is_raised(self, name, batch_rows, monkeypatch):
        config, want = self.EVENTS[name]
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        assert outcome(sweep, config) == want

    @pytest.mark.parametrize("batch_rows", [1024, 7, 1])
    def test_an_error_in_a_cell_wins_over_its_earlier_violation(self, batch_rows, monkeypatch):
        # Superadditivity at (-60, 2) is not in the table.  With seed 5 and
        # dims (2, 64), trial 0 violates and trial 3 overflows: a cell of
        # three trials reports the violation, a cell of six raises the error.
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        kinds = (PropertyKind.SUPERADDITIVE,)
        (cell,) = sweep(SweepConfig((-60.0,), (2.0,), (2, 64), 3, 5, kinds)).cells
        assert (cell.verdict, cell.counterexample.trial_index) == (Verdict.VIOLATION_FOUND, 0)
        assert outcome(sweep, SweepConfig((-60.0,), (2.0,), (2, 64), 6, 5, kinds)) == (
            TrialEvaluationError, OverflowError,
            "evaluation failed: superadditive at alpha=-60.0, beta=2.0, seed 5, cell 0, "
            "trial 3: Numerical result out of range",
        )

    @pytest.mark.parametrize("kind", PropertyKind)
    def test_a_failed_trial_names_its_property(self, kind):
        # alpha = -300 overflows the power sum of every 64-dimensional row.
        config = SweepConfig(
            alpha_grid=(-300.0,), beta_grid=(2.0,), dims=(64,), trials_per_cell=10, seed=1,
            properties=(kind,),
        )
        assert outcome(sweep, config) == (
            TrialEvaluationError, OverflowError,
            f"evaluation failed: {kind.value} at alpha=-300.0, beta=2.0, seed 1, cell 0, "
            "trial 0: Numerical result out of range",
        )

    def test_a_one_cell_search_takes_its_counterexample_from_a_later_batch(self, monkeypatch):
        # Supermodularity at (-1, 1) first fails at trial 10 (seed 0, n = 3),
        # in the second batch of 7.
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 7)
        rec = find_counterexample(PropertyKind.SUPERMODULAR, EntropyParams(-1.0, 1.0), 3, 1000, 0)
        config = SweepConfig(
            alpha_grid=(-1.0,), beta_grid=(1.0,), dims=(3,), trials_per_cell=1000, seed=0,
            properties=(PropertyKind.SUPERMODULAR,),
        )
        *_, want = TestBatchedEngine.plain_loop(config)[0]
        assert rec.trial_index == 10
        assert json.dumps(rec.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_a_replay_with_other_margin_bits_is_an_error(self, monkeypatch):
        # The replay of the violating row at trial 10 returns a margin one
        # ulp above the batch's.
        def nudged(*args):
            check = run_check(*args)
            return check._replace(margin=math.nextafter(check.margin, math.inf))

        monkeypatch.setattr(majent.engine, "run_check", nudged)
        with pytest.raises(RuntimeError, match="batched and the single-pair evaluation disagree"):
            find_counterexample(PropertyKind.SUPERMODULAR, EntropyParams(-1.0, 1.0), 3, 1000, 0)

    def test_a_cell_replays_one_row_however_many_batches_it_spans(self, monkeypatch):
        # Supermodularity at (-1, 1) fails on 238 of the 1000 trials, in 120
        # of the 143 batches of 7; only the first violation is replayed.
        calls = []

        def counted(*args):
            calls.append(args)
            return run_check(*args)

        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 7)
        monkeypatch.setattr(majent.engine, "run_check", counted)
        rec = find_counterexample(PropertyKind.SUPERMODULAR, EntropyParams(-1.0, 1.0), 3, 1000, 0)
        assert (rec.trial_index, len(calls)) == (10, 1)

    def test_a_draw_off_its_key_is_caught(self, monkeypatch):
        # The batch draws at the wrong seed; the replay rebuilds the first
        # violation's pair from its key, and the margins disagree.
        draw_pairs = majent.engine.draw_pairs

        def off_key(gen, seed, *args):
            return draw_pairs(gen, seed + 1, *args)

        monkeypatch.setattr(majent.engine, "draw_pairs", off_key)
        with pytest.raises(RuntimeError, match="evaluation disagree"):
            find_counterexample(PropertyKind.SUPERMODULAR, EntropyParams(-1.0, 1.0), 3, 1000, 0)

    def test_a_replay_drawn_off_its_key_is_caught(self, monkeypatch):
        # The replay draws at the wrong seed while the batch draws on its
        # key: the first violation's replayed margin disagrees.
        trial_pair = majent.engine.trial_pair

        def off_key(gen, seed, *args):
            return trial_pair(gen, seed + 1, *args)

        monkeypatch.setattr(majent.engine, "trial_pair", off_key)
        with pytest.raises(RuntimeError, match="evaluation disagree"):
            find_counterexample(PropertyKind.SUPERMODULAR, EntropyParams(-1.0, 1.0), 3, 1000, 0)

    def test_a_sweep_after_an_aborted_one_gives_the_same_report(self):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = outcome(sweep, config)
        with pytest.raises(GuaranteeViolationError):
            sweep(self.EVENTS["guarantee"][0])
        with pytest.raises(TrialEvaluationError):
            sweep(self.EVENTS["error"][0])
        assert outcome(sweep, config) == want

    def test_a_sweep_after_an_interrupted_one_gives_the_same_report(self, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = outcome(sweep, config)

        def interrupted(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(majent.engine, "_evaluate_batch", interrupted)
            with pytest.raises(KeyboardInterrupt):
                sweep(TestBatchedEngine.CONFIGS["mixed"])
        assert outcome(sweep, config) == want

    def test_interleaved_runs_equal_each_run_alone(self, monkeypatch):
        # Two runs of several batches each, consumed in turn.
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 300)
        runs = [
            SweepConfig(config.alpha_grid, config.beta_grid, config.dims, 30, 7, config.properties)
            for config in (TestBatchedEngine.CONFIGS["c3"], TestBatchedEngine.CONFIGS["c4"])
        ]

        def cells(reports):
            return [
                (c.worst_margin.hex(), json.dumps(c.counterexample and c.counterexample.to_json_dict()))
                for c in reports
            ]

        want = [cells(run_cells(run)) for run in runs]
        got = [[], []]
        for row in itertools.zip_longest(*(run_cells(run) for run in runs)):
            for out, cell in zip(got, row):
                if cell is not None:
                    out.append(cell)
        assert [cells(run) for run in got] == want

    def test_threads_sweeping_at_once_each_get_the_report(self):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = outcome(sweep, config)
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(outcome(sweep, config)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 4

    def test_a_sweep_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a process"))
        monkeypatch.setattr(
            subprocess.Popen, "__init__", lambda *args, **kwargs: pytest.fail("started a process")
        )
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 7)
        config = TestBatchedEngine.CONFIGS["c4"]
        TestBatchedEngine().assert_matches_plain_loop(sweep(config), config)
