"""Sampling determinism, counterexample search, sweeps and their reports."""
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from majent.engine import draw_pairs, run_cells
from majent.entropy import (
    EntropyParams,
    ZeroWeightNegativeAlphaError,
    family_rows,
    sharma_mittal,
)
from majent.properties import CHECK_TOL, PropertyKind, run_check
from majent.search import (
    DEFAULT_SEED,
    KNOWN_SUBMODULARITY_VIOLATION,
    KNOWN_SUPERMODULARITY_VIOLATION,
    MAX_DIM,
    REFERENCE_PAIRS,
    STREAM_ALGORITHM,
    CounterexampleRecord,
    GuaranteeViolationError,
    ReproductionError,
    SweepConfig,
    SweepConfigError,
    Verdict,
    find_counterexample,
    parse_sweep_config,
    sample_simplex,
    sweep,
    theorem_guaranteed,
    trial_stream,
    verify_paper_counterexamples,
)
from majent.simplex import make_distribution
import majent.engine
import majent.search

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
            with pytest.raises(ValueError, match="need an integer trials >= 1"):
                find_counterexample(PropertyKind.SUBADDITIVE, EntropyParams.make(2, 3), 4, trials)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, MAX_DIM + 1])
    def test_requires_an_integer_dimension_up_to_the_cap(self, n):
        with pytest.raises(ValueError, match="need an integer n from 1 to"):
            find_counterexample(PropertyKind.SUBADDITIVE, EntropyParams.make(2, 3), n, 10)

    def test_trials_up_to_2_to_the_32(self, monkeypatch):
        # A cell's trial indices fill 32 bits of its replay key.
        calls = []

        def run_cells(alphas, betas, kinds, dims, trials, seed):
            calls.append(trials)
            yield 0.0, None

        monkeypatch.setattr(majent.engine, "run_cells", run_cells)
        params = EntropyParams.make(2, 3)
        assert find_counterexample(PropertyKind.SUBADDITIVE, params, 4, 2**32) is None
        assert calls == [2**32]
        with pytest.raises(
            ValueError, match=r"last trial index must be an integer in \[0, 2\*\*32\): 4294967296"
        ):
            find_counterexample(PropertyKind.SUBADDITIVE, params, 4, 2**32 + 1)

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
        broken = dataclasses.replace(
            KNOWN_SUPERMODULARITY_VIOLATION, expected_margin=-0.0005
        )
        monkeypatch.setattr(
            majent.search, "REFERENCE_PAIRS", (broken, KNOWN_SUBMODULARITY_VIOLATION)
        )
        with pytest.raises(ReproductionError, match="reference-pair-1"):
            verify_paper_counterexamples()

    def test_tolerance_is_honored(self, monkeypatch):
        # The replayed floats are close to the stored values, not equal.
        monkeypatch.setattr(majent.search, "REPRODUCTION_TOL", 1e-18)
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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SweepConfigError):
            SweepConfig(**kwargs)

    def test_cells_and_trials_up_to_2_to_the_32(self):
        # The cell and trial indices of a replay key fill 32 bits each.
        cfg = SweepConfig(
            alpha_grid=GRID_2_16,
            beta_grid=GRID_2_16,
            trials_per_cell=2**32,
            properties=(PropertyKind.SUBADDITIVE,),
        )
        assert (len(cfg.alpha_grid) * len(cfg.beta_grid), cfg.trials_per_cell) == (2**32, 2**32)
        with pytest.raises(SweepConfigError, match=rf"^last cell index .*: {2**16 * (2**16 + 1) - 1}$"):
            dataclasses.replace(cfg, beta_grid=GRID_2_16 + (2.0**16,))
        with pytest.raises(SweepConfigError, match=r"^last trial index .*: 4294967296$"):
            dataclasses.replace(cfg, trials_per_cell=2**32 + 1)

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
                "395a26d72c4f047c1197fcfe0c8f4292a1bfdceec42b3b760dbdccd4f7578539",
            ),
            (
                SweepConfig(
                    alpha_grid=(0.0, 0.5, 1.0, 2.5), beta_grid=(-1.0, 1.0, 3.0),
                    dims=(2, 7, 9, 17, 64), trials_per_cell=24, seed=92,
                ),
                "a81f06c789984d31f80665023243fc966463235ce8fcb0e03a32c05476409cb5",
            ),
        ],
        ids=["negative-orders", "limit-branches"],
    )
    def test_report_is_frozen(self, config, digest, batch_rows, monkeypatch):
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        assert hashlib.sha256(sweep(config).to_json().encode()).hexdigest() == digest


class TestBatchedEngine:
    """The sweep engine against a trial-by-trial loop over the public API."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 32, 64])
    def test_draws_match_trial_stream(self, n):
        cells = np.array([0, 0, 5, 2**32 - 1, 17])
        trials = np.array([0, 1, 3, 2**32 - 1, 12345])
        gen = np.random.Generator(np.random.Philox())
        p_rows, q_rows = draw_pairs(gen, DEFAULT_SEED, cells, trials, n)
        for c, t, p_row, q_row in zip(cells.tolist(), trials.tolist(), p_rows, q_rows):
            stream = trial_stream(DEFAULT_SEED, c, t)
            assert tuple(p_row.tolist()) == sample_simplex(n, stream).weights
            assert tuple(q_row.tolist()) == sample_simplex(n, stream).weights

    @staticmethod
    def plain_loop(config):
        """(worst margin, first counterexample) per cell, one run_check per trial."""
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
                        if found is None and check.margin < -CHECK_TOL:
                            found = CounterexampleRecord(check, config.seed, cell_index, t, source)
                    out.append((worst, found))
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
        for cell, (worst, found) in zip(report.cells, self.plain_loop(config), strict=True):
            assert cell.worst_margin.hex() == worst.hex()
            want = Verdict.VIOLATION_FOUND if found else (
                Verdict.THEOREM_GUARANTEED if cell.guaranteed else Verdict.NO_VIOLATION_FOUND
            )
            assert cell.verdict is want
            got = cell.counterexample.to_json_dict() if cell.counterexample else None
            assert json.dumps(got) == json.dumps(found.to_json_dict() if found else None)

    @pytest.mark.parametrize("batch_rows", [1024, 7])
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_batches_equal_the_single_pair_loop(self, config, batch_rows, monkeypatch):
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        self.assert_matches_plain_loop(sweep(config), config)

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

    def test_padding_hides_no_zero_weight(self):
        # Row 0 holds a real zero weight; row 1 is (0.5, 0.5) zero-padded.
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        values, errors = family_rows(rows, -1.0, 2.0, np.array([3, 2]))
        assert list(errors) == [0]
        assert isinstance(errors[0], ZeroWeightNegativeAlphaError)
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
                values, errors = family_rows(rows, alpha, beta, lengths)
                params = EntropyParams.make(alpha, beta)
                assert errors == {}
                assert values.tolist() == [sharma_mittal(d, params) for d in dists]


@pytest.fixture
def worker(monkeypatch):
    """The engine's worker, forked afresh from the test's module state on
    the test's first split and closed after the test.  The CPU count reads
    two, so that batches split also in a process pinned to one CPU, and no
    rows need to run before the fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(majent.engine, "FORK_ROWS", 0)
    majent.engine._WORKER.close()
    yield majent.engine._WORKER
    majent.engine._WORKER.close()


def outcome(fn, *args):
    """``fn(*args)`` as JSON, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return json.dumps(result and result.to_json_dict())


def serial(monkeypatch, fn, *args):
    """``fn(*args)`` with no batch split, as :func:`outcome` gives it."""
    with monkeypatch.context() as patch:
        patch.setattr(majent.engine, "SPLIT_ROWS", 2**62)
        return outcome(fn, *args)


def rows_tallied_here(monkeypatch) -> list:
    """The row count of each tally the test process makes from now on."""
    rows, tally = [], majent.engine._tally

    def spy(gen, grid, start, stop):
        rows.append(stop - start)
        return tally(gen, grid, start, stop)

    monkeypatch.setattr(majent.engine, "_tally", spy)
    return rows


class TestSplitBatches:
    """A batch of at least ``engine.SPLIT_ROWS`` rows is split at its
    midpoint: the worker process tallies the second half.  Every report,
    record and error is the serial path's."""

    @pytest.mark.parametrize("batch_rows", [1024, 7])
    @pytest.mark.parametrize("name", ["c3", "c4", "mixed", "class-edges"])
    def test_split_batches_equal_the_single_pair_loop(self, name, batch_rows, worker, monkeypatch):
        # Each config is one batch of 450 to 840 rows; the c3 and c4
        # midpoints (rows 225 and 375) fall inside a cell.  Batches of 7
        # split too, 3 rows here and 4 in the worker.
        config = TestBatchedEngine.CONFIGS[name]
        split_rows = min(majent.engine.SPLIT_ROWS, batch_rows)
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", batch_rows)
        monkeypatch.setattr(majent.engine, "SPLIT_ROWS", split_rows)
        here = rows_tallied_here(monkeypatch)
        report = sweep(config)
        TestBatchedEngine().assert_matches_plain_loop(report, config)
        rows = len(report.cells) * config.trials_per_cell
        sizes = [min(batch_rows, rows - start) for start in range(0, rows, batch_rows)]
        assert rows >= majent.engine.SPLIT_ROWS
        assert here == [n // 2 if n >= split_rows else n for n in sizes]

    def test_a_one_cell_search_takes_its_counterexample_from_the_worker(self, worker, monkeypatch):
        # Supermodularity at (-1, 1) first fails at trial 10 (seed 0, n = 3),
        # in the worker's half (rows 10 to 13) of the second batch of 7.
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 7)
        monkeypatch.setattr(majent.engine, "SPLIT_ROWS", 7)
        here = rows_tallied_here(monkeypatch)
        params = EntropyParams(-1.0, 1.0)
        rec = find_counterexample(PropertyKind.SUPERMODULAR, params, 3, 1000, 0)
        config = SweepConfig(
            alpha_grid=(-1.0,), beta_grid=(1.0,), dims=(3,), trials_per_cell=1000, seed=0,
            properties=(PropertyKind.SUPERMODULAR,),
        )
        _, want = TestBatchedEngine.plain_loop(config)[0]
        assert rec.trial_index == 10
        assert json.dumps(rec.to_json_dict()) == json.dumps(want.to_json_dict())
        assert here == [3] * 142 + [6]

    #: Configs of two 100-trial cells, one batch split after cell 0.
    EVENTS = {
        # Order 300 takes the power sum of a 64-dimensional row to 0, so
        # every trial of cell 1 but the reference pairs fails.
        "error": (
            SweepConfig(
                alpha_grid=(2.0, 300.0), beta_grid=(2.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE,),
            ),
            ValueError,
        ),
        # Superadditivity at (-1, 1) is in the table and fails on every pair.
        "guarantee": (
            SweepConfig(
                alpha_grid=(-1.0,), beta_grid=(1.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE, PropertyKind.SUPERADDITIVE),
            ),
            GuaranteeViolationError,
        ),
        # Order -300 overflows cell 0's power sums before cell 1 fails.
        "error-here-first": (
            SweepConfig(
                alpha_grid=(-300.0, 300.0), beta_grid=(2.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUBADDITIVE,),
            ),
            OverflowError,
        ),
        # Cell 0 breaks the guarantee before cell 1 fails.
        "guarantee-here-first": (
            SweepConfig(
                alpha_grid=(-1.0, 300.0), beta_grid=(1.0,), dims=(64,), trials_per_cell=100,
                properties=(PropertyKind.SUPERADDITIVE,),
            ),
            GuaranteeViolationError,
        ),
    }

    @pytest.mark.parametrize("name", EVENTS)
    def test_events_in_either_half_are_those_of_the_serial_path(self, name, worker, monkeypatch):
        config, error = self.EVENTS[name]
        want = serial(monkeypatch, sweep, config)
        assert want[0] is error
        here = rows_tallied_here(monkeypatch)
        assert outcome(sweep, config) == want
        # A worker's half with a failing row comes back to be tallied here.
        assert here[0] == 100 and worker.pid is not None

    def test_a_failed_row_in_the_workers_half_that_replays_cleanly_is_an_error(
        self, worker, monkeypatch
    ):
        sweep(TestBatchedEngine.CONFIGS["c4"])  # the worker is forked before the patch
        monkeypatch.setattr(majent.engine, "run_check", lambda *args: None)
        with pytest.raises(RuntimeError, match="batched and the single-pair evaluation disagree"):
            sweep(self.EVENTS["error"][0])

    def test_a_sweep_after_an_aborted_one_gives_the_serial_report(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        with pytest.raises(GuaranteeViolationError):
            sweep(self.EVENTS["guarantee"][0])
        assert outcome(sweep, config) == want

    def test_a_reply_is_drained_when_this_half_raises(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        assert outcome(sweep, config) == want  # the worker is forked before the patch
        pid = worker.pid

        def interrupted(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(majent.engine, "_tally", interrupted)
            with pytest.raises(KeyboardInterrupt):
                sweep(TestBatchedEngine.CONFIGS["mixed"])
        assert outcome(sweep, config) == want
        assert worker.pid == pid

    def test_a_killed_worker_is_replaced(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        assert outcome(sweep, config) == want
        pid = worker.pid
        os.kill(pid, signal.SIGKILL)
        assert outcome(sweep, config) == want
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)
        assert outcome(sweep, config) == want
        assert worker.pid not in (None, pid)

    def test_interleaved_runs_each_send_their_grid(self, worker, monkeypatch):
        # Two runs of several split batches each, consumed in turn, take
        # turns with the one worker.
        monkeypatch.setattr(majent.engine, "BATCH_ROWS", 300)
        runs = [
            (config.alpha_grid, config.beta_grid, config.properties, config.dims, 30, 7)
            for config in (TestBatchedEngine.CONFIGS["c3"], TestBatchedEngine.CONFIGS["c4"])
        ]

        def cells(outcomes):
            return [(worst.hex(), json.dumps(found and found.to_json_dict())) for worst, found in outcomes]

        with monkeypatch.context() as patch:
            patch.setattr(majent.engine, "SPLIT_ROWS", 2**62)
            want = [cells(run_cells(*run)) for run in runs]
        here = rows_tallied_here(monkeypatch)
        got = [[], []]
        for row in itertools.zip_longest(*(run_cells(*run) for run in runs)):
            for out, cell in zip(got, row):
                if cell is not None:
                    out.append(cell)
        assert [cells(run) for run in got] == want
        assert here == [150, 150, 75, 150, 75]  # c3, c4, c3, c4, c4

    def test_threads_take_turns_with_the_worker(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
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

    def test_a_fork_of_the_process_forks_its_own_worker(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        assert outcome(sweep, config) == want
        inherited = worker.pid
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                ok = outcome(sweep, config) == want and worker.pid not in (None, inherited)
                worker.close()
                code = 0 if ok else 1
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        assert worker.pid == inherited
        assert outcome(sweep, config) == want

    def test_a_process_that_sweeps_leaves_no_worker_behind(self):
        code = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from majent import engine, search\n"
            "engine.FORK_ROWS = 0\n"
            "search.sweep(search.SweepConfig((0.0, 1.0), (1.0, 2.0), trials_per_cell=20))\n"
            "print(engine._WORKER.pid)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stdout), 0)

    def test_the_worker_is_forked_after_fork_rows_rows(self, worker, monkeypatch):
        # A short-lived process never pays for a fork: batches it could
        # split run whole until it has tallied FORK_ROWS rows of them.
        monkeypatch.setattr(majent.engine, "FORK_ROWS", 1000)
        monkeypatch.setattr(worker, "unsplit_rows", 0)
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        here = rows_tallied_here(monkeypatch)
        for _ in range(2):
            assert outcome(sweep, config) == want
            assert worker.pid is None
        assert outcome(sweep, config) == want
        assert worker.pid is not None and here == [750, 750, 375]

    def test_no_worker_is_forked_on_one_cpu(self, worker, monkeypatch):
        config = TestBatchedEngine.CONFIGS["c4"]
        want = serial(monkeypatch, sweep, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
        here = rows_tallied_here(monkeypatch)
        assert outcome(sweep, config) == want
        assert here == [750] and worker.pid is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_a_grid_of_2_to_the_32_cells_streams_its_cells(self):
        # Under an address-space cap 512 MiB above the interpreter's size, a
        # run over 2**32 cells yields its first cell; a list of its cells
        # would not fit.
        code = (
            "import os, resource\n"
            "from majent.engine import run_cells\n"
            "from majent.properties import PropertyKind\n"
            "grid = tuple(map(float, range(2**16)))\n"
            "pages = int(open('/proc/self/statm').read().split()[0])\n"
            "cap = pages * os.sysconf('SC_PAGE_SIZE') + 2**29\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "worst, first = next(run_cells(grid, grid, (PropertyKind.SUBADDITIVE,), (2,), 1, 5))\n"
            "print(repr(worst), first)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        worst, first = next(run_cells((0.0,), (0.0,), (PropertyKind.SUBADDITIVE,), (2,), 1, 5))
        assert proc.stdout == f"{worst!r} {first}\n"
