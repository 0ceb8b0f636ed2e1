"""End-to-end command-line behavior: output text, exit codes, error mapping."""
import argparse
import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import majent.reference
import majent.search
from majent.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, _build_parser, main


def run(argv):
    """Invoke main() capturing (exit_code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

#: The modules whose import :func:`run_fresh` reports.
WATCHED = (
    "numpy", "majent.search", "majent.engine", "majent.reference", "majent.lattice",
    "fractions", "json", "dataclasses", "inspect",
)

#: Lists on a last stderr line which of ``WATCHED`` were imported.
PRINT_IMPORTED = (
    f"print('imported:', *(m for m in {WATCHED!r} if sys.modules.get(m)), file=sys.stderr)\n"
)

#: Runs main() on the given arguments, then prints ``PRINT_IMPORTED``.
FRESH_MAIN = (
    "import sys\n"
    "from majent.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    + PRINT_IMPORTED
    + "sys.exit(code)\n"
)


#: FRESH_MAIN in an interpreter where ``import numpy`` raises ImportError.
NO_NUMPY_MAIN = "import sys\nsys.modules['numpy'] = None\n" + FRESH_MAIN


def run_fresh(argv, script=FRESH_MAIN):
    """Invoke main() in a new interpreter, as the ``majent`` script does,
    capturing (exit_code, stdout, stderr, the set of ``WATCHED`` modules it
    imported).  The test process has them loaded already, so only a new one
    can tell.
    ``MAJENT_SEED`` is unset, so a sweep runs at the built-in seed."""
    env = {k: v for k, v in os.environ.items() if k != "MAJENT_SEED"}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(env, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    err, found, loaded = proc.stderr.rpartition("imported:")
    if not found:  # it died before its last line, as on an import error
        return proc.returncode, proc.stdout, proc.stderr, set()
    return proc.returncode, proc.stdout, err, set(loaded.split())


class TestEntropyCommand:
    def test_shannon_of_point_mass_is_zero(self):
        assert run(["entropy", "--dist", "1,0,0", "--family", "shannon"]) == (0, "0\n", "")

    def test_shannon_of_fair_coin_is_one_bit(self):
        code, out, _ = run(["entropy", "--dist", "0.5,0.5", "--family", "shannon"])
        assert (code, out) == (EXIT_OK, "1\n")

    def test_two_parameter_family(self):
        code, out, _ = run(
            ["--digits", "12", "entropy", "--dist", "0.5,0.2,0.2,0.1",
             "--alpha", "2", "--beta", "3"]
        )
        assert (code, out) == (EXIT_OK, "0.4422\n")

    def test_digits_flag_truncates(self):
        _, out, _ = run(
            ["--digits", "3", "entropy", "--dist", "0.5,0.2,0.2,0.1",
             "--alpha", "2", "--beta", "3"]
        )
        assert out == "0.442\n"

    def test_renyi_and_tsallis(self):
        assert run(["entropy", "--dist", "0.5,0.5", "--family", "renyi", "--alpha", "2"])[1] == "1\n"
        assert run(["entropy", "--dist", "0.5,0.5", "--family", "tsallis", "--alpha", "2"])[1] == "0.5\n"

    def test_missing_family_parameters_are_usage_errors(self):
        for argv in (
            ["entropy", "--dist", "0.5,0.5", "--family", "renyi"],
            ["entropy", "--dist", "0.5,0.5", "--family", "tsallis"],
            ["entropy", "--dist", "0.5,0.5"],
            ["entropy", "--dist", "0.5,0.5", "--alpha", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == EXIT_USAGE


class TestLatticeCommands:
    def test_join_with_flatten_repair(self):
        code, out, _ = run(
            ["--digits", "12", "join", "--p", "0.5,0.15,0.15,0.1,0.1",
             "--q", "0.3,0.3,0.3,0.1,0"]
        )
        assert code == EXIT_OK
        values = [float(s) for s in out.strip().split(",")]
        assert values == pytest.approx([0.5, 0.2, 0.2, 0.1, 0.0], abs=1e-12)

    def test_exact_join_has_no_float_dust(self):
        code, out, _ = run(
            ["join", "--exact", "--p", "1/2,3/20,3/20,1/10,1/10",
             "--q", "3/10,3/10,3/10,1/10,0"]
        )
        assert (code, out) == (EXIT_OK, "1/2,1/5,1/5,1/10,0\n")

    def test_meet_of_comparable_pair_is_the_lower_one(self):
        assert run(["meet", "--exact", "--p", "1/2,1/2", "--q", "3/4,1/4"])[1] == "1/2,1/2\n"

    def test_meet_of_incomparable_pair(self):
        _, out, _ = run(
            ["--digits", "12", "meet", "--p", "0.5,0.2,0.2,0.1", "--q", "0.4,0.4,0.1,0.1"]
        )
        assert out == "0.4,0.3,0.2,0.1\n"

    def test_a_tie_takes_its_operands(self):
        # The float curves read 1.0 at every point; exactly, p is majorized
        # by q.  The differences of the curves gave 1,0,0 for both bounds.
        tie = ["--p", "1,1e-16,1e-16", "--q", "1,1e-16,1e-17"]
        for op, want in (("meet", [1.0, 1e-16, 1e-16]), ("join", [1.0, 1e-16, 1e-17])):
            code, out, _ = run([op, *tie])
            assert (code, [float(w) for w in out.split(",")]) == (EXIT_OK, want)

    def test_compare_all_verdicts(self):
        assert run(["compare", "--p", "0.5,0.5", "--q", "0.75,0.25"])[1] == "majorized-by\n"
        assert run(["compare", "--p", "0.75,0.25", "--q", "0.5,0.5"])[1] == "majorizes\n"
        assert run(["compare", "--p", "0.5,0.5", "--q", "0.5,0.5,0"])[1] == "equal\n"
        assert run(
            ["compare", "--p", "0.5,0.2,0.2,0.1", "--q", "0.4,0.4,0.1,0.1"]
        )[1] == "incomparable\n"


class TestCheckCommand:
    ARGS = [
        "check", "--property", "supermodular",
        "--p", "0.5,0.3,0.1,0.1", "--q", "0.4,0.4,0.2,0",
        "--alpha", "2", "--beta", "3",
    ]

    def test_violation_text_and_exit_code(self):
        code, out, _ = run(["--digits", "12"] + self.ARGS)
        assert code == EXIT_VIOLATION
        assert out == (
            "property: supermodular\n"
            "alpha: 2 (finite)\n"
            "beta: 3 (finite)\n"
            "p: 0.5,0.3,0.1,0.1\n"
            "q: 0.4,0.4,0.2,0\n"
            "meet: 0.4,0.4,0.1,0.1\n"
            "join: 0.5,0.3,0.2,0\n"
            "lhs: 0.8704\n"
            "rhs: 0.87\n"
            "margin: -0.0004\n"
            "verdict: violated\n"
        )

    def test_wide_tolerance_flips_the_verdict(self):
        code, out, _ = run(self.ARGS + ["--tolerance", "1.0"])
        assert code == EXIT_OK
        assert out.strip().endswith("verdict: holds (tight)")

    def test_json_format(self):
        code, out, _ = run(self.ARGS + ["--format", "json"])
        assert code == EXIT_VIOLATION
        data = json.loads(out)
        assert data["kind"] == "supermodular"
        assert data["holds"] is False
        assert data["margin"] == pytest.approx(-0.0004, abs=1e-12)
        assert data["join"] is not None

    def test_meet_only_property_omits_join(self):
        code, out, _ = run(
            ["check", "--property", "subadditive",
             "--p", "0.5,0.5", "--q", "0.5,0.5",
             "--alpha", "2", "--beta", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["join"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            # p majorizes q, so the exact meet is q.
            ["--property", "subadditive", "--p", "1,7.573002358449707e-68",
             "--q", "0.9999999999999998,1.799752355955483e-16", "--alpha", "0.5", "--beta", "2"],
            # p is majorized by q, so the exact meet is p and the join q.
            ["--property", "supermodular",
             "--p", "0.5385183815771871,0.4543293285776048,0.005582350786838133,0.0015699390583699601",
             "--q", "0.9860050242704217,0.013994915408755198,6.032082311002572e-08,"
             "7.304396446025996e-19", "--alpha", "0.25", "--beta", "0.25"],
        ],
        ids=["subadditive", "supermodular"],
    )
    def test_an_ordered_pair_holds_where_it_is_proven(self, argv):
        # Both pairs are comparable inside a proven region, and a bound
        # rebuilt from differences of curves read them as violations.
        code, out, _ = run(["check", *argv, "--format", "json"])
        data = json.loads(out)
        assert (code, data["verdict"]) == (EXIT_OK, "holds (tight)")
        assert data["margin"] >= 0.0

    def test_a_pair_equal_bit_for_bit_is_its_own_meet_and_join(self):
        # A proven region; differences of the curves moved the last weight
        # and read the pair as a violation.
        p = "0.499999999999975,0.499999999999975,4.99999999999975e-14"
        code, out, _ = run(
            ["check", "--property", "supermodular", "--p", p, "--q", p,
             "--alpha", "0.25", "--beta", "0.25", "--format", "json"]
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["meet"] == data["join"] == data["p"] == [float(w) for w in p.split(",")]
        assert data["margin"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--property", "supermodular", "--alpha", "0.25", "--beta", "0.25"],
            ["--property", "submodular", "--alpha=-1", "--beta", "2"],
        ],
        ids=["supermodular", "submodular"],
    )
    def test_a_tie_takes_its_operands(self, argv):
        # Bounds rebuilt from differences of the tied curves read a
        # violation in a proven region at (0.25, 0.25), and a zero weight
        # outside the domain at alpha = -1 on operands of full support.
        code, out, _ = run(
            ["check", *argv, "--p", "1,1e-16,1e-16", "--q", "1,1e-16,1e-17", "--format", "json"]
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert (data["meet"], data["join"], data["margin"]) == (data["p"], data["q"], 0.0)

    def test_a_negative_order_in_exponent_form_attached_with_equals(self):
        # argparse may take a bare -1e-5 for an option; attached, it is a value.
        code, out, _ = run(
            ["check", "--property", "subadditive", "--p", "0.5,0.5", "--q", "0.6,0.4",
             "--alpha=-1e-5", "--beta", "3", "--format", "json"]
        )
        assert (code, json.loads(out)["params"]["alpha"]) == (EXIT_OK, -1e-5)


class TestVerifyPaperCommand:
    def test_text_output(self):
        code, out, _ = run(["verify-paper"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("reference-pair-1: supermodular violated")
        assert lines[1].startswith("reference-pair-2: submodular violated")
        assert lines[-1] == "both reference counterexamples reproduce"

    def test_json_output(self):
        code, out, _ = run(["verify-paper", "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert [d["source"] for d in data] == ["reference-pair-1", "reference-pair-2"]
        assert all(d["seed"] is None for d in data)

    def test_a_reference_pair_that_does_not_reproduce_exits_1(self, monkeypatch):
        pair = majent.reference.KNOWN_SUPERMODULARITY_VIOLATION
        broken = pair._replace(expected_margin=-0.0005)
        monkeypatch.setattr(
            majent.reference, "REFERENCE_PAIRS", (broken, majent.reference.KNOWN_SUBMODULARITY_VIOLATION)
        )
        code, out, err = run(["verify-paper"])
        assert (code, out) == (EXIT_VIOLATION, "")
        assert err.startswith("reproduction failed: reference-pair-1: margin = ")
        assert err.endswith(", expected -0.0005\n")


GOOD_CONFIG = """\
alpha_grid = 2
beta_grid = 3
dims = 3
trials_per_cell = 20
properties = supermodular
"""


class TestSweepCommand:
    def test_csv_to_stdout(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        code, out, _ = run(["sweep", "--config", str(cfg)])
        assert code == EXIT_OK
        header, columns, row = out.strip().split("\n")
        assert header.startswith("# generator: philox4x64")
        assert header.endswith("seed: 2718281828")
        assert columns == "alpha,beta,property,verdict,worst_margin,trials,seed"
        assert row.startswith("2.0,3.0,supermodular,violation-found,")

    def test_json_format_and_out_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["sweep", "--config", str(cfg), "--format", "json", "--out", str(target)]
        )
        assert code == EXIT_OK
        assert out == ""
        data = json.loads(target.read_text())
        assert data["cells"][0]["verdict"] == "violation-found"

    def test_env_seed_fills_in_when_config_has_none(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        monkeypatch.setenv("MAJENT_SEED", "123")
        _, out, _ = run(["sweep", "--config", str(cfg)])
        assert out.split("\n")[0].endswith("seed: 123")

    def test_config_seed_beats_env_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG + "seed = 7\n")
        monkeypatch.setenv("MAJENT_SEED", "123")
        _, out, _ = run(["sweep", "--config", str(cfg)])
        assert out.split("\n")[0].endswith("seed: 7")

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        monkeypatch.setenv("MAJENT_SEED", "pi")
        code, _, err = run(["sweep", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "MAJENT_SEED" in err

    @pytest.mark.parametrize("seed", [2**64 + 5, 5 - 2**64])
    @pytest.mark.parametrize("source", ["config", "env"])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, monkeypatch, seed, source):
        # The key holds the seed in one 64-bit word, so these would run the
        # streams of seed 5 under another name.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG + (f"seed = {seed}\n" if source == "config" else ""))
        monkeypatch.setenv("MAJENT_SEED", str(seed) if source == "env" else "5")
        code, out, err = run(["sweep", "--config", str(cfg)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: seed must be an integer in [0, 2**64): {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_run(self, tmp_path, monkeypatch, seed):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        monkeypatch.setenv("MAJENT_SEED", str(seed))
        code, out, _ = run(["sweep", "--config", str(cfg)])
        assert (code, out.split("\n")[0].endswith(f"seed: {seed}")) == (EXIT_OK, True)

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "alpha_grid = 2\nbeta_grid = 3\ntrials_per_cell = 4294967297\n",
                "last trial index must be an integer in [0, 2**32): 4294967296",
            ),
            (
                "alpha_grid = 0:1:65535\nbeta_grid = 0:1:65535\n"
                "properties = subadditive, superadditive\n",
                "last cell index must be an integer in [0, 2**32): 8589934591",
            ),
        ],
    )
    def test_more_than_2_to_the_32_trials_or_cells_is_usage_error(
        self, tmp_path, monkeypatch, text, error
    ):
        # A replay key holds the cell and the trial index in 32 bits each.
        # Were the config accepted, its sweep would not end.
        def refuse(config):
            raise AssertionError("the config should have been refused")

        monkeypatch.setattr(majent.search, "sweep", refuse)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        code, out, err = run(["sweep", "--config", str(cfg)])
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {error}\n")

    def test_missing_config_file(self, tmp_path):
        code, _, err = run(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_USAGE
        assert "cannot read config" in err

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"alpha_grid = 2\xff\n")
        code, out, err = run(["sweep", "--config", str(cfg)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("cannot read config: 'utf-8' codec can't decode byte 0xff")

    def test_a_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(GOOD_CONFIG, encoding="utf-8")
        marked.write_text(GOOD_CONFIG, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run(["sweep", "--config", str(plain)])
        assert want[0] == EXIT_OK
        assert run(["sweep", "--config", str(marked)]) == want

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha_grid = 2\n")  # beta_grid missing
        code, _, err = run(["sweep", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_non_finite_dims_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha_grid = 2\nbeta_grid = 3\ndims = nan\n")
        code, _, err = run(["sweep", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert err.startswith("error: dims must be integers >= 2")

    def test_oversized_dims_is_usage_error(self, tmp_path):
        # One batch of these pairs would need 1.49 TiB.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha_grid = 2\nbeta_grid = 3\ndims = 100000000\ntrials_per_cell = 1024\n")
        code, out, err = run(["sweep", "--config", str(cfg)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: dims must be integers >= 2 and <= 4096 (")

    def test_unwritable_out_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        target = tmp_path / "missing" / "report.csv"
        code, out, err = run(["sweep", "--config", str(cfg), "--out", str(target)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("cannot write report: ")

    @pytest.mark.parametrize(
        "grids,code,message",
        [
            # (-0.001, -834) breaks the superadditive guarantee on trial 0;
            # (2, -834), the next cell, overflows expm1 on the injected
            # reference pair.
            ("alpha_grid = -0.001, 2\nbeta_grid = -834\n", EXIT_VIOLATION,
             "error: violation in guaranteed region"),
            # (-1100, 0) overflows a power on trial 0; (-1, 0), the next
            # cell, breaks the guarantee.
            ("alpha_grid = -1100, -1\nbeta_grid = 0\n", EXIT_DOMAIN,
             "error: evaluation failed: superadditive at alpha=-1100.0, beta=0.0, seed "),
        ],
    )
    def test_first_event_in_cell_order_wins(self, tmp_path, grids, code, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(grids + "dims = 2\ntrials_per_cell = 50\nproperties = superadditive\n")
        got, _, err = run(["sweep", "--config", str(cfg)])
        assert (got, err.splitlines()[0][: len(message)]) == (code, message)

    def test_guarantee_contradiction_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "alpha_grid = -1\nbeta_grid = 0\ndims = 3\n"
            "trials_per_cell = 10\nproperties = superadditive\n"
        )
        code, _, err = run(["sweep", "--config", str(cfg)])
        assert code == EXIT_VIOLATION
        assert "error:" in err


class TestErrorMapping:
    def test_sum_out_of_tolerance_is_domain_error(self):
        code, _, err = run(["entropy", "--dist", "0.5,0.4"])
        assert code == EXIT_DOMAIN
        assert "deviation" in err

    def test_unparseable_weight_is_usage_error(self):
        code, _, err = run(["entropy", "--dist", "zebra", "--family", "shannon"])
        assert code == EXIT_USAGE
        assert "cannot parse weight" in err

    def test_zero_weight_at_negative_order_is_domain_error(self):
        code, _, err = run(
            ["entropy", "--dist", "0.5,0.5,0", "--alpha", "-1", "--beta", "0.5"]
        )
        assert code == EXIT_DOMAIN
        assert "outside the domain" in err

    def test_infinite_order_is_domain_error(self):
        code, _, err = run(["entropy", "--dist", "0.5,0.5", "--alpha", "inf", "--beta", "2"])
        assert code == EXIT_DOMAIN

    def test_overflowing_power_sum_is_domain_error(self):
        # 0.001 ** -300 is beyond the float range.
        code, _, err = run(
            ["check", "--property", "submodular", "--p", "0.999,0.001",
             "--q", "0.6,0.4", "--alpha", "-300", "--beta", "2"]
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--property", "submodular", "--p", "0.999,0.001",
             "--q", "0.6,0.4", "--alpha", "-300", "--beta", "2"],
            ["entropy", "--dist", "0.999,0.001", "--alpha", "-300", "--beta", "2"],
        ],
    )
    def test_overflow_prints_the_c_library_message(self, argv):
        # 0.001 ** -300 overflows in the C library's pow, whose error
        # carries (errno, message); only the message is printed.
        code, out, err = run(argv)
        assert (code, out, err) == (EXIT_DOMAIN, "", "error: Numerical result out of range\n")

    def test_failing_sweep_trial_names_its_cell(self, tmp_path):
        # 64-dimensional powers at order -300 overflow on the first trial.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "alpha_grid = -300\nbeta_grid = 2\ndims = 64\nproperties = submodular\n"
            "trials_per_cell = 10\nseed = 1\n"
        )
        code, out, err = run(["sweep", "--config", str(cfg)])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == (
            "error: evaluation failed: submodular at alpha=-300.0, beta=2.0, seed 1, "
            "cell 0, trial 0: Numerical result out of range\n"
        )
        assert "(34," not in err

    @pytest.mark.parametrize(
        "kind,message",
        [
            # The meet-only kinds take S(meet) first: 1e-7 ** -50 overflows.
            ("subadditive", "Numerical result out of range"),
            # The modular kinds take S(p) first: p has a zero weight.
            ("supermodular", "zero weight is outside the domain for alpha = -50.0"),
        ],
    )
    def test_first_failing_family_value_in_the_order_of_the_sides(self, kind, message):
        code, out, err = run(
            ["check", "--property", kind, "--p", "0.5,0.5,0",
             "--q", "0.5,0.4999999,1e-7", "--alpha", "-50", "--beta", "2"]
        )
        assert (code, out, err) == (EXIT_DOMAIN, "", f"error: {message}\n")

    def test_nan_margin_is_labelled_violated(self):
        # 2 * 0.5 ** -1023 overflows to inf inside the power sum, so
        # lhs = rhs = inf and the margin is nan, which must not "hold".
        argv = ["check", "--property", "subadditive", "--p", "0.5,0.5",
                "--q", "0.5,0.5", "--alpha", "-1023", "--beta", "0.5"]
        code, out, _ = run(argv)
        assert code == EXIT_VIOLATION
        assert "margin: nan\n" in out
        assert out.endswith("verdict: violated\n")
        code, out, _ = run(argv + ["--format", "json"])
        assert code == EXIT_VIOLATION
        data = json.loads(out)
        assert (data["holds"], data["verdict"]) == (False, "violated")

    def test_every_subcommand_carries_its_handler(self):
        # A subcommand without one would fall through to another's handler.
        parser = _build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {
            "entropy", "meet", "join", "compare", "check", "verify-paper", "sweep",
        }
        for name, sub in commands.choices.items():
            argv = [name]
            for action in sub._actions:
                if action.required:
                    argv += [action.option_strings[0], str((action.choices or ["1"])[0])]
            assert callable(parser.parse_args(argv).run), name

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("tolerance", ["-5", "nan", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--property", "subadditive", "--p", "0.5,0.5",
                 "--q", "0.6,0.4", "--alpha", "2", "--beta", "3",
                 "--tolerance", tolerance])
        assert exc.value.code == EXIT_USAGE

    def test_negative_digits_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["--digits", "-1", "entropy", "--dist", "0.5,0.5", "--family", "shannon"])
        assert exc.value.code == EXIT_USAGE

    def test_digits_past_a_floats_expansion_print_the_same(self):
        # 767 significant digits hold any float's exact decimal expansion.
        argv = ["entropy", "--dist", "0.5,0.3,0.2", "--family", "shannon"]
        code, out, err = run(["--digits", str(2**31), *argv])
        assert (code, out, err) == run(["--digits", "767", *argv])
        assert (code, len(out) > 50) == (EXIT_OK, True)

    def test_zero_digits_is_valid(self):
        code, out, _ = run(["--digits", "0", "entropy", "--dist", "0.5,0.5",
                            "--family", "shannon"])
        assert (code, out) == (EXIT_OK, "1\n")

    def test_unknown_property_choice(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--property", "shiny", "--p", "1", "--q", "1",
                 "--alpha", "2", "--beta", "3"])
        assert exc.value.code == EXIT_USAGE


class TestImportOnUse:
    @pytest.mark.parametrize(
        "argv,code,loaded",
        [
            (["compare", "--p", "0.5,0.3,0.2", "--q", "0.4,0.4,0.2"], EXIT_OK, set()),
            (["meet", "--exact", "--p", "1/2,1/2", "--q", "3/4,1/4"], EXIT_OK,
             {"majent.lattice", "fractions"}),
            (["join", "--exact", "--p", "1/2,3/20,3/20,1/10,1/10",
              "--q", "3/10,3/10,3/10,1/10,0"], EXIT_OK, {"majent.lattice", "fractions"}),
            (["--help"], EXIT_OK, set()),
            ([], EXIT_USAGE, set()),
            (["compare", "--p", "0.5,x", "--q", "0.5,0.5"], EXIT_USAGE, set()),
        ],
    )
    def test_exact_and_parse_only_commands_do_not_import_numpy(self, argv, code, loaded):
        # Only exact arithmetic loads fractions, and a compare takes no meet.
        got, _, _, imported = run_fresh(argv)
        assert (got, imported) == (code, loaded)

    def test_check_runs_without_numpy(self):
        got, out, _, loaded = run_fresh(
            ["check", "--property", "subadditive", "--p", "0.5,0.5",
             "--q", "0.6,0.4", "--alpha", "2", "--beta", "3"]
        )
        assert (got, "numpy" in loaded) == (EXIT_OK, False)
        assert out.endswith("verdict: holds\n")

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (["check", "--property", "supermodular", "--p", "0.5,0.5",
              "--q", "0.6,0.4", "--alpha", "2", "--beta", "3"], {"majent.lattice"}),
            (["entropy", "--dist", "0.5,0.3,0.2", "--alpha", "2", "--beta", "3"], set()),
            (["verify-paper"], {"majent.reference", "majent.lattice"}),
            (["meet", "--p", "0.5,0.3,0.2", "--q", "0.4,0.4,0.2"], {"majent.lattice"}),
            (["join", "--p", "0.5,0.15,0.15,0.1,0.1", "--q", "0.3,0.3,0.3,0.1"],
             {"majent.lattice"}),
            (["check", "--property", "supermodular", "--p", "0.5,0.5", "--q", "0.6,0.4",
              "--alpha", "2", "--beta", "3", "--format", "json"], {"majent.lattice", "json"}),
            (["verify-paper", "--format", "json"], {"majent.reference", "majent.lattice", "json"}),
            (["entropy", "--dist", "1/2,1/4,1/4", "--family", "shannon"], {"fractions"}),
        ],
    )
    def test_only_sweeps_and_searches_load_the_engine(self, argv, loaded):
        # A check and an entropy run in Python floats; verify-paper replays
        # its pairs through run_check without the search.  The lattice is
        # loaded where a meet or a join is taken, fractions only by rational
        # weights, and json only where JSON is written.  No command loads
        # dataclasses or inspect.
        got, _, _, imported = run_fresh(argv)
        assert (got, imported) == (EXIT_OK, loaded)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["check", "--property", "supermodular", "--p", "0.5,0.3,0.1,0.1",
              "--q", "0.4,0.4,0.2,0", "--alpha", "2", "--beta", "3"], EXIT_VIOLATION),
            (["check", "--property", "generalized", "--p", "0.5,0.3,0.2",
              "--q", "0.6,0.4", "--alpha", "-1.5", "--beta", "0.5", "--format", "json"],
             EXIT_VIOLATION),
            (["check", "--property", "submodular", "--p", "0.5,0.2,0.2,0.1", "--q",
              "0.4,0.4,0.15,0.05", "--alpha", "2", "--beta", "3", "--format", "json"], EXIT_VIOLATION),
            (["check", "--property", "subadditive", "--p", "0.5,0.5",
              "--q", "0.6,0.4", "--alpha", "2", "--beta", "3"], EXIT_OK),
            (["check", "--property", "subadditive", "--p", "0.5,0.5,0",
              "--q", "0.6,0.4", "--alpha", "-1", "--beta", "2"], EXIT_DOMAIN),
            (["entropy", "--dist", "0.5,0.3,0.2", "--family", "shannon"], EXIT_OK),
            (["entropy", "--dist", "0.5,0.3,0.2", "--family", "renyi", "--alpha", "0.5"], EXIT_OK),
            (["entropy", "--dist", "0.5,0.3,0.2", "--family", "tsallis", "--alpha", "3"], EXIT_OK),
            (["entropy", "--dist", "0.5,0.3,0.2", "--alpha", "2", "--beta", "3"], EXIT_OK),
            (["meet", "--p", "0.5,0.3,0.2", "--q", "0.4,0.4,0.2"], EXIT_OK),
            (["join", "--p", "0.5,0.15,0.15,0.1,0.1", "--q", "0.3,0.3,0.3,0.1"], EXIT_OK),
            (["verify-paper"], EXIT_OK),
            (["verify-paper", "--format", "json"], EXIT_OK),
            (["compare", "--p", "0.5,0.3,0.2", "--q", "0.4,0.4,0.2"], EXIT_OK),
        ],
    )
    def test_float_commands_run_where_numpy_cannot_be_imported(self, argv, code):
        # Every byte and exit code is the one the command gives with numpy
        # loaded.
        got, out, err, loaded = run_fresh(argv, NO_NUMPY_MAIN)
        assert (got, out, err) == run(argv)
        assert (got, loaded <= {"majent.reference", "majent.lattice", "json"}) == (code, True)

    def test_sweep_loads_numpy_and_the_engine(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha_grid = 2\nbeta_grid = 3\ndims = 3\ntrials_per_cell = 4\n")
        got, out, err, loaded = run_fresh(["sweep", "--config", str(cfg)])
        assert (got, err) == (EXIT_OK, "")
        # numpy loads inspect itself; majent adds neither it nor dataclasses,
        # a CSV report loads no json, and float weights load no fractions.
        assert loaded - {"inspect"} == set(WATCHED) - {"dataclasses", "inspect", "json", "fractions"}
        assert out.startswith("# generator: philox4x64")
        got, out, err, loaded = run_fresh(["sweep", "--config", str(cfg), "--format", "json"])
        assert (got, err, "json" in loaded) == (EXIT_OK, "", True)
        assert out.startswith("{")
        # The same sweep where numpy cannot be imported fails, so the
        # commands above do run without it.
        got, out, err, _ = run_fresh(["sweep", "--config", str(cfg)], NO_NUMPY_MAIN)
        assert (got, out) == (1, "")
        assert err.endswith("ModuleNotFoundError: import of numpy halted; None in sys.modules\n")

    def test_a_config_parses_without_numpy_or_the_engine(self):
        # The search module's own promise, outside the CLI: grid ranges,
        # lists and a property list parse and validate with neither loaded.
        script = (
            "import sys\n"
            "from majent.search import parse_sweep_config\n"
            "text = 'alpha_grid = 0:0.5:1\\nbeta_grid = 1, 3\\ndims = 2:2:6\\n"
            "properties = supermodular, subadditive\\n'\n"
            "config = parse_sweep_config(text)\n"
            "print(config.alpha_grid, config.beta_grid, config.dims, len(config.properties))\n"
            + PRINT_IMPORTED
        )
        got, out, err, loaded = run_fresh([], script)
        assert (got, out, err) == (EXIT_OK, "(0.0, 0.5, 1.0) (1.0, 3.0) (2, 4, 6) 2\n", "")
        assert not loaded & {"numpy", "majent.engine"}

    def test_no_module_imports_dataclasses_or_inspect(self):
        # numpy loads inspect, so for sweep only the sources can tell.
        imported = set()
        for path in (SRC / "majent").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module)
        assert "numpy" in imported
        assert not imported & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ("alpha_grid = 2\n", EXIT_USAGE, "error: missing required key 'beta_grid'\n"),
            ("alpha_grid = -1\nbeta_grid = 0\ndims = 3\n"
             "trials_per_cell = 10\nproperties = superadditive\n",
             EXIT_VIOLATION,
             "error: violation in guaranteed region: superadditive at alpha=-1.0, "
             "beta=0.0, trial 0, margin -2.615797225085659; either the "
             "implementation or the guarantee table is wrong\n"),
        ],
    )
    def test_sweep_errors_keep_their_line_and_exit_code(self, tmp_path, text, code, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        got, out, err, _ = run_fresh(["sweep", "--config", str(cfg)])
        assert (got, out, err) == (code, "", message)


def readme_blocks(lang):
    """The bodies of README's fenced ``lang`` code blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


class TestReadmeExamples:
    def test_command_examples_run(self, tmp_path, monkeypatch):
        # The sweep example reads README's config as sweep.cfg from the
        # working directory.
        (config,) = readme_blocks("ini")
        (commands,) = [b for b in readme_blocks("sh") if b.startswith("majent ")]
        (tmp_path / "sweep.cfg").write_text(config)
        monkeypatch.chdir(tmp_path)
        ran = set()
        for line in commands.splitlines():
            program, *argv = shlex.split(line)
            code, out, err = run(argv)
            # Reference pair 1 violates supermodularity at (2, 3).
            want = EXIT_VIOLATION if "check" in argv else EXIT_OK
            assert (program, code, err, bool(out)) == ("majent", want, "", True), line
            ran.update(argv[:1])
        assert {"check", "sweep"} <= ran
