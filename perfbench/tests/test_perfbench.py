"""Tests of the benchmark itself, on tiny runs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostscale  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "COLD_SWEEPS_PER_PROCESS", 1)
    monkeypatch.setattr(run, "TRACED_COLD_SWEEPS", 2)
    monkeypatch.setattr(run, "MIN_CLI_INVOCATIONS", 5)


def bench(capsys, workload, trace, seed=3, seconds=0.4):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_appears_with_its_unit(tiny, capsys, workload, trace):
    code, detail, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"], detail["messages"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    host = detail["host"]
    assert host["nproc"] >= 1 and host["python"] and host["numpy"]
    assert "steal_ticks_delta" in host and "loadavg_end" in host


def test_join_is_never_called_on_the_subadditive_sweep(tiny, capsys):
    _, _, result = bench(capsys, "sweep-subadditive", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("lattice.join", "lattice.pre_join", "lattice.flatten"):
        assert metrics[f"{layer}.calls_per_trial"] == 0.0
    assert metrics["lattice.meet.calls_per_trial"] == 1.0


def test_call_counts_per_trial_repeat_exactly_across_seeds(tiny, capsys):
    runs = [bench(capsys, "sweep-mixed", 1, seed=seed)[2]["metrics"] for seed in (5, 6)]
    counts = [{k: v["value"] for k, v in m.items() if k.endswith("calls_per_trial")} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["lattice.join.calls_per_trial"] > 0


def test_gate_trips_on_a_tampered_frozen_pass():
    from worker import SweepRunner, _import_majent

    _import_majent()
    runner = SweepRunner("sweep-mixed", wl.DEFAULT_SEED)
    seed = wl.derive_seed("sweep-mixed", wl.DEFAULT_SEED, 0)
    report = runner.search.sweep(runner.config(seed))
    frozen = wl.load_expected()["sweep-mixed"][0]
    assert runner.check(report, seed, frozen) == []
    assert runner.check(report, seed, ["0" * 16, frozen[1]])
    for cell in (0, len(frozen[1]) - 1):
        margins = list(frozen[1])
        margins[cell] += 2e-12 * max(1.0, abs(margins[cell]))
        assert runner.check(report, seed, [frozen[0], margins]) == [
            f"cell {cell}: worst_margin {frozen[1][cell]!r} differs from frozen {margins[cell]!r}"
        ]
    assert runner.check(report, seed + 1, frozen)  # the seed recorded in each cell


def test_gate_trips_on_a_tampered_cli_expectation(tiny, capsys, monkeypatch):
    honest = wl.cli_invocation

    def tampered(seed, index):
        inv = honest(seed, index)
        if inv.argv[0] == "compare":
            return wl.Invocation(inv.argv, inv.exit_code, ("text", "not-an-order"))
        return inv

    monkeypatch.setattr(wl, "cli_invocation", tampered)
    code, detail, result = bench(capsys, "cli-oneshot", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1
    assert any(m.startswith("compare") for m in detail["messages"])


def test_invariants_catch_a_wrong_verdict():
    spec = wl.SweepSpec((0.25, 0.5, 1.0, 2.0, 4.0), (-1.0, 0.0, 0.5, 2.0), tuple(range(2, 9)), ("supermodular",), 1)
    cells = [
        {"alpha": a, "beta": b, "property": k, "verdict": "theorem-guaranteed", "guaranteed": True,
         "worst_margin": 0.1, "trials": 1, "seed": 7, "counterexample": None}
        for a in spec.alpha_grid for b in spec.beta_grid for k in spec.properties
    ]
    problems = wl.check_cells(spec, cells, 7, 1)
    assert len(problems) == 4  # the four cells outside the proven region


def test_oracles_agree_with_majent_on_fresh_inputs():
    import contextlib
    import io

    from worker import _import_majent

    _import_majent()
    from majent.cli import main

    for index in range(40):
        inv = wl.cli_invocation(11, index)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(inv.argv))
        assert wl.check_invocation(inv, code, out.getvalue()) == [], inv.argv


def test_scaling_uses_the_references_around_each_operation():
    nominal = hostscale.KERNEL_NOMINAL_S
    assert hostscale.scale_series([1.0, 2.0], [nominal, nominal, 3 * nominal]) == [1.0, 1.0]
    refs = [1.0, 1.0, 9.0, 1.0, 1.0]  # one slow reference does not move the median of four
    assert hostscale.scale_series([1.0] * 4, refs, 1.0, window=2) == [1.0] * 4
    with pytest.raises(ValueError):
        hostscale.scale_series([1.0], [nominal])
    assert hostscale.run_kernel() > 0


def test_fails_without_majent_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
