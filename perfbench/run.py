"""The majent benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere in a checkout that has majent's ``src/``; it imports
majent from there and installs nothing.  Workloads (see ``workloads.py``):

* ``sweep-subadditive``, ``sweep-mixed``: ``MEASURE_PROCESSES``
  processes in turn run ``search.sweep`` as many short passes, each with a
  fresh seed derived from ``--seed``, for ``--seconds`` in all; after each
  of them ``COLD_SWEEPS_PER_PROCESS`` one-shot ``majent sweep`` invocations
  of the same grid give the workload's cold start.
* ``cli-oneshot``: fresh ``majent`` processes one after another (a closed
  loop with one client) cycling through check, verify-paper, entropy,
  compare and join --exact, for ``--seconds`` and at least
  ``MIN_CLI_INVOCATIONS`` of them, which can take longer.

Every timed operation sits between two runs of fixed reference work and is
reported in host-scaled time (``hostscale.py``); the raw values are in the
detail line.  Before the timing starts the workload is set up
``SETUP_SAMPLES`` times in fresh interpreters that then exit.

Output: a detail line ``{"detail": {...}}`` with raw values, sample counts,
failures and host metadata, then the result line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones from a traced run.
Exit status: 0 when every output was correct, 1 when the correctness gate
failed, 2 when the checkout has no majent sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostscale
import tracer as tr
import workloads as wl
from traced_cli import TRACE_MARK
from worker import Outcomes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Processes that share the timed passes of an untraced sweep run.  Each
#: process lands in one of a few speed modes, a few percent apart, so the
#: run reports the mean of the processes' medians rather than one mode.
MEASURE_PROCESSES = 4

#: One-shot ``majent sweep`` invocations after each measuring process, and
#: in a traced run.  Spreading them over the run keeps a burst of host load
#: from landing on most of them, which would move their p90.
COLD_SWEEPS_PER_PROCESS = 15
TRACED_COLD_SWEEPS = 6

#: Invocations per cli-oneshot run, at least: p90 then has ten beyond it.
MIN_CLI_INVOCATIONS = 100

#: References on each side whose median scales a process start-up.  One
#: start-up of the reference is noisy on its own; the median of six follows
#: the host as well and keeps the reference's noise out of the tail.
SPAWN_WINDOW = 3

#: A child process still running after this long counts as failed.
CHILD_TIMEOUT_S = 120.0

MAJENT_MAIN = "import sys; from majent.cli import main; sys.exit(main())"


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    spawned_at: float
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str], env: dict) -> Child:
    """Run ``argv`` to completion; wall time is spawn to exit."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = spawned_at + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            if time.monotonic() > deadline:
                proc.kill()
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - spawned_at
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f]).decode(errors="replace") for f in (proc.stdout, proc.stderr))
    return Child(code, out, err, spawned_at, wall, usage.ru_maxrss / 1024.0)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    env: dict
    outcomes: Outcomes = field(default_factory=Outcomes)
    numpy_version: str | None = None
    spans: list = field(default_factory=list)

    def worker(self, role: str, seconds: float = 0.0, first: int = 0, step: int = 1) -> tuple[Child, dict | None]:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--role", role, "--seconds", repr(seconds),
                "--trace", str(int(self.trace)), "--first", str(first), "--step", str(step)]
        child = spawn(argv, self.env)
        try:
            data = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.outcomes.add([f"worker {role} exited {child.code}: {child.stderr.strip()[-500:]}"])
            return child, None
        self.outcomes.add(data["messages"], data["attempted"], data["failed"])
        if child.code != 0:
            self.outcomes.add([f"worker {role} exited {child.code}"])
        self.numpy_version = data["numpy_version"]
        return child, data

    def spawn_reference(self) -> float:
        return spawn([sys.executable, *hostscale.SPAWN_REFERENCE], self.env).wall_s

    def setups(self) -> tuple[list[float], list[float]]:
        """``SETUP_SAMPLES`` set-ups in fresh interpreters, each between two
        spawn references; returns scaled and raw set-up times."""
        refs = [self.spawn_reference()]
        raw = []
        for _ in range(SETUP_SAMPLES):
            child, data = self.worker("setup")
            refs.append(self.spawn_reference())
            if data is None:
                return [], []
            raw.append(data["ready_at"] - child.spawned_at)
        return hostscale.scale_series(raw, refs, hostscale.SPAWN_NOMINAL_S, SPAWN_WINDOW), raw

    def invocations(self, make, seconds: float, min_count: int, traced, whole: int = 1) -> list[dict]:
        """Fresh ``majent`` processes one after another, each between two
        spawn references, for ``seconds`` and at least ``min_count`` of them,
        stopping only after a multiple of ``whole``.

        ``make(i)`` returns (argv, check) for the i-th invocation; ``check``
        maps (exit code, stdout) to a list of problems.  ``traced(i)`` says
        whether it runs under ``traced_cli.py``.
        """
        results = []
        refs = [self.spawn_reference()]
        deadline = time.monotonic() + seconds
        i = 0
        while i < min_count or time.monotonic() < deadline or i % whole:
            argv, check = make(i)
            is_traced = traced(i)
            prefix = [str(HERE / "traced_cli.py")] if is_traced else ["-c", MAJENT_MAIN]
            child = spawn([sys.executable, *prefix, *argv], self.env)
            refs.append(self.spawn_reference())
            stderr, _, payload = child.stderr.rpartition(TRACE_MARK)
            trace = None
            if is_traced:
                try:
                    trace = json.loads(payload)
                except ValueError:
                    stderr = child.stderr
            problems = check(child.code, child.stdout)
            if is_traced and trace is None:
                problems.append(f"{argv[0]}: no trace: {stderr.strip()[-300:]}")
            self.outcomes.add(problems)
            results.append({"raw_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb, "trace": trace})
            if trace and len(self.spans) < tr.SPAN_CAP:
                self.spans.extend(trace["spans"])
            i += 1
        scaled = hostscale.scale_series([r["raw_s"] for r in results], refs, hostscale.SPAWN_NOMINAL_S, SPAWN_WINDOW)
        for r, s in zip(results, scaled):
            r.update(scaled_s=s, factor=s / r["raw_s"])
        return results

    def cold_sweeps(self, first: int, count: int) -> list[dict]:
        """One-shot ``majent sweep`` invocations ``first`` to ``first +
        count - 1`` of the run, on the workload's grid; all traced in a
        traced run."""
        spec = wl.SWEEPS[self.workload]
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"{self.workload}-{os.getpid()}.cfg"

        def make(i):
            seed = wl.derive_seed(self.workload + "/cold", self.seed, first + i)
            path.write_text(spec.config_text(seed, wl.COLD_SWEEP_TRIALS), encoding="utf-8")
            argv = ["sweep", "--config", str(path), "--format", "json"]
            return argv, lambda code, out: wl.cold_sweep_check(spec, seed, code, out)

        try:
            return self.invocations(make, 0.0, count, lambda i: self.trace)
        finally:
            path.unlink(missing_ok=True)

    def cli_calls(self, seconds: float, min_count: int, traced, whole: int = 1) -> list[dict]:
        def make(i):
            inv = wl.cli_invocation(self.seed, i)
            return list(inv.argv), lambda code, out: wl.check_invocation(inv, code, out)

        return self.invocations(make, seconds, min_count, traced, whole)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The end-to-end metrics and their raw (unscaled) counterparts."""
    setup_scaled, setup_raw = run.setups()
    if not setup_scaled:
        return {}, {}
    if run.workload in wl.SWEEPS:
        parts, cold = [], []
        for k in range(MEASURE_PROCESSES):
            _, data = run.worker("measure", run.seconds / MEASURE_PROCESSES, k, MEASURE_PROCESSES)
            if data is None:
                return {}, {}
            parts.append(data)
            cold += run.cold_sweeps(k * COLD_SWEEPS_PER_PROCESS, COLD_SWEEPS_PER_PROCESS)
        trials = parts[0]["trials_per_pass"]
        rate = statistics.fmean(statistics.median(trials / s for s in d["scaled_s"]) for d in parts)
        rate_raw = statistics.fmean(statistics.median(trials / s for s in d["raw_s"]) for d in parts)
        rss = statistics.median(d["peak_rss_mb"] for d in parts)
        samples = {"passes": sum(len(d["raw_s"]) for d in parts), "trials_per_pass": trials,
                   "frozen_checked": sum(d["frozen_checked"] for d in parts)}
    else:
        cold = run.cli_calls(run.seconds, MIN_CLI_INVOCATIONS, lambda i: False)
        rate = len(cold) / sum(c["scaled_s"] for c in cold)
        rate_raw = len(cold) / sum(c["raw_s"] for c in cold)
        rss = statistics.median(c["peak_rss_mb"] for c in cold)
        samples = {}
    samples.update(setups=len(setup_scaled), cold_starts=len(cold))
    scaled_ms = [c["scaled_s"] * 1e3 for c in cold]
    raw_ms = [c["raw_s"] * 1e3 for c in cold]
    metrics = {
        "trials_per_s": rate,
        "cold_start_p50_ms": statistics.median(scaled_ms),
        "cold_start_p90_ms": p90(scaled_ms),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss,
    }
    raw = {
        "trials_per_s": rate_raw,
        "cold_start_p50_ms": statistics.median(raw_ms),
        "cold_start_p90_ms": p90(raw_ms),
        "setup_s": statistics.median(setup_raw),
        "samples": samples,
    }
    return metrics, raw


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run.

    On a sweep workload a trial is one sweep trial of the traced passes; on
    cli-oneshot an invocation counts as one trial.
    """
    if run.workload in wl.SWEEPS:
        _, data = run.worker("measure", run.seconds)
        if data is None:
            return {}, {}
        trace = data["trace"]
        run.spans.extend(trace["spans"])
        invocations = run.cold_sweeps(0, TRACED_COLD_SWEEPS)
        trials = trace["trials"]
        layers = trace["layers"]
        repairs = trace["repairs"]
        overhead = trace["overhead_share"]
        sweep_self = layers.get("search.sweep", [0, 0.0])[1]
        isolated = data["isolated"]
    else:
        _, data = run.worker("isolated")
        if data is None:
            return {}, {}
        isolated = data["isolated"]
        # every command once untraced and once traced per cycle, and whole
        # cycles only, so that calls per invocation repeat exactly
        cycle = 2 * wl.CLI_COMMANDS
        calls = run.cli_calls(run.seconds, cycle, lambda i: i % 2 == 1, whole=cycle)
        invocations = [c for c in calls if c["trace"]]
        trials = len(invocations)
        layers, repairs = {}, 0
        for c in invocations:
            repairs += c["trace"]["repairs"]
            for layer, (n, total, child) in c["trace"]["layers"].items():
                acc = layers.setdefault(layer, [0, 0.0])
                acc[0] += n
                acc[1] += (total - child) * c["factor"] / 1e3
        untraced = sum(c["scaled_s"] for c in calls if not c["trace"])
        overhead = 1.0 - untraced / sum(c["scaled_s"] for c in invocations)
        sweep_self = 0.0
    metrics = {}
    for layer in tr.REPORTED_LAYERS:
        calls_n, self_us = layers.get(layer, [0, 0.0])
        metrics[f"{layer}.calls_per_trial"] = calls_n / trials
        metrics[f"{layer}.self_us_per_trial"] = self_us / trials
    pre_joins = layers.get("lattice.pre_join", [0, 0.0])[0]
    metrics["lattice.join.repair_share"] = repairs / pre_joins if pre_joins else 0.0
    metrics["search.sweep.self_us_per_trial"] = sweep_self / trials

    def median_ms(layer: str, self_time: bool = False) -> float:
        values = []
        for c in invocations:
            n, total, child = c["trace"]["layers"].get(layer, (0, 0, 0))
            values.append(((total - child) if self_time else total) * c["factor"] / 1e6)
        return statistics.median(values) if values else 0.0

    metrics["import.numpy_ms"] = median_ms("import.numpy")
    metrics["import.majent_ms"] = median_ms("import.majent", self_time=True)
    metrics["cli.main.self_ms"] = median_ms("cli.main", self_time=True)
    metrics["trace.overhead_share"] = overhead
    for layer, us in isolated.items():
        metrics[f"isolated.{layer}.us_per_call"] = us
    return metrics, {"samples": {"traced_trials": trials, "traced_invocations": len(invocations)}}


def host_state() -> dict:
    with open("/proc/stat", encoding="ascii") as fh:
        steal = int(fh.readline().split()[8])
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal}


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "majent" / "__init__.py").is_file():
        print(f"error: no majent sources under {src}", file=sys.stderr)
        return 2
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), env)
    start = host_state()
    metrics, raw = (per_layer if args.trace else end_to_end)(run)
    end = host_state()

    outcomes = run.outcomes
    missing = sorted({m["name"] for m in declared} - metrics.keys())
    if missing:
        outcomes.add([f"metrics not measured: {missing}"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "raw": raw,
        "failed_share": outcomes.failed / max(1, outcomes.attempted),
        "messages": outcomes.messages,
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": run.numpy_version,
            "loadavg_start": start["loadavg"],
            "loadavg_end": end["loadavg"],
            "steal_ticks_delta": end["steal_ticks"] - start["steal_ticks"],
            "kernel_nominal_s": hostscale.KERNEL_NOMINAL_S,
            "spawn_nominal_s": hostscale.SPAWN_NOMINAL_S,
        },
    }
    if run.spans:
        WORK_DIR.mkdir(exist_ok=True)
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(run.spans), encoding="utf-8")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    correct = outcomes.failed == 0 and outcomes.attempted > 0 and not missing
    result = {
        "correct": correct,
        "attempted": max(1, outcomes.attempted),
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
