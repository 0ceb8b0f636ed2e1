"""One workload process: set-up, timed sweep passes, isolated layer timings.

``run.py`` starts this file as a fresh interpreter with majent's ``src``
on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload NAME --seed N --role ROLE \
        [--seconds S] [--trace 0|1] [--first I --step K]

``--role setup`` imports majent, builds the workload's inputs, runs one
warm-up operation and exits; ``measure`` goes on to time sweep passes for
``--seconds``; ``isolated`` times single layers on fixed inputs.  The
result is one JSON object on standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import hostscale
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

#: Failure messages kept per run; the count is kept in full.
MAX_MESSAGES = 20

#: Wall time of one isolated-timing sample, in seconds.
ISOLATED_CHUNK_S = 0.03


class Outcomes:
    """Counts checked operations and failed ones, with the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str], attempted: int = 1, failed: int | None = None) -> None:
        """Count ``attempted`` operations, of which ``failed`` failed (by
        default one if there are ``problems``)."""
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.messages.extend(problems[: MAX_MESSAGES - len(self.messages)])


class SweepRunner:
    """Builds one pass's config from its seed and runs it."""

    def __init__(self, workload: str, seed: int) -> None:
        from majent import search
        from majent.properties import PropertyKind

        self.search = search
        self.workload = workload
        self.seed = seed
        self.spec = wl.SWEEPS[workload]
        self.kinds = tuple(PropertyKind(k) for k in self.spec.properties)

    def config(self, pass_seed: int):
        s = self.spec
        return self.search.SweepConfig(
            alpha_grid=s.alpha_grid,
            beta_grid=s.beta_grid,
            dims=s.dims,
            trials_per_cell=s.trials_per_cell,
            seed=pass_seed,
            properties=self.kinds,
        )

    def check(self, report, pass_seed: int, frozen) -> list[str]:
        cells = report.to_json_dict()["cells"]
        problems = wl.check_cells(self.spec, cells, pass_seed, self.spec.trials_per_cell)
        if frozen is not None:
            problems += wl.check_frozen(cells, frozen)
        return problems


def _import_majent() -> None:
    """Import majent and make sure it is the checkout's, not an installed one."""
    import majent
    import majent.cli  # noqa: F401 - part of the set-up cost

    src = (ROOT / "src").resolve()
    if src not in Path(majent.__file__).resolve().parents:
        raise SystemExit(f"majent was imported from {majent.__file__}, not from {src}")


def setup(workload: str, seed: int, outcomes: Outcomes):
    """Imports, input build and one warm-up operation."""
    _import_majent()
    if workload == wl.CLI_WORKLOAD:
        from majent.cli import main

        for index in range(wl.CLI_COMMANDS):
            inv = wl.cli_invocation(seed, index)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(inv.argv))
            outcomes.add(wl.check_invocation(inv, code, out.getvalue()))
        return None
    runner = SweepRunner(workload, seed)
    warm_seed = wl.derive_seed(workload, seed, -1)
    outcomes.add(runner.check(runner.search.sweep(runner.config(warm_seed)), warm_seed, None))
    return runner


def measure(runner: SweepRunner, seconds: float, trace: bool, first: int, step: int, outcomes: Outcomes) -> dict:
    """Alternate timed passes with the reference kernel for ``seconds``.

    The passes are number ``first``, ``first + step``, ... of the run, so
    that several processes can share a run without repeating a pass.  With
    ``trace`` every second pass runs under the tracer; the untraced passes
    in between give the tracing overhead.
    """
    search = runner.search
    frozen_all = wl.load_expected()[runner.workload] if runner.seed == wl.DEFAULT_SEED else []
    tracer = tr.Tracer(span_cap=tr.SPAN_CAP)
    kernels = [hostscale.run_kernel()]
    raw, traced, deltas = [], [], []
    deadline = time.perf_counter() + seconds
    done = frozen_checked = 0
    while done < 2 or time.perf_counter() < deadline:
        index = first + done * step
        pass_seed = wl.derive_seed(runner.workload, runner.seed, index)
        config = runner.config(pass_seed)
        is_traced = trace and done % 2 == 1
        if is_traced:
            tracer.install(tr.PIPELINE_TARGETS)
            before = tracer.snapshot()
        report = None
        start = time.perf_counter()
        try:
            if is_traced:
                report = tracer.call("search.sweep", search.sweep, config)
            else:
                report = search.sweep(config)
        except Exception as err:  # a pass that raises is a failed operation
            problems = [f"pass {index}: {type(err).__name__}: {err}"]
        elapsed = time.perf_counter() - start
        if is_traced:
            tracer.uninstall()
            deltas.append(tr.delta(before, tracer.snapshot()))
        kernels.append(hostscale.run_kernel())
        if report is not None:
            frozen = frozen_all[index] if index < len(frozen_all) else None
            frozen_checked += frozen is not None
            problems = runner.check(report, pass_seed, frozen)
        outcomes.add(problems)
        raw.append(elapsed)
        traced.append(is_traced)
        done += 1
    scaled = hostscale.scale_series(raw, kernels)
    out = {
        "trials_per_pass": runner.spec.trials_per_pass,
        "raw_s": raw,
        "scaled_s": scaled,
        "frozen_checked": frozen_checked,
    }
    if trace:
        out["trace"] = _trace_summary(runner, tracer, raw, scaled, traced, deltas)
    return out


def _trace_summary(runner, tracer, raw, scaled, traced, deltas) -> dict:
    factors = [s / r for s, r, t in zip(scaled, raw, traced) if t]
    layers: dict[str, list[float]] = {}
    for factor, d in zip(factors, deltas):
        for layer, (calls, _total, self_ns) in d.items():
            acc = layers.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_ns * factor / 1e3
    per_trial = runner.spec.trials_per_pass
    untraced = [s for s, t in zip(scaled, traced) if not t]
    with_trace = [s for s, t in zip(scaled, traced) if t]
    return {
        "trials": per_trial * len(deltas),
        "layers": layers,  # layer -> [calls, scaled self µs]
        "repairs": tracer.repairs,
        "overhead_share": 1.0 - statistics.median(untraced) / statistics.median(with_trace),
        "spans": tracer.spans,
    }


def isolated(workload: str, seed: int) -> dict[str, float]:
    """Scaled µs per call of single layers on fixed inputs from the workload.

    A pair of each dimension of the workload is drawn once; the entropy is
    evaluated at every order pair of the grid and each check at every cell.
    A layer whose function a refactor removed reports 0.
    """
    import numpy
    from majent import entropy, lattice, properties, search
    from majent.entropy import EntropyParams
    from majent.simplex import make_distribution

    # cli-oneshot's commands work on pairs of dimension 3 to 8 at (2, 3).
    spec = wl.SWEEPS.get(workload) or wl.SweepSpec((2.0,), (3.0,), tuple(range(3, 9)), ("supermodular",), 1)
    base = wl.derive_seed(workload, seed, -2)
    rng = random.Random(base)

    def draw(n):
        weights = [rng.expovariate(1.0) for _ in range(n)]
        total = sum(weights)
        return make_distribution([w / total for w in weights])

    pairs = [(draw(n), draw(n)) for n in spec.dims]
    params = [EntropyParams.make(a, b) for a in spec.alpha_grid for b in spec.beta_grid]
    kinds = [properties.PropertyKind(k) for k in spec.properties]
    dists = [d for pair in pairs for d in pair]

    def draws():
        for t, n in enumerate(spec.dims):
            search.trial_stream(base, 1, t).standard_exponential(n)

    stream = numpy.random.default_rng(base)

    def samples():
        for n in spec.dims:
            search.sample_simplex(n, stream)

    cases = {
        "search.trial_stream": (draws, len(spec.dims)),
        "search.sample_simplex": (samples, len(spec.dims)),
        "lattice.meet": (lambda: [lattice.meet(p, q) for p, q in pairs], len(pairs)),
        "lattice.join": (lambda: [lattice.join(p, q) for p, q in pairs], len(pairs)),
        "entropy.sharma_mittal": (
            lambda: [entropy.sharma_mittal(d, prm) for d in dists for prm in params],
            len(dists) * len(params),
        ),
        "properties.run_check": (
            lambda: [properties.run_check(k, p, q, prm) for p, q in pairs for prm in params for k in kinds],
            len(pairs) * len(params) * len(kinds),
        ),
    }
    out = {}
    for layer, (fn, calls) in cases.items():
        module, _, name = layer.rpartition(".")
        if not hasattr(sys.modules[f"majent.{module}"], name):
            out[layer] = 0.0
            continue
        start = time.perf_counter()
        fn()
        rounds = max(1, math.ceil(ISOLATED_CHUNK_S / (time.perf_counter() - start)))
        before = hostscale.run_kernel()
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        elapsed = time.perf_counter() - start
        after = hostscale.run_kernel()
        out[layer] = hostscale.scale_series([elapsed], [before, after])[0] / (rounds * calls) * 1e6
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "isolated"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first", type=int, default=0, help="index of the first pass")
    parser.add_argument("--step", type=int, default=1, help="index step between passes")
    args = parser.parse_args(argv)

    outcomes = Outcomes()
    out: dict = {}
    if args.role == "isolated":
        _import_majent()
        out["isolated"] = isolated(args.workload, args.seed)
    else:
        runner = setup(args.workload, args.seed, outcomes)
        out["ready_at"] = time.monotonic()
        if args.role == "measure":
            out.update(measure(runner, args.seconds, bool(args.trace), args.first, args.step, outcomes))
            if args.trace:
                out["isolated"] = isolated(args.workload, args.seed)
    import numpy

    out.update(
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        messages=outcomes.messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy_version=numpy.__version__,
    )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
