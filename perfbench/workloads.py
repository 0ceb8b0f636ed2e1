"""Workload definitions, input generation and output checks.

Everything here is plain standard library: the parent process imports it
without importing majent, and the checks use their own small oracles (the
guarantee table, exact Lorenz curves, the Sharma-Mittal formula) instead of
asking majent what the right answer is.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

#: Seed used when ``--seed`` is not given; frozen per-pass results exist
#: for this seed only.
DEFAULT_SEED = 1

#: Violation threshold of majent's checks (``properties.CHECK_TOL``).
CHECK_TOL = 1e-9

#: Frozen per-pass results at ``DEFAULT_SEED``, written by ``freeze.py``.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep workload: the grid of a pass and the pass size."""

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    dims: tuple[int, ...]
    properties: tuple[str, ...]
    trials_per_cell: int

    @property
    def cells(self) -> int:
        return len(self.alpha_grid) * len(self.beta_grid) * len(self.properties)

    @property
    def trials_per_pass(self) -> int:
        return self.cells * self.trials_per_cell

    def config_text(self, seed: int, trials_per_cell: int) -> str:
        """The same grid in the ``majent sweep --config`` file format."""

        def fmt(values):
            return ",".join(repr(v) for v in values)

        return (
            f"alpha_grid = {fmt(self.alpha_grid)}\n"
            f"beta_grid = {fmt(self.beta_grid)}\n"
            f"dims = {fmt(self.dims)}\n"
            f"properties = {','.join(self.properties)}\n"
            f"trials_per_cell = {trials_per_cell}\n"
            f"seed = {seed}\n"
        )


ALL_PROPERTIES = ("subadditive", "superadditive", "generalized", "supermodular", "submodular")

#: Trials per cell size a pass at about 45 ms on a 2-core KVM guest, close
#: to one reference kernel call; sweep-mixed needs 8 to draw every dimension
#: in cells that start with the two injected reference pairs.
SWEEPS = {
    # Acceptance c3 grid; meet-only, so join and flatten are never called.
    "sweep-subadditive": SweepSpec(
        (0.0, 0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0), tuple(range(2, 9)), ("subadditive",), 40
    ),
    # Every property, negative orders, the alpha -> 1 branch and n up to 64.
    "sweep-mixed": SweepSpec(
        (-1.0, 0.5, 1.0, 2.0), (1.5, 2.0, 3.0), (2, 4, 8, 16, 32, 64), ALL_PROPERTIES, 8
    ),
}

CLI_WORKLOAD = "cli-oneshot"
WORKLOADS = (*SWEEPS, CLI_WORKLOAD)

#: Trials per cell of the one-shot ``majent sweep`` invocations that give a
#: sweep workload its cold-start numbers.
COLD_SWEEP_TRIALS = 4


def derive_seed(workload: str, seed: int, index: int) -> int:
    """A 63-bit seed for the ``index``-th pass or invocation of a run."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# ---------------------------------------------------------------------------
# Sweep checks


def guaranteed(prop: str, alpha: float, beta: float) -> bool:
    """The paper's proven regions, boundaries inclusive."""
    if prop == "subadditive":
        return alpha >= 0.0 and beta >= 1.0
    if prop == "superadditive":
        return alpha < 0.0 and beta <= 1.0
    if prop == "supermodular":
        return alpha > 0.0 and beta <= alpha
    return False


def check_cells(spec: SweepSpec, cells: list[dict], seed: int, trials_per_cell: int) -> list[str]:
    """Seed-independent invariants of one sweep report; returns the problems.

    Cells come in grid order; each verdict agrees with the guarantee table;
    a counterexample is below the violation threshold; and the cells at
    (alpha, beta) = (2, 3) flag the injected reference pair at trial 0 or 1.
    """
    problems = []
    order = [(a, b, k) for a in spec.alpha_grid for b in spec.beta_grid for k in spec.properties]
    if len(cells) != len(order):
        return [f"{len(cells)} cells, expected {len(order)}"]
    for (a, b, k), cell in zip(order, cells):
        where = f"cell ({a}, {b}, {k})"
        if (cell["alpha"], cell["beta"], cell["property"]) != (a, b, k):
            problems.append(f"{where}: got ({cell['alpha']}, {cell['beta']}, {cell['property']})")
            continue
        if cell["trials"] != trials_per_cell or cell["seed"] != seed:
            problems.append(f"{where}: trials {cell['trials']}, seed {cell['seed']}")
        if not math.isfinite(cell["worst_margin"]):
            problems.append(f"{where}: worst_margin {cell['worst_margin']!r}")
        g = guaranteed(k, a, b)
        ce = cell["counterexample"]
        want = "theorem-guaranteed" if g else "violation-found" if ce else "no-violation-found"
        if cell["guaranteed"] != g or cell["verdict"] != want or (g and ce):
            problems.append(f"{where}: verdict {cell['verdict']}, guaranteed {cell['guaranteed']}")
        if ce is not None and not (ce["margin"] < -CHECK_TOL and ce["margin"] >= cell["worst_margin"]):
            problems.append(f"{where}: counterexample margin {ce['margin']!r}")
        if (a, b) == (2.0, 3.0) and k in ("supermodular", "submodular"):
            if ce is None or ce["trial_index"] not in (0, 1):
                problems.append(f"{where}: reference pair not flagged at trial 0 or 1")
    return problems


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def freeze_cells(cells: list[dict]) -> list:
    """Frozen form of one pass: a hash of every verdict and
    first-counterexample trial index, and every cell's worst margin."""
    exact = [[c["verdict"], c["counterexample"]["trial_index"] if c["counterexample"] else None] for c in cells]
    h = hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16]
    return [h, [c["worst_margin"] for c in cells]]


def check_frozen(cells: list[dict], frozen: list) -> list[str]:
    """Compare one pass with its frozen form; each cell's worst margin to
    1e-12 (relative above magnitude 1)."""
    h, margins = freeze_cells(cells)
    problems = []
    if h != frozen[0]:
        problems.append(f"verdicts or counterexample trials differ from frozen hash {frozen[0]}")
    if len(margins) != len(frozen[1]):
        return problems + [f"{len(margins)} worst margins, frozen {len(frozen[1])}"]
    for i, (got, want) in enumerate(zip(margins, frozen[1])):
        if not _close(got, want):
            problems.append(f"cell {i}: worst_margin {got!r} differs from frozen {want!r}")
    return problems


def load_expected() -> dict:
    with EXPECTED_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI workload

#: Reference pair 1 from the paper, which breaks supermodularity at (2, 3).
REF_P = "0.5,0.3,0.1,0.1"
REF_Q = "0.4,0.4,0.2,0.0"


@dataclass(frozen=True)
class Invocation:
    """One ``majent`` command line and what it must print."""

    argv: tuple[str, ...]
    exit_code: int
    expect: tuple  # (kind, value) understood by check_invocation


def _random_dist(rng: random.Random) -> list[Fraction]:
    n = rng.randint(3, 8)
    raw = [rng.randint(0, 20) for _ in range(n)]
    raw[0] += 1
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def _dist_text(dist: list[Fraction]) -> str:
    return ",".join(f"{w.numerator}/{w.denominator}" for w in dist)


def _lorenz(dist: list[Fraction], n: int) -> list[Fraction]:
    ws = sorted(dist, reverse=True) + [Fraction(0)] * (n - len(dist))
    return list(accumulate(ws))


def oracle_compare(p: list[Fraction], q: list[Fraction]) -> str:
    n = max(len(p), len(q))
    lp, lq = _lorenz(p, n), _lorenz(q, n)
    p_below = all(x <= y for x, y in zip(lp, lq))
    q_below = all(y <= x for x, y in zip(lp, lq))
    if p_below and q_below:
        return "equal"
    return "majorized-by" if p_below else "majorizes" if q_below else "incomparable"


def oracle_join(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Least upper bound: the least concave majorant of the max curve."""
    n = max(len(p), len(q))
    high = [max(x, y) for x, y in zip(_lorenz(p, n), _lorenz(q, n))]
    blocks: list[list] = []  # [sum, count]; block averages stay non-increasing
    prev = Fraction(0)
    for value in high:
        blocks.append([value - prev, 1])
        prev = value
        while len(blocks) > 1 and blocks[-2][0] * blocks[-1][1] < blocks[-1][0] * blocks[-2][1]:
            s, c = blocks.pop()
            blocks[-1][0] += s
            blocks[-1][1] += c
    return [s / c for s, c in blocks for _ in range(c)]


def oracle_sharma_mittal(dist: list[Fraction], alpha: float, beta: float) -> float:
    power = math.fsum(float(w) ** alpha for w in dist if w > 0)
    return math.expm1((1.0 - beta) / (1.0 - alpha) * math.log(power)) / (1.0 - beta)


def cli_invocation(seed: int, index: int) -> Invocation:
    """The ``index``-th invocation of a cli-oneshot run: the five commands
    in a fixed cycle, with fresh inputs drawn from the seed each time."""
    rng = random.Random(derive_seed(CLI_WORKLOAD, seed, index))
    slot = index % 5
    if slot == 0:
        argv = ("check", "--property", "supermodular", "--p", REF_P, "--q", REF_Q, "--alpha", "2", "--beta", "3")
        return Invocation(argv, 1, ("check", -0.0004))
    if slot == 1:
        return Invocation(("verify-paper", "--format", "json"), 0, ("verify", None))
    if slot == 2:
        dist = _random_dist(rng)
        alpha = rng.choice((0.5, 2.0, 3.0, 5.0))
        beta = rng.choice((0.5, 2.0, 3.0))
        argv = ("entropy", "--dist", _dist_text(dist), "--alpha", repr(alpha), "--beta", repr(beta))
        return Invocation(argv, 0, ("float", oracle_sharma_mittal(dist, alpha, beta)))
    p, q = _random_dist(rng), _random_dist(rng)
    if slot == 3:
        return Invocation(("compare", "--p", _dist_text(p), "--q", _dist_text(q)), 0, ("text", oracle_compare(p, q)))
    argv = ("join", "--exact", "--p", _dist_text(p), "--q", _dist_text(q))
    return Invocation(argv, 0, ("fractions", oracle_join(p, q)))


CLI_COMMANDS = 5

_REFERENCE_MARGINS = {"reference-pair-1": -0.0004, "reference-pair-2": -0.0057}


def check_invocation(inv: Invocation, code: int, stdout: str) -> list[str]:
    """Compare one invocation's exit code and standard output with ``inv``."""
    if code != inv.exit_code:
        return [f"{inv.argv[0]}: exit {code}, expected {inv.exit_code}"]
    kind, want = inv.expect
    out = stdout.strip()
    try:
        if kind == "check":
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            ok = fields["verdict"] == "violated" and _close(float(fields["margin"]), want)
        elif kind == "verify":
            records = json.loads(out)
            got = {r["source"]: r["margin"] for r in records}
            ok = len(records) == 2 and got.keys() == _REFERENCE_MARGINS.keys() and all(
                _close(got[k], v) for k, v in _REFERENCE_MARGINS.items()
            )
        elif kind == "float":
            ok = _close(float(out), want)
        elif kind == "text":
            ok = out == want
        else:
            ok = [Fraction(x) for x in out.split(",")] == want
    except (ValueError, KeyError, TypeError) as err:
        return [f"{inv.argv[0]}: unreadable output {out[:80]!r} ({err})"]
    return [] if ok else [f"{' '.join(inv.argv)}: output {out[:200]!r}"]


def cold_sweep_check(spec: SweepSpec, seed: int, code: int, stdout: str) -> list[str]:
    """Check the JSON report of a one-shot ``majent sweep`` invocation."""
    if code != 0:
        return [f"sweep: exit {code}, expected 0"]
    try:
        report = json.loads(stdout)
        cells = report["cells"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"sweep: unreadable report ({err})"]
    return check_cells(spec, cells, seed, COLD_SWEEP_TRIALS)
