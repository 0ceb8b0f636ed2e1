"""Host-speed scaling with fixed pure-Python reference work.

Timings on a shared virtual machine drift with the host's load by tens of
percent between runs, while steal time stays flat, so the drift cannot be
read off the operating system.  The benchmark therefore runs fixed
reference work between every two timed operations and divides each
operation's time by the reference's speed around it.

Two references, one per kind of operation:

* the kernel, pure Python shaped like a trial (Lorenz curves, sorting,
  power sums) on fixed inputs, run in-process between sweep passes and
  isolated layer timings; a scaled second is a second on a host where one
  kernel call takes ``KERNEL_NOMINAL_S``;
* the spawn reference, a fresh interpreter that imports numpy and exits,
  run between process start-ups (set-ups and CLI invocations); its nominal
  time is ``SPAWN_NOMINAL_S``.  Start-up time follows loading numpy's
  shared libraries, which host load slows far more than it slows bytecode:
  a spawn reference that imported only pure-Python modules tracked it no
  better than no scaling at all.

Neither touches majent, so no change to the program moves them.
"""
from __future__ import annotations

import math
import statistics
import time
from itertools import accumulate

#: Rounds of one kernel call.
KERNEL_ROUNDS = 80

#: Result of one kernel call; a different value means the kernel was edited.
KERNEL_CHECKSUM = 27933.829740111327

#: Reference duration of one kernel call, in seconds.  Scaled times are
#: expressed on a host where the kernel takes exactly this long.  It was
#: measured as the median on a 2-core KVM guest (Python 3.11, x86-64).
KERNEL_NOMINAL_S = 0.050

#: Command line of the spawn reference, after the interpreter.
SPAWN_REFERENCE = ("-c", "import numpy")

#: Reference spawn-to-exit time of the spawn reference, in seconds, from
#: the same host.
SPAWN_NOMINAL_S = 0.200


def _kernel_pairs() -> list[tuple[list[float], list[float]]]:
    """Fixed sorted probability vectors of dimension 2 to 64, drawn from a
    64-bit linear congruential generator as normalized exponentials."""
    state = 12345
    vectors = []
    for n in (2, 3, 4, 6, 8, 16, 32, 64):
        for _ in range(4):
            raw = []
            for _ in range(n):
                state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
                raw.append(-math.log(((state >> 11) + 1) / 2.0**53))
            total = sum(raw)
            vectors.append(sorted((x / total for x in raw), reverse=True))
    return list(zip(vectors, vectors[1:] + vectors[:1]))


_PAIRS = _kernel_pairs()


def _kernel_body(rounds: int) -> float:
    """Lorenz curves, their pointwise minimum, its sorted differences and
    power sums: the shape of a majent trial, written independently."""
    acc = 0.0
    for _ in range(rounds):
        for p, q in _PAIRS:
            n = max(len(p), len(q))
            a = list(accumulate(p + [0.0] * (n - len(p))))
            b = list(accumulate(q + [0.0] * (n - len(q))))
            prev = 0.0
            diffs = []
            for v in [min(x, y) for x, y in zip(a, b)]:
                diffs.append(v - prev)
                prev = v
            for w in (p, q, sorted(diffs, reverse=True)):
                power = 0.0
                for x in reversed(w):
                    if x > 0.0:
                        power += x**2.5
                acc += math.expm1(-0.5 * math.log(power))
    return acc


def run_kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    checksum = _kernel_body(KERNEL_ROUNDS)
    elapsed = time.perf_counter() - start
    if not math.isclose(checksum, KERNEL_CHECKSUM, rel_tol=1e-9):
        raise RuntimeError(f"reference kernel checksum {checksum} != {KERNEL_CHECKSUM}")
    return elapsed


def scale_series(
    raw: list[float], refs: list[float], nominal_s: float = KERNEL_NOMINAL_S, window: int = 1
) -> list[float]:
    """Scale ``raw[i]``, timed between ``refs[i]`` and ``refs[i + 1]``, by
    the median of the ``window`` references on each side of it."""
    if len(refs) != len(raw) + 1:
        raise ValueError("need one more reference time than operations")
    return [
        r * nominal_s / statistics.median(refs[max(0, i + 1 - window) : i + 1 + window])
        for i, r in enumerate(raw)
    ]
