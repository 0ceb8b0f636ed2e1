"""The paper's two reference counterexamples at (alpha, beta) = (2, 3).

The first pair breaks supermodularity, the second submodularity.
:func:`verify_paper_counterexamples` replays both through
:func:`~majent.properties.run_check` in Python floats, without numpy or the
search, and sweeps inject them as the leading trials of a cell.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .entropy import EntropyParams, sharma_mittal
from .properties import PropertyCheckRecord, PropertyKind, run_check
from .simplex import ProbabilityDistribution, make_distribution


class ReproductionError(RuntimeError):
    """The built-in reference counterexamples failed to reproduce."""


class ReferencePair(NamedTuple):
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


class CounterexampleRecord(NamedTuple):
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
