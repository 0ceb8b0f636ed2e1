"""Majorization lattice and the Sharma-Mittal entropy family on the simplex.

The package provides canonicalized probability vectors with the
majorization partial order (:mod:`majent.simplex`), the meet and join of
that order (:mod:`majent.lattice`), the two-parameter entropy family with
its Shannon, Renyi and Tsallis specializations (:mod:`majent.entropy`),
oriented inequality checks between entropies of pairs and their lattice
bounds (:mod:`majent.properties`) and deterministic randomized region
sweeps with built-in reference counterexamples (:mod:`majent.search`).
Every name is imported from the module that defines it.
"""

__version__ = "0.1.0"
