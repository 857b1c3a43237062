"""Entropy, divergence, and multivariate correlation functionals.

All quantities are in nats.  The conventions throughout: ``0 log 0 = 0``, and
KL divergence returns ``math.inf`` when the first argument is not absolutely
continuous with respect to the second.  Conditional entropies are evaluated
only over conditioning strings realized in the support, via the chain-rule
identity H(coord | rest) = H(joint) - H(rest).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .measures import (
    DiscreteMeasure,
    FuzzyPartition,
    MeasureError,
    MixtureRepresentation,
    Word,
    _sum,
    coordinate_marginals,
    fuzzy_split,
    hookup,
    marginal,
)


def _clip_roundoff(x: float) -> float:
    """Round a quantity that is nonnegative in exact arithmetic up to 0 when
    float error alone made it negative; a clearly negative value is kept, so
    that a real fault still shows."""
    return max(x, 0.0) if x > -1e-12 else x


def shannon_entropy(mu: DiscreteMeasure) -> float:
    """-sum p log p over the atoms of ``mu``."""
    return -_sum(m * math.log(m) for m in mu.atoms.values() if m > 0.0)


def entropy_of_vector(probs: Sequence[float]) -> float:
    """Entropy of a bare probability vector (zero entries contribute 0)."""
    return -_sum(p * math.log(p) for p in probs if p > 0.0)


def binary_entropy(p: float) -> float:
    return entropy_of_vector((p, 1.0 - p))


def kl_divergence(nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """KL divergence D(nu || mu); +inf unless supp(nu) is inside supp(mu)."""
    if nu.space != mu.space:
        raise MeasureError("kl_divergence needs measures on the same space")
    return _kl(nu.atoms.values(), map(mu.mass, nu.atoms))


def _kl(qs: Iterable[float], ps: Iterable[float]) -> float:
    """sum q log(q / p) over paired masses, left to right; +inf at a p of 0."""
    total = 0.0
    for q, p in zip(qs, ps):
        if p == 0.0:
            return math.inf
        total += q * math.log(q / p)
    return _clip_roundoff(total)


def per_coordinate_entropies(mu: DiscreteMeasure) -> tuple[float, ...]:
    return tuple(entropy_of_vector(row) for row in coordinate_marginals(mu))


#: supports whose leave-one-out groups are kept; one entry for 65,536 atoms on
#: 12 coordinates takes megabytes, and the decrement gate reuses a support
#: only within one step.  The groups keep the order in which their words first
#: appear, because `_grouped_entropy` must sum in that order (see there).
LOO_GROUP_CACHE_SIZE = 8


@lru_cache(maxsize=LOO_GROUP_CACHE_SIZE)
def _loo_groups(support: tuple[Word, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each coordinate i, the atom indices of the support grouped by the
    word with coordinate i deleted, in order of first appearance.

    Groups of one atom are left out: such a group adds q * -(1.0 * log 1.0)
    = -0.0 to a conditional entropy, so the sum is the same to the bit.
    """
    out = []
    for i in range(len(support[0])):
        groups: dict[Word, list[int]] = {}
        for k, w in enumerate(support):
            groups.setdefault(w[:i] + w[i + 1:], []).append(k)
        out.append(tuple(tuple(g) for g in groups.values() if len(g) > 1))
    return tuple(out)


def _grouped_entropy(masses: Sequence[float],
                     groups: Sequence[Sequence[int]]) -> float:
    # DTC feeds the decrement gate, whose choice of split turns on last-bit
    # differences, so these float operations must stay exactly as they are:
    # q, then h = sum of x log x over x = m / q > 0, each left to right in
    # word order, and total -= q h, which is total += q * entropy_of_vector.
    log = math.log
    total = 0.0
    for group in groups:
        q = 0.0
        for k in group:
            q += masses[k]
        h = 0.0
        for k in group:
            x = masses[k] / q
            if x > 0.0:
                h += x * log(x)
        total -= q * h
    return total


def conditional_coordinate_entropy(mu: DiscreteMeasure, i: int) -> float:
    """H(coordinate i | all other coordinates), grouping atoms by their projection."""
    if mu.space.dimension == 1:
        return shannon_entropy(mu)
    return _grouped_entropy(tuple(mu.atoms.values()), _loo_groups(mu.support)[i])


def total_correlation(mu: DiscreteMeasure) -> float:
    """Sum of marginal entropies minus joint entropy; equals the KL divergence
    from ``mu`` to the product of its marginals."""
    return _clip_roundoff(_sum(per_coordinate_entropies(mu)) - shannon_entropy(mu))


def dual_total_correlation(mu: DiscreteMeasure) -> float:
    """Joint entropy minus the sum of each coordinate's entropy given the rest."""
    return _dtc(mu.support, tuple(mu.atoms.values()))


def _dtc(support: tuple[Word, ...], masses: Sequence[float]) -> float:
    """``dual_total_correlation`` of the measure with these atoms, in order."""
    if len(support[0]) == 1:
        return 0.0
    return _clip_roundoff(entropy_of_vector(masses) - _sum(
        _grouped_entropy(masses, g) for g in _loo_groups(support)))


@dataclass(frozen=True)
class InfoReport:
    """One-pass summary of the information functionals of a measure."""

    entropy: float
    per_coordinate_entropies: tuple[float, ...]
    tc: float
    dtc: float

    def to_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "per_coordinate_entropies": list(self.per_coordinate_entropies),
            "tc": self.tc,
            "dtc": self.dtc,
        }


def info_report(mu: DiscreteMeasure) -> InfoReport:
    h = shannon_entropy(mu)
    coords = per_coordinate_entropies(mu)
    return InfoReport(h, coords, _clip_roundoff(_sum(coords) - h),
                      dual_total_correlation(mu))


# -----------------------------------------------------------------------------
# Fuzzy-partition information
# -----------------------------------------------------------------------------
def fuzzy_mutual_information(mu: DiscreteMeasure, fp: FuzzyPartition) -> float:
    """Mutual information between ``mu`` and the index of a fuzzy partition.

    Computed as sum_j p_j * D(mu reweighted by rho_j || mu), which agrees with
    the mutual information of the randomization's joint law.
    """
    return mixture_mutual_information(fuzzy_split(mu, fp), mu)


def mixture_mutual_information(rep: MixtureRepresentation, mu: DiscreteMeasure) -> float:
    """sum_j p_j D(mu_j || mu) for an explicit mixture representation of ``mu``."""
    return _sum(p * kl_divergence(comp, mu)
                for p, comp in zip(rep.weights, rep.components))


def dtc_decrement(mu: DiscreteMeasure, fp: FuzzyPartition) -> tuple[float, float]:
    """Both sides of the decrement identity for a binary fuzzy partition.

    Returns ``(lhs, rhs)`` where
      lhs = DTC(mu) - sum_j p_j DTC(mu_j)
      rhs = I(word; index) - sum_i I(coord_i; index | other coords),
    the right side evaluated on the joint (index, word) law.  The two agree
    up to float error.
    """
    if len(fp) != 2:
        raise MeasureError("dtc_decrement needs a binary fuzzy partition")
    rep = fuzzy_split(mu, fp)
    if len(rep) != 2:
        raise MeasureError("degenerate weight in binary fuzzy partition")
    joint = hookup(rep.weights, rep.components)
    n = mu.space.dimension

    lhs = dual_total_correlation(mu) - _sum(
        p * dual_total_correlation(comp)
        for p, comp in zip(rep.weights, rep.components))

    # rhs from the joint law: coordinate 0 of `joint` is the mixture index.
    h_joint = shannon_entropy(joint)
    h_word = shannon_entropy(marginal(joint, range(1, n + 1)))
    h_index = shannon_entropy(marginal(joint, [0]))
    mutual = h_word + h_index - h_joint
    # I(coord_i; index | rest) = H(coord_i|rest) - H(coord_i|rest,index)
    rests = [[c for c in range(1, n + 1) if c != i + 1] for i in range(n)]
    cond_sum = _sum((h_word - shannon_entropy(marginal(joint, rest)))
                    - (h_joint - shannon_entropy(marginal(joint, [0] + rest)))
                    for rest in rests)
    return lhs, mutual - cond_sum


# -----------------------------------------------------------------------------
# Coordinate trimming
# -----------------------------------------------------------------------------
def trim_coordinates(mu: DiscreteMeasure, r: float) -> tuple[int, ...]:
    """Greedily discard coordinates until each retained one is nearly determined
    by the others, returning the retained subset S.

    With threshold alpha = TC(mu) / (r n): while some retained coordinate i has
    H(coord_i) - H(coord_i | other retained coords) > alpha, remove the one
    with the largest excess (ties to the lowest index).  The result satisfies
    |S| >= (1-r) n and DTC(mu_S) <= TC(mu)/r.
    """
    if not (0.0 < r < 1.0):
        raise MeasureError(f"r must lie in (0,1), got {r}")
    n = mu.space.dimension
    tc = total_correlation(mu)
    alpha = tc / (r * n)
    retained = list(range(n))
    # strictly fewer than r*n removals can occur, so |S| >= (1-r)n is forced
    max_removals = max(0, math.ceil(r * n) - 1)
    for _ in range(max_removals):
        if len(retained) <= 1:
            break
        sub = marginal(mu, retained)
        gaps = []
        for pos, coord in enumerate(retained):
            h_i = shannon_entropy(marginal(sub, [pos]))
            h_cond = conditional_coordinate_entropy(sub, pos)
            gaps.append((h_i - h_cond, coord, pos))
        excess, coord, pos = max(gaps, key=lambda g: (g[0], -g[1]))
        if excess <= alpha + 1e-12:
            break
        retained.pop(pos)
    return tuple(retained)
