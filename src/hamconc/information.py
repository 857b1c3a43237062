"""Entropy, divergence, and multivariate correlation functionals.

All quantities are in nats.  The conventions throughout: ``0 log 0 = 0``, and
KL divergence returns ``math.inf`` when the first argument is not absolutely
continuous with respect to the second.  Conditional entropies are evaluated
only over conditioning strings realized in the support, via the chain-rule
identity H(coord | rest) = H(joint) - H(rest).

Log policy: DTC and KL use ``np.log`` on ``(rows, k)`` mass arrays on one
support (``_dtc_rows``, ``_kl_rows``); H and TC use ``math.log``, TC on such
rows too (``_tc_rows``).  Rows add left to right, so a row's bits do not
depend on the other rows or on zero masses.
``np.log``, like the tilt search's ``np.exp``, follows numpy's SIMD dispatch:
the pinned digests name the CPU flags they were recorded with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .measures import (
    DiscreteMeasure,
    FuzzyPartition,
    MeasureError,
    MixtureRepresentation,
    Word,
    _left_sums,
    _mass_rows,
    _sum,
    fuzzy_split,
    hookup,
    marginal,
)


def _clip_rows(v: np.ndarray) -> np.ndarray:
    """Round each entry, a quantity that is nonnegative in exact arithmetic,
    up to 0 when float error alone made it negative; a clearly negative value
    is kept, so that a real fault still shows."""
    return np.where((v < 0.0) & (v > -1e-12), 0.0, v)


def shannon_entropy(mu: DiscreteMeasure) -> float:
    """-sum p log p over the atoms of ``mu``."""
    return -_sum(m * math.log(m) for m in mu.masses.tolist())


def entropy_of_vector(probs: Sequence[float]) -> float:
    """Entropy of a bare probability vector (zero entries contribute 0)."""
    return -_sum(p * math.log(p) for p in probs if p > 0.0)


def binary_entropy(p: float) -> float:
    return entropy_of_vector((p, 1.0 - p))


def kl_divergence(nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """KL divergence D(nu || mu); +inf unless supp(nu) is inside supp(mu)."""
    if nu.space != mu.space:
        raise MeasureError("kl_divergence needs measures on the same space")
    rows, inside = _mass_rows([nu], mu.digits)
    return float(_kl_rows(rows, mu.masses)[0]) if inside[0] else math.inf


def per_coordinate_entropies(mu: DiscreteMeasure) -> tuple[float, ...]:
    _, marginals = _tc_rows(mu.digits, mu.masses, mu.space.alphabet_size)
    return tuple(map(entropy_of_vector, marginals[0].tolist()))


#: supports whose leave-one-out index arrays are kept (one for 65,536 atoms
#: on 12 coordinates takes megabytes), and the element cap of a row block
#: (larger blocks of a batched recursion round raise the peak memory)
LOO_GROUP_CACHE_SIZE = 8
ROW_BLOCK_ELEMENTS = 1 << 14


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x elementwise, and 0 where x <= 0 (where log is taken of 1)."""
    x = np.where(x > 0.0, x, 1.0)
    return x * np.log(x)


def _row_blocks(fn, per_row: int, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` of row blocks of ``arrays`` under ``ROW_BLOCK_ELEMENTS``, stacked."""
    step, size = max(1, ROW_BLOCK_ELEMENTS // per_row), len(arrays[0])
    return fn(*arrays) if size <= step else np.concatenate(
        [fn(*(a[lo:lo + step] for a in arrays)) for lo in range(0, size, step)])


@lru_cache(maxsize=LOO_GROUP_CACHE_SIZE)
def _loo_index(key: bytes, shape: tuple[int, int]) -> np.ndarray:
    """``(n, G, L)`` atom indices of the support whose int64 digit rows have
    bytes ``key`` and ``shape``: row i holds the groups of two or more atoms
    agreeing off coordinate i, in the order of that common word (so a
    sub-support meets its groups in the same order), each in support order,
    padded with the support size.  A group of one atom adds m log(m/m) = 0."""
    (k, n), support = shape, np.frombuffer(key, dtype=np.int64).reshape(shape).tolist()
    layers = []
    for i in range(n):
        groups: dict[Word, list[int]] = {}
        for atom, w in enumerate(support):
            groups.setdefault(tuple(w[:i] + w[i + 1:]), []).append(atom)
        layers.append([g for _, g in sorted(groups.items()) if len(g) > 1])
    size = max(map(len, layers))
    width = max((len(g) for gs in layers for g in gs), default=0)
    return np.array([[g + [k] * (width - len(g)) for g in gs]
                     + [[k] * width] * (size - len(gs)) for gs in layers],
                    dtype=np.intp).reshape(n, size, width)


def _xlogx_exact(x: np.ndarray) -> np.ndarray:
    """x log x with ``math.log`` of each positive entry, and 0 elsewhere."""
    out = np.zeros(x.shape)
    out[x > 0.0] = [m * math.log(m) for m in x[x > 0.0].tolist()]
    return out


def _tc_rows(digits, masses, q: int) -> tuple[np.ndarray, np.ndarray]:
    """TC of each row of ``masses`` (a measure on the digit rows ``digits``
    over ``q`` symbols, zero at a missing atom), and its coordinate marginals
    ``(rows, n, q)``, as if alone: a marginal adds its atoms left to right in
    support order (by ``np.bincount``), an entropy its terms in symbol or
    support order (the bits of ``entropy_of_vector`` and ``shannon_entropy``),
    and TC the coordinates in order."""
    digits = np.asarray(digits, dtype=np.intp).reshape(len(digits), -1)
    (k, n), rows = digits.shape, np.asarray(masses, dtype=float).reshape(-1, len(digits))
    # bin row n q + c q + s for symbol s at coordinate c, in (row, c, atom) order
    bins = (digits + np.arange(n) * q).T.ravel()
    marg = _row_blocks(lambda r: np.bincount(
        (np.arange(len(r))[:, None] * (n * q) + bins).ravel(), np.tile(r, n).ravel(),
        len(r) * n * q).reshape(len(r), n, q), n * k, rows)
    h_coords = -_left_sums(_xlogx_exact(marg))
    h_joint = -_left_sums(_xlogx_exact(rows))
    return _clip_rows(_left_sums(h_coords) - h_joint), marg


def _loo_entropies(digits, masses) -> np.ndarray:
    """H(joint), then each H(coordinate i | the others), for each row of
    ``masses`` (a measure on the digit rows ``digits``, zero at a missing atom)."""
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    index = _loo_index(digits.tobytes(), digits.shape)

    def block(rows: np.ndarray) -> np.ndarray:
        joint = -_left_sums(_xlogx(rows))[:, None]
        if not index.size:   # no groups: each -(empty sum) below is -0.0
            return np.concatenate((joint, np.full((len(rows), len(index)), -0.0)), axis=1)
        grouped = np.concatenate((rows, np.zeros((len(rows), 1))), axis=1)[:, index]
        q = _left_sums(grouped)
        # a group of zero mass divides 0 by the least positive float
        h = _left_sums(_xlogx(grouped / np.maximum(q, 5e-324)[..., None]))
        return np.concatenate((joint, -_left_sums(q * h)), axis=1)

    rows = np.asarray(masses, dtype=float).reshape(-1, len(digits))
    return _row_blocks(block, index.size + len(digits), rows)


def _dtc_rows(digits, masses) -> np.ndarray:
    """DTC of each row of ``masses`` (as in ``_loo_entropies``), as if alone."""
    if np.shape(digits)[1] == 1:
        return np.zeros(np.size(masses) // len(digits))
    h = _loo_entropies(digits, masses)
    return _clip_rows(h[:, 0] - _left_sums(h[:, 1:]))


def _kl_rows(masses, reference) -> np.ndarray:
    """D(row || reference), the sum of q log(q / p) over q > 0, for each row of
    ``masses`` and ``reference`` (one row, or one per row) positive, as if alone."""
    q = np.asarray(masses, dtype=float).reshape(-1, np.shape(reference)[-1])
    p = np.broadcast_to(np.asarray(reference, dtype=float), q.shape)
    return _clip_rows(_row_blocks(lambda q, p: _left_sums(
        q * np.log(np.where(q > 0.0, q / p, 1.0))), q.shape[1], q, p))


def conditional_coordinate_entropy(mu: DiscreteMeasure, i: int) -> float:
    """H(coordinate i | all other coordinates), grouping atoms by their projection."""
    if mu.space.dimension == 1:
        return shannon_entropy(mu)
    return float(_loo_entropies(mu.digits, mu.masses)[0, i + 1])


def total_correlation(mu: DiscreteMeasure) -> float:
    """Sum of marginal entropies minus joint entropy; equals the KL divergence
    from ``mu`` to the product of its marginals.  The one-row ``_tc_rows``."""
    tc, _ = _tc_rows(mu.digits, mu.masses, mu.space.alphabet_size)
    return float(tc[0])


def dual_total_correlation(mu: DiscreteMeasure) -> float:
    """Joint entropy minus the sum of each coordinate's entropy given the rest."""
    return float(_dtc_rows(mu.digits, mu.masses)[0])


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
    return InfoReport(shannon_entropy(mu), per_coordinate_entropies(mu),
                      total_correlation(mu), dual_total_correlation(mu))


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
    """sum_j p_j D(mu_j || mu) for a mixture representation of ``mu``, the
    divergences one batch of rows on its support (the bits of ``kl_divergence``)."""
    return _mixture_information(rep.weights, *_mass_rows(rep.components, mu.digits),
                                mu.masses)


def _mixture_information(weights: Sequence[float], rows: np.ndarray,
                         inside: np.ndarray, reference: np.ndarray) -> float:
    """``mixture_mutual_information`` of components laid out as ``_mass_rows``
    does on the atoms ``reference`` of the mixture."""
    return _sum(p * (kl if ok else math.inf) for p, kl, ok in zip(
        weights, _kl_rows(rows, reference).tolist(), inside.tolist()))


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
        conds = _loo_entropies(sub.digits, sub.masses)[0, 1:]
        gaps = [(h - c, coord, pos) for pos, (coord, h, c) in enumerate(
            zip(retained, per_coordinate_entropies(sub), conds.tolist()))]
        excess, coord, pos = max(gaps, key=lambda g: (g[0], -g[1]))
        if excess <= alpha + 1e-12:
            break
        retained.pop(pos)
    return tuple(retained)
