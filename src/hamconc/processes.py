"""Stationary finite-state process generators and their block statistics.

Process specifications are small declarative records (i.i.d., Markov, hidden
Markov with a deterministic letter map, expansive block codes, and joint
processes over a product alphabet).  Exact window laws come from forward
dynamic programming over (state, emitted word) with mass pruning, one layer
of digit rows at a time; empirical laws from seeded path simulation with
sliding windows.  On top of these sit the conditional block statistics:
block kernels, total-correlation profiles, relative transportation estimates
between joints sharing a base marginal, block-independence gaps, and
per-conditioning-string partitions.  The profiles and partitions take the
conditionals of a kernel that share a support as the rows of one mass
array, scored and partitioned as one batch.

Summation order of the exact laws (every float is fixed by it): a next-layer
state mass adds ``mass[s1] * transition[s1][s2]`` left to right over s1; a
word's mass is numpy's sum of its state masses (pairwise from 8 states on);
the normalising total adds the word masses left to right in the order the
words were generated (parent word, then state), and the words are sorted
after it.  A block kernel's base mass and each conditional's total add the
joint masses of one conditioning word left to right in joint-word order.

Zero-probability conditioning strings map to the uniform measure: the
conditional law there is arbitrary, and uniform is the deterministic choice.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .measures import (
    PRUNE_TOL,
    DiscreteMeasure,
    MeasureError,
    ProductSpace,
    Word,
    _check_support_cap,
    _left_sums,
    _product_rows,
    _pruned,
    _sum,
    _summed,
    _words,
    product_measure,
    regroup,
    variation_norm,
)
from .information import _tc_rows, total_correlation
from .transport import transport_distance
from .decompose import DecompositionResult, PipelineConfig, _partition_rows

STATIONARY_TOL = 1e-10
ROW_TOL = 1e-12


# -----------------------------------------------------------------------------
# Specifications
# -----------------------------------------------------------------------------
def _is_probability_vector(v: Sequence[float]) -> bool:
    """Every entry >= 0 and the total within ``ROW_TOL`` of 1; both checks
    are False for NaN, so a NaN entry fails."""
    return all(x >= 0 for x in v) and abs(_sum(v) - 1.0) <= ROW_TOL


@dataclass(frozen=True)
class ProcessSpec:
    """Base class; every spec exposes its output alphabet size."""

    @property
    def alphabet_size(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class IIDSpec(ProcessSpec):
    dist: tuple[float, ...]

    def __post_init__(self) -> None:
        d = tuple(float(p) for p in self.dist)
        if not _is_probability_vector(d):
            raise MeasureError("iid distribution must be a probability vector")
        object.__setattr__(self, "dist", d)

    @property
    def alphabet_size(self) -> int:
        return len(self.dist)


@dataclass(frozen=True)
class MarkovSpec(ProcessSpec):
    """An irreducible-enough chain started from its stationary law."""

    transition: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    def __post_init__(self) -> None:
        t = tuple(tuple(float(x) for x in row) for row in self.transition)
        pi = tuple(float(x) for x in self.stationary)
        k = len(t)
        if any(len(row) != k for row in t) or len(pi) != k:
            raise MeasureError("transition matrix must be square, matching stationary")
        if not all(_is_probability_vector(row) for row in t):
            raise MeasureError("transition rows must be stochastic")
        if not _is_probability_vector(pi):
            raise MeasureError("stationary law must be a probability vector")
        flow = [_sum(pi[i] * t[i][j] for i in range(k)) for j in range(k)]
        if max(abs(flow[j] - pi[j]) for j in range(k)) > STATIONARY_TOL:
            raise MeasureError("law is not stationary for the transition matrix")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "stationary", pi)

    @classmethod
    def from_matrix(cls, transition: Sequence[Sequence[float]]) -> "MarkovSpec":
        """Compute the stationary law by eigen decomposition."""
        p = np.asarray(transition, dtype=float)
        vals, vecs = np.linalg.eig(p.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, idx])
        pi = np.abs(pi) / np.abs(pi).sum()
        # polish to machine precision
        for _ in range(64):
            pi = pi @ p
        pi /= pi.sum()
        return cls(tuple(tuple(row) for row in p), tuple(pi))

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)


@dataclass(frozen=True)
class HiddenSpec(ProcessSpec):
    """Markov base with a deterministic per-state output letter."""

    base: MarkovSpec
    emit: tuple[int, ...]

    def __post_init__(self) -> None:
        emit = tuple(int(e) for e in self.emit)
        if len(emit) != self.base.alphabet_size or min(emit) < 0:
            raise MeasureError("emit map must assign a letter to every state")
        object.__setattr__(self, "emit", emit)

    @property
    def alphabet_size(self) -> int:
        return max(self.emit) + 1


@dataclass(frozen=True)
class BlockCodeSpec(ProcessSpec):
    """Non-overlapping window code: every ``window`` base letters emit
    ``out_len`` output letters through ``code``."""

    base: ProcessSpec
    window: int
    out_len: int
    code: Mapping[Word, Word]
    out_alphabet: int

    def __post_init__(self) -> None:
        if self.window < 1 or self.out_len < 1:
            raise MeasureError("window and out_len must be >= 1")
        table = {tuple(k): tuple(v) for k, v in dict(self.code).items()}
        for k, v in table.items():
            if len(k) != self.window or len(v) != self.out_len:
                raise MeasureError("code table arity mismatch")
            if any(s < 0 or s >= self.out_alphabet for s in v):
                raise MeasureError("code output letter out of range")
        object.__setattr__(self, "code", table)

    @property
    def alphabet_size(self) -> int:
        return self.out_alphabet


@dataclass(frozen=True)
class JointSpec(ProcessSpec):
    """A single law over (B x A)^Z given by a base spec on the product
    alphabet; symbol b*a_size + a encodes the pair (b, a)."""

    base: ProcessSpec
    b_size: int
    a_size: int

    def __post_init__(self) -> None:
        if self.base.alphabet_size > self.b_size * self.a_size:
            raise MeasureError("joint base alphabet exceeds b_size * a_size")

    @property
    def alphabet_size(self) -> int:
        return self.b_size * self.a_size


@dataclass(frozen=True)
class BlockKernel:
    """Conditional window law of one process given another's window."""

    n: int
    base: DiscreteMeasure            # law of the conditioning window
    kernel: Mapping[Word, DiscreteMeasure]

    def conditional(self, b: Word) -> DiscreteMeasure:
        b = tuple(b)
        if b in self.kernel:
            return self.kernel[b]
        # zero-probability conditioning string: deterministic uniform choice
        space = next(iter(self.kernel.values())).space
        return product_measure(space, [[1.0 / space.alphabet_size] * space.alphabet_size])


# -----------------------------------------------------------------------------
# Exact block laws by forward dynamic programming
# -----------------------------------------------------------------------------
def exact_block_measure(spec: ProcessSpec, n: int) -> DiscreteMeasure:
    """Exact law of a length-``n`` output window."""
    if isinstance(spec, (IIDSpec, MarkovSpec, HiddenSpec)):
        digits, masses = _window_rows(spec, n)    # checks n >= 1
        return DiscreteMeasure._of_arrays(ProductSpace(spec.alphabet_size, n), digits, masses)
    if isinstance(spec, BlockCodeSpec):
        k = -(-n // spec.out_len)  # windows needed to cover n letters
        base_law = exact_block_measure(spec.base, k * spec.window)
        encoded = []
        for word in base_law.digits.reshape(len(base_law), k, spec.window).tolist():
            chunks = list(map(tuple, word))
            missing = [chunk for chunk in chunks if chunk not in spec.code]
            if missing:
                raise MeasureError(f"code table missing input {missing[0]}")
            encoded.append([s for chunk in chunks for s in spec.code[chunk]][:n])
        return _summed(ProductSpace(spec.out_alphabet, n), np.array(encoded), base_law.masses)
    if isinstance(spec, JointSpec):
        return exact_block_measure(spec.base, n)
    raise MeasureError(f"unknown spec {spec!r}")


def _window_rows(spec: ProcessSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of ``exact_block_measure(spec, n)`` as sorted digit rows
    ``(W, n)`` and their masses ``(W,)``."""
    if n < 1:
        raise MeasureError("window length must be >= 1")
    if isinstance(spec, JointSpec):
        return _window_rows(spec.base, n)
    if isinstance(spec, IIDSpec):
        digits, masses = _product_rows(np.array([[spec.dist] * n]))
        return digits, masses[0]
    if isinstance(spec, MarkovSpec):
        return _dp_block(spec, range(spec.alphabet_size), n)
    if isinstance(spec, HiddenSpec):
        return _dp_block(spec.base, spec.emit, n)
    law = exact_block_measure(spec, n)
    return law.digits, law.masses


def _dp_block(chain: MarkovSpec, emit: Sequence[int], n: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Forward DP over (state, emitted word), as sorted digit rows and masses.

    A layer is a ``(W, t)`` digit array (rows, not base-|A| codes, so no
    window overflows) and a ``(W, k)`` state-mass array, in generation order;
    the states of a row that emit the same letter share a next-layer row.
    Start masses that are not positive and later masses at or below
    ``PRUNE_TOL`` are dropped.  The float order is in the module docstring."""
    emit = np.asarray(emit, dtype=np.int64)
    letters = np.unique(emit)
    radix = int(emit.max()) + 1
    trans = np.asarray(chain.transition, dtype=float)
    acc = np.asarray(chain.stationary, dtype=float)[None, :]
    keep = acc > 0.0
    digits = np.zeros((1, 0), dtype=np.int64)
    for t in range(n):
        if t:
            acc = states[:, 0, None] * trans[0]
            for s1 in range(1, len(trans)):
                acc += states[:, s1, None] * trans[s1]
            keep = acc > PRUNE_TOL
            # rows of the next layer: per row, the letters of its kept states
            _check_support_cap(len(acc) * len(letters), lambda: _sum(
                np.count_nonzero(keep[:, emit == e].any(axis=1)) for e in letters))
        row, state = np.nonzero(keep)
        _, first, group = np.unique(row * radix + emit[state],
                                    return_index=True, return_inverse=True)
        opened = np.argsort(first)           # groups in generation order
        states = np.zeros((len(opened), len(trans)))
        states[np.argsort(opened)[group], state] = acc[row, state]
        head = first[opened]
        digits = np.concatenate((digits[row[head]], emit[state[head], None]), axis=1)
    totals = states.sum(axis=1)
    kept = totals > PRUNE_TOL
    total = _sum(totals[kept].tolist())
    digits = digits[kept]
    order = np.lexsort(digits.T[::-1])
    return digits[order], totals[kept][order] / total


# -----------------------------------------------------------------------------
# Simulation and empirical laws
# -----------------------------------------------------------------------------
def simulate_path(spec: ProcessSpec, length: int, seed: int) -> list[int]:
    """One sampled output path, deterministic per seed."""
    if seed < 0:
        raise MeasureError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(spec, IIDSpec):
        return [int(x) for x in rng.choice(len(spec.dist), size=length,
                                           p=spec.dist)]
    if isinstance(spec, (MarkovSpec, HiddenSpec)):
        base = spec if isinstance(spec, MarkovSpec) else spec.base
        emit = (tuple(range(base.alphabet_size))
                if isinstance(spec, MarkovSpec) else spec.emit)
        k = base.alphabet_size
        rows = [np.array(row) for row in base.transition]
        state = int(rng.choice(k, p=base.stationary))
        out = [emit[state]]
        for _ in range(length - 1):
            state = int(rng.choice(k, p=rows[state]))
            out.append(emit[state])
        return out
    if isinstance(spec, BlockCodeSpec):
        k = -(-length // spec.out_len)
        base_path = simulate_path(spec.base, k * spec.window, seed)
        out: list[int] = []
        for i in range(k):
            chunk = tuple(base_path[i * spec.window:(i + 1) * spec.window])
            out.extend(spec.code[chunk])
        return out[:length]
    if isinstance(spec, JointSpec):
        return simulate_path(spec.base, length, seed)
    raise MeasureError(f"unknown spec {spec!r}")


def empirical_block_measure(spec: ProcessSpec, n: int, length: int,
                            seed: int) -> DiscreteMeasure:
    """Sliding-window frequencies along one simulated path."""
    if length < n:
        raise MeasureError("path length must be at least the window length")
    windows = np.lib.stride_tricks.sliding_window_view(simulate_path(spec, length, seed), n)
    return _summed(ProductSpace(spec.alphabet_size, n), windows, np.ones(len(windows)))


# -----------------------------------------------------------------------------
# Block kernels and derived statistics
# -----------------------------------------------------------------------------
def block_kernel(spec: JointSpec, n: int) -> BlockKernel:
    """Conditional law of the A-window given the B-window of a joint process.

    The joint digit rows are split into (b, a) and stably sorted by b, so
    each b keeps its atoms in joint order (the module docstring has the sums)."""
    if not isinstance(spec, JointSpec):
        raise MeasureError("block_kernel needs a joint spec")
    digits, masses = _window_rows(spec, n)
    b_digits, a_digits = np.divmod(digits, spec.a_size)
    order = np.lexsort(b_digits.T[::-1])
    b_digits, masses = b_digits[order], masses[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (b_digits[1:] != b_digits[:-1]).any(axis=1)
    starts = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    # one row per b, padded with zeros, which change no left-to-right sum
    grid = np.zeros((len(starts), int(np.bincount(group).max())))
    grid[group, np.arange(len(order)) - starts[group]] = masses
    totals = _left_sums(np.where(grid > PRUNE_TOL, grid, 0.0))
    if not (totals > 0.0).all():
        raise MeasureError("null reweighting")
    # a pruned atom gets mass 0, which ``_of_arrays`` drops; within one b the
    # a rows keep the joint rows' lexicographic order
    cond = np.where(masses > PRUNE_TOL, masses / totals[group], 0.0)
    a_digits, a_space = a_digits[order], ProductSpace(spec.a_size, n)
    bounds = np.append(starts, len(order)).tolist()
    kernel = {b: DiscreteMeasure._of_arrays(a_space, a_digits[lo:hi], cond[lo:hi])
              for b, lo, hi in zip(map(tuple, b_digits[starts].tolist()),
                                   bounds, bounds[1:])}
    base = DiscreteMeasure._of_arrays(ProductSpace(spec.b_size, n),
                                      b_digits[starts], _left_sums(grid))
    return BlockKernel(n, base, kernel)


def hookup_block_kernel(bk: BlockKernel, spec: JointSpec) -> DiscreteMeasure:
    """Rebuild the joint window law from the kernel and its base: the joint
    word of (b, a) has symbols b_i * a_size + a_i and mass base(b) cond_b(a)."""
    conds = [bk.conditional(b) for b in bk.base.support]
    digits = np.concatenate([b * spec.a_size + cond.digits
                             for b, cond in zip(bk.base.digits, conds)])
    masses = np.concatenate([mass * cond.masses
                             for mass, cond in zip(bk.base.masses.tolist(), conds)])
    order = np.lexsort(digits.T[::-1])
    return DiscreteMeasure._of_arrays(ProductSpace(spec.alphabet_size, bk.n),
                                      digits[order], masses[order])


def tc_profile(spec: ProcessSpec, n_max: int, block_size: int | None = None
               ) -> list[float]:
    """Total correlation of the window laws for n = 1 .. n_max.

    With ``block_size`` = L, window kL is viewed as k symbols over the
    L-block alphabet.  For joint specs the value at each n is the
    base-marginal average of the conditional windows' total correlations.
    """
    ell = 1 if block_size is None else int(block_size)
    if ell < 1 or n_max < 1:
        raise MeasureError("block size must be >= 1" if ell < 1 else
                           "window length must be >= 1")
    out = []
    for k in range(1, n_max + 1):
        if isinstance(spec, JointSpec):
            bk = block_kernel(spec, k * ell)
            tc_of = {b: tc for strings, _, _, tcs in _conditional_rows(bk, ell)[1]
                     for b, tc in zip(strings, tcs)}
            out.append(_sum(p * tc_of[b] for b, p in bk.base.atoms.items()))
        else:
            law = exact_block_measure(spec, k * ell)
            out.append(total_correlation(regroup(law, ell) if ell > 1 else law))
    return out


def _conditional_rows(bk: BlockKernel, block_size: int) -> tuple[ProductSpace, list]:
    """The conditional laws of ``bk``, regrouped into blocks of ``block_size``,
    with their space, as one batch per support: its base strings, its digit
    rows, their ``(strings, |support|)`` mass array and TCs (one
    ``_tc_rows`` call).  A batch on the union of all supports would spend
    its work on zeros when the conditionals are sparse in a large union."""
    laws = {b: bk.conditional(b) for b in bk.base.support}
    if block_size > 1:
        laws = {b: regroup(mu, block_size) for b, mu in laws.items()}
    space, batches = next(iter(laws.values())).space, {}
    for b, mu in laws.items():   # one space, so equal bytes are equal rows
        batches.setdefault(mu.digits.tobytes(), []).append(b)
    out = []
    for strings in batches.values():
        digits, masses = laws[strings[0]].digits, np.array([laws[b].masses for b in strings])
        out.append((strings, digits, masses,
                    _tc_rows(digits, masses, space.alphabet_size)[0].tolist()))
    return space, out


def relative_dbar_estimate(lam: JointSpec, theta: JointSpec, n: int) -> float:
    """Base-averaged transportation distance between the two conditional
    window laws; the n-indexed sequence of these converges to the relative
    distance between the joints, but no single n bounds it either way."""
    bk_l = block_kernel(lam, n)
    bk_t = block_kernel(theta, n)
    if (bk_l.base.space != bk_t.base.space
            or variation_norm(bk_l.base, bk_t.base) > 1e-9):
        raise MeasureError("joint specs do not share the base marginal")
    return _sum(mass * transport_distance(bk_l.conditional(b), bk_t.conditional(b))[0]
                for b, mass in bk_l.base.atoms.items())


def block_independence_gap(lam: JointSpec, n: int, k: int) -> float:
    """Base-averaged distance between the kn-window conditional law and the
    product of its n-window conditional laws along the base string."""
    if k < 1:
        raise MeasureError("k must be >= 1")
    bk_long = block_kernel(lam, k * n)
    bk_short = block_kernel(lam, n)
    space = ProductSpace(lam.a_size, k * n)

    def product_of_pieces(b: Word) -> DiscreteMeasure:
        # prefix-major rows stay sorted; each layer drops products at or
        # below PRUNE_TOL, and the total adds the rest in word order
        digits, masses = np.zeros((1, 0), dtype=np.int64), np.ones(1)
        for j in range(k):
            piece = bk_short.conditional(b[j * n:(j + 1) * n])
            outer = masses[:, None] * piece.masses
            prefix, word = np.nonzero(outer > PRUNE_TOL)
            digits = np.concatenate((digits[prefix], piece.digits[word]), axis=1)
            masses = outer[prefix, word]
        return DiscreteMeasure._of_arrays(space, digits, _pruned(masses))

    return _sum(mass * transport_distance(bk_long.conditional(b),
                                          product_of_pieces(b))[0]
                for b, mass in bk_long.base.atoms.items())


@dataclass(frozen=True)
class ConditionalPartitionReport:
    """Per-conditioning-string partitions of the regrouped window law."""

    n: int
    block_size: int
    good_mass: float
    good_strings: tuple[Word, ...]
    partitions: Mapping[Word, DecompositionResult]
    labels: Mapping[Word, Mapping[Word, str]]   # b-word -> (a-word -> cell code)
    tc_by_string: Mapping[Word, float]
    delta: float


def conditional_partition(lam: JointSpec, n: int, cfg: PipelineConfig,
                          block_size: int = 1) -> ConditionalPartitionReport:
    """Gate conditioning strings by the total correlation of their regrouped
    conditional law (TC <= delta * n) and partition each good conditional.

    The per-string partition is encoded as a labeling of A-words by binary
    cell codes of length n (longer when a partition has more than 2^n cells,
    so codes never collide), the combinatorial core of writing the partitions
    as an auxiliary process.  The conditionals sharing a support are the
    rows of one mass array (``_conditional_rows``): one ``_tc_rows`` call
    gates them, and one ``_partition_rows`` call partitions the good ones in
    shared rounds.
    """
    if block_size < 1:
        raise MeasureError("block size must be >= 1")
    bk = block_kernel(lam, n)
    delta = cfg.delta
    space, batches = _conditional_rows(bk, block_size)
    tc_by_string, partitions, labels = {}, {}, {}
    for strings, support, masses, tcs in batches:
        tc_by_string.update(zip(strings, tcs))
        rows = [i for i, tc in enumerate(tcs) if tc <= delta * n + 1e-12]
        # each law is positive on every word of its batch's support, so its
        # cells cover them all, and its labels keep the support's
        # lexicographic order
        blank = dict.fromkeys(_words(support))
        for i, res in zip(rows, _partition_rows(space, support, masses[rows], cfg,
                                                [tcs[i] for i in rows])):
            partitions[strings[i]] = res
            # n bits, widened when a partition has more than 2^n cells
            width = max(n, 1, (len(res.sets) - 1).bit_length())
            labels[strings[i]] = lab = blank.copy()
            for code, cell in enumerate(res.sets):
                lab.update(zip(cell, itertools.repeat(format(code, "b").zfill(width))))
    tc_by_string = {b: tc_by_string[b] for b in bk.base.support}
    good = tuple(b for b in bk.base.support if b in partitions)
    good_mass = _sum(map(bk.base.mass, good))
    partitions = {b: partitions[b] for b in good}
    labels = {b: labels[b] for b in good}
    return ConditionalPartitionReport(
        n=n, block_size=block_size, good_mass=good_mass, good_strings=good,
        partitions=partitions, labels=labels, tc_by_string=tc_by_string,
        delta=delta)


# -----------------------------------------------------------------------------
# JSON spec files
# -----------------------------------------------------------------------------
def spec_from_dict(data: dict) -> ProcessSpec:
    kind = data.get("kind")
    if kind == "iid":
        return IIDSpec(tuple(data["dist"]))
    if kind == "markov":
        if "stationary" in data:
            return MarkovSpec(tuple(tuple(r) for r in data["transition"]),
                              tuple(data["stationary"]))
        return MarkovSpec.from_matrix(data["transition"])
    if kind == "hidden":
        base = spec_from_dict(data["base"])
        if not isinstance(base, MarkovSpec):
            raise MeasureError("hidden spec needs a markov base")
        return HiddenSpec(base, tuple(data["emit"]))
    if kind == "block_code":
        base = spec_from_dict(data["base"])
        table = {tuple(json.loads(f"[{k}]")): tuple(v)
                 for k, v in data["code"].items()}
        return BlockCodeSpec(base, int(data["window"]), int(data["out_len"]),
                             table, int(data["out_alphabet"]))
    if kind == "joint":
        return JointSpec(spec_from_dict(data["base"]),
                         int(data["b_size"]), int(data["a_size"]))
    raise MeasureError(f"unknown process kind {kind!r}")


def spec_to_dict(spec: ProcessSpec) -> dict:
    if isinstance(spec, IIDSpec):
        return {"kind": "iid", "dist": list(spec.dist)}
    if isinstance(spec, MarkovSpec):
        return {"kind": "markov",
                "transition": [list(r) for r in spec.transition],
                "stationary": list(spec.stationary)}
    if isinstance(spec, HiddenSpec):
        return {"kind": "hidden", "base": spec_to_dict(spec.base),
                "emit": list(spec.emit)}
    if isinstance(spec, BlockCodeSpec):
        return {"kind": "block_code", "base": spec_to_dict(spec.base),
                "window": spec.window, "out_len": spec.out_len,
                "out_alphabet": spec.out_alphabet,
                "code": {",".join(str(s) for s in k): list(v)
                         for k, v in sorted(spec.code.items())}}
    if isinstance(spec, JointSpec):
        return {"kind": "joint", "base": spec_to_dict(spec.base),
                "b_size": spec.b_size, "a_size": spec.a_size}
    raise MeasureError(f"unknown spec {spec!r}")


def load_spec(path: str) -> ProcessSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return spec_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureError(f"{path}: {exc}") from exc
