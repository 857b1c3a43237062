"""Sparse probability measures on finite product spaces and their mixture algebra.

A measure on ``A^n`` is two read-only arrays, its atoms' digit rows in
lexicographic order and their masses (:class:`DiscreteMeasure`).  The full
cube is never materialised: every operation touches supports only, and the
sorted rows make all downstream output deterministic.  A fuzzy partition is
one array of densities over a tuple of support words.

Mixing variables are always finite index sets here; kernels are finite lists
of measures.  Measures with genuinely continuous mixing variables can only be
represented through finite samples of their kernels.

Summation policy: sums of Python floats add left to right from 0 on every
supported interpreter, through ``_sum`` or an explicit loop, and sums over
mass arrays do the same through ``_left_sums`` or ``np.bincount``.  The
builtin ``sum`` is never called (a test enforces this): from Python 3.12 on
it compensates float sums, and the decrement gate and the pinned results
turn on last bits.  Other numpy reductions keep numpy's own order.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Word = tuple[int, ...]

#: slack accepted when validating that masses sum to one
MASS_TOL = 1e-12
#: atoms below this mass are pruned after arithmetic and the measure renormalized
PRUNE_TOL = 1e-15
#: pointwise slack for fuzzy-partition densities summing to one
FUZZY_TOL = 1e-10
#: default cap on enumerated support sizes
DEFAULT_SUPPORT_CAP = 1 << 20


class MeasureError(ValueError):
    """Raised when a measure, partition, or mixture violates its invariants."""


class SupportCapExceeded(MeasureError):
    """Raised when an exact computation would enumerate more words than its
    cap allows; the message says how to get round it."""


def _sum(xs: Iterable[float]) -> float:
    """The sum of ``xs``, added left to right from 0: the order of the builtin
    ``sum`` before Python 3.12, on every version (see the module docstring)."""
    total = 0
    for x in xs:
        total += x
    return total


def _left_sums(a: np.ndarray) -> np.ndarray:
    """Last-axis sums of a float array added left to right, so a zero term
    changes no bit: the bits of ``a.cumsum(axis=-1)[..., -1]``, in a new
    array (a view would hold the whole running sum).  Two terms are added
    directly, without the running sum."""
    width = a.shape[-1]
    if width == 2:
        return np.add(a[..., 0], a[..., 1], out=np.empty(a.shape[:-1]))
    return a.cumsum(axis=-1)[..., -1].copy() if width else np.zeros(a.shape[:-1])


def _check_support_cap(bound: int, count) -> None:
    """Raise ``SupportCapExceeded`` when a layer of at most ``bound`` words has
    more than ``DEFAULT_SUPPORT_CAP``, counted by ``count()`` when ``bound`` has."""
    size = count() if bound > DEFAULT_SUPPORT_CAP else bound
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportCapExceeded(
            f"support of {size} words exceeds cap {DEFAULT_SUPPORT_CAP}; "
            "a process window can be sampled with --empirical-length instead")


@dataclass(frozen=True)
class ProductSpace:
    """The finite product space ``A^n`` with ``|A| = alphabet_size``, ``n = dimension``."""

    alphabet_size: int
    dimension: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise MeasureError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        if self.dimension < 1:
            raise MeasureError(f"dimension must be >= 1, got {self.dimension}")
        if self.alphabet_size > 1 << 63:
            raise MeasureError(f"alphabet_size must be <= 2**63 (symbols are "
                               f"int64), got {self.alphabet_size}")

    def contains(self, word: Word) -> bool:
        return len(word) == self.dimension and all(
            0 <= s < self.alphabet_size for s in word
        )

    def restrict(self, dimension: int) -> "ProductSpace":
        """Same alphabet, different number of coordinates."""
        return ProductSpace(self.alphabet_size, dimension)


def _pruned(raw: np.ndarray) -> np.ndarray:
    """``raw``, one row or each row of a 2-D array, with the values at or
    below ``PRUNE_TOL`` set to 0 and the others divided by their total, added
    left to right (a pruned value adds 0.0 there, which changes no bit)."""
    kept = np.where(raw > PRUNE_TOL, raw, 0.0)
    totals = _left_sums(kept)[..., None]
    if kept.shape[-1] and not (totals > 0.0).all():
        raise MeasureError("null reweighting")
    return kept / totals


def _keys(digits: np.ndarray) -> np.ndarray:
    """One bytes key per digit row, big-endian, so that the keys of rows of
    nonnegative symbols sort as the rows do lexicographically."""
    rows = np.ascontiguousarray(digits, dtype=">i8")
    return rows.view(f"V{8 * rows.shape[1]}").ravel()


def _find(digits: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The index of each row of ``digits`` among the rows of ``table``
    (distinct, in lexicographic order), or -1 where it is not one."""
    keys, probe = _keys(table), _keys(digits)
    at = keys.searchsorted(probe)
    at[keys[at % len(keys)] != probe] = -1
    return at


def _merged(digits: np.ndarray, masses: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``digits`` in lexicographic order, the ``masses``
    of each added in row order from 0.0 (the bits of a dict accumulating
    them), and the index of each one's first row."""
    keys = _keys(digits)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = head.cumsum() - 1
    first = order[head]
    return digits[first], np.bincount(group, masses, len(first)), first


def _mass_rows(measures: Sequence["DiscreteMeasure"], table: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The masses of each of ``measures`` at the words of ``table`` (distinct
    digit rows in lexicographic order, such as a measure's atoms), one row
    each (0 where it has no atom), and whether each one's support lies in
    the table."""
    at = _find(np.concatenate([m.digits for m in measures]), table)
    owner = np.repeat(np.arange(len(measures)), [len(m) for m in measures])
    hit = at >= 0
    rows = np.zeros((len(measures), len(table)))
    rows[owner[hit], at[hit]] = np.concatenate([m.masses for m in measures])[hit]
    return rows, np.bincount(owner[~hit], minlength=len(measures)) == 0


def _words(digits: np.ndarray) -> tuple[Word, ...]:
    return tuple(map(tuple, digits.tolist()))


def _values_on(mu: "DiscreteMeasure", f, default: float | None = None) -> np.ndarray:
    """``f`` at each atom of ``mu`` as floats, in the order of ``mu.masses``:
    a callable on words, or a mapping read as ``default`` off its keys (a
    missing word raises ``KeyError`` when ``default`` is None)."""
    get = f if callable(f) else (f.__getitem__ if default is None
                                 else lambda w: f.get(w, default))
    return np.array([float(get(w)) for w in mu.support])


class DiscreteMeasure:
    """A probability measure on a :class:`ProductSpace`, stored as two
    read-only arrays: ``digits``, ``(k, n)`` int64, one row of symbols per
    atom, distinct and in lexicographic order, and ``masses``, ``(k,)``
    float64, positive, in the same order.  ``support`` (the rows as word
    tuples), ``atoms`` (a read-only word to mass mapping) and ``mass(word)``
    are views built on first use, for I/O and the public API.

    The constructor checks every word of the mapping ``atoms`` against
    ``space``; masses must be nonnegative and sum to 1 within ``MASS_TOL``.
    Zero masses are dropped and the others kept exactly as given, so that
    file round trips are byte-faithful.  Arithmetic builds through
    ``_of_arrays``, which checks the masses only.  ``mix`` adds a word's
    terms in component order and the mixture pipeline's lift its bad cell's
    terms likewise; both divide by ``_pruned``'s total added in the order the
    words first appear (a word-keyed dict's insertion order), then sort.
    Instances are immutable; all arithmetic returns new measures.
    """

    def __init__(self, space: ProductSpace, atoms: Mapping[Word, float]):
        words = sorted(atoms)
        masses = [float(atoms[word]) for word in words]
        for word, mass in zip(words, masses):
            if not space.contains(tuple(word)):
                raise MeasureError(f"word {word!r} not in A^{space.dimension} "
                                   f"with |A|={space.alphabet_size}")
            if not mass >= 0.0:
                kind = "NaN" if math.isnan(mass) else "negative"
                raise MeasureError(f"{kind} mass {mass} at word {word!r}")
        self._store(space, np.array(words, dtype=np.int64).reshape(len(words), space.dimension),
                    np.array(masses, dtype=float))

    def _store(self, space: ProductSpace, digits: np.ndarray, masses: np.ndarray) -> None:
        if np.count_nonzero(masses) < len(masses):    # masses are not negative here
            keep = masses > 0.0
            digits, masses = digits[keep], masses[keep]
        if not len(masses):
            raise MeasureError("measure has empty support")
        total = float(_left_sums(masses))
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"masses sum to {total!r}, not 1 within {MASS_TOL}")
        digits, masses = digits.view(), masses.view()
        digits.flags.writeable = masses.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "masses", masses)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("DiscreteMeasure is immutable")

    # -- construction helpers ---------------------------------------------------
    @classmethod
    def from_unnormalized(cls, space: ProductSpace, raw: Mapping[Word, float]) -> "DiscreteMeasure":
        """Prune masses below ``PRUNE_TOL`` and renormalize; the words are checked."""
        masses = _pruned(np.array([float(x) for x in raw.values()])).tolist()
        return cls(space, {w: m for w, m in zip(raw, masses) if m > 0.0})

    @classmethod
    def _of_arrays(cls, space: ProductSpace, digits: np.ndarray,
                   masses: np.ndarray) -> "DiscreteMeasure":
        """The measure with atoms the rows of ``digits`` and their ``masses``,
        for rows that are words of ``space``, distinct and in lexicographic
        order (taken from measures on ``space``, or built so): zero masses are
        dropped and the total is checked, the rows are not."""
        out = object.__new__(cls)
        out._store(space, np.asarray(digits, dtype=np.int64), np.asarray(masses, dtype=float))
        return out

    @classmethod
    def point_mass(cls, space: ProductSpace, word: Word) -> "DiscreteMeasure":
        return cls(space, {tuple(word): 1.0})

    @classmethod
    def uniform_on(cls, space: ProductSpace, words: Iterable[Word]) -> "DiscreteMeasure":
        words = [tuple(w) for w in words]
        if not words:
            raise MeasureError("measure has empty support")
        return cls(space, {w: 1.0 / len(words) for w in words})

    # -- views -------------------------------------------------------------------
    @functools.cached_property
    def support(self) -> tuple[Word, ...]:
        return _words(self.digits)

    @functools.cached_property
    def atoms(self) -> Mapping[Word, float]:
        return MappingProxyType(dict(zip(self.support, self.masses.tolist())))

    def mass(self, word: Word) -> float:
        return self.atoms.get(tuple(word), 0.0)

    def __len__(self) -> int:
        return len(self.masses)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiscreteMeasure)
                and self.space == other.space
                and np.array_equal(self.digits, other.digits)
                and np.array_equal(self.masses, other.masses))

    def __hash__(self):
        return hash((self.space, self.digits.tobytes(), self.masses.tobytes()))

    def __repr__(self) -> str:
        return (f"DiscreteMeasure(|A|={self.space.alphabet_size}, "
                f"n={self.space.dimension}, atoms={len(self)})")


@dataclass(frozen=True, eq=False)
class FuzzyPartition:
    """A fuzzy partition of ``support``, a tuple of distinct words: row j of
    the read-only ``(cells, len(support))`` array ``densities`` is the j-th
    density, in [0, 1] and summing to 1 down each column within ``FUZZY_TOL``.
    A word outside ``support`` has density 0 in every cell."""

    space: ProductSpace
    support: tuple[Word, ...]
    densities: np.ndarray

    def __post_init__(self) -> None:
        support, dens = tuple(self.support), np.array(self.densities, dtype=float)
        if not len(dens) or dens.ndim != 2 or dens.shape[1] != len(support):
            raise MeasureError(f"fuzzy partition needs at least one density, a row of "
                               f"{len(support)} values; got shape {dens.shape}")
        if len(set(support)) < len(support):
            raise MeasureError("fuzzy partition support repeats a word")
        outside = ~((dens >= -FUZZY_TOL) & (dens <= 1.0 + FUZZY_TOL)).all(axis=0)  # or NaN
        if outside.any():
            raise MeasureError(f"density value outside [0,1] at {support[outside.argmax()]!r}")
        totals = _left_sums(dens.T)
        off = np.flatnonzero(~(np.abs(totals - 1.0) <= FUZZY_TOL))
        if off.size:
            raise MeasureError(f"densities sum to {float(totals[off[0]])!r} at "
                               f"{support[off[0]]!r}, not 1 within {FUZZY_TOL}")
        dens.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "densities", dens)

    def __len__(self) -> int:
        return len(self.densities)

    @classmethod
    def indicator(cls, space: ProductSpace, support: Iterable[Word],
                  cells: Sequence[Iterable[Word]]) -> "FuzzyPartition":
        """Indicator fuzzy partition of ``support`` by disjoint covering ``cells``;
        a support word in no cell is an error."""
        support = tuple(map(tuple, support))
        index = {w: i for i, w in enumerate(support)}
        dens = np.zeros((len(cells), len(support)))
        for row, cell in zip(dens, cells):
            row[[index[w] for w in map(tuple, cell) if w in index]] = 1.0
        missing = np.flatnonzero(~dens.any(axis=0))
        if missing.size:
            raise MeasureError(f"support word {support[missing[0]]!r} lies in no cell")
        return cls(space, support, dens)


@dataclass(frozen=True)
class MixtureRepresentation:
    """A stochastic weight vector together with component measures on one space."""

    weights: tuple[float, ...]
    components: tuple[DiscreteMeasure, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.components):
            raise MeasureError("weight/component count mismatch")
        if not self.components:
            raise MeasureError("mixture needs at least one component")
        space = self.components[0].space
        for comp in self.components:
            if comp.space != space:
                raise MeasureError("mixture components on different spaces")
        bad = [w for w in self.weights if not w >= 0]
        if bad:
            raise MeasureError(f"mixture weight {bad[0]!r} is not a nonnegative number")
        total = _sum(self.weights)
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"weights sum to {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def space(self) -> ProductSpace:
        return self.components[0].space

    def __len__(self) -> int:
        return len(self.weights)


# -----------------------------------------------------------------------------
# Core operations
# -----------------------------------------------------------------------------
def marginal(mu: DiscreteMeasure, coords: Iterable[int]) -> DiscreteMeasure:
    """Pushforward of ``mu`` under projection to ``coords`` (given in [0, n))."""
    coords = sorted(set(int(c) for c in coords))
    if not coords:
        raise MeasureError("empty projection")
    n = mu.space.dimension
    if coords[0] < 0 or coords[-1] >= n:
        raise MeasureError(f"coords {coords} outside [0,{n})")
    digits, masses, _ = _merged(mu.digits[:, coords], mu.masses)
    # projection preserves mass exactly; projected words lie in the space
    return DiscreteMeasure._of_arrays(mu.space.restrict(len(coords)), digits, masses)


def reweight(mu: DiscreteMeasure, rho) -> DiscreteMeasure:
    """The reweighted measure with density proportional to ``rho``.

    ``rho`` may be a callable on words or a mapping (0 off its keys); values
    must be nonnegative on the support and have positive integral.
    Conditioning on a set is the special case where ``rho`` is its indicator.
    """
    vals = _values_on(mu, rho, 0.0)
    if vals.min() < 0:
        raise MeasureError(f"negative density {vals.min()}")
    return DiscreteMeasure._of_arrays(mu.space, mu.digits, _pruned(vals * mu.masses))


def condition(mu: DiscreteMeasure, subset: Iterable[Word]) -> DiscreteMeasure:
    """``mu`` conditioned on a set of words with positive mass."""
    return reweight(mu, dict.fromkeys(map(tuple, subset), 1.0))


def _pruned_in_order(sums: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``_pruned(sums)`` with the total added in the order of the distinct
    keys ``first``: where each word first appears among a mixture's terms,
    the order a word-keyed dict meets them in."""
    order = np.argsort(first)
    masses = np.empty(len(sums))
    masses[order] = _pruned(sums[order])
    return masses


def _summed(space: ProductSpace, digits: np.ndarray, raw: np.ndarray) -> DiscreteMeasure:
    """The measure on ``space`` (whose words the rows of ``digits`` are, in
    any order) with mass at each distinct row proportional to the sum of its
    ``raw`` values, added in row order from 0.0, after ``_pruned`` with the
    total added in the order the rows first appear: the bits of a word-keyed
    dict that accumulates them and is then normalised."""
    digits, sums, first = _merged(digits, raw)
    return DiscreteMeasure._of_arrays(space, digits, _pruned_in_order(sums, first))


def mix(rep: MixtureRepresentation) -> DiscreteMeasure:
    """Atomwise weighted sum of the components."""
    if len(rep) == 1:
        return rep.components[0]
    terms = [(w, c) for w, c in zip(rep.weights, rep.components) if w != 0.0]
    return _summed(rep.space, np.concatenate([c.digits for _, c in terms]),
                   np.repeat([w for w, _ in terms], [len(c) for _, c in terms])
                   * np.concatenate([c.masses for _, c in terms]))


def _mixed_rows(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The masses of ``mix`` of components with positive ``weights``, given
    as rows on one word table that holds all their atoms (zero at a missing
    atom), with the bits of ``mix``: one component is itself; otherwise each
    atom adds its terms in component order (a missing atom's 0.0 changes no
    bit) and ``_pruned_in_order`` takes the words as ``mix`` meets them."""
    if len(rows) == 1:
        return rows[0]
    held = rows > 0.0
    cols = np.flatnonzero(held.any(axis=0))
    out = np.zeros(rows.shape[1])
    out[cols] = _pruned_in_order(_left_sums((weights[:, None] * rows[:, cols]).T),
                                 held.argmax(axis=0)[cols] * rows.shape[1] + cols)
    return out


def fuzzy_split(mu: DiscreteMeasure, fp: FuzzyPartition) -> MixtureRepresentation:
    """Split ``mu`` along a fuzzy partition into weights and reweighted components.

    Weight ``p_j`` is the integral of the j-th density; the j-th component is
    ``mu`` reweighted by it.  Zero-weight terms are dropped, and words of ``mu``
    outside ``fp.support`` have density 0.  The weights must sum to 1 within
    ``FUZZY_TOL``: a partition whose densities miss part of the support of
    ``mu`` would drop that mass silently.
    """
    support, dens = mu.support, fp.densities
    if fp.support != support:   # column -1 of the padded rows is 0
        index = {w: i for i, w in enumerate(fp.support)}
        dens = np.pad(dens, ((0, 0), (0, 1)))[:, [index.get(w, -1) for w in support]]
    raw = dens * mu.masses
    p = _left_sums(raw)
    live = p > PRUNE_TOL
    dens, raw = dens[live], raw[live]
    low = dens.min(axis=1, initial=0.0)
    if (low < 0).any():
        raise MeasureError(f"negative density {low[(low < 0).argmax()]}")
    comps = [DiscreteMeasure._of_arrays(mu.space, mu.digits, row) for row in _pruned(raw)]
    weights = p[live].tolist()
    total = _sum(weights)
    if not abs(total - 1.0) <= FUZZY_TOL:
        raise MeasureError(f"fuzzy partition covers mass {total!r} of the "
                           f"measure, not 1 within {FUZZY_TOL}")
    return MixtureRepresentation(tuple(p / total for p in weights), tuple(comps))


def hookup(weights: Sequence[float], kernel: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Joint law of (index, word) for a finite mixture.

    The result lives on an augmented product space whose coordinate 0 is the
    mixture index; its projection to coordinates [1, n] equals the mixture and
    its coordinate-0 marginal equals ``weights``.
    """
    rep = MixtureRepresentation(tuple(weights), tuple(kernel))
    n = rep.space.dimension
    alpha = max(rep.space.alphabet_size, len(rep))
    terms = [(j, w, c) for j, (w, c) in enumerate(zip(rep.weights, rep.components))
             if w != 0.0]
    # index-major rows of sorted components are sorted
    return DiscreteMeasure._of_arrays(
        ProductSpace(alpha, n + 1),
        np.concatenate([np.insert(c.digits, 0, j, axis=1) for j, _, c in terms]),
        np.concatenate([w * c.masses for _, w, c in terms]))


def regroup(mu: DiscreteMeasure, block: int) -> DiscreteMeasure:
    """View a measure on ``A^(k*block)`` as one on ``(A^block)^k``.

    Consecutive blocks of ``block`` symbols are encoded as single symbols in
    ``range(|A|**block)``, most-significant-first, which keeps the words'
    lexicographic order.
    """
    n = mu.space.dimension
    if block < 1 or n % block != 0:
        raise MeasureError(f"dimension {n} is not a multiple of block {block}")
    a = mu.space.alphabet_size
    space = ProductSpace(a ** block, n // block)
    codes = mu.digits.reshape(len(mu), n // block, block) @ a ** np.arange(block - 1, -1, -1)
    return DiscreteMeasure._of_arrays(space, codes, mu.masses)


def variation_norm(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """The total mass of |mu - nu| (lies in [0, 2])."""
    _, diff, _ = _merged(np.concatenate((mu.digits, nu.digits)),
                         np.concatenate((mu.masses, -nu.masses)))
    return float(_left_sums(np.abs(diff)))


def tv_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total variation distance, one half of :func:`variation_norm` (in [0, 1])."""
    return 0.5 * variation_norm(mu, nu)


def product_measure(space: ProductSpace, dists: Sequence[Sequence[float]]
                    ) -> DiscreteMeasure:
    """The product of per-coordinate distributions, enumerated sparsely."""
    n = space.dimension
    if len(dists) == 1 and n > 1:
        dists = [dists[0]] * n
    if len(dists) != n:
        raise MeasureError(f"need {n} coordinate distributions, got {len(dists)}")
    probs = np.zeros((1, n, max(map(len, dists))))   # a missing letter has mass 0
    for row, dist in zip(probs[0], dists):
        row[:len(dist)] = dist
    digits, masses = _product_rows(probs)
    bad = np.flatnonzero(digits.max(axis=1, initial=0) >= space.alphabet_size)
    if bad.size:
        raise MeasureError(f"word {tuple(digits[bad[0]].tolist())!r} not in "
                           f"A^{n} with |A|={space.alphabet_size}")
    return DiscreteMeasure._of_arrays(space, digits, masses[0])


def _product_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The product of each row's n distributions in ``probs`` ``(rows, n, q)``,
    as sorted digit rows ``(W, n)`` and masses ``(rows, W)``.  Each layer is
    the outer product of the masses so far with the next distribution (one
    multiplication each), pruned at ``PRUNE_TOL``: a word some row keeps has
    mass 0 in the others.  Each row is divided by its total, added left to
    right, so it has the bits it has alone.  A row of more than
    ``DEFAULT_SUPPORT_CAP`` words raises before its layer is built."""
    digits, masses = np.zeros((1, 0), dtype=np.int64), np.ones((len(probs), 1))
    for dist in np.moveaxis(np.asarray(probs, dtype=float), 1, 0):    # (rows, q)
        _check_support_cap(masses.shape[1] * dist.shape[1], lambda: int(_sum(
            np.count_nonzero(masses * p[:, None] > PRUNE_TOL, axis=1)
            for p in dist.T).max()))
        outer = masses[:, :, None] * dist[:, None, :]
        kept = outer > PRUNE_TOL
        prefix, letter = np.nonzero(kept.any(axis=0))
        digits = np.concatenate((digits[prefix], letter[:, None]), axis=1)
        masses = np.where(kept, outer, 0.0)[:, prefix, letter]
    total = _left_sums(masses)
    if not (total > 0.0).all():
        raise MeasureError("null reweighting")
    return digits, masses / total[:, None]


# -----------------------------------------------------------------------------
# JSON measure files
# -----------------------------------------------------------------------------
def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {
        "alphabet_size": mu.space.alphabet_size,
        "dimension": mu.space.dimension,
        "atoms": [{"word": w, "mass": m}
                  for w, m in zip(mu.digits.tolist(), mu.masses.tolist())],
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    """Build a measure from its JSON dict, rejecting bad fields with their path."""
    for key in ("alphabet_size", "dimension", "atoms"):
        if key not in data:
            raise MeasureError(f"missing field '{key}'")
    try:
        space = ProductSpace(int(data["alphabet_size"]), int(data["dimension"]))
    except (TypeError, ValueError) as exc:
        raise MeasureError(f"alphabet_size/dimension: {exc}") from exc
    atoms: dict[Word, float] = {}
    for i, entry in enumerate(data["atoms"]):
        if not isinstance(entry, dict) or "word" not in entry or "mass" not in entry:
            raise MeasureError(f"atoms[{i}]: expected object with 'word' and 'mass'")
        word = entry["word"]
        if (not isinstance(word, list) or len(word) != space.dimension
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           for s in word)):
            raise MeasureError(f"atoms[{i}].word: expected {space.dimension} integers")
        word = tuple(word)
        if not space.contains(word):
            raise MeasureError(
                f"atoms[{i}].word: symbol out of range [0,{space.alphabet_size})")
        mass = entry["mass"]
        if (not isinstance(mass, (int, float)) or isinstance(mass, bool)
                or not mass >= 0):
            raise MeasureError(f"atoms[{i}].mass: expected nonnegative number")
        if word in atoms:
            raise MeasureError(f"atoms[{i}].word: duplicate word {list(word)}")
        atoms[word] = float(mass)
    # each word is checked once, above
    words = sorted(atoms)
    try:
        return DiscreteMeasure._of_arrays(
            space, np.array(words, dtype=np.int64).reshape(len(words), space.dimension),
            np.array([atoms[w] for w in words], dtype=float))
    except MeasureError as exc:
        raise MeasureError(f"atoms: {exc}") from exc


def load_measure(path: str) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return measure_from_dict(data)
    except MeasureError as exc:
        raise MeasureError(f"{path}: {exc}") from exc


def dump_measure(mu: DiscreteMeasure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(mu), fh, indent=1, sort_keys=True)
        fh.write("\n")
