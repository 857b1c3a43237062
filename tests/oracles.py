"""Independent oracles used to pin expected values.

These deliberately avoid the library's own code paths: the transport oracle
solves the coupling linear program directly with scipy's HiGHS backend (a
vertex solution from an unrelated implementation), and the information
oracles are plain summations over explicitly enumerated joint laws.  The
decrement-gate oracle is the exception: it builds the split's measures with
the library's public constructor, the path the gate took before it worked
on mass tuples, so that the two can be compared to the bit.  Likewise the
tilt-search oracle is the search as one gradient ascent per (seed, t) pair,
as it ran before its ascents were batched, and the window-law, block-kernel
and product oracles build their measures word by word in dicts, as the
library did before it built them as arrays; the fuzzy-split oracle reads
densities from word dicts, as the library did before a fuzzy partition
became one array.  ``decrement_checks`` is no oracle: it runs the library's
own slate scorer on one partition, for tests that read a single split's gate
numbers.

The oracles compared to the library in ``float.hex`` add with ``left_sum``,
the library's order, whatever the interpreter's builtin ``sum`` does.
``neumaier_sum`` is that builtin as Python 3.12 computes it, so that tests
can run under it on any interpreter.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np
from scipy.optimize import linprog


def left_sum(xs):
    """The sum of ``xs`` added left to right from 0."""
    return functools.reduce(operator.add, xs, 0)


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12 (``builtin_sum_impl`` in
    Python/bltinmodule.c): exact while the total and the items are ints; then,
    while the total and the items are exact floats (or ints that fit a C
    long, added without compensation), a float total with a Neumaier
    compensation term that is added back at the end or before the first
    other item; then plain ``+``."""
    def fits_long(x):
        return -2 ** 63 <= x < 2 ** 63

    items = iter(iterable)
    total = start
    if type(total) is int and fits_long(total):
        for item in items:
            if (type(item) in (int, bool) and fits_long(item)
                    and fits_long(total + item)):
                total += item
                continue
            total = total + item
            break
    if type(total) is float:
        comp = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and fits_long(item):
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            total = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        total = total + item
    return total


def lp_transport_cost(atoms_a: dict, atoms_b: dict, n: int) -> float:
    """Optimal coupling cost under the normalized Hamming metric, by direct LP."""
    src = sorted(atoms_a)
    tgt = sorted(atoms_b)
    cost = np.array([[sum(x != y for x, y in zip(a, b)) / n for b in tgt]
                     for a in src])
    return lp_coupling_cost(np.array([atoms_a[w] for w in src]),
                            np.array([atoms_b[w] for w in tgt]), cost)


def lp_coupling_cost(a, b, cost) -> float:
    """Least cost of a coupling of the mass vectors ``a`` and ``b`` under the
    cost matrix ``cost``, by direct LP."""
    rows, cols = cost.shape
    a_eq = []
    for i in range(rows):
        row = np.zeros(rows * cols)
        row[i * cols:(i + 1) * cols] = 1.0
        a_eq.append(row)
    for j in range(cols):
        row = np.zeros(rows * cols)
        row[j::cols] = 1.0
        a_eq.append(row)
    res = linprog(np.asarray(cost, dtype=float).ravel(), A_eq=np.array(a_eq),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def entropy_direct(masses) -> float:
    return -sum(p * math.log(p) for p in masses if p > 0)


def joint_entropy(joint: dict) -> float:
    return entropy_direct(joint.values())


def project_joint(joint: dict, coords) -> dict:
    out: dict = {}
    for key, mass in joint.items():
        sub = tuple(key[c] for c in coords)
        out[sub] = out.get(sub, 0.0) + mass
    return out


def mutual_information_from_joint(joint: dict, left, right) -> float:
    """I between two coordinate groups of an explicit joint law."""
    h_l = joint_entropy(project_joint(joint, left))
    h_r = joint_entropy(project_joint(joint, right))
    h_lr = joint_entropy(project_joint(joint, list(left) + list(right)))
    return h_l + h_r - h_lr


def coordinate_marginals(mu):
    """The one-coordinate marginals of ``mu``, each a list of the |A| symbol
    masses, added in atom order in one pass over the atoms, as the library
    took them before they became rows of ``information._tc_rows``."""
    out = [[0.0] * mu.space.alphabet_size for _ in range(mu.space.dimension)]
    for word, mass in mu.atoms.items():
        for row, s in zip(out, word):
            row[s] += mass
    return out


def total_correlation_scalar(mu) -> float:
    """TC of one measure as ``information.total_correlation`` computed it
    before its rows were batched: the sum of the coordinate entropies, each
    over ``coordinate_marginals`` in symbol order, minus the joint entropy,
    every log ``math.log`` and every sum left to right, clipped at round-off."""
    def entropy(probs):
        return -left_sum(p * math.log(p) for p in probs if p > 0.0)

    x = left_sum(map(entropy, coordinate_marginals(mu))) - entropy(mu.atoms.values())
    return max(x, 0.0) if x > -1e-12 else x


def dtc_direct(atoms: dict, n: int) -> float:
    """Dual total correlation via the leave-one-out marginal identity."""
    h = joint_entropy(atoms)
    total = 0.0
    for i in range(n):
        rest = [c for c in range(n) if c != i]
        total += joint_entropy(project_joint(atoms, rest))
    return total - (n - 1) * h


def random_sparse_measure(rng, alphabet, n, max_support):
    """A random sparse atom map (dict word -> mass) summing to one."""
    words = list(itertools.product(range(alphabet), repeat=n))
    size = int(rng.integers(1, min(max_support, len(words)) + 1))
    chosen = rng.choice(len(words), size=size, replace=False)
    masses = rng.random(size) + 1e-3
    masses /= masses.sum()
    return {words[i]: float(m) for i, m in zip(chosen, masses)}


def density_dicts(fp):
    """The densities of the fuzzy partition ``fp`` as word -> value dicts,
    the form the library kept them in before they became one array."""
    return [dict(zip(fp.support, row.tolist())) for row in fp.densities]


def fuzzy_split_dict(mu, densities):
    """``fuzzy_split`` of ``mu`` by density dicts (0 off their keys), as the
    library computed it before fuzzy partitions became arrays: each density
    read word by word on the support of ``mu``."""
    from hamconc import MeasureError, MixtureRepresentation
    from hamconc.measures import FUZZY_TOL, PRUNE_TOL, DiscreteMeasure

    masses = tuple(mu.atoms.values())
    weights, comps = [], []
    for rho in densities:
        dens = [float(rho.get(w, 0.0)) for w in mu.support]
        raw = [v * m for v, m in zip(dens, masses)]
        p = left_sum(raw)
        if p <= PRUNE_TOL:
            continue
        if min(dens) < 0:
            raise MeasureError(f"negative density {min(dens)}")
        weights.append(p)
        # atoms at or below PRUNE_TOL are dropped, and the rest divided by
        # their total (p when none is dropped)
        kept = [(w, x) for w, x in zip(mu.support, raw) if x > PRUNE_TOL]
        total = p if len(kept) == len(raw) else left_sum([x for _, x in kept])
        comps.append(DiscreteMeasure(mu.space, {w: x / total for w, x in kept}))
    total = left_sum(weights)
    if not abs(total - 1.0) <= FUZZY_TOL:
        raise MeasureError(f"fuzzy partition covers mass {total!r} of the "
                           f"measure, not 1 within {FUZZY_TOL}")
    return MixtureRepresentation(tuple(p / total for p in weights), tuple(comps))


def decrement_gate(mu, fp, r, i_floor=None):
    """(ok, information, decrement) of the decrement gate on ``mu`` split by
    the fuzzy partition ``fp``, by building the split's measures as the gate
    did before it worked on mass tuples: each component through the public
    constructor, then ``mixture_mutual_information`` and
    ``dual_total_correlation``.  The information is None for a split into
    fewer than two parts, and the decrement is None below the floor."""
    from hamconc import DiscreteMeasure, MixtureRepresentation, decompose
    from hamconc.information import (dual_total_correlation,
                                     mixture_mutual_information)
    from hamconc.measures import PRUNE_TOL

    weights, comps = [], []
    for dens in density_dicts(fp):
        raw = {w: dens.get(w, 0.0) * m for w, m in mu.atoms.items()}
        p = left_sum(raw.values())
        if p <= PRUNE_TOL:
            continue
        kept = {w: x for w, x in raw.items() if x > PRUNE_TOL}
        total = left_sum(kept.values())
        weights.append(p)
        comps.append(DiscreteMeasure(mu.space, {w: x / total for w, x in kept.items()}))
    if len(weights) < 2:
        return False, None, None
    total = left_sum(weights)
    rep = MixtureRepresentation(tuple(p / total for p in weights), tuple(comps))
    info = mixture_mutual_information(rep, mu)
    n = mu.space.dimension
    floor = r * r * math.exp(-n) / n
    if i_floor is not None:
        floor = max(floor, i_floor)
    if not info >= floor - decompose.GATE_FLOOR_SLACK:
        return False, info, None
    drop = dual_total_correlation(mu) - left_sum(
        p * dual_total_correlation(c) for p, c in zip(rep.weights, rep.components))
    return drop >= 0.5 * info - decompose.GATE_DROP_SLACK, info, drop


def decrement_checks(mu, fp, r, i_floor=0.0):
    """The library's slate scorer ``decompose._score_slate`` on the fuzzy
    partition ``fp`` of ``mu`` alone (which ``fuzzy_split`` checks), given
    DTC(mu) from ``information.dual_total_correlation``, as
    (ok, information, decrement), None for NaN."""
    from hamconc import decompose, fuzzy_split
    from hamconc.information import dual_total_correlation

    fuzzy_split(mu, fp)
    ok, info, drop = (a[0] for a in decompose._score_slate(
        mu.support, np.array([tuple(mu.atoms.values())]),
        np.array([[[d.get(w, 0.0) for w in mu.support] for d in density_dicts(fp)]]), r,
        np.array([i_floor]), np.array([dual_total_correlation(mu)])))
    return bool(ok), *(None if math.isnan(v) else float(v) for v in (info, drop))


def unpruned_step(mu, r, i_floor, slate):
    """The decrement step's choice with every candidate scored on its own:
    each split of ``slate`` (pairs of density values in support order)
    through ``decrement_gate``, and the first passing one whose drop is
    within ``decompose.GATE_TIE_SLACK`` of the largest passing drop.  Returns
    the gate results in slate order and the winner's index, None when no
    candidate passes."""
    from hamconc import FuzzyPartition, decompose

    results = [decrement_gate(mu, FuzzyPartition(mu.space, mu.support, dens), r, i_floor)
               for dens in slate]
    passing = [drop for ok, _, drop in results if ok]
    if not passing:
        return results, None
    best = max(passing)
    win = next(k for k, (ok, _, drop) in enumerate(results)
               if ok and drop >= best - decompose.GATE_TIE_SLACK)
    return results, win


def lipschitz_project_1d(values, dist):
    """The Lipschitz projection of one vector as a plain loop over its
    entries: the midpoint of the upper and lower tight extensions, taken
    once."""
    f = np.asarray(values, dtype=float)
    g = np.empty_like(f)
    for x in range(len(f)):
        upper = (f + dist[x]).min()
        lower = (f - dist[x]).max()
        g[x] = 0.5 * (upper + lower)
    return g


def tilt_ascent(masses, dist, r, kappa, budget, t_hi=None, t_points=24):
    """The tilted-divergence search of one measure (its atom masses in
    support order) run one (seed, t) gradient ascent at a time, as the
    library ran it before its ascents were batched.  Returns its ranked
    (score, f-values, t, divergence, threshold) candidates, f as an array in
    support order, and for each the step at which its ascent stopped (None
    when it ran all ``budget.max_grad_steps``)."""
    masses = np.asarray(masses, dtype=float)
    logm = np.log(masses)
    alpha = (r / 2.0) / kappa
    lo, hi = sorted((r / 2.0, kappa))
    if t_hi is not None:
        hi = max(hi, t_hi)
    t_grid = np.exp(np.linspace(math.log(lo), math.log(hi), t_points))
    rng = np.random.default_rng(np.random.SeedSequence(budget.seed))

    def project01(f):
        return np.clip(lipschitz_project_1d(f, dist), 0.0, 1.0)

    seeds = []
    for i in np.argsort(-masses, kind="stable")[: max(2, budget.restarts // 2)]:
        seeds.append(np.clip(dist[int(i)], 0.0, 1.0))
    while len(seeds) < budget.restarts:
        seeds.append(project01(rng.uniform(0.0, 1.0, size=len(masses))))

    ranked, stops = [], []
    for f0 in seeds:
        for t in t_grid:
            f = f0.copy()
            best_f, best_div, stop = f, -math.inf, None
            for step in range(budget.max_grad_steps):
                z = -t * f + logm
                peak = z.max()
                logz = peak + math.log(np.exp(z - peak).sum())
                w = np.exp(z - logz)
                div = float(w @ (-t * f)) - logz
                if div <= best_div + 1e-14:
                    stop = step
                    break
                best_f, best_div = f, div
                grad = t * t * w * (f - float(w @ f))
                f = project01(f + (0.5 / max(t * t, 1.0)) * grad)
            ranked.append((best_div - alpha * t * t, best_f, float(t),
                           best_div, alpha * t * t))
            stops.append(stop)
    order = sorted(range(len(ranked)), key=lambda i: -ranked[i][0])
    return [ranked[i] for i in order], [stops[i] for i in order]


def hexed_candidates(ranked, support):
    """Ranked search candidates as (score, t, divergence, threshold,
    f-values) in ``float.hex``, f taken in support order from an array row or
    a word map."""
    out = []
    for score, f, t, div, threshold in ranked:
        vals = [f[w] for w in support] if isinstance(f, dict) else f.tolist()
        out.append((float(score).hex(), float(t).hex(), float(div).hex(),
                    float(threshold).hex(), [float(v).hex() for v in vals]))
    return out


def product_measure_dict(space, dists):
    """``measures.product_measure`` as a dict of words grown one coordinate
    at a time, as the library built it before its layers became arrays."""
    from hamconc import DiscreteMeasure
    from hamconc.measures import PRUNE_TOL

    if len(dists) == 1 and space.dimension > 1:
        dists = [dists[0]] * space.dimension
    partial = {(): 1.0}
    for dist in dists:
        nxt = {}
        for prefix, mass in partial.items():
            for s, p in enumerate(dist):
                m = mass * p
                if m > PRUNE_TOL:
                    nxt[prefix + (s,)] = m
        partial = nxt
    return DiscreteMeasure.from_unnormalized(space, partial)


def dp_block_dict(start, transition, emit, out_alpha, n):
    """The forward DP over (state, emitted word) as a dict from words to
    per-state mass vectors, as ``processes._dp_block`` ran before its layers
    became arrays: every state mass added left to right, pruned at
    ``PRUNE_TOL``, each word's mass the numpy sum of its vector."""
    from hamconc import DiscreteMeasure, ProductSpace
    from hamconc.measures import PRUNE_TOL

    k = len(start)
    layer = {}
    for s in range(k):
        if start[s] <= 0.0:
            continue
        vec = layer.setdefault((emit[s],), np.zeros(k))
        vec[s] += start[s]
    for _ in range(1, n):
        nxt = {}
        for word, vec in layer.items():
            for s2 in range(k):
                mass = left_sum(vec[s1] * transition[s1][s2] for s1 in range(k))
                if mass <= PRUNE_TOL:
                    continue
                tgt = nxt.setdefault(word + (emit[s2],), np.zeros(k))
                tgt[s2] += mass
        layer = nxt
    return DiscreteMeasure.from_unnormalized(
        ProductSpace(out_alpha, n), {w: float(v.sum()) for w, v in layer.items()})


def exact_block_measure_dict(spec, n):
    """``processes.exact_block_measure`` with the dict DP and dict product."""
    from hamconc import DiscreteMeasure, ProductSpace, processes

    if isinstance(spec, processes.JointSpec):
        return exact_block_measure_dict(spec.base, n)
    if isinstance(spec, processes.IIDSpec):
        return product_measure_dict(ProductSpace(spec.alphabet_size, n),
                                    [list(spec.dist)])
    if isinstance(spec, processes.MarkovSpec):
        return dp_block_dict(spec.stationary, spec.transition,
                             tuple(range(spec.alphabet_size)), spec.alphabet_size, n)
    if isinstance(spec, processes.HiddenSpec):
        return dp_block_dict(spec.base.stationary, spec.base.transition,
                             spec.emit, spec.alphabet_size, n)
    k = -(-n // spec.out_len)
    out = {}
    for word, mass in exact_block_measure_dict(spec.base, k * spec.window).atoms.items():
        key = tuple(itertools.chain.from_iterable(
            spec.code[word[i * spec.window:(i + 1) * spec.window]] for i in range(k)))[:n]
        out[key] = out.get(key, 0.0) + mass
    return DiscreteMeasure.from_unnormalized(ProductSpace(spec.out_alphabet, n), out)


def block_kernel_dict(spec, n):
    """(base, kernel) of ``processes.block_kernel`` grouped word by word in
    dicts, as the library built them before they became arrays."""
    from hamconc import DiscreteMeasure, ProductSpace

    by_b, mass_b = {}, {}
    for word, mass in exact_block_measure_dict(spec, n).atoms.items():
        b = tuple(x // spec.a_size for x in word)
        a = tuple(x % spec.a_size for x in word)
        by_b.setdefault(b, {})[a] = by_b.get(b, {}).get(a, 0.0) + mass
        mass_b[b] = mass_b.get(b, 0.0) + mass
    a_space = ProductSpace(spec.a_size, n)
    kernel = {b: DiscreteMeasure.from_unnormalized(a_space, atoms)
              for b, atoms in sorted(by_b.items())}
    return DiscreteMeasure(ProductSpace(spec.b_size, n), mass_b), kernel


def hexed_atoms(mu):
    """The atoms of a measure in support order, masses in ``float.hex``."""
    return [(w, m.hex()) for w, m in mu.atoms.items()]
