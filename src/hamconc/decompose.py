"""Constructive decomposition pipelines.

``decrement_step`` splits a non-concentrated measure by a Gibbs-tilted binary
fuzzy partition; ``decrement_recursion`` iterates it until the still-splittable
mass is small, scoring each round's untried components as one batch per
support (a split does not depend on the rest of its batch); ``sample_coarsen``
replaces a low-information mixture by a bounded-size empirical average;
``mixture_decomposition`` chains trimming, recursion, sampling and lifting
into a mixture whose non-bad components carry concentration certificates;
``carve_concentrated_set`` extracts one concentrated set (a heavy atom, or
the well-coupled part of a law of small total correlation, with the heaviest
atom as the audited fallback), and ``partition_decomposition`` repeats it
into a partition of the support; both are one-row cases of ``_carve_rows``
and ``_partition_rows``, which carve the laws on one support (rows of one
mass array) in shared rounds, each round's open rows as one batch.
``refute_T`` proves every pipeline certificate by its diameter or Hoeffding
bound before any search.

Every split is gated on the exactly computable decrement inequality
(average-DTC drop >= half the mutual information of the split, and the mutual
information >= r^2 n^{-1} e^{-n}); product measures can never pass the gate,
so they are never split.  All randomness is derived from one seed through
explicit spawn keys, so results are reproducible byte for byte.  Only the
existential constants ``c`` and ``c_B`` are configuration; they are reported
against achieved counts, never asserted.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import (
    DEFAULT_SUPPORT_CAP,
    DiscreteMeasure,
    FuzzyPartition,
    MeasureError,
    MixtureRepresentation,
    PRUNE_TOL,
    ProductSpace,
    Word,
    _find,
    _left_sums,
    _mass_rows,
    _merged,
    _mixed_rows,
    _product_rows,
    _pruned,
    _sum,
    _words,
    fuzzy_split,
    marginal,
    mix,
)
from .information import (
    ROW_BLOCK_ELEMENTS,
    _dtc_rows,
    _kl_rows,
    _mixture_information,
    _tc_rows,
    dual_total_correlation,
    mixture_mutual_information,
    total_correlation,
    trim_coordinates,
)
from .transport import _exact_couplings, mismatch_matrix
from .concentration import (
    DensityBound,
    Lift,
    RefutationBudget,
    RefutationResult,
    SupportMetric,
    TParams,
    _concentrated_set,
    _l_search_candidates,
    propagate_t_params,
    refute_T,
)

#: desk-scale envelope for the exact pipelines
MAX_ALPHABET = 8
MAX_DIMENSION = 12
MAX_PIPELINE_SUPPORT = 1 << 16

#: inequality denominators of the radius arithmetic (r n / 200 for splits and
#: the recursion, r n / 1200 for the final radius), the cell cap of a
#: partition, the tilt-search budget of one decrement step (both restarts
#: start at anchor atoms, so it reads no seed), and the first and largest
#: sampling sizes
DEC_DENOMINATOR = 200.0
FINAL_DENOMINATOR = 1200.0
MAX_CELLS = 4096
SPLIT_BUDGET = RefutationBudget(restarts=2, max_grad_steps=15)
SAMPLE_START = 64
SAMPLE_CAP = 1 << 18
#: how far below its floor, and below I/2, a split's information and drop may
#: be; and how far below a step's largest passing drop a passing drop earlier
#: in the slate may be and win: over the mixture bench and the criterion
#: fixtures runners-up lie within 6.7e-15 of the winner or 7.3e-9 below it
GATE_FLOOR_SLACK = 1e-12
GATE_DROP_SLACK = 1e-8
GATE_TIE_SLACK = 1e-10


@dataclass(frozen=True)
class PipelineConfig:
    """Tolerances, constants and the seed for the pipelines.

    The inequality denominators 200/1200 are the module constants
    ``DEC_DENOMINATOR`` and ``FINAL_DENOMINATOR``.  ``c`` and ``c_B`` stand in
    for the non-constructive existential constants: ``c`` is only reported
    against, and ``c_B`` scales the heavy-atom threshold exponent
    161 c_B / delta^2 of a carve; both must be finite and positive.
    ``delta_override`` replaces the derived min(r^2/42, 1/18); its correct
    calibration at small n is unspecified, so it is configuration.  An r so
    small that r^2/42 underflows to 0 is rejected.
    """

    epsilon: float = 0.3
    r: float = 0.3
    seed: int = 0
    max_iters: int = 64
    c: float = 50.0
    c_B: float = 10.0
    delta_override: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.r < 1.0):
            raise MeasureError("epsilon and r must lie in (0,1)")
        if self.r * self.r / 42.0 == 0.0:
            raise MeasureError(
                f"r = {self.r!r} is too small: delta = min(r^2/42, 1/18) "
                "underflows to 0")
        if self.max_iters < 1:
            raise MeasureError("max_iters must be >= 1")
        if self.seed < 0:
            raise MeasureError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.c < math.inf and 0.0 < self.c_B < math.inf):
            raise MeasureError("constants c and c_B must be finite and positive")

    @property
    def delta(self) -> float:
        if self.delta_override is not None:
            return self.delta_override
        return min(self.r * self.r / 42.0, 1.0 / 18.0)

    def atom_threshold_exponent(self) -> float:
        d = self.delta
        if d * d == 0.0:
            raise MeasureError(
                f"delta = {d!r} (r = {self.r!r}) is too small: the atom "
                "threshold exponent 161 c_B / delta^2 divides by 0")
        return 161.0 * self.c_B / (d * d)

    def to_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon, "r": self.r, "seed": self.seed,
            "max_iters": self.max_iters, "c": self.c, "c_B": self.c_B,
            "delta": self.delta,
        }
        if self.delta_override is not None:
            out["delta_override"] = self.delta_override
        return out


@dataclass(frozen=True)
class DecompositionResult:
    """A mixture or support partition with per-component certificates and audit."""

    kind: str  # "mixture" | "partition"
    weights: tuple[float, ...]
    components: tuple[DiscreteMeasure | None, ...]
    sets: tuple[tuple[Word, ...], ...] | None
    bad_index: int | None
    certificates: tuple[RefutationResult | None, ...]
    certificate_params: tuple[TParams | None, ...]
    truncated: bool
    audit: dict

    @property
    def bad_mass(self) -> float:
        return self.weights[self.bad_index] if self.bad_index is not None else 0.0

    def good_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.weights)) if i != self.bad_index)

    def reconstruct(self) -> DiscreteMeasure:
        pairs = [(w, c) for w, c in zip(self.weights, self.components)
                 if c is not None and w > 0.0]
        total = _sum(w for w, _ in pairs)
        return mix(MixtureRepresentation(tuple(w / total for w, _ in pairs),
                                         tuple(c for _, c in pairs)))

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "weights": list(self.weights),
            "bad_index": self.bad_index,
            "truncated": self.truncated,
            "components": [None if c is None else
                           [[w, m] for w, m in zip(c.digits.tolist(), c.masses.tolist())]
                           for c in self.components],
            "certificates": [None if c is None else c.to_dict()
                             for c in self.certificates],
            "certificate_params": [
                None if p is None else {"kappa": p.kappa, "r": p.r}
                for p in self.certificate_params
            ],
            "audit": self.audit,
        }
        if self.sets is not None:
            out["sets"] = [[list(w) for w in cell] for cell in self.sets]
        return out


def _check_envelope(space: ProductSpace, size: int) -> None:
    if (space.alphabet_size > MAX_ALPHABET
            or space.dimension > MAX_DIMENSION
            or size > MAX_PIPELINE_SUPPORT):
        raise MeasureError(
            "input exceeds the exact pipeline envelope "
            f"(|A|<={MAX_ALPHABET}, n<={MAX_DIMENSION}, "
            f"support<={MAX_PIPELINE_SUPPORT})")


# -----------------------------------------------------------------------------
# Decrement machinery
# -----------------------------------------------------------------------------
def _score_slate(digits, masses: np.ndarray,
                 densities: np.ndarray, r: float, i_floor: np.ndarray,
                 dtc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decrement gate, arrays (ok, information, decrement), on a slate of
    splits: split c has density values ``densities[c, j]`` (a ``(C, J, k)``
    array) on the digit rows ``digits`` for the measure with atoms
    ``masses[c]``, DTC ``dtc[c]`` and floor ``i_floor[c]``.  ok when the average-DTC drop is
    >= I/2 and I (NaN for fewer than two parts) is above the max of
    r^2 n^{-1} e^{-n} and the floor; only then are component DTCs taken, else
    the drop is NaN.  Every float, a row on its own, is the one
    ``fuzzy_split`` and the public functionals give."""
    n, (count, parts, k) = np.shape(digits)[1], densities.shape
    raw = densities * masses[:, None]
    p = _left_sums(raw)
    kept = p > PRUNE_TOL
    atoms = np.where(raw > PRUNE_TOL, raw, 0.0)
    weights = np.where(kept, p, 0.0)
    weights /= _left_sums(weights)[:, None]
    comps = atoms / np.where(kept, _left_sums(atoms), 1.0)[..., None]
    kls = _kl_rows(comps.reshape(-1, k), np.repeat(masses, parts, axis=0)).reshape(p.shape)
    info = np.where(kept.sum(axis=1) >= 2, _left_sums(weights * kls), np.nan)
    drop = np.full(count, np.nan)
    above = info >= np.maximum(r * r * math.exp(-n) / n, i_floor) - GATE_FLOOR_SLACK
    if above.any():
        dtcs = _dtc_rows(digits, comps[above].reshape(-1, k)).reshape(-1, parts)
        drop[above] = dtc[above] - _left_sums(weights[above] * dtcs)
    return above & (drop >= 0.5 * info - GATE_DROP_SLACK), info, drop


@dataclass(frozen=True)
class Split:
    """A binary fuzzy partition that passed the decrement gate, with the
    mutual information and the average-DTC drop the gate measured for it."""

    partition: FuzzyPartition
    information: float
    decrement: float


def decrement_step(mu: DiscreteMeasure, r: float) -> Split | None:
    """One splitting step: search for a tilt witness and return the binary
    fuzzy partition (e^{-t f}/2, 1 - e^{-t f}/2), with the information and
    decrement the gate measured, when the split passes the exact decrement
    checks; None otherwise (always None on product measures, whose
    average-DTC drop can never reach half the split information).

    Besides the asymptotic floor, a split must carry information at least
    r^2/(4n) and a tenth of the measure's DTC (below, a split is noise at
    small n).  The 18 candidate tilts are scored as one ``(C, 2, k)`` slate;
    the winner, the first passing candidate whose drop is within
    ``GATE_TIE_SLACK`` of the largest passing drop, is built.  This is the
    one-measure batch of ``_decrement_steps``: the recursion scores a round's
    components together, one batch per support, and a split does not depend
    on the other measures of its batch."""
    return _decrement_steps(mu.space, mu.digits, mu.masses[None], r,
                            lambda: mismatch_matrix(mu.digits, mu.digits))[0]


def _decrement_steps(space: ProductSpace, digits, masses: np.ndarray, r: float,
                     mismatches) -> list[Split | None]:
    """``decrement_step`` of each measure on the digit rows ``digits`` with
    atoms a row of ``masses``, as one batch: one ``_dtc_rows`` call for their
    DTCs, one tilt search and one slate.  The search and the anchor separators read the
    support's ``SupportMetric``: off the cube route its distance matrix is
    ``mismatches() / n`` (asked for only when some measure can split), and on
    it only the anchors' rows are built.  Every quantity is taken row by row,
    so each split is, bit for bit, the one its measure gets alone."""
    if not (0.0 < r < 1.0):
        raise MeasureError(f"r must lie in (0,1), got {r}")
    out: list[Split | None] = [None] * len(masses)
    n, digits = space.dimension, np.asarray(digits, dtype=np.int64)
    dtc = _dtc_rows(digits, masses)
    i_floor = np.maximum(r * r / (4.0 * n), 0.1 * dtc)
    # the drop inequality caps any split's information at 2 DTC
    live = np.flatnonzero(2.0 * dtc >= i_floor - GATE_FLOOR_SLACK)
    if len(digits) == 1 or not live.size:
        return out
    kappa = r * n / DEC_DENOMINATOR
    # allow tilts strong enough to cleanly separate the lightest atom
    t_hi = [min(max(kappa, r / 2.0, math.log(1.0 / masses[m].min()) + 6.0), 50.0)
            for m in live]
    metric = SupportMetric(digits, space.alphabet_size, mismatches)
    ranked = _l_search_candidates(masses[live], metric, r, kappa, SPLIT_BUDGET,
                                  t_hi=t_hi, t_points=10)
    # plus the plain anchor separators, which divergence ascent tends to
    # sharpen past the point of a balanced split
    seps = np.minimum(metric.rows(np.argsort(-masses[live], axis=1, kind="stable")[:, :2]),
                      1.0)
    t_coarse = np.exp(np.linspace(math.log(max(r / 2.0, 0.25)),
                                  [math.log(max(h, 1.0)) for h in t_hi], 6, axis=1))
    fs, ts = [], []
    for cands, sep, coarse in zip(ranked, seps, t_coarse.tolist()):
        # the decrement gate favours informative tilts, not the raw score margin
        cands = sorted(cands, key=lambda c: -c[3])[:6]
        fs += [c[1] for c in cands] + [row for row in sep for _ in coarse]
        ts += [c[2] for c in cands] + coarse * len(sep)
    # every measure's slate has one size; a tilt met twice (a search candidate
    # can equal an anchor separator) scores the same twice, the first winning
    rho = 0.5 * np.exp(-np.array(ts)[:, None] * np.array(fs))
    dens, size = np.stack([rho, 1.0 - rho], axis=1), len(ts) // len(live)
    masses, i_floor, dtc = (np.repeat(a[live], size, axis=0) for a in (masses, i_floor, dtc))
    ok, info, drop = _score_slate(digits, masses, dens, r, i_floor, dtc)
    gain = np.where(ok, drop, -np.inf).reshape(-1, size)
    wins = ok.reshape(-1, size) & (gain >= gain.max(axis=1)[:, None] - GATE_TIE_SLACK)
    for c in (i * size + int(row.argmax()) for i, row in enumerate(wins) if row.any()):
        out[live[c // size]] = Split(FuzzyPartition(space, _words(digits), dens[c]),
                                     float(info[c]), float(drop[c]))
    return out


@dataclass
class _Component:
    """One cell of the recursion: a density array over supp(mu), its mass
    under mu, and its status: "unknown" (not yet tried), "firing" (``split``
    passed), "concentrated" (no split within budget, or still splittable at
    the round cap or a stall) or "bad" (firing at the natural stop)."""

    density: np.ndarray
    weight: float
    status: str = "unknown"
    split: Split | None = None


def decrement_recursion(mu: DiscreteMeasure, cfg: PipelineConfig,
                        *, r: float | None = None, epsilon: float | None = None,
                        dtc: float | None = None
                        ) -> tuple[FuzzyPartition, dict, MixtureRepresentation]:
    """Iterated splitting of ``mu`` until the still-splittable mass is < epsilon.

    Returns the final fuzzy partition (bad cell first when present), an
    audit ledger with the per-step information growth and decrement totals,
    and ``fuzzy_split(mu, partition)``, split once for the audit's
    ``final_information`` and kept for the caller.  ``dtc`` is the audit's
    DTC(mu) when the caller has computed it.  Each round scores its untried
    components together, one ``_decrement_steps`` batch per support; a split
    does not depend on the other measures of its batch.

    A batch whose tilt search takes the pairwise route of
    ``lipschitz_project`` slices the k x k mismatch matrix of supp(mu), built
    once on first need.  One on the cube route (many atoms of a small cube,
    ``_cube_is_cheaper``) reads only its anchor rows, the seeds and
    separators at its measures' two heaviest atoms, from
    ``mismatch_matrix(support[anchors], support)``; a recursion whose
    batches all take the cube route builds no k x k matrix.  Either route
    gives the same bits.

    A component joins the bad cell when it still admits a split at the
    natural stop.  At the round cap, or when the splittable mass stalls, every
    still-splittable component is kept as concentrated instead, and
    ``cap_hit`` is recorded: concentrated measures (block codes, subgroup
    laws) admit splits indefinitely, and T(r n / ``DEC_DENOMINATOR``, r) holds
    for each by Hoeffding's lemma for n <= 1600, so ``audit["truncated"]``
    stays False.
    """
    r = cfg.r if r is None else r
    epsilon = cfg.epsilon if epsilon is None else epsilon
    digits, masses = mu.digits, mu.masses
    mismatches = functools.cache(lambda: mismatch_matrix(digits, digits))  # on first need

    def component(dens: np.ndarray) -> _Component:
        return _Component(dens, float(_left_sums(dens * masses)))

    # a component is tried once, and exactly one (the heaviest firing one) is
    # split per round
    comps = [component(np.ones(len(mu)))]
    audit: dict = {"rounds": [], "truncated": False}
    total_decrement = 0.0

    stalled = False
    history: list[float] = []
    for round_no in range(cfg.max_iters):
        # the round's untried components, reweighted as ``reweight`` does,
        # one batch per support (the atoms above PRUNE_TOL)
        batches: dict[bytes, list[int]] = {}
        for idx, comp in enumerate(comps):
            if comp.status == "unknown" and comp.weight <= 1e-14:
                comp.status = "concentrated"
            elif comp.status == "unknown":
                batches.setdefault((comp.density * masses > PRUNE_TOL).tobytes(),
                                   []).append(idx)
        for kept, batch in batches.items():
            kept = np.frombuffer(kept, dtype=bool)
            raw = np.array([comps[i].density[kept] for i in batch]) * masses[kept]
            for idx, split in zip(batch, _decrement_steps(
                    mu.space, digits[kept], raw / _left_sums(raw)[:, None], r,
                    lambda: mismatches()[np.ix_(kept, kept)])):
                comps[idx].split = split
                comps[idx].status = "concentrated" if split is None else "firing"
        firing = [i for i, comp in enumerate(comps) if comp.status == "firing"]
        firing_mass = _sum(comps[i].weight for i in firing)
        round_entry = {"round": round_no, "firing_mass": firing_mass, "splits": []}
        history.append(firing_mass)
        if firing_mass < epsilon or not firing:
            for idx in firing:
                comps[idx].status = "bad"
            audit["rounds"].append(round_entry)
            break
        if len(history) > 8 and firing_mass >= 0.98 * history[-9]:
            # self-similar grind: splits fire but the splittable mass does not
            # drain; keep the leftovers as concentrated (see the docstring)
            stalled = True
            audit["rounds"].append(round_entry)
            break
        idx = max(firing, key=lambda i: (comps[i].weight, -i))
        dens, weight, split = comps[idx].density, comps[idx].weight, comps[idx].split
        total_decrement += weight * split.decrement
        round_entry["splits"].append(
            {"component": idx, "weight": weight,
             "information": split.information, "decrement": split.decrement})
        halves = np.full((2, len(mu)), 0.5)   # on atoms the split does not cover
        halves[:, dens * masses > PRUNE_TOL] = split.partition.densities
        first, second = dens * halves
        comps[idx] = component(first)
        comps.append(component(second))
        audit["rounds"].append(round_entry)
    else:
        stalled = True
    audit["cap_hit"] = stalled
    if stalled:
        for comp in comps:
            if comp.status in ("unknown", "firing"):
                comp.status = "concentrated"

    bad = [comp.density for comp in comps if comp.status == "bad"]
    final = [_sum(bad)] if bad else []
    final.extend(comp.density for comp in comps if comp.status != "bad")
    fp_final = FuzzyPartition(mu.space, mu.support, np.array(final))
    audit["bad_present"] = bool(bad)
    audit["total_decrement"] = total_decrement
    audit["final_cells"] = len(final)
    rep = fuzzy_split(mu, fp_final)
    audit["final_information"] = mixture_mutual_information(rep, mu)
    audit["dtc"] = dual_total_correlation(mu) if dtc is None else dtc
    return fp_final, audit, rep


# -----------------------------------------------------------------------------
# Sampling coarsening
# -----------------------------------------------------------------------------
def _sample_coarsen_detail(mu: DiscreteMeasure, rep: MixtureRepresentation,
                           good_set: Sequence[int], epsilon: float,
                           seed: int, *, start: int = SAMPLE_START,
                           cap: int = SAMPLE_CAP
                           ) -> tuple[MixtureRepresentation, tuple[int, ...], dict]:
    if not (0.0 < epsilon < 0.5):
        raise MeasureError("epsilon must lie in (0, 1/2)")
    good = sorted(set(int(g) for g in good_set))
    if not good:
        raise MeasureError("good set is empty")
    weights = np.array(rep.weights)
    good_mass = float(weights[good].sum())
    if good_mass <= 1.0 - epsilon / 2.0:
        raise MeasureError(
            f"good-set mass {good_mass} does not exceed 1 - epsilon/2")

    # the components laid out once, on supp(mu) and any other atom of theirs
    every = np.concatenate([mu.digits, *(c.digits for c in rep.components)])
    table = _merged(every, np.zeros(len(every)))[0]
    rows, _ = _mass_rows(rep.components, table)
    (ref,), _ = _mass_rows([mu], table)
    on = ref > 0.0
    inner = rows[:, on]    # on supp(mu)
    info = _mixture_information(rep.weights, inner, ~rows[:, ~on].any(axis=1), mu.masses)
    # truncation of the density kernel: analysis device, recorded as diagnostics
    f_cap = math.exp(min(8.0 * (info + 1.0) / epsilon, 700.0))
    trunc_mass = float(_left_sums(
        (weights[:, None] * (inner - f_cap * mu.masses))[inner / mu.masses > f_cap]))
    exponent = 16.0 * (info + 1.0) / epsilon
    m_star = math.inf if exponent > 700 else math.ceil(
        16.0 / (epsilon * epsilon) * math.exp(exponent))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    good_weights = weights[good] / good_mass
    m = start
    best_tv = math.inf
    diag = {"information": info, "truncation_cap": f_cap,
            "truncated_mass": trunc_mass, "m_star": m_star}
    while True:
        m_eff = int(min(m, m_star if m_star != math.inf else m, cap))
        draws = rng.choice(len(weights), size=m_eff, p=weights)
        draws = [int(d) if int(d) in good else
                 int(rng.choice(good, p=good_weights)) for d in draws]
        counts = Counter(draws)
        idx = sorted(counts)
        emp = MixtureRepresentation(
            tuple(counts[i] / m_eff for i in idx),
            tuple(rep.components[i] for i in idx))
        # variation_norm(mix(emp), mu), bit for bit
        err = float(_left_sums(np.abs(_mixed_rows(np.array(emp.weights), rows[idx]) - ref)))
        best_tv = min(best_tv, err)
        if err < 3.0 * epsilon:
            diag.update({"m": m_eff, "unique": len(idx), "variation": err})
            return emp, tuple(idx), diag
        if m_eff >= min(cap, m_star):
            raise BudgetExhausted(
                f"sampling cap {m_eff} exhausted; best variation {best_tv}")
        m *= 2


def sample_coarsen(mu: DiscreteMeasure, rep: MixtureRepresentation,
                   good_set: Sequence[int], epsilon: float, seed: int
                   ) -> MixtureRepresentation:
    """Empirical coarsening of a mixture: i.i.d. index draws (bad-set draws
    replaced by good-set redraws), doubling the sample size from 64 until the
    empirical average matches ``mu`` within 3 epsilon in variation norm."""
    out, _, _ = _sample_coarsen_detail(mu, rep, good_set, epsilon, seed)
    return out


# -----------------------------------------------------------------------------
# Mixture pipeline
# -----------------------------------------------------------------------------
def _certificate_params(r: float, m: int, a: float, density_bound: float
                        ) -> TParams:
    """T(r m / ``DEC_DENOMINATOR``, r) on m retained coordinates, through a
    density bound and the lift over the dropped fraction a; r is capped at 1,
    the largest support diameter."""
    p = TParams(r * m / DEC_DENOMINATOR, r)
    p = propagate_t_params(p, DensityBound(density_bound))
    p = propagate_t_params(p, Lift(a))
    return TParams(p.kappa, min(p.r, 1.0))


def mixture_decomposition(mu: DiscreteMeasure, cfg: PipelineConfig
                          ) -> DecompositionResult:
    """Decompose ``mu`` into a mixture with a small bad cell and concentration
    certificates on every other component.

    Pipeline: trim coordinates to control the dual correlation, run the
    decrement recursion and the sampling coarsening on the projection, reweight
    against the reconstruction residual, lift the densities back to all
    coordinates, then certify each component at the exactly propagated
    parameters (density bound, then lift).
    """
    _check_envelope(mu.space, len(mu))
    n = mu.space.dimension
    tc = total_correlation(mu)

    retained = trim_coordinates(mu, cfg.r)
    a_frac = 1.0 - len(retained) / n
    mu_s = marginal(mu, retained) if len(retained) < n else mu
    m_dim = mu_s.space.dimension
    dtc_s = dual_total_correlation(mu_s)

    # internal tolerances: the component inequalities below compound to a bad
    # cell below cfg.epsilon and a final radius of order cfg.r.  The recursion
    # runs at epsilon/10 (the squared-tolerance schedule of the asymptotic
    # argument forces unboundedly many rounds at small n); the sampling
    # tolerance adapts to the bad mass the recursion actually achieved, and
    # the final bad-cell mass is accounted exactly either way.
    r_dec = cfg.r * DEC_DENOMINATOR / FINAL_DENOMINATOR
    eps_b = cfg.epsilon / 2.5
    eps_rec = cfg.epsilon / 10.0

    audit: dict = {
        "tc": tc, "dtc_trimmed": dtc_s,
        "retained_coordinates": list(retained), "lift_fraction": a_frac,
        "r_internal": r_dec, "epsilon_internal": eps_b,
        "paper_inequality_failures": [],
    }
    bookkeeping = 400.0 * math.log(1.0 / (1.0 - 1.5 * eps_b)) < r_dec * r_dec
    if not bookkeeping:
        audit["paper_inequality_failures"].append(
            "reweight-radius bookkeeping 400 log((1-3e/2)^-1) < r^2")

    _, dec_audit, rep = decrement_recursion(mu_s, cfg, r=r_dec, epsilon=eps_rec,
                                          dtc=dtc_s)
    audit["decrement_recursion"] = dec_audit
    bad_present = dec_audit["bad_present"]
    good = list(range(1, len(rep))) if bad_present else list(range(len(rep)))
    bad_rec = rep.weights[0] if bad_present else 0.0
    eps_samp = min(max(eps_b * eps_b, 2.5 * bad_rec, cfg.epsilon / 30.0), 0.49)
    audit["epsilon_sampling"] = eps_samp

    seed_samp = int(np.random.SeedSequence(cfg.seed, spawn_key=(2,))
                    .generate_state(1)[0])
    emp, drawn, samp_diag = _sample_coarsen_detail(
        mu_s, rep, good, eps_samp, seed_samp)
    audit["sampling"] = samp_diag

    # reconstruction residual: gamma = mu_s ^ emp atomwise, f = d gamma / d emp,
    # each measure a row on supp(mu_s), which holds every component's support
    # (a zero term changes no left-to-right sum)
    ref, q = mu_s.masses, np.array(emp.weights)
    rows, _ = _mass_rows((mix(emp),) + emp.components, mu_s.digits)
    emp_mass, rows = rows[0], rows[1:]
    gamma = np.minimum(ref, emp_mass)
    f_dens = gamma / np.where(emp_mass > 0.0, emp_mass, 1.0)    # 0 where emp has no atom
    mass_f = _left_sums(f_dens * rows)
    kept = mass_f > 1.0 - 1.5 * eps_b
    # a kept component is ``reweight(comp, f)``, with its density bound M;
    # the residual and the other components' f-masses, added in component
    # order, make the bad cell, whose total adds its atoms as they are met
    tilted = _pruned(f_dens * rows[kept])
    bounds = np.divide(tilted, rows[kept], out=np.zeros(tilted.shape),
                       where=tilted > 0.0).max(axis=1, initial=1.0)
    bad = np.concatenate(((ref - gamma)[None], q[~kept, None] * f_dens * rows[~kept]))
    met = bad > 0.0
    bad_raw = _left_sums(np.where(met, bad, 0.0).T)
    order = np.lexsort((np.arange(len(ref)), met.argmax(axis=0)))
    order = order[met.any(axis=0)[order]]
    bad_mass = float(_left_sums(bad_raw[order]))
    bad_index = 0 if bad_mass > 1e-12 else None
    weights = (q[kept] * mass_f[kept]).tolist()
    raw = np.array(weights)[:, None] * tilted
    scaled = raw / _left_sums(raw)[:, None]
    params_list = [_certificate_params(r_dec, m_dim, a_frac, b) for b in bounds.tolist()]
    if bad_index == 0:
        weights, params_list = [bad_mass] + weights, [None] + params_list
        scaled = np.concatenate(((bad_raw / bad_mass)[None], scaled))

    # lift everything back to A^n through densities w.r.t. the projection
    if len(retained) < n:
        lifted = _pruned(mu.masses * (scaled / ref)[
            :, _find(mu.digits[:, list(retained)], mu_s.digits)])
    else:
        lifted = _pruned(scaled)
        if bad_index == 0:    # the bad cell's total adds in its own order
            lifted[0, order] = _pruned(scaled[0, order])
    components = [DiscreteMeasure._of_arrays(mu.space, mu.digits, row) for row in lifted]

    # normalize float drift in the weights
    total_w = _sum(weights)
    weights = [w / total_w for w in weights]

    # certify every non-bad component; at these parameters each one holds by
    # the diameter or the Hoeffding bound, so none is routed to the bad cell
    certs = [None if p is None else refute_T(c, p) for c, p in zip(components, params_list)]

    audit["achieved_m"] = len(weights)
    audit["m_bound_reported"] = cfg.c * math.exp(
        min(cfg.c * dtc_s, 700.0)) if cfg.c * dtc_s <= 700 else math.inf
    return DecompositionResult(
        kind="mixture",
        weights=tuple(weights),
        components=tuple(components),
        sets=None,
        bad_index=bad_index,
        certificates=tuple(certs),
        certificate_params=tuple(params_list),
        truncated=dec_audit["truncated"],
        audit=audit,
    )


# -----------------------------------------------------------------------------
# Carving and the partition pipeline
# -----------------------------------------------------------------------------
class BudgetExhausted(MeasureError):
    """The sampling size reached its cap; the message carries the best
    variation achieved."""


@dataclass(frozen=True)
class CarveResult:
    cell: tuple[Word, ...]
    case: str  # "atom" (a heavy atom, or the audited fallback) | "small-tc"
    params: TParams
    certificate: RefutationResult
    info: dict


class CarveError(MeasureError):
    """Carving failed; the message names the check that could not be met,
    with diagnostics."""


def carve_concentrated_set(mu: DiscreteMeasure, cfg: PipelineConfig) -> CarveResult:
    """Extract one subset V with positive mass whose conditioned measure
    carries a concentration certificate that ``refute_T`` does not refute.

    Two routes: a heavy atom, of mass at least e^{-161 c_B TC / delta^2};
    otherwise, at TC <= r^4 n, small total correlation (compare with the
    product of marginals and keep the well-coupled part).  When neither
    applies, the heaviest atom is the cell all the same: the paper's first
    case, whose point mass satisfies every T(kappa, r).  The paper's third
    route, a level-set slice, is not built: at desk scale its slices project
    one-to-one and leave no high-probability word.  The fallback keeps case
    "atom"; it and every other desk-scale failure of the sufficient-n
    inequalities are recorded in ``info['paper_inequality_failures']``.
    This is the one-row ``_carve_rows``.
    """
    _check_envelope(mu.space, len(mu))
    return _carve_rows(mu.space, mu.digits, mu.masses[None], cfg)[0][1]


def _conditioned(space: ProductSpace, digits: np.ndarray, row: np.ndarray,
                 idx: np.ndarray) -> DiscreteMeasure:
    """``condition`` of the measure with atoms ``row`` on the digit rows
    ``digits`` on its atoms ``idx`` (sorted), bit for bit."""
    return DiscreteMeasure._of_arrays(space, digits[idx], _pruned(row[idx]))


def _carve_rows(space: ProductSpace, digits: np.ndarray, rows: np.ndarray,
                cfg: PipelineConfig) -> list[tuple[np.ndarray, CarveResult]]:
    """``carve_concentrated_set`` of each measure on the digit rows
    ``digits`` with atoms a row of ``rows`` (zero at a missing atom), each
    carve with the sorted indices of its cell: one ``_tc_rows`` call, and the
    small-tc rows in row blocks under ``ROW_BLOCK_ELEMENTS``, each block's
    products of marginals built and coupled to its rows by one
    ``_exact_couplings`` call (one solve per row).  Every float is the one
    the row's measure gets alone."""
    n, q, r = space.dimension, space.alphabet_size, cfg.r
    tcs, marginals = _tc_rows(digits, rows, q)
    cuts: list = [None] * len(rows)    # (cell, case, params, info) of each row
    small: list[tuple[int, dict]] = []
    for i, (row, tc) in enumerate(zip(rows, tcs.tolist())):
        info: dict = {"tc": tc, "delta": cfg.delta, "paper_inequality_failures": []}
        threshold = math.exp(-min(cfg.atom_threshold_exponent() * tc, 700.0))
        top = row.argmax(keepdims=True)
        if row[top[0]] < threshold and tc <= (r ** 4) * n:
            small.append((i, info))
            continue
        # a heavy atom (the first heaviest), or the fallback when the small-tc
        # route does not apply either
        if row[top[0]] < threshold:
            info["paper_inequality_failures"].append(
                "heavy atom mass >= e^{-161 c_B TC / delta^2}")
        info["atom_threshold"] = threshold
        cuts[i] = top, "atom", TParams(r * n / FINAL_DENOMINATOR, r), info

    # small total correlation: compare with the product of marginals, a block
    # of rows at a time, and keep the well-coupled part
    step = max(1, ROW_BLOCK_ELEMENTS // min(q ** n, DEFAULT_SUPPORT_CAP))
    for lo in range(0, len(small), step):
        block = small[lo:lo + step]
        ids = [i for i, _ in block]
        product_digits, products = _product_rows(marginals[ids])
        couplings = _exact_couplings(product_digits, products, digits, rows[ids], q)
        for (i, info), (_, cols, mass, counts, dbar, _, _) in zip(block, couplings):
            tgt = np.flatnonzero(rows[i] > 0.0)
            info["dbar_to_product"] = dbar
            if dbar > r * r:
                info["paper_inequality_failures"].append("marton distance dbar <= r^2")
            delta_cs = min(math.sqrt(max(dbar, 0.0)) if dbar > r * r else r, 0.124)
            cell, params = _concentrated_set(cols, mass, counts, rows[i, tgt], n,
                                             TParams(8 * r * n, r), delta_cs)
            mass = _sum(rows[i, tgt[cell]].tolist())
            if mass < 1.0 - 4.0 * delta_cs - 1e-9 or mass <= 0.0:
                raise CarveError(f"small-tc subset kept mass {mass}; diagnostics {info}")
            cuts[i] = tgt[cell], "small-tc", TParams(params.kappa, min(params.r, 1.0)), info
    return [(cell, CarveResult(_words(digits[cell]), case, params,
                               refute_T(_conditioned(space, digits, row, cell), params), info))
            for row, (cell, case, params, info) in zip(rows, cuts)]


def partition_decomposition(mu: DiscreteMeasure, cfg: PipelineConfig) -> DecompositionResult:
    """Partition the support of ``mu`` into cells whose conditioned measures
    carry concentration certificates, plus one residual cell of mass below
    epsilon, by carving concentrated sets out of the conditioned remainder.
    The residual cell is index 0, then the cells in carving order.  This is
    the one-row ``_partition_rows``."""
    return _partition_rows(mu.space, mu.digits, mu.masses[None], cfg,
                           [total_correlation(mu)])[0]


def _partition_rows(space: ProductSpace, digits: np.ndarray, masses: np.ndarray,
                    cfg: PipelineConfig, tcs: Sequence[float]) -> list[DecompositionResult]:
    """``partition_decomposition`` of each measure on the digit rows
    ``digits`` with atoms a row of ``masses`` (zero at a missing atom) and
    audit TC in ``tcs``.
    Each round conditions the rows still open on their remaining atoms
    (``condition``'s bits, in support order) and carves them as one
    ``_carve_rows`` batch; a row stays open while its remaining mass, added
    in support order, is at least epsilon, up to ``MAX_CELLS`` cells."""
    masses = np.asarray(masses, dtype=float).reshape(-1, len(digits))
    _check_envelope(space, int(np.count_nonzero(masses > 0.0, axis=1).max(initial=0)))
    remaining = masses > 0.0
    carves: list[list[tuple[np.ndarray, CarveResult]]] = [[] for _ in masses]
    live = list(range(len(masses)))
    while True:
        left = _left_sums(np.where(remaining[live], masses[live], 0.0)).tolist()
        live = [i for i, mass_w in zip(live, left)
                if mass_w >= cfg.epsilon and len(carves[i]) < MAX_CELLS]
        if not live:
            break
        raw = np.where(remaining[live] & (masses[live] > PRUNE_TOL), masses[live], 0.0)
        totals = _left_sums(raw)
        if not (totals > 0.0).all():
            raise MeasureError("null reweighting")
        # a carved cell lies in the remainder: its atoms have conditioned mass
        for i, (cell, carve) in zip(live, _carve_rows(space, digits, raw / totals[:, None], cfg)):
            remaining[i, cell] = False
            carves[i].append((cell, carve))

    out = []
    for row, left, row_carves, tc in zip(masses, remaining, carves, tcs):
        # the residual (index 0) and then the cells in carving order
        parts = [np.flatnonzero(left)] + [cell for cell, _ in row_carves]
        weights = [_sum(row[cell].tolist()) for cell in parts]
        out.append(DecompositionResult(
            kind="partition", weights=tuple(weights),
            components=tuple(_conditioned(space, digits, row, cell) if w > 0.0 else None
                             for w, cell in zip(weights, parts)),
            sets=tuple(_words(digits[cell]) for cell in parts),
            bad_index=0,
            certificates=(None,) + tuple(c.certificate for _, c in row_carves),
            certificate_params=(None,) + tuple(c.params for _, c in row_carves),
            truncated=len(row_carves) >= MAX_CELLS and weights[0] >= cfg.epsilon,
            audit={"tc": tc, "achieved_m": len(parts),
                   "m_bound_reported": cfg.c * math.exp(min(cfg.c * tc, 700.0)),
                   "carves": [{"case": c.case, **c.info} for _, c in row_carves],
                   "residual_mass": weights[0]}))
    return out
