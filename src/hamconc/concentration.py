"""Transportation-inequality refutation, Gibbs tilting, and extremality gaps.

A measure satisfies T(kappa, r) when every other measure nu on the same space
has dbar(nu, mu) <= D(nu || mu)/kappa + r.  Certifying this exactly is a
maximization of a convex functional over the 1-Lipschitz polytope and is
exponential, so in general this module only *refutes*: a refutation carries
an exactly re-verified witness, while "not refuted" is budget-relative and
never a certificate.  Two a-priori bounds on the support diameter diam (in
normalized Hamming distance) do prove the inequality, and ``refute_T`` checks
them before any search:

* diameter  - r >= diam, since dbar(nu, mu) <= diam (this covers point
  masses, whose diameter is 0);
* hoeffding - kappa diam^2 / 8 <= r, since by Hoeffding's lemma the
  Bobkov-Goetze objective C(kappa f) - kappa<f> - kappa r of every
  1-Lipschitz f is at most kappa^2 diam^2 / 8 - kappa r.

Two refutation channels are implemented, either sufficient:

* dual  - multi-start projected gradient ascent of the exponential-moment
  objective C(kappa f) - kappa<f> - kappa r over 1-Lipschitz f, with the
  Lipschitz projection taken in one pass as the midpoint of the upper
  (McShane) and lower (Whitney) tight extensions, each 1-Lipschitz;
* primal - enumeration of conditioning sets U, testing
  dbar(mu|U, mu) > D(mu|U || mu)/kappa + r with the exact transport backend
  (exhaustive when 2^|support| fits the budget); a set whose bound
  dbar(mu|U, mu) <= (1 - mu(U)) diam already meets the inequality is
  counted but not solved.

``lipschitz_project``, which the dual channel, the primal witness and the
tilt search of the mixture pipeline all call, takes one of two routes on a
support of k words of A^n, |A| = q, chosen from (q, n, k) and the rows per
call by ``_cube_is_cheaper``:

* pairwise - both extensions from the k x k distance matrix, k^2 element
  operations per row;
* cube - a min-plus distance transform on the Hamming graph of A^n: at most
  n dilation steps, each a gather of n (q-1) q^n neighbour values per row,
  stopping once the step's distance passes the block's value range.  The
  support's k x k matrix is never built.

The routes give the same bits: float min is exact and float addition is
monotone, so each extension is the float f(y*) +/- d(x, y*) of the same
extremal word on either route.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .measures import (
    DiscreteMeasure,
    MeasureError,
    MixtureRepresentation,
    Word,
    _find,
    _pruned,
    _sum,
    _values_on,
    _words,
    condition,
    mix,
)
from .information import kl_divergence
from .transport import (
    TransportPlan,
    _codes,
    _farthest,
    _hamming_graph,
    dual_gap,
    lipschitz_slack,
    mismatch_matrix,
    transport_distance,
)


# -----------------------------------------------------------------------------
# Parameter records
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class TParams:
    """Parameters (kappa, r) of a transportation inequality."""

    kappa: float
    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and math.isfinite(self.r)
                and self.kappa > 0 and self.r > 0):
            raise MeasureError(
                f"TParams needs finite kappa > 0 and r > 0, got "
                f"kappa={self.kappa}, r={self.r}")

    def implies(self, other: "TParams") -> bool:
        """The inequality gets stronger as kappa grows or r shrinks."""
        return self.kappa >= other.kappa and self.r <= other.r


@dataclass(frozen=True)
class LParams:
    """Parameters ([kappa0, kappa], alpha) of the tilted-divergence inequality."""

    kappa0: float
    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0 <= self.kappa0 <= self.kappa):
            raise MeasureError("LParams needs 0 <= kappa0 <= kappa")
        if self.alpha <= 0:
            raise MeasureError("LParams needs alpha > 0")


@dataclass(frozen=True)
class LipschitzWitness:
    """A 1-Lipschitz function on support words, with the tilt that refutes."""

    f: Mapping[Word, float]
    t: float
    violation_margin: float

    def values(self, words: Sequence[Word]) -> np.ndarray:
        return np.array([self.f[w] for w in words])


@dataclass(frozen=True)
class RefutationResult:
    # "refuted" (witness re-verified), "holds" (proved by the a-priori
    # ``bound``: "diameter" or "hoeffding") or "not_refuted_within_budget"
    status: str
    witness: LipschitzWitness | None = None
    conditioning_set: tuple[Word, ...] | None = None
    budget_used: dict = field(default_factory=dict)
    bound: str | None = None

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    def to_dict(self) -> dict:
        out = {"status": self.status, "budget_used": dict(self.budget_used)}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.witness is not None:
            out["witness"] = {
                "f": [[list(w), v] for w, v in sorted(self.witness.f.items())],
                "t": self.witness.t,
                "violation_margin": self.witness.violation_margin,
            }
        if self.conditioning_set is not None:
            out["conditioning_set"] = [list(w) for w in self.conditioning_set]
        return out


@dataclass(frozen=True)
class RefutationBudget:
    max_subsets: int = 4096
    restarts: int = 32
    max_grad_steps: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.max_subsets, self.restarts, self.max_grad_steps) < 0:
            raise MeasureError(f"budget counts must be >= 0: {self}")
        if self.seed < 0:
            raise MeasureError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExtremalityReport:
    """Average transport displacement vs average divergence of one mixture
    representation; the representation is extremal at (kappa, r) iff
    r_required <= r.  A pass is evidence for this representation only,
    not for all representations."""

    lhs: float
    rhs_kl: float
    r_required: float
    per_component: tuple[tuple[float, float, float], ...] = ()

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs_kl": self.rhs_kl,
                "r_required": self.r_required}


# -----------------------------------------------------------------------------
# Gibbs tilting
# -----------------------------------------------------------------------------
def _log_partition(z: np.ndarray) -> float | np.ndarray:
    """log sum exp over the last axis of a 1-D or 2-D array (a number, or one
    per row), shifted by the peak.  The log is ``math.log``: ``np.log``
    differs from it in the last bit on some inputs, and refutation margins,
    witnesses and search rankings are pinned bit for bit."""
    peak = z.max(axis=-1, keepdims=True)
    sums = np.exp(z - peak).sum(axis=-1).tolist()
    return peak[..., 0] + ([math.log(x) for x in sums] if z.ndim > 1
                           else math.log(sums))


def _tilted_weights(logm: np.ndarray, f: np.ndarray, t: float
                    ) -> tuple[np.ndarray, float]:
    """Weights of the tilt exp(t f) of the log-masses ``logm``, and its log
    partition function."""
    z = t * f + logm
    logz = _log_partition(z)
    return np.exp(z - logz), logz


def cumulant(mu: DiscreteMeasure, f) -> float:
    """log of the exponential moment of f under mu, via log-sum-exp."""
    return float(_log_partition(_values_on(mu, f) + np.log(mu.masses)))


def gibbs_tilt(mu: DiscreteMeasure, f, t: float) -> DiscreteMeasure:
    """The measure reweighted by exp(t f), normalized by its exponential moment."""
    vals = _values_on(mu, f)
    if not np.all(np.isfinite(vals)):
        raise MeasureError("tilting function must be finite on the support")
    weights, _ = _tilted_weights(np.log(mu.masses), vals, t)
    return DiscreteMeasure._of_arrays(mu.space, mu.digits, _pruned(weights))


def tilted_divergence(mu: DiscreteMeasure, f, t: float) -> float:
    """D(mu tilted by exp(t f) || mu), evaluated stably on log-masses."""
    vals = _values_on(mu, f)
    w, logz = _tilted_weights(np.log(mu.masses), vals, t)
    # D = sum w * (log w - log m) = sum w * (t f - logZ)
    return float((w * (t * vals - logz)).sum())


# -----------------------------------------------------------------------------
# Lipschitz projection
# -----------------------------------------------------------------------------
#: largest temporary, in floats, of one projection block: ``(rows, k, k)`` on
#: the pairwise route, ``(n (q-1), q^n, 2 rows)`` on the cube route
PROJECT_BLOCK_ELEMENTS = 1 << 15
#: the fixed cost of one dilation step of one block on the cube route, in the
#: element operations of the pairwise route that take as long (about 4 us
#: against 2.5-3 ns per element, for either route, on a 2-vCPU x86 VM)
CUBE_STEP_ELEMENTS = 1500


def _cube_is_cheaper(q: int, n: int, k: int, rows: int) -> bool:
    """The projection route for ``rows`` rows on k words of ``range(q)^n``: the
    cube when its at most n dilation steps, each gathering n (q-1) q^n
    neighbour values per row and paying ``CUBE_STEP_ELEMENTS`` per block, cost
    fewer element operations than the k^2 per row of the pairwise route."""
    per_row = n * (q - 1) * q ** n
    blocks = -(-rows // max(1, PROJECT_BLOCK_ELEMENTS // (2 * per_row)))
    return n * (blocks * CUBE_STEP_ELEMENTS + rows * per_row) < rows * k * k


class SupportMetric:
    """The normalized Hamming metric on k words of ``range(q)^n``, given in
    any order as rows of digits (or a sequence of word tuples).

    The k x k distance matrix ``dist`` is built on first need, as
    ``mismatches() / n`` when ``mismatches`` is given (a caller holding a
    larger support's mismatch matrix passes a slice of it) and from the words
    otherwise.  Only the pairwise route of ``lipschitz_project`` reads it; the
    cube route reads the cube's neighbour table and the words' codes, and
    ``rows`` builds just the rows asked for."""

    def __init__(self, digits, q: int, mismatches=None):
        self.digits, self.q = np.asarray(digits, dtype=np.int64), q
        self.k, self.n = self.digits.shape
        self._mismatches = mismatches

    @functools.cached_property
    def dist(self) -> np.ndarray:
        counts = (mismatch_matrix(self.digits, self.digits) if self._mismatches is None
                  else self._mismatches())
        return counts / self.n

    def rows(self, idx: np.ndarray, cube: bool = True) -> np.ndarray:
        """``dist[idx]`` for an integer index array: a slice of ``dist`` off
        the cube route or once it is built, else those rows alone (the same
        counts over the same n)."""
        if not cube or "dist" in self.__dict__:
            return self.dist[idx]
        counts = mismatch_matrix(self.digits[idx.ravel()], self.digits)
        return (counts / self.n).reshape(idx.shape + (self.k,))

    def cube_route(self, rows: int) -> bool:
        return _cube_is_cheaper(self.q, self.n, self.k, rows)

    @functools.cached_property
    def _cube(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The ``(n (q-1), q^n)`` neighbour table of the cube (a view of the
        cached Hamming graph's heads) and the words' codes, None when the
        words are the whole cube in code order."""
        size = self.q ** self.n
        nbr = _hamming_graph(self.q, self.n)[2].reshape(size, -1).T
        codes = _codes(self.digits, self.q)
        return nbr, None if np.array_equal(codes, np.arange(size)) else codes


def lipschitz_project(values: np.ndarray, metric: SupportMetric,
                      cube: bool | None = None) -> np.ndarray:
    """Project support values onto the 1-Lipschitz cone: one vector, or each
    row of a 2-D array on its own, under the normalized Hamming ``metric`` of
    the support.  Non-finite values raise ``MeasureError``.

    Returns the midpoint of the upper tight extension min_y f(y) + d(x, y)
    (McShane, Bull. AMS 1934) and the lower one max_y f(y) - d(x, y)
    (Whitney, Trans. AMS 1934).  Each is 1-Lipschitz because d is a metric,
    so their average is too, and one pass suffices; both equal f when f is
    already 1-Lipschitz, so the projection is idempotent.  Rows go through in
    blocks whose temporaries hold at most ``PROJECT_BLOCK_ELEMENTS`` floats
    (or one row), by one of two routes.  Unless ``cube`` fixes it (the tilt
    search fixes one route for all its steps), the rule is
    ``_cube_is_cheaper(q, n, k, rows)``: the cube when
    n (blocks ``CUBE_STEP_ELEMENTS`` + rows n (q-1) q^n) < rows k^2, so a
    call of few rows on a small cube, where the steps' fixed cost dominates,
    stays pairwise.

    * pairwise - every f(y) +/- d(x, y) of the ``(rows, k, k)`` block, from
      the support's distance matrix;
    * cube - a min-plus distance transform on the Hamming graph of A^n, whose
      path metric is d (Felzenszwalb and Huttenlocher, Theory of Computing 8,
      2012).  f is spread over the q^n words, +inf off the support, and the
      lower extension is minus the upper one of -f, so both run as one
      stacked array.  Dilation step j takes B_j, the minimum of B_{j-1} over
      each word and its neighbours, which is the minimum of f over the
      Hamming ball of radius j, and the upper extension at x is the least
      B_j(x) + j/n.  Steps stop once j/n passes the block's value range, as
      no farther word can then come below f(x).

    Both routes give the same bits, and each row the bits it gets alone:
    float min is exact and float addition is monotone, so a word at distance
    d < j, which step j adds j/n to, never undercuts its own f(y) + d/n, and
    each extension is the float f(y*) +/- d(x, y*) of its extremal word.
    """
    f = np.array(values, dtype=float)
    if not np.isfinite(f).all():
        raise MeasureError("Lipschitz projection needs finite values")
    rows = f.reshape(-1, f.shape[-1])
    if cube is None:
        cube = metric.cube_route(len(rows))
    if cube:
        _dilate(rows, metric)
        return f
    dist = metric.dist
    block = max(1, PROJECT_BLOCK_ELEMENTS // dist.size)
    for start in range(0, len(rows), block):
        cur = rows[start:start + block]
        # [row, y, x] holds f(y) +/- d(y, x), d symmetric: reducing over y,
        # not the contiguous x, is 1.2-2x faster and gives the same bits
        col = cur[:, :, None]
        upper = (col + dist).min(axis=1)
        lower = (col - dist).max(axis=1)
        cur[:] = 0.5 * (upper + lower)
    return f


def _dilate(rows: np.ndarray, metric: SupportMetric) -> None:
    """The cube route of ``lipschitz_project``, in place on ``rows``.  A block
    is held word-major, one row per word and one column per stacked row, so
    a step gathers whole rows: at the bench's sizes that is twice as fast as
    gathering single values along each stacked row."""
    nbr, codes = metric._cube
    # one contiguous copy of the transposed table per call: a gather through
    # the view would copy it at every step
    flat, n = nbr.ravel(), metric.n
    block = max(1, PROJECT_BLOCK_ELEMENTS // (2 * nbr.size))
    for start in range(0, len(rows), block):
        cur = rows[start:start + block]
        g = np.concatenate((cur.T, -cur.T), axis=1)   # upper extensions of f and -f
        lo, hi = g.min(axis=0), g.max(axis=0)
        # a word reached at step j > steps adds at least lo + j/n >= hi >= g(x)
        done = (lo + np.arange(1, n + 1)[:, None] / n >= hi).all(axis=1)
        steps = int(done.argmax()) if done.any() else n
        best = g + 0.0          # the word itself, at d = 0/n
        if codes is None:
            ball = g
        else:
            ball = np.full((nbr.shape[1], g.shape[1]), np.inf)
            ball[codes] = g
        for j in range(1, steps + 1):
            near = np.take(ball, flat, axis=0).reshape(nbr.shape + (g.shape[1],))
            ball = np.minimum(ball, near.min(axis=0))
            np.minimum(best, (ball if codes is None else ball[codes]) + j / n, out=best)
        # lower = -(upper of -f), and a + (-b) is a - b
        cur[:] = (0.5 * (best[:, :len(cur)] - best[:, len(cur):])).T


# -----------------------------------------------------------------------------
# T-inequality refutation
# -----------------------------------------------------------------------------
def bobkov_gotze_objective(mu: DiscreteMeasure, f, params: TParams) -> float:
    """C(kappa f) - kappa <f> - kappa r; positive iff f refutes T(kappa, r)."""
    vals = _values_on(mu, f)
    return (float(_log_partition(params.kappa * vals + np.log(mu.masses)))
            - params.kappa * float((mu.masses * vals).sum())
            - params.kappa * params.r)


def _primal_subsets(support: Sequence[Word], masses: np.ndarray,
                    dist: np.ndarray, budget: int, rng) -> list[tuple[int, ...]]:
    """Deterministic enumeration of candidate conditioning sets (as index tuples).

    Exhaustive when the power set fits the budget; otherwise a bounded family
    of singletons, complements, Hamming balls around heavy atoms, and seeded
    random subsets (each conditioning test costs an exact transport solve, so
    the non-exhaustive family is kept small and the dual channel carries the
    search load on larger supports).
    """
    k = len(support)
    if k <= 1:
        return []
    if 2 ** k - 2 <= budget:
        out = []
        for size in range(1, k):
            out.extend(itertools.combinations(range(k), size))
        return out
    limit = min(budget, 2 * k + 32, 128)
    out: list[tuple[int, ...]] = []
    seen = set()

    def push(idx):
        idx = tuple(sorted(idx))
        if 0 < len(idx) < k and idx not in seen:
            seen.add(idx)
            out.append(idx)

    order = np.argsort(-masses, kind="stable")
    for i in order:
        if len(out) >= limit:
            break
        push((int(i),))
        push(tuple(j for j in range(k) if j != int(i)))
    # Hamming balls around the heaviest atoms
    for i in order[:4]:
        radii = np.unique(dist[int(i)])
        for rad in radii[:-1]:
            push(tuple(int(j) for j in np.nonzero(dist[int(i)] <= rad)[0]))
    attempts = 0
    while len(out) < limit and attempts < 4 * limit:
        attempts += 1
        size = int(rng.integers(1, k))
        idx = tuple(int(x) for x in rng.choice(k, size=size, replace=False))
        push(idx)
    return out[:limit]


def refute_T(mu: DiscreteMeasure, params: TParams,
             budget: RefutationBudget | None = None) -> RefutationResult:
    """Try to refute T(kappa, r) for ``mu``; soundness over completeness.

    Two a-priori bounds on the support diameter diam prove the inequality
    before any search: r >= diam (``bound="diameter"``) and, by Hoeffding's
    lemma, kappa diam^2 / 8 <= r (``bound="hoeffding"``); either returns
    "holds" with zero budget counts, and neither builds the whole k x k
    mismatch matrix that a search needs.  Otherwise a "refuted" result carries a
    witness whose violation is re-verified with exact transport cost and
    divergence, and "not_refuted_within_budget" only reports that the search
    failed.
    """
    budget = budget or RefutationBudget()
    used = {"subsets_checked": 0, "restarts_run": 0, "gradient_steps": 0}
    words, masses = mu.digits, mu.masses
    far, block = _farthest(words)
    diam = far / mu.space.dimension
    if params.r >= diam:
        return RefutationResult("holds", budget_used=used, bound="diameter")
    if params.kappa * diam ** 2 / 8 <= params.r:
        return RefutationResult("holds", budget_used=used, bound="hoeffding")
    dist_int = block if len(block) == len(words) else mismatch_matrix(words, words)
    metric = SupportMetric(words, mu.space.alphabet_size, lambda: dist_int)
    support = mu.support

    # --- dual channel (cheap: no transport solves) ------------------------------
    dual_result = _dual_channel(mu, params, budget, support, masses, metric, used)
    if dual_result is not None:
        return dual_result

    # --- primal channel ---------------------------------------------------------
    rng = np.random.default_rng(np.random.SeedSequence(budget.seed))
    for idx in _primal_subsets(support, masses, dist_int, budget.max_subsets, rng):
        used["subsets_checked"] += 1
        cell = [support[i] for i in idx]
        mass_u = float(masses[list(idx)].sum())
        if mass_u <= 0.0:
            continue
        div = -math.log(mass_u)
        # dbar(mu|U, mu) <= (1 - mu(U)) diam: this set cannot refute
        if (1.0 - mass_u) * diam - div / params.kappa - params.r <= 0.0:
            continue
        cond = condition(mu, cell)
        cost, plan = transport_distance(cond, mu)
        margin = cost - div / params.kappa - params.r
        if margin > 1e-9:
            # also expose the dual-side witness from the optimal potential
            cert, _ = dual_gap(plan)
            fvals = np.array([cert.potential[w] for w in support])
            fvals = lipschitz_project(fvals, metric)
            witness = LipschitzWitness(
                {w: float(v) for w, v in zip(support, fvals)},
                t=params.kappa, violation_margin=float(margin))
            return RefutationResult("refuted", witness=witness,
                                    conditioning_set=tuple(cell),
                                    budget_used=used)
    return RefutationResult("not_refuted_within_budget", budget_used=used)


def _dual_channel(mu, params, budget, support, masses, metric, used):
    logm, dist = np.log(masses), metric.dist
    anchors = list(np.argsort(-masses, kind="stable")[: budget.restarts])
    kappa = params.kappa
    for restart in range(budget.restarts):
        used["restarts_run"] += 1
        restart_rng = np.random.default_rng(
            np.random.SeedSequence(budget.seed, spawn_key=(restart,)))
        if restart < len(anchors):
            f = dist[int(anchors[restart])].astype(float)
        else:
            f = lipschitz_project(restart_rng.normal(size=len(support)), metric)
        step = 0.5 / max(kappa, 1.0)
        prev = -math.inf
        for _ in range(budget.max_grad_steps):
            used["gradient_steps"] += 1
            w, logz = _tilted_weights(logm, f, kappa)
            val = logz - kappa * float(masses @ f) - kappa * params.r
            if val > 1e-8 and lipschitz_slack(f, dist) <= 1e-12:
                fm = {word: float(v) for word, v in zip(support, f)}
                # re-verify on the measure API before reporting
                val_exact = bobkov_gotze_objective(mu, fm, params)
                if val_exact > 1e-8:
                    witness = LipschitzWitness(fm, t=kappa,
                                               violation_margin=float(val_exact))
                    return RefutationResult("refuted", witness=witness,
                                            budget_used=used)
            if val <= prev + 1e-14:
                break
            prev = val
            grad = kappa * (w - masses)
            f = lipschitz_project(f + step * grad, metric)
    return None


# -----------------------------------------------------------------------------
# L-inequality violation search
# -----------------------------------------------------------------------------
def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row i, each the same BLAS ``ddot`` that 1-D
    ``@`` calls, so every value is the one a per-row loop gives; a row sum
    of ``a * b`` would round differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


#: restarts of the tilt search that start at the heaviest atoms' distance rows
#: (this many, or half of a larger budget); only the others read the seed
TILT_ANCHOR_STARTS = 2


def _l_search_candidates(masses: np.ndarray, metric: SupportMetric, r: float,
                         kappa: float, budget: RefutationBudget,
                         t_hi: Sequence[float] | None = None, t_points: int = 24):
    """Ranked (score, f-values, t, divergence, threshold) candidates for the
    tilted-divergence search, one list per row of ``masses``, an ``(M, k)``
    array of measures on one support.  f ranges over 1-Lipschitz functions
    into [0,1], t over a ``t_points``-point logarithmic grid spanning
    [r/2, kappa] (in either order; measure m's upper end can be raised to
    ``t_hi[m]`` for decisive splitting tilts), and score = D(mu tilted by
    exp(-t f) || mu) - alpha t^2 with alpha = (r/2)/kappa.  ``metric`` is the
    normalized Hamming metric of the support.

    The ascents of all (measure, seed, t) triples run in lock step as one
    ``(rows, k)`` batch, one row each; seeds past the anchors are drawn once
    for all measures.  A row leaves the batch when its divergence stops
    rising, and its best iterate is the candidate's f-values, an array row in
    support order.  Every float is the one a separate ascent per triple gives.
    The projection route is fixed for the whole search by the batch's first
    size, so a search on the cube route never builds the k x k matrix."""
    count, k = masses.shape
    logm = np.log(masses)
    alpha = (r / 2.0) / kappa
    lo, hi = sorted((r / 2.0, kappa))
    t_grid = np.exp(np.linspace(math.log(lo), [math.log(max(hi, h)) for h in (
        [hi] * count if t_hi is None else t_hi)], t_points, axis=1))

    anchors = np.argsort(-masses, axis=1, kind="stable")[
        :, :max(TILT_ANCHOR_STARTS, budget.restarts // 2)]
    cube = metric.cube_route(count * max(anchors.shape[1], budget.restarts) * t_points)

    def project01(f):
        return np.clip(lipschitz_project(f, metric, cube), 0.0, 1.0)

    if anchors.shape[1] < budget.restarts:   # the generator is made only when drawn from
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed))
    drawn = np.reshape([project01(rng.uniform(0.0, 1.0, size=k))
                        for _ in range(budget.restarts - anchors.shape[1])], (-1, k))
    seeds = np.concatenate((np.clip(metric.rows(anchors, cube), 0.0, 1.0),
                            np.broadcast_to(drawn, (count,) + drawn.shape)), axis=1)
    # row (m * seeds + s) * t_points + j: measure m from seed s at t_grid[m, j]
    per = seeds.shape[1] * t_points
    t_rows = np.repeat(t_grid, seeds.shape[1], axis=0).ravel()
    f = np.repeat(seeds.reshape(-1, k), t_points, axis=0)
    best_f, best_div = f.copy(), np.full(len(t_rows), -math.inf)
    live, t, logm = np.arange(len(t_rows)), t_rows, np.repeat(logm, per, axis=0)
    for step in range(budget.max_grad_steps):
        tf = -t[:, None] * f
        z = tf + logm
        logz = _log_partition(z)
        w = np.exp(z - logz[:, None])
        div = _row_dots(w, tf) - logz
        rising = ~(div <= best_div[live] + 1e-14)
        if not rising.all():
            live, t, f, w, div, logm = (a[rising] for a in (live, t, f, w, div, logm))
            if not live.size:
                break
        best_f[live], best_div[live] = f, div
        if step + 1 == budget.max_grad_steps:
            break
        t2 = t * t
        grad = t2[:, None] * w * (f - _row_dots(w, f)[:, None])
        f = project01(f + (0.5 / np.maximum(t2, 1.0))[:, None] * grad)
    thresholds = alpha * t_rows * t_rows
    candidates = list(zip((best_div - thresholds).tolist(), best_f,
                          t_rows.tolist(), best_div.tolist(),
                          thresholds.tolist()))
    return [sorted(candidates[i:i + per], key=lambda c: -c[0])
            for i in range(0, len(candidates), per)]


def find_L_violation(mu: DiscreteMeasure, r: float, kappa: float | None = None,
                     budget: RefutationBudget | None = None
                     ) -> LipschitzWitness | None:
    """Search for a 1-Lipschitz f into [0,1] and tilt t with
    D(mu tilted by exp(-t f) || mu) > alpha t^2, alpha = (r/2)/kappa.

    ``kappa`` defaults to r n / 200.  Absence of a witness is budget-relative
    and never certified.
    """
    if r >= 1.0:
        return None
    n = mu.space.dimension
    kappa = r * n / 200.0 if kappa is None else kappa
    budget = budget or RefutationBudget(restarts=8, max_grad_steps=60)
    if len(mu) == 1:
        return None
    for score, f, t, div, threshold in _l_search_candidates(
            mu.masses[None], SupportMetric(mu.digits, mu.space.alphabet_size),
            r, kappa, budget)[0]:
        if score <= 1e-12:
            break
        fm = dict(zip(mu.support, f.tolist()))
        # exact re-verification on log-masses
        div_exact = tilted_divergence(mu, fm, -t)
        if div_exact > threshold + 1e-12:
            return LipschitzWitness(fm, t=t, violation_margin=div_exact - threshold)
    return None


# -----------------------------------------------------------------------------
# Constructive stability transforms
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class DensityBound:
    """Pass to a measure whose density w.r.t. the reference is at most M."""
    m: float


@dataclass(frozen=True)
class SupCoupling:
    """Pass through a coupling supported on pairs at distance at most delta."""
    delta: float


@dataclass(frozen=True)
class Lift:
    """Lift from a projection to a fraction (1-a) of the coordinates."""
    a: float


def propagate_t_params(params: TParams, transform) -> TParams:
    """Exact parameter arithmetic for the three stability transforms."""
    kappa, r = params.kappa, params.r
    if isinstance(transform, DensityBound):
        if transform.m < 1:
            raise MeasureError("density bound must be >= 1")
        log_m = 0 if transform.m == 1 else math.log(transform.m)
        return TParams(kappa, 2 * log_m / kappa + 2 * r)
    if isinstance(transform, SupCoupling):
        if transform.delta < 0:
            raise MeasureError("coupling radius must be >= 0")
        return TParams(kappa, r + 2 * transform.delta)
    if isinstance(transform, Lift):
        a = transform.a
        if not (0 <= a < 1):
            raise MeasureError("lift fraction must lie in [0, 1)")
        return TParams(kappa / (1 - a), (1 - a) * r + a)
    raise MeasureError(f"unknown transform {transform!r}")


def concentrate_subset(plan: TransportPlan, params: TParams, delta: float,
                       ) -> tuple[tuple[Word, ...], TParams]:
    """Carve a large subset U of supp(nu) on which nu inherits concentration.

    ``plan`` is the optimal coupling from mu (``plan.source``) to nu
    (``plan.target``) that ``transport_distance(mu, nu)`` returns.

    Preconditions (caller-asserted): mu satisfies T(params), and
    dbar(nu, mu) <= delta^2 with delta in [0, 1/8).  The construction keeps
    the pairs of the coupling within distance delta and thresholds the
    resulting density at 1/2 + 2 delta.  Returns U with nu(U) >= 1-4 delta
    and the propagated parameters (kappa, (8 delta + 2 log 4)/kappa + 4r + 4 delta).
    """
    nu = plan.target
    ends = np.array(list(plan.plan), dtype=np.int64).reshape(len(plan.plan), 2, -1)
    cell, new_params = _concentrated_set(
        _find(ends[:, 1], nu.digits), np.array(list(plan.plan.values()), dtype=float),
        np.count_nonzero(ends[:, 0] != ends[:, 1], axis=1),
        nu.masses, nu.space.dimension, params, delta)
    return _words(nu.digits[cell]), new_params


def _concentrated_set(cols: np.ndarray, mass: np.ndarray, counts: np.ndarray,
                      target: np.ndarray, n: int, params: TParams, delta: float
                      ) -> tuple[np.ndarray, TParams]:
    """``concentrate_subset`` on a coupling given as arrays: pair p carries
    ``mass[p]`` to target atom ``cols[p]`` (of mass ``target[cols[p]]``) at
    ``counts[p]`` mismatches out of n.  The kept masses add left to right in
    pair order.  Returns the sorted target indices of U and the parameters."""
    if not (0.0 <= delta < 0.125):
        raise MeasureError(f"delta must lie in [0, 1/8), got {delta}")
    # nu1 = second marginal of the coupling restricted to pairs within delta
    near = counts / n <= delta + 1e-12
    kept = np.zeros(len(target))
    np.add.at(kept, cols[near], mass[near])   # in pair order, from 0.0
    kept_mass = _sum(mass[near].tolist())
    if kept_mass <= 0.0:
        raise MeasureError("coupling kept no mass within delta")
    threshold = 0.5 + 2.0 * delta   # > 0, so an atom no near pair reaches fails it
    cell = np.flatnonzero((kept / kept_mass) / target >= threshold - 1e-12)
    new_params = TParams(
        params.kappa,
        (8 * delta + 2 * math.log(4)) / params.kappa + 4 * params.r + 4 * delta)
    return cell, new_params


# -----------------------------------------------------------------------------
# Extremality
# -----------------------------------------------------------------------------
def extremality_gap(rep: MixtureRepresentation, kappa: float) -> ExtremalityReport:
    """Average transport displacement vs average divergence for one representation.

    lhs = sum_j p_j dbar(mu_j, mix), rhs_kl = sum_j p_j D(mu_j || mix),
    r_required = lhs - rhs_kl / kappa.  The representation is (kappa, r)-
    extremal iff r_required <= r.
    """
    base = mix(rep)
    per = tuple((p, transport_distance(comp, base)[0], kl_divergence(comp, base))
                for p, comp in zip(rep.weights, rep.components))
    lhs = _sum(p * cost for p, cost, _ in per)
    rhs = _sum(p * div for p, _, div in per)
    return ExtremalityReport(lhs, rhs, lhs - rhs / kappa, per)
