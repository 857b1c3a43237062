"""Normalized Hamming metric and exact transportation distances with dual certificates.

The exact backend is a transportation simplex over the bipartite support
graph.  Costs are integer mismatch counts (Hamming distances times n), so all
pivoting decisions and dual potentials are exact integer arithmetic; only the
transported amounts are floats.  The basis is a spanning tree rooted at the
first source atom, held in flat per-node lists (parent, depth, flow on the arc
to the parent, children) next to one int64 potential vector, so a pivot climbs
to a lowest common ancestor and re-roots one subtree instead of searching the
tree.  The start puts min(a_w, b_w) on the zero-cost arc of every word the
two supports share and routes the residual by least cost, so a measure and
its own product of marginals, equal up to round-off, are coupled in a few
pivots.  Pivot order is pinned (that start, most negative reduced cost with
row-major tie-break, lexicographically smallest leaving arc, and a Bland
fallback against degenerate cycling) so plans are reproducible byte for byte.

The approximate backend is entropically regularized iteration.  It runs only
on request (``method='sinkhorn'``, or ``transport --approx`` on the command
line), never in place of an exact solve, and its plans are always labeled
inexact, with bias bound ``reg * log(|supp mu| * |supp nu|)``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .measures import DiscreteMeasure, MeasureError, Word, condition, marginal

#: default cap on combined support size for the exact backend
DEFAULT_EXACT_CAP = 1 << 16
#: guard on the dense cost-matrix size (cells)
MATRIX_CELL_CAP = 1 << 24
#: exact pairwise diameter is used up to this many pairs
DIAMETER_PAIR_CAP = 10_000

ENV_CAP_VAR = "HC_MAX_SUPPORT"


class SupportCapExceeded(MeasureError):
    """Raised when the exact backend would exceed its support cap.

    Callers should retry with the approximate backend (``method='sinkhorn'``)
    or raise the cap via the HC_MAX_SUPPORT environment variable.
    """


def exact_support_cap() -> int:
    value = os.environ.get(ENV_CAP_VAR)
    if value is None:
        return DEFAULT_EXACT_CAP
    try:
        return int(value)
    except ValueError:
        raise MeasureError(
            f"{ENV_CAP_VAR} must be an integer, got {value!r}") from None


# -----------------------------------------------------------------------------
# Ground metric
# -----------------------------------------------------------------------------
def hamming(x: Word, y: Word) -> float:
    """Fraction of coordinates where two equal-length words differ."""
    if len(x) != len(y):
        raise MeasureError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a != b for a, b in zip(x, y)) / len(x)


def mismatch_matrix(src: Sequence[Word], tgt: Sequence[Word]) -> np.ndarray:
    """Integer matrix of coordinate mismatch counts between two word lists."""
    a = np.asarray(src, dtype=np.int64)
    b = np.asarray(tgt, dtype=np.int64)
    return (a[:, None, :] != b[None, :, :]).sum(axis=2).astype(np.int64)


def diameter(words: Sequence[Word]) -> float:
    """Diameter of a word set under the normalized Hamming metric.

    Exact pairwise computation up to ``DIAMETER_PAIR_CAP`` pairs; beyond that,
    the upper bound from per-coordinate mismatch ranges is returned.
    """
    words = list(words)
    if not words:
        return 0.0
    n = len(words[0])
    if len(words) * len(words) <= DIAMETER_PAIR_CAP:
        dm = mismatch_matrix(words, words)
        return float(dm.max()) / n
    arr = np.asarray(words)
    varying = int((arr.max(axis=0) != arr.min(axis=0)).sum())
    return varying / n


# -----------------------------------------------------------------------------
# Plans and certificates
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two measures with its cost under the normalized Hamming metric."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    plan: Mapping[tuple[Word, Word], float]
    cost: float
    exact: bool = True
    bias_bound: float = 0.0
    # integer dual potentials from the solver (rows = source, cols = target)
    row_potentials: tuple[int, ...] | None = None
    col_potentials: tuple[int, ...] | None = None

    def check_marginals(self, tol: float = 1e-10) -> None:
        rows: dict[Word, float] = {}
        cols: dict[Word, float] = {}
        for (x, y), m in self.plan.items():
            rows[x] = rows.get(x, 0.0) + m
            cols[y] = cols.get(y, 0.0) + m
        for w in set(rows) | set(self.source.atoms):
            if abs(rows.get(w, 0.0) - self.source.mass(w)) > tol:
                raise MeasureError(f"row sum mismatch at {w!r}")
        for w in set(cols) | set(self.target.atoms):
            if abs(cols.get(w, 0.0) - self.target.mass(w)) > tol:
                raise MeasureError(f"column sum mismatch at {w!r}")


@dataclass(frozen=True)
class DualCertificate:
    """A 1-Lipschitz potential on the union support witnessing the transport cost."""

    potential: Mapping[Word, float]

    def lipschitz_slack(self) -> float:
        """max over support pairs of |f(x)-f(y)| - d(x,y); <= 0 means 1-Lipschitz."""
        words = sorted(self.potential)
        vals = np.array([self.potential[w] for w in words])
        dm = mismatch_matrix(words, words) / len(words[0])
        diff = np.abs(vals[:, None] - vals[None, :]) - dm
        return float(diff.max())

    def objective(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """integral of f d(nu) - integral of f d(mu)."""
        up = sum(self.potential[w] * m for w, m in nu.atoms.items())
        down = sum(self.potential[w] * m for w, m in mu.atoms.items())
        return up - down


# -----------------------------------------------------------------------------
# Exact backend: transportation simplex
# -----------------------------------------------------------------------------
#: degenerate pivots in a row, per tree node, before Bland's rule takes over
BLAND_STREAK_PER_NODE = 4


def _diagonal_start(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Initial basis: the diagonal, then the residual by least cost, as a tree
    rooted at row 0.

    * diagonal: min(a_i, b_j) on each zero-cost arc (i, j), one per word the
      two supports share (the words on each side are distinct, so these arcs
      form a matching); at most one of the two residuals of a shared word is
      then non-zero;
    * residual: repeatedly the cheapest arc between a row with mass left and a
      column with room left, first in row-major order on ties, carrying the
      smaller of the two amounts;
    * spanning tree: each arc with positive flow exhausts one of its ends, so
      those arcs form a forest.  Its largest component (the first on ties) is
      the anchor.  Every other component hangs from it by one zero-flow arc,
      from one of its rows to an anchor column, at the largest potentials that
      keep all arcs from its rows into the anchor dual feasible (least reduced
      cost, row-major first on ties); a column alone hangs from the anchor row
      that keeps its arcs feasible.  The tree is then rooted at row 0.

    On a measure against its own product of marginals the hung components are
    the balanced words, where a_w == b_w exactly, and the words whose residual
    the round-off left unrouted.  Their potentials are then the largest
    1-Lipschitz extension of the anchor's, so the start is often optimal.

    Returns ``parent``, ``depth``, ``flow`` (on the arc to the parent),
    ``children`` and the potentials ``y``.
    """
    nr, nc = cost.shape
    nodes = nr + nc
    # per node: (other end, flow, cost) of each forest arc
    adjacent: list[list[tuple[int, float, int]]] = [[] for _ in range(nodes)]
    rem_a, rem_b = a.copy(), b.copy()
    di, dj = np.nonzero(cost == 0)
    q = np.minimum(rem_a[di], rem_b[dj])
    rem_a[di] -= q
    rem_b[dj] -= q
    for i, j, m in zip(di.tolist(), dj.tolist(), q.tolist()):
        adjacent[i].append((nr + j, m, 0))
        adjacent[nr + j].append((i, m, 0))
    rows = np.flatnonzero(rem_a > 0.0)
    cols = np.flatnonzero(rem_b > 0.0)
    if len(rows) and len(cols):
        # scanning the arcs by cost (row-major on ties) and taking each whose
        # ends both have mass left is the repeated least-cost choice
        sub = cost[np.ix_(rows, cols)].ravel()
        order = np.argsort(sub, kind="stable")
        width, rows_left, cols_left = len(cols), len(rows), len(cols)
        rows, cols = rows.tolist(), cols.tolist()
        ra, rb = rem_a.tolist(), rem_b.tolist()
        for flat, cij in zip(order.tolist(), sub[order].tolist()):
            ri, cj = divmod(flat, width)
            i, j = rows[ri], cols[cj]
            if ra[i] <= 0.0 or rb[j] <= 0.0:
                continue
            q = min(ra[i], rb[j])
            adjacent[i].append((nr + j, q, cij))
            adjacent[nr + j].append((i, q, cij))
            ra[i] -= q
            rb[j] -= q
            rows_left -= ra[i] <= 0.0
            cols_left -= rb[j] <= 0.0
            if not rows_left or not cols_left:
                break

    # components of the forest, each with potentials relative to its first
    # node from u_i + v_j = c_ij with y = (u, -v)
    label = [-1] * nodes
    rel = [0] * nodes
    sizes = []
    for first in range(nodes):
        if label[first] >= 0:
            continue
        label[first] = len(sizes)
        component = [first]
        for k in component:
            for other, _, cij in adjacent[k]:
                if label[other] < 0:
                    label[other] = len(sizes)
                    rel[other] = cij + rel[k] if other < nr else rel[k] - cij
                    component.append(other)
        sizes.append(len(component))
    if len(sizes) > 1:
        anchor = sizes.index(max(sizes))
        lab = np.array(label)
        ry = np.array(rel, dtype=np.int64)
        anchor_rows = np.flatnonzero(lab[:nr] == anchor)
        anchor_cols = np.flatnonzero(lab[nr:] == anchor)
        out_rows = np.flatnonzero(lab[:nr] != anchor)
        hangs: dict[int, tuple[int, int, int, int]] = {}
        if len(out_rows):
            slack = cost[np.ix_(out_rows, anchor_cols)] + ry[nr + anchor_cols]
            best = anchor_cols[slack.argmin(axis=1)]
            c_best = cost[out_rows, best]
            shift = c_best + ry[nr + best] - ry[out_rows]
            for i, j, cij, t in zip(out_rows.tolist(), best.tolist(),
                                    c_best.tolist(), shift.tolist()):
                if label[i] not in hangs or t < hangs[label[i]][0]:
                    hangs[label[i]] = (t, i, j, cij)
        for j in np.flatnonzero(lab[nr:] != anchor).tolist():
            if label[nr + j] not in hangs:  # a column alone
                gain = ry[anchor_rows] - cost[anchor_rows, j]
                i = int(anchor_rows[np.argmax(gain)])
                hangs[label[nr + j]] = (0, i, j, int(cost[i, j]))
        for _, i, j, cij in hangs.values():
            adjacent[i].append((nr + j, 0.0, cij))
            adjacent[nr + j].append((i, 0.0, cij))

    parent = [-1] * nodes
    depth = [0] * nodes
    flow = [0.0] * nodes
    children: list[list[int]] = [[] for _ in range(nodes)]
    y = [0] * nodes
    placed = [True] + [False] * (nodes - 1)
    tree = [0]
    for k in tree:  # breadth first from row 0
        for other, m, cij in adjacent[k]:
            if not placed[other]:
                placed[other] = True
                parent[other] = k
                depth[other] = depth[k] + 1
                flow[other] = m
                children[k].append(other)
                y[other] = cij + y[k] if other < nr else y[k] - cij
                tree.append(other)
    return parent, depth, flow, children, np.array(y, dtype=np.int64)


def _solve_transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Exact transportation simplex with integer costs.

    Returns (flow dict over the R+C-1 basic arcs, integer row potentials u,
    integer column potentials v, pivot count, degenerate pivot count).  Nodes
    are rows 0..R-1 and columns R..R+C-1; the basis is a spanning tree rooted
    at row 0, kept in per-node lists (``parent``, ``depth``, ``flow`` on the
    arc to the parent, ``children``) and one int64 potential vector
    ``y`` = (u, -v).

    Pivot rules, pinned so that plans are reproducible bit for bit:

    * start from the diagonal, then the residual by least cost
      (``_diagonal_start``);
    * entering arc: the most negative reduced cost c_ij - u_i - v_j over all
      arcs, first in row-major order on ties; after more than
      ``BLAND_STREAK_PER_NODE * (R+C)`` degenerate pivots in a row, the first
      negative one (Bland's rule, which cannot cycle) for the rest of the solve;
    * leaving arc: the lexicographically smallest (i, j) among the cycle's
      backward arcs with the least flow.

    The cycle is the entering arc plus the tree paths from both of its ends up
    to their lowest common ancestor, found by climbing by depth.  The leaving
    arc cuts off a subtree; it is re-rooted at the entering arc's end inside
    it and hung from the other end.  The potentials shift by the entering
    reduced cost on the side holding the entering column, so they stay exact
    integers.
    """
    nr, nc = cost.shape
    b = b * (a.sum() / b.sum())
    parent, depth, flow, children, y = _diagonal_start(a, b, cost)

    def arc(k):
        return (k, parent[k] - nr) if k < nr else (parent[k], k - nr)

    bland = False
    pivots = degenerate = 0
    degenerate_streak = 0
    max_streak = BLAND_STREAK_PER_NODE * (nr + nc)
    while True:
        red = (cost - y[:nr, None] + y[None, nr:]).ravel()
        if bland:
            negative = red < 0
            if not negative.any():
                break
            flat = int(np.argmax(negative))
        else:
            flat = int(np.argmin(red))
            if red[flat] >= 0:
                break
        delta = int(red[flat])
        ei, ej = divmod(flat, nc)
        col = nr + ej
        # climb both ends to the lowest common ancestor; along each climb the
        # tree arcs alternate backward (-), forward (+), starting backward
        up_row: list[int] = []
        up_col: list[int] = []
        x, z = ei, col
        while depth[x] > depth[z]:
            up_row.append(x)
            x = parent[x]
        while depth[z] > depth[x]:
            up_col.append(z)
            z = parent[z]
        while x != z:
            up_row.append(x)
            up_col.append(z)
            x = parent[x]
            z = parent[z]
        minus_col = up_col[0::2]
        minus = up_row[0::2] + minus_col
        theta = min([flow[k] for k in minus])
        leave = min([k for k in minus if flow[k] <= theta], key=arc)
        for k in up_row[1::2] + up_col[1::2]:
            flow[k] += theta
        for k in minus:
            flow[k] = max(flow[k] - theta, 0.0)
        # re-root the cut-off subtree at the entering end inside it
        inside, outside = (col, ei) if leave in minus_col else (ei, col)
        node, new_parent, carried = inside, outside, theta
        while True:
            old_parent, old_flow = parent[node], flow[node]
            children[old_parent].remove(node)
            children[new_parent].append(node)
            parent[node] = new_parent
            flow[node] = carried
            if node == leave:
                break
            node, new_parent, carried = old_parent, node, old_flow
        depth[inside] = depth[outside] + 1
        subtree = [inside]
        for k in subtree:  # breadth first: the loop reaches appended nodes
            d = depth[k] + 1
            for child in children[k]:
                depth[child] = d
            subtree.extend(children[k])
        # shift the potentials on the side that holds the entering column
        if inside == col:
            y[subtree] -= delta
        else:
            y -= delta
            y[subtree] += delta
        pivots += 1
        if theta <= 0.0:
            degenerate += 1
            degenerate_streak += 1
            if degenerate_streak > max_streak:
                bland = True
        else:
            degenerate_streak = 0
    basis = {arc(k): flow[k] for k in range(1, nr + nc)}
    return basis, y[:nr].copy(), -y[nr:], pivots, degenerate


def _mcshane_potential(cost_src_union: np.ndarray, g: np.ndarray) -> np.ndarray:
    """phi(z) = min_i (g_i + c(x_i, z)), the tight 1-Lipschitz extension."""
    return (g[:, None] + cost_src_union).min(axis=0)


def transport_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, *,
                       method: str = "exact",
                       cap: int | None = None,
                       reg: float = 5e-3,
                       ) -> tuple[float, TransportPlan]:
    """Transportation distance between two measures on the same space.

    ``method`` is ``'exact'`` (default; errors above the support cap) or
    ``'sinkhorn'`` (always approximate, with the finite positive
    regularization ``reg``).
    """
    if mu.space != nu.space:
        raise MeasureError("transport_distance needs measures on the same space")
    if method == "sinkhorn":
        if not 0.0 < reg < math.inf:
            raise MeasureError(f"sinkhorn needs a finite positive reg, got {reg}")
        return _sinkhorn_distance(mu, nu, reg=reg)
    if method != "exact":
        raise MeasureError(
            f"unknown transport method {method!r}; use 'exact' or 'sinkhorn'")
    n = mu.space.dimension
    src = list(mu.support)
    tgt = list(nu.support)
    cap = exact_support_cap() if cap is None else cap
    if len(src) + len(tgt) > cap or len(src) * len(tgt) > MATRIX_CELL_CAP:
        raise SupportCapExceeded(
            f"combined support {len(src)}+{len(tgt)} exceeds exact cap {cap}; "
            f"use method='sinkhorn' or raise {ENV_CAP_VAR}")

    if mu._atoms == nu._atoms:
        # identical measures: the diagonal coupling and zero potentials are an
        # exact primal-dual optimal pair
        plan = {(w, w): m for w, m in mu.atoms.items()}
        tp = TransportPlan(mu, nu, plan, 0.0, exact=True,
                           row_potentials=(0,) * len(src),
                           col_potentials=(0,) * len(tgt))
        return 0.0, tp

    a = np.array([mu.atoms[w] for w in src])
    b = np.array([nu.atoms[w] for w in tgt])
    cost = mismatch_matrix(src, tgt)
    flow, u, v, _, _ = _solve_transport(a, b, cost)
    plan = {}
    total = 0.0
    for (i, j) in sorted(flow):
        m = flow[(i, j)]
        if m > 0.0:
            plan[(src[i], tgt[j])] = m
            total += m * cost[i, j]
    cost_value = total / n
    tp = TransportPlan(mu, nu, plan, cost_value, exact=True,
                       row_potentials=tuple(int(x) for x in u),
                       col_potentials=tuple(int(x) for x in v))
    return cost_value, tp


def dual_gap(plan: TransportPlan) -> tuple[DualCertificate, float]:
    """Optimal-potential certificate and the primal-dual gap for a plan.

    ``plan`` must come from the exact backend, which records its integer
    potentials.  The certificate is the tight 1-Lipschitz extension of those
    potentials to the union support; for an optimal plan the gap is float
    round-off only.
    """
    if not plan.exact or plan.col_potentials is None:
        raise MeasureError("dual_gap needs an exact plan with solver potentials")
    mu, nu = plan.source, plan.target
    n = mu.space.dimension
    src = list(mu.support)
    tgt = list(nu.support)
    v = np.array(plan.col_potentials, dtype=np.int64)
    cost_st = mismatch_matrix(src, tgt)
    # g_i = max_j (v_j - c_ij): the conjugate source potential
    g = (v[None, :] - cost_st).max(axis=1)
    union = sorted(set(src) | set(tgt))
    cost_su = mismatch_matrix(src, union)
    phi = _mcshane_potential(cost_su, g) / n
    cert = DualCertificate({w: float(p) for w, p in zip(union, phi)})
    gap = plan.cost - cert.objective(mu, nu)
    if cert.lipschitz_slack() > 1e-10:
        raise MeasureError("internal error: dual potential is not 1-Lipschitz")
    return cert, gap


# -----------------------------------------------------------------------------
# Approximate backend
# -----------------------------------------------------------------------------
def _sinkhorn_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, *,
                       reg: float, max_iters: int = 2000,
                       tol: float = 1e-12) -> tuple[float, TransportPlan]:
    src = list(mu.support)
    tgt = list(nu.support)
    a = np.array([mu.atoms[w] for w in src])
    b = np.array([nu.atoms[w] for w in tgt])
    n = mu.space.dimension
    cost = mismatch_matrix(src, tgt) / n
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(len(src))
    g = np.zeros(len(tgt))
    m = -cost / reg
    for _ in range(max_iters):
        f_new = reg * (log_a - _logsumexp(m + g[None, :] / reg, axis=1))
        g_new = reg * (log_b - _logsumexp(m + f_new[:, None] / reg, axis=0))
        shift = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        if shift < tol:
            break
    p = np.exp(m + f[:, None] / reg + g[None, :] / reg)
    p = _round_to_feasible(p, a, b)
    plan = {}
    total = 0.0
    for i, x in enumerate(src):
        for j, y in enumerate(tgt):
            if p[i, j] > 0.0:
                plan[(x, y)] = float(p[i, j])
                total += p[i, j] * cost[i, j]
    bias = reg * math.log(max(len(src) * len(tgt), 2))
    tp = TransportPlan(mu, nu, plan, float(total), exact=False, bias_bound=bias)
    return float(total), tp


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    peak = m.max(axis=axis, keepdims=True)
    out = peak + np.log(np.exp(m - peak).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _round_to_feasible(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Round an almost-coupling to exact marginals (scale rows/cols, then patch)."""
    row = p.sum(axis=1)
    p = p * np.minimum(1.0, a / np.where(row > 0, row, 1.0))[:, None]
    col = p.sum(axis=0)
    p = p * np.minimum(1.0, b / np.where(col > 0, col, 1.0))[None, :]
    da = a - p.sum(axis=1)
    db = b - p.sum(axis=0)
    total = da.sum()
    if total > 0:
        p = p + np.outer(da, db) / total
    return p


# -----------------------------------------------------------------------------
# Coupling bounds
# -----------------------------------------------------------------------------
def product_coupling_bound(lam: DiscreteMeasure, mu: DiscreteMeasure,
                           nu: DiscreteMeasure, alpha: float) -> float:
    """Upper bound on the distance from a two-block coupling to a product.

    ``lam`` lives on A^n split into a K-block of the first k coordinates and an
    L-block of the rest; ``mu`` and ``nu`` live on the blocks.  ``alpha`` must
    equal k/n so that the blockwise metric combination is the normalized
    Hamming metric on A^n.  Returns

        alpha * dbar(lam_K, mu) + (1-alpha) * E_{x~lam_K} dbar(lam_{L|x}, nu).
    """
    n = lam.space.dimension
    k = mu.space.dimension
    if nu.space.dimension != n - k or not (0 < k < n):
        raise MeasureError("invalid split")
    if abs(alpha - k / n) > 1e-12:
        raise MeasureError(f"invalid split: alpha must be {k}/{n}")
    lam_k = marginal(lam, range(k))
    cost_k, _ = transport_distance(lam_k, mu)
    expected = 0.0
    for x in lam_k.support:
        block = condition(lam, [w for w in lam.support if w[:k] == x])
        cond = marginal(block, range(k, n))
        cost_l, _ = transport_distance(cond, nu)
        expected += lam_k.mass(x) * cost_l
    return alpha * cost_k + (1.0 - alpha) * expected


def tv_partition_bound(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       blocks: Sequence[Iterable[Word]]) -> float:
    """Partition upper bound on dbar(nu, mu): mass-weighted block diameters plus
    half the blockwise mass discrepancy times the ambient diameter (= 1)."""
    total = 0.0
    disc = 0.0
    for block in blocks:
        words = [tuple(w) for w in block]
        bm = sum(mu.mass(w) for w in words)
        bn = sum(nu.mass(w) for w in words)
        total += bm * diameter(words)
        disc += abs(bn - bm)
    return total + 0.5 * disc
