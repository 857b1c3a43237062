"""Normalized Hamming metric and exact transportation distances with dual certificates.

The exact backend is a network simplex, run on one of two graphs:

* the bipartite support graph, an arc from every source atom to every target
  atom at its mismatch count (a transportation problem, k_s * k_t arcs);
* the Hamming graph of A^n, an arc of cost 1 between every two words that
  differ in one coordinate (q^n * n * (q-1) arcs for |A| = q), with supply
  a_w - b_w on every word.  The Hamming metric is this graph's path metric,
  so the least-cost flow is the same distance.

``transport_distance`` takes the Hamming graph when it has fewer arcs than
the support graph (dense supports in low dimension), and the support graph
otherwise, the only one that fits sparse supports in high dimension.

Costs are integers, so all pivoting decisions and dual potentials are exact
integer arithmetic; only the transported amounts are floats.  On either
graph the basis is a spanning tree rooted at node 0, held in flat per-node
lists (parent, depth, flow on the arc to the parent and its direction,
children) next to one int64 potential vector, and both solvers run the same
pricing loop (``_network_simplex``) and pivot (``_pivot``): climb to the
lowest common ancestor, take the leaving arc, move the flow, re-root the
cut-off subtree and shift its potentials.  Pivot order is pinned (most
negative reduced cost, first in arc order on ties, lexicographically
smallest leaving arc, and a Bland fallback against degenerate cycling) so
plans are reproducible byte for byte.  The bipartite solver starts from the
diagonal, min(a_w, b_w) on the zero-cost arc of every shared word, and
routes the residual by least cost; the graph solver starts from a greedy
tree (``_greedy_tree``) whose arcs carry the net supply below them.  A
measure and its own product of marginals, equal up to round-off, are then
coupled in a few pivots.

The graph solver's plan is min(a_w, b_w) on the diagonal plus a path
decomposition of the optimal tree flow (``_split_tree_flow``), and its
potentials restricted to the two supports are the transportation potentials,
so ``dual_gap`` treats both solvers alike.

Exact couplings come in batches (``_exact_couplings``): rows of masses on two
shared word tables, such as a carve block's products of marginals against
its conditional laws.  The rows on the Hamming graph share one supply array
over the cube, each row is still solved once, and the pairs of all rows are
sorted, counted and costed as arrays, so each row gets the bits it gets
alone; ``_exact_coupling`` and ``transport_distance`` are the one-row case.
The cube tables are built once per (q, n) and cached: the digits and arcs
(``_hamming_graph``) and each word's candidate parents in the greedy tree
(``_cube_parents``).

The approximate backend is entropically regularized iteration.  It runs only
on request (``method='sinkhorn'``, or ``transport --approx`` on the command
line), never in place of an exact solve, and its plans are always labeled
inexact.  Their bias bound is certified: the plan's cost minus the dual value
of c-transformed potentials, which holds even when the iteration stopped at
its cap or underflowed.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .measures import (DiscreteMeasure, MeasureError, SupportCapExceeded, Word,
                       _left_sums, _sum, condition, marginal)

#: default cap on combined support size for the exact backend
DEFAULT_EXACT_CAP = 1 << 16
#: guard on the dense cost-matrix size (cells)
MATRIX_CELL_CAP = 1 << 24
#: element cap of one row block of the mismatch matrix a diameter is read
#: from (a search in ``refute_T`` builds the whole matrix only when it needs it)
DIAMETER_BLOCK_ELEMENTS = 1 << 16

ENV_CAP_VAR = "HC_MAX_SUPPORT"


def exact_support_cap() -> int:
    value = os.environ.get(ENV_CAP_VAR)
    if value is None:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = None
    # two atoms are the least that any exact solve needs
    if cap is None or cap < 2:
        raise MeasureError(
            f"{ENV_CAP_VAR} must be an integer >= 2, got {value!r}")
    return cap


# -----------------------------------------------------------------------------
# Ground metric
# -----------------------------------------------------------------------------
def hamming(x: Word, y: Word) -> float:
    """Fraction of coordinates where two equal-length words differ."""
    if len(x) != len(y):
        raise MeasureError(f"length mismatch: {len(x)} vs {len(y)}")
    return _sum(a != b for a, b in zip(x, y)) / len(x)


def mismatch_matrix(src: Sequence[Word], tgt: Sequence[Word]) -> np.ndarray:
    """Integer matrix of coordinate mismatch counts between two word lists."""
    a = np.asarray(src, dtype=np.int64)
    b = a if tgt is src else np.asarray(tgt, dtype=np.int64)
    if a.shape[1] != b.shape[1]:
        raise MeasureError(f"length mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    for i in range(a.shape[1]):    # one coordinate at a time: no (k_s, k_t, n) temporary
        out += a[:, i, None] != b[:, i]
    return out


def lipschitz_slack(values: np.ndarray, dist: np.ndarray) -> float:
    """max over support pairs of |f(x)-f(y)| - d(x,y) for the values of f and
    the distance matrix of the support; <= 0 means 1-Lipschitz."""
    diff = np.abs(values[:, None] - values[None, :]) - dist
    return float(diff.max())


def _farthest(words: np.ndarray) -> tuple[int, np.ndarray]:
    """The largest mismatch count between two rows of ``words`` (digit rows,
    at least one), read from row blocks of the mismatch matrix under
    ``DIAMETER_BLOCK_ELEMENTS`` and stopping once it reaches n, with the last
    block (the whole matrix when one block holds it)."""
    n = words.shape[1]
    step, far = max(1, DIAMETER_BLOCK_ELEMENTS // len(words)), 0
    for lo in range(0, len(words), step):
        block = mismatch_matrix(words[lo:lo + step], words)
        far = max(far, int(block.max()))
        if far == n:
            break
    return far, block


def diameter(words: Sequence[Word]) -> float:
    """Diameter of a word set under the normalized Hamming metric, exactly."""
    words = np.asarray(words, dtype=np.int64)
    return _farthest(words)[0] / words.shape[1] if len(words) else 0.0


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
        """``lipschitz_slack`` of the potential on its support."""
        words = sorted(self.potential)
        return lipschitz_slack(np.array([self.potential[w] for w in words]),
                               mismatch_matrix(words, words) / len(words[0]))

    def objective(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """integral of f d(nu) - integral of f d(mu)."""
        up = _sum(self.potential[w] * m for w, m in nu.atoms.items())
        down = _sum(self.potential[w] * m for w, m in mu.atoms.items())
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


def _pivot(tail, head, delta, parent, depth, flow, children, up, y) -> float:
    """Enter the arc ``tail -> head``, of reduced cost ``delta < 0``, into a
    spanning-tree basis and return the flow theta it carries.

    Each node k but the root holds its tree arc to ``parent[k]``: the arc's
    ``flow`` and ``up[k]``, true when it points k -> parent[k].  The cycle is
    the entering arc plus the tree paths from both of its ends up to their
    lowest common ancestor, found by climbing by depth.  Flow pushed along the
    entering arc returns from ``head`` to ``tail``, so the backward arcs are
    those pointing up on the tail's climb and down on the head's climb.  The
    leaving arc is the smallest (tail, head) pair among the backward arcs with
    the least flow.  It cuts off a subtree, which is re-rooted at the entering
    arc's end inside it and hung from the other end.  Reduced costs are
    c - y[t] + y[h], so the potentials on the side holding ``head`` drop by
    delta and stay exact integers.
    """
    tail_climb: list[int] = []
    head_climb: list[int] = []
    x, z = tail, head
    while depth[x] > depth[z]:
        tail_climb.append(x)
        x = parent[x]
    while depth[z] > depth[x]:
        head_climb.append(z)
        z = parent[z]
    while x != z:
        tail_climb.append(x)
        head_climb.append(z)
        x = parent[x]
        z = parent[z]
    minus_head = [k for k in head_climb if not up[k]]
    minus = [k for k in tail_climb if up[k]] + minus_head
    theta = min([flow[k] for k in minus])
    leave = min([k for k in minus if flow[k] <= theta],
                key=lambda k: (k, parent[k]) if up[k] else (parent[k], k))
    for k in tail_climb:
        if not up[k]:
            flow[k] += theta
    for k in head_climb:
        if up[k]:
            flow[k] += theta
    for k in minus:
        flow[k] = max(flow[k] - theta, 0.0)
    # re-root the cut-off subtree at the entering end inside it
    inside, outside = (head, tail) if leave in minus_head else (tail, head)
    node, new_parent, carried, points_up = inside, outside, theta, inside == tail
    while True:
        old_parent, old_flow, old_up = parent[node], flow[node], up[node]
        children[old_parent].remove(node)
        children[new_parent].append(node)
        parent[node] = new_parent
        flow[node] = carried
        up[node] = points_up
        if node == leave:
            break
        node, new_parent, carried, points_up = old_parent, node, old_flow, not old_up
    depth[inside] = depth[outside] + 1
    subtree = [inside]
    for k in subtree:  # breadth first: the loop reaches appended nodes
        d = depth[k] + 1
        for child in children[k]:
            depth[child] = d
        subtree.extend(children[k])
    if inside == head:
        y[subtree] -= delta
    else:
        y -= delta
        y[subtree] += delta
    return theta


def _network_simplex(reduced, ends, parent, depth, flow, children, up, y):
    """Pivot a feasible spanning-tree basis to optimality; returns the pivot
    count and the degenerate pivot count.

    ``reduced(y)`` prices every arc, ``ends(index)`` gives an arc's (tail,
    head).  Entering arc: the most negative reduced cost, first in arc order
    on ties; after more than ``BLAND_STREAK_PER_NODE`` degenerate pivots per
    node in a row, the first negative one (Bland's rule, which cannot cycle)
    for the rest of the solve.  The pivot itself is ``_pivot``.
    """
    bland = False
    pivots = degenerate = 0
    degenerate_streak = 0
    max_streak = BLAND_STREAK_PER_NODE * len(parent)
    while True:
        red = reduced(y)
        if bland:
            negative = red < 0
            if not negative.any():
                break
            index = int(np.argmax(negative))
        else:
            index = int(red.argmin())
            if red[index] >= 0:
                break
        tail, head = ends(index)
        theta = _pivot(tail, head, int(red[index]), parent, depth, flow,
                       children, up, y)
        pivots += 1
        if theta <= 0.0:
            degenerate += 1
            degenerate_streak += 1
            if degenerate_streak > max_streak:
                bland = True
        else:
            degenerate_streak = 0
    return pivots, degenerate


def _solve_transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Exact transportation simplex with integer costs.

    Returns (flow dict over the R+C-1 basic arcs, integer row potentials u,
    integer column potentials v, pivot count, degenerate pivot count).  Nodes
    are rows 0..R-1 and columns R..R+C-1, every arc points row -> column, and
    the basis is a spanning tree rooted at row 0 with potentials
    ``y`` = (u, -v).  It starts from the diagonal, then the residual by least
    cost (``_diagonal_start``); arcs are priced in row-major order
    (``_network_simplex``).
    """
    nr, nc = cost.shape
    b = b * (a.sum() / b.sum())
    parent, depth, flow, children, y = _diagonal_start(a, b, cost)
    up = [k < nr for k in range(nr + nc)]
    pivots, degenerate = _network_simplex(
        lambda y: (cost - y[:nr, None] + y[None, nr:]).ravel(),
        lambda index: (index // nc, nr + index % nc),
        parent, depth, flow, children, up, y)
    basis = {(k, parent[k] - nr) if k < nr else (parent[k], k - nr): flow[k]
             for k in range(1, nr + nc)}
    return basis, y[:nr].copy(), -y[nr:], pivots, degenerate


@functools.lru_cache(maxsize=8)
def _hamming_graph(q: int, n: int):
    """The Hamming graph on ``range(q)^n``, words numbered in cube order (a
    word's code is its base-q number, first coordinate most significant).

    Returns the words' digits, one row per word, and the tails and heads of
    its q^n n (q-1) arcs, one per ordered pair of words that differ in one
    coordinate, sorted by (tail, head).  The arrays are read-only, since the
    cache shares them.
    """
    codes = np.arange(q ** n, dtype=np.int64)
    digits = np.empty((q ** n, n), dtype=np.int64)
    tails, heads = [], []
    for c in range(n):
        stride = q ** (n - 1 - c)
        digits[:, c] = codes // stride % q
        for other in range(q):
            moved = digits[:, c] != other
            tails.append(codes[moved])
            heads.append(codes[moved] + (other - digits[moved, c]) * stride)
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    order = np.lexsort((heads, tails))
    out = digits, tails[order], heads[order]
    for array in out:
        array.setflags(write=False)
    return out


def _codes(words: np.ndarray, q: int) -> np.ndarray:
    """The cube codes (as in ``_hamming_graph``) of words given as rows of digits."""
    return words @ q ** np.arange(words.shape[1] - 1, -1, -1)


@functools.lru_cache(maxsize=8)
def _cube_parents(q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Each word's candidate parents in ``_greedy_tree`` (words numbered as in
    ``_hamming_graph``): the codes of the word with one of its non-zero
    coordinates set to 0, in coordinate order."""
    digits = _hamming_graph(q, n)[0]
    moved = np.arange(q ** n)[:, None] - digits * q ** np.arange(n - 1, -1, -1)
    return tuple(tuple(p for p, d in zip(row, word) if d)
                 for row, word in zip(moved.tolist(), digits.tolist()))


def _greedy_tree(supply: list[float], q: int, n: int):
    """Initial basis on the Hamming graph of ``range(q)^n``: a spanning tree
    rooted at word 0 in which each word hangs from one of its
    ``_cube_parents``, so parents have smaller codes.

    Words are hung from the last code down, so a word's subtree, and with it
    its net supply S (own supply plus what hangs below it), is complete when
    its turn comes.  It hangs from the candidate whose net supply so far best
    cancels S: the most negative when S > 0, the most positive when S < 0,
    the first coordinate on ties and when S = 0.  Each tree arc carries |S|,
    pointing up when S >= 0, so every such tree is a feasible basis.  Returns
    ``parent``, ``depth``, ``flow``, ``children``, ``up`` and the potentials
    ``y`` (c - y[t] + y[h] = 0 on the tree).
    """
    parents = _cube_parents(q, n)
    size = len(parents)
    below = list(supply)
    parent = [-1] * size
    for w in range(size - 1, 0, -1):
        net = below[w]
        best = parents[w][0]
        if net > 0.0:
            for p in parents[w]:
                if below[p] < below[best]:
                    best = p
        elif net < 0.0:
            for p in parents[w]:
                if below[p] > below[best]:
                    best = p
        parent[w] = best
        below[best] += net
    depth = [0] * size
    children: list[list[int]] = [[] for _ in range(size)]
    up = [m >= 0.0 for m in below]
    y = [0] * size
    for k in range(1, size):
        p = parent[k]
        depth[k] = depth[p] + 1
        children[p].append(k)
        y[k] = y[p] + 1 if up[k] else y[p] - 1
    flow = [abs(m) for m in below]
    flow[0] = 0.0
    return parent, depth, flow, children, up, np.array(y, dtype=np.int64)


def _solve_graph(supply: list[float], q: int, n: int):
    """Exact min-cost flow on the Hamming graph of ``range(q)^n``.

    Every word (numbered as in ``_hamming_graph``) is a node with the given
    supply, every arc costs 1, and the least total flow is the distance in
    mismatch counts.  The basis starts as ``_greedy_tree`` and is pivoted
    by the same loop and pivot as the transportation simplex, with arcs
    priced in (tail, head) order.

    Returns the optimal tree (``parent``, ``children``, ``flow`` on the arc
    to the parent, ``up``), the integer potentials y, normalized to
    y[0] = 0, the pivot count and the degenerate pivot count.  On every arc
    y[t] - y[h] <= 1, so y is 1-Lipschitz in mismatch counts.
    """
    _, tails, heads = _hamming_graph(q, n)
    parent, depth, flow, children, up, y = _greedy_tree(supply, q, n)
    pivots, degenerate = _network_simplex(
        lambda y: 1 - y[tails] + y[heads],
        lambda index: (int(tails[index]), int(heads[index])),
        parent, depth, flow, children, up, y)
    y -= y[0]  # the pivots shift the root's side too
    return parent, children, flow, up, y, pivots, degenerate


def _split_tree_flow(children: Sequence[Sequence[int]], supply: Sequence[float]
                     ) -> tuple[list[int], list[int], list[float]]:
    """Split the flow of a spanning-tree basis into (origin, sink) amounts,
    returned as parallel lists of origins, sinks and amounts; no (origin,
    sink) pair repeats.

    On a tree the flow across each arc is the net supply below it, so a
    subtree's surplus can meet its own deficits first.  Children come before
    their parent; each node queues its own surplus or deficit, then what
    each child passed up, in child order, and matches the two queues front
    to front.  What is left, of one kind only, goes up to the parent (at the
    root, round-off alone is left).  Each unit of mass thus follows the tree
    path, along the flow, from its origin to its sink; as the flow is
    optimal, that path is a shortest one.
    """
    order = [0]
    for k in order:  # breadth first from the root
        order.extend(children[k])
    left: list = [None] * len(order)
    origins: list[int] = []
    sinks: list[int] = []
    amounts: list[float] = []
    for w in reversed(order):
        m = supply[w]
        if m > 0.0:
            give, take = [[w, m]], []
        elif m < 0.0:
            give, take = [], [[w, -m]]
        else:
            give, take = [], []
        for child in children[w]:
            kind, packets = left[child]
            if kind:
                give += packets
            else:
                take += packets
        if not (give and take):
            left[w] = (True, give) if give else (False, take)
            continue
        i = j = 0
        while i < len(give) and j < len(take):
            g, t = give[i], take[j]
            origins.append(g[0])    # the two never meet again
            sinks.append(t[0])
            if t[1] < g[1]:    # min(g, t) is t: t is used up
                amounts.append(t[1])
                g[1] -= t[1]
                j += 1
            else:
                amounts.append(g[1])
                t[1] -= g[1]
                i += 1
                j += t[1] == 0.0
        left[w] = (True, give[i:]) if i < len(give) else (False, take[j:])
    return origins, sinks, amounts


def _mcshane_potential(cost_src_union: np.ndarray, g: np.ndarray) -> np.ndarray:
    """phi(z) = min_i (g_i + c(x_i, z)), the tight 1-Lipschitz extension."""
    return (g[:, None] + cost_src_union).min(axis=0)


def _graph_is_smaller(q: int, n: int, k_src: int, k_tgt: int) -> bool:
    """The exact solver choice: the Hamming graph of ``range(q)^n`` when its
    q^n n (q-1) arcs are fewer than the k_src k_tgt arcs of the bipartite
    support graph, else the transportation simplex."""
    return q ** n * n * (q - 1) < k_src * k_tgt


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
    src, tgt = mu.support, nu.support
    rows, cols, mass, _, cost, u, v = _exact_coupling(
        mu.digits, mu.masses, nu.digits, nu.masses, mu.space.alphabet_size, cap)
    plan = {(src[i], tgt[j]): m for i, j, m in zip(rows.tolist(), cols.tolist(), mass.tolist())}
    tp = TransportPlan(mu, nu, plan, cost, exact=True,
                       row_potentials=tuple(u.tolist()),
                       col_potentials=tuple(v.tolist()))
    return cost, tp


def _exact_coupling(src: np.ndarray, a: np.ndarray, tgt: np.ndarray,
                    b: np.ndarray, q: int, cap: int | None = None):
    """An optimal coupling of the atoms ``(src, a)`` and ``(tgt, b)`` (sorted
    digit rows over ``range(q)``, positive masses): the positive pairs as
    index arrays ``rows`` and ``cols`` sorted by (row, col), their masses and
    mismatch counts, the cost (masses times counts, added left to right, over
    n) and the integer potentials u and v.  This is the one-row
    ``_exact_couplings``."""
    return _exact_couplings(src, a[None], tgt, b[None], q, cap)[0]


def _exact_couplings(src: np.ndarray, a: np.ndarray, tgt: np.ndarray,
                     b: np.ndarray, q: int, cap: int | None = None) -> list[tuple]:
    """``_exact_coupling`` of each row pair: the atoms ``(src, a[r])`` against
    ``(tgt, b[r])``, where ``src`` and ``tgt`` are distinct sorted digit rows
    over ``range(q)`` and the rows of ``a`` and ``b`` nonnegative masses,
    zero at a missing atom.  One tuple per row, indices into the row's own
    supports, each with the bits the row gets alone.

    Identical measures get the diagonal and zero potentials, an exact
    primal-dual optimal pair; others the solver ``_graph_is_smaller`` picks.
    On the Hamming graph the plan is min(a_w, b_w) on the diagonal of every
    shared word plus the path decomposition of the flow
    (``_split_tree_flow``), and the potentials are u_i = y(x_i) and
    v_j = -y(y_j).  The graph rows share one supply array, one row per word
    of the cube, and each is solved once by ``_solve_graph``; the pairs of
    all rows are then sorted, counted and costed as arrays.  A support above
    ``cap`` (``exact_support_cap()`` by default) raises
    ``SupportCapExceeded``."""
    cap = exact_support_cap() if cap is None else cap
    n = src.shape[1]
    a_on, b_on = a > 0.0, b > 0.0
    sizes = list(zip(np.count_nonzero(a_on, axis=1).tolist(),
                     np.count_nonzero(b_on, axis=1).tolist()))
    for k_src, k_tgt in sizes:
        if k_src + k_tgt > cap or k_src * k_tgt > MATRIX_CELL_CAP:
            raise SupportCapExceeded(
                f"combined support {k_src}+{k_tgt} exceeds exact cap {cap}; "
                f"use method='sinkhorn' or raise {ENV_CAP_VAR}")
    u = [np.zeros(k, dtype=np.int64) for k, _ in sizes]
    v = [np.zeros(k, dtype=np.int64) for _, k in sizes]
    # (row, src index, tgt index, mass) of every pair, in pieces
    pieces: list[tuple] = []
    graph: list[int] = []
    for r, (k_src, k_tgt) in enumerate(sizes):
        if _graph_is_smaller(q, n, k_src, k_tgt):
            graph.append(r)
            continue
        s, t = np.flatnonzero(a_on[r]), np.flatnonzero(b_on[r])
        if np.array_equal(src[s], tgt[t]) and np.array_equal(a[r, s], b[r, t]):
            pieces.append((np.full(len(s), r), s, t, a[r, s]))
            continue
        basis, u[r], v[r], _, _ = _solve_transport(a[r, s], b[r, t],
                                                   mismatch_matrix(src[s], tgt[t]))
        i, j = np.array(list(basis), dtype=np.intp).reshape(-1, 2).T
        pieces.append((np.full(len(i), r), s[i], t[j], np.array(list(basis.values()))))
    if graph:
        pieces.append(_graph_pairs(src, a[graph], tgt, b[graph], q, graph, u, v))
    row, i, j, mass = (np.concatenate(x) for x in zip(*pieces))
    order = np.lexsort((j, i, row))
    order = order[mass[order] > 0.0]
    row, i, j, mass = row[order], i[order], j[order], mass[order]
    counts = np.count_nonzero(src[i] != tgt[j], axis=1)
    # the cost of each row adds its own pairs in order; the zero padding
    # after them adds no bit to a nonnegative sum
    bounds = np.searchsorted(row, np.arange(len(sizes) + 1))
    spread = np.zeros((len(sizes), int(np.diff(bounds).max(initial=0))))
    spread[row, np.arange(len(row)) - bounds[row]] = mass * counts
    costs = (_left_sums(spread) / n).tolist()
    i = (np.cumsum(a_on, axis=1) - 1)[row, i]    # indices into the row's own supports
    j = (np.cumsum(b_on, axis=1) - 1)[row, j]
    return [(i[lo:hi], j[lo:hi], mass[lo:hi], counts[lo:hi], cost, u[r], v[r])
            for r, (lo, hi, cost) in enumerate(zip(bounds[:-1].tolist(),
                                                   bounds[1:].tolist(), costs))]


def _graph_pairs(src: np.ndarray, a: np.ndarray, tgt: np.ndarray,
                 b: np.ndarray, q: int, rows: list[int], u: list, v: list):
    """The (row, src index, tgt index, mass) pairs of the Hamming-graph
    couplings of ``_exact_couplings``, for the rows ``rows`` (the masses
    ``a`` and ``b``, one row each), unsorted; fills in their potentials
    ``u`` and ``v``.  A row whose supply is zero at every word is an
    identical pair: the diagonal alone, with no solve."""
    n = src.shape[1]
    src_codes, tgt_codes = _codes(src, q), _codes(tgt, q)
    supply = np.zeros((len(rows), q ** n))
    supply[:, src_codes] += a
    a_at = supply[:, tgt_codes]    # a_w at each word of tgt
    supply[:, tgt_codes] -= b
    shared = (a_at > 0.0) & (b > 0.0)
    diag_row, diag_j = np.nonzero(shared)
    src_at = np.full(q ** n, -1)
    src_at[src_codes] = np.arange(len(src_codes))
    tgt_at = np.full(q ** n, -1)
    tgt_at[tgt_codes] = np.arange(len(tgt_codes))
    owner: list[int] = []
    origins: list[int] = []
    sinks: list[int] = []
    amounts: list[float] = []
    for k, (r, live) in enumerate(zip(rows, supply.any(axis=1).tolist())):
        if not live:
            continue
        row_supply = supply[k].tolist()
        _, children, _, _, y, _, _ = _solve_graph(row_supply, q, n)
        o, t, m = _split_tree_flow(children, row_supply)
        owner += [r] * len(m)
        origins += o
        sinks += t
        amounts += m
        u[r], v[r] = y[src_codes[a[k] > 0.0]], -y[tgt_codes[b[k] > 0.0]]
    rows = np.array(rows)
    return (np.concatenate((rows[diag_row], np.array(owner, dtype=np.intp))),
            np.concatenate((src_at[tgt_codes[diag_j]], src_at[origins])),
            np.concatenate((diag_j, tgt_at[sinks])),
            np.concatenate((np.minimum(a_at, b)[shared], amounts)))


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
    v = np.array(plan.col_potentials, dtype=np.int64)
    # g_i = max_j (v_j - c_ij): the conjugate source potential
    g = (v[None, :] - mismatch_matrix(mu.digits, nu.digits)).max(axis=1)
    union = sorted(set(mu.support) | set(nu.support))
    cost_su = mismatch_matrix(mu.digits, union)
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
    src, tgt, a, b = mu.support, nu.support, mu.masses, nu.masses
    cost = mismatch_matrix(mu.digits, nu.digits) / mu.space.dimension
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
    pos = p > 0.0
    plan = {(src[i], tgt[j]): float(p[i, j]) for i, j in zip(*np.nonzero(pos))}
    total = _sum((p * cost)[pos].tolist())
    bias = float(total) - _c_transform_bound(cost, a, b, g)
    tp = TransportPlan(mu, nu, plan, float(total), exact=False, bias_bound=bias)
    return float(total), tp


def _c_transform_bound(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
                       g: np.ndarray) -> float:
    """A lower bound on the transport cost from column potentials ``g``.

    f = g^c, f_i = min_j (c_ij - g_j), and then g' = f^c are feasible
    potentials (f_i + g'_j <= c_ij) whatever ``g`` is, so by weak duality
    their value sum_i a_i f_i + sum_j b_j g'_j is at most the optimal cost;
    so is 0.  The larger of the two bounds the optimum from below, even when
    the iteration stopped short or its potentials over- or underflowed.
    """
    if not np.isfinite(g).all():
        return 0.0
    f = (cost - g[None, :]).min(axis=1)
    g = (cost - f[:, None]).min(axis=0)
    return max(_sum((a * f).tolist() + (b * g).tolist()), 0.0)


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

    def cost_given(x: Word) -> float:
        block = condition(lam, [w for w in lam.support if w[:k] == x])
        return transport_distance(marginal(block, range(k, n)), nu)[0]

    expected = _sum(lam_k.mass(x) * cost_given(x) for x in lam_k.support)
    return alpha * cost_k + (1.0 - alpha) * expected


def tv_partition_bound(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       blocks: Sequence[Iterable[Word]]) -> float:
    """Partition upper bound on dbar(nu, mu): mass-weighted block diameters plus
    half the blockwise mass discrepancy times the ambient diameter (= 1)."""
    blocks = [[tuple(w) for w in block] for block in blocks]
    masses = [(_sum(map(mu.mass, b)), _sum(map(nu.mass, b))) for b in blocks]
    total = _sum(bm * diameter(b) for (bm, _), b in zip(masses, blocks))
    return total + 0.5 * _sum(abs(bn - bm) for bm, bn in masses)
