"""Exact transportation distances, dual certificates, and coupling bounds."""
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamconc import (
    DiscreteMeasure,
    MeasureError,
    ProductSpace,
    SupportCapExceeded,
    TransportPlan,
    dual_gap,
    hamming,
    kl_divergence,
    marginal,
    product_coupling_bound,
    transport_distance,
    variation_norm,
)
from hamconc import transport as transport_module
from hamconc.measures import product_measure
from hamconc.transport import (
    _solve_transport,
    diameter,
    mismatch_matrix,
    tv_partition_bound,
)

from conftest import biased_product, make_measure, random_measure, two_cluster
from oracles import lp_coupling_cost, lp_transport_cost, random_sparse_measure


# -----------------------------------------------------------------------------
# ground metric
# -----------------------------------------------------------------------------
def test_hamming_basics():
    assert hamming((0, 1, 1), (0, 1, 1)) == 0.0
    assert hamming((0, 0), (1, 1)) == 1.0
    assert math.isclose(hamming((0, 1, 1), (0, 0, 1)), 1 / 3)
    with pytest.raises(MeasureError, match="length mismatch"):
        hamming((0,), (0, 1))


def test_mismatch_matrix_counts_differing_coordinates(rng):
    for alphabet, n, k_s, k_t in ((2, 1, 1, 3), (3, 4, 7, 5), (4, 6, 40, 33)):
        src = [tuple(w) for w in rng.integers(0, alphabet, size=(k_s, n))]
        tgt = [tuple(w) for w in rng.integers(0, alphabet, size=(k_t, n))]
        got = mismatch_matrix(src, tgt)
        assert got.dtype == np.int64 and got.shape == (k_s, k_t)
        assert got.tolist() == [[round(hamming(x, y) * n) for y in tgt]
                                for x in src]
    with pytest.raises(MeasureError, match="length mismatch"):
        mismatch_matrix([(0, 1)], [(0, 1, 1)])


def test_diameter_exact_and_bounded():
    words = [(0, 0, 0), (1, 1, 0), (1, 0, 0)]
    assert math.isclose(diameter(words), 2 / 3)
    assert diameter([(0, 0)]) == 0.0
    # exact past 10,000 pairs too: the 100 unit vectors of {0,1}^100 and zero
    # lie 2/100 apart at most, where the per-coordinate ranges would give 1
    units = [tuple(int(i == j) for j in range(100)) for i in range(100)]
    assert diameter(units + [(0,) * 100]) == 0.02


# -----------------------------------------------------------------------------
# exact distances
# -----------------------------------------------------------------------------
def _instance(atoms_a, atoms_b):
    """Solver input for two atom maps, laid out as ``transport_distance`` does."""
    src, tgt = sorted(atoms_a), sorted(atoms_b)
    a = np.array([atoms_a[w] for w in src])
    b = np.array([atoms_b[w] for w in tgt])
    return a, b, mismatch_matrix(src, tgt)


def _random_words(rng, n, k):
    cube = list(itertools.product((0, 1), repeat=n))
    return [cube[i] for i in sorted(rng.choice(len(cube), size=k, replace=False))]


def _oracle_pairs():
    """The criterion 3 oracle pairs (same draws) as (alphabet, n, atoms,
    atoms)."""
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        alphabet = int(rng.integers(2, 4))
        yield (alphabet, n, random_sparse_measure(rng, alphabet, n, 30),
               random_sparse_measure(rng, alphabet, n, 30))


def _solver_corpus():
    """Seeded solver inputs: the criterion 3 oracle pairs, near-identical
    pairs, point masses, single-row / single-column shapes, and atoms no arc
    can carry."""
    for _, _, atoms_a, atoms_b in _oracle_pairs():
        yield _instance(atoms_a, atoms_b)
    rng = np.random.default_rng(1705)
    for n in (2, 3, 4, 5, 5, 5):
        # a product law against the product of its own marginals: the two
        # differ by round-off only (about 1e-17), as in a small-tc carve
        cube = list(itertools.product((0, 1), repeat=n))

        def product(margs):
            return {w: math.prod(margs[i][x] for i, x in enumerate(w)) for w in cube}

        mu = product([rng.dirichlet(np.ones(2)).tolist() for _ in range(n)])
        again = [[0.0, 0.0] for _ in range(n)]
        for w, m in mu.items():
            for i, x in enumerate(w):
                again[i][x] += m
        prod = product(again)
        yield _instance(mu, prod)
        yield _instance(prod, mu)
        # one-ulp jitter on a few atoms of a uniform law
        a = np.full(len(cube), 1.0 / len(cube))
        b = a.copy()
        hit = rng.choice(len(cube), size=max(len(cube) // 4, 1), replace=False)
        b[hit] = np.nextafter(b[hit], np.where(rng.random(len(hit)) < 0.5,
                                                -np.inf, np.inf))
        yield a, b, mismatch_matrix(cube, cube)
    for k in (1, 2, 5, 12):
        words = _random_words(rng, 4, k)
        masses = rng.dirichlet(np.ones(k))
        point = _random_words(rng, 4, 1)
        yield np.array([1.0]), masses, mismatch_matrix(point, words)
        yield masses, np.array([1.0]), mismatch_matrix(words, point)
        other = _random_words(rng, 4, k)
        yield masses, rng.dirichlet(np.ones(k)), mismatch_matrix(words, other)
    words = _random_words(rng, 5, 2)
    yield np.array([1.0]), np.array([1.0]), mismatch_matrix(words[:1], words[1:])
    # an atom of round-off size that the diagonal leaves no room for: a row,
    # then a column, with no arc of positive flow
    pair = [(0, 0), (1, 1)]
    yield np.array([1e-17, 1.0]), np.array([1.0]), mismatch_matrix(pair, pair[1:])
    yield np.array([1.0]), np.array([1e-17, 1.0]), mismatch_matrix(pair[1:], pair)


#: sha256 of every corpus solve (basic arcs with flows, u, v), recorded from
#: the solver that starts on the diagonal (``_diagonal_start``); the second
#: with Bland's rule taking over at the first degenerate pivot
SOLVER_CORPUS_DIGEST = "2ddea6ac070c47ddb4036a8282bf83ccb39263a93a96968eca8505a86885597c"
SOLVER_CORPUS_BLAND_DIGEST = "2f5b4b5a589e4c0db65c665b87b367465a77f9c56e5ab89a16800ec7b35fa151"


def _corpus_digest():
    h = hashlib.sha256()
    for a, b, cost in _solver_corpus():
        flow, u, v, _, _ = _solve_transport(a, b, cost)
        arcs = [(int(i), int(j), float(m).hex()) for (i, j), m in sorted(flow.items())]
        h.update(repr((arcs, [int(x) for x in u], [int(x) for x in v])).encode())
    return h.hexdigest()


def test_solver_corpus_pins_pivot_sequence():
    # bitwise flows and integer potentials identify the pivot sequence
    assert _corpus_digest() == SOLVER_CORPUS_DIGEST


def test_solver_corpus_pins_bland_fallback(monkeypatch):
    # no corpus solve has a degenerate streak long enough to reach Bland's
    # rule, so force it from the first degenerate pivot
    monkeypatch.setattr(transport_module, "BLAND_STREAK_PER_NODE", 0)
    assert _corpus_digest() == SOLVER_CORPUS_BLAND_DIGEST


def _check_solution(a, b, cost, flow, u, v) -> float:
    """Check a solve without reference to any golden: the basis is a spanning
    tree, complementary slackness holds on it and dual feasibility
    everywhere, and the plan has marginals a and b to 1e-12.  Returns the
    plan's cost in mismatch counts, for comparison with an LP oracle."""
    nr, nc = cost.shape
    # the basis is a spanning tree: R+C-1 arcs that connect all R+C nodes
    assert len(flow) == nr + nc - 1
    adj = {k: [] for k in range(nr + nc)}
    for i, j in flow:
        adj[i].append(nr + j)
        adj[nr + j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert len(seen) == nr + nc
    for i, j in flow:
        assert u[i] + v[j] == cost[i, j]
    assert (cost - u[:, None] - v[None, :]).min() >= 0
    plan = np.zeros((nr, nc))
    for (i, j), m in flow.items():
        assert m >= 0.0
        plan[i, j] = m
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
    return float((plan * cost).sum())


def test_solver_corpus_solutions_are_optimal():
    # the independent checks behind the two goldens, on every corpus entry
    for a, b, cost in _solver_corpus():
        flow, u, v, _, _ = _solve_transport(a, b, cost)
        total = _check_solution(a, b, cost, flow, u, v)
        assert abs(total - lp_coupling_cost(a, b, cost)) <= 1e-10


#: (pivots, degenerate pivots) of the corpus entries 200-217 (product law
#: against its own product of marginals, the reverse, one-ulp jitter of a
#: uniform law, for n = 2, 3, 4, 5, 5, 5), recorded from the solver that
#: started at the north-west corner; the diagonal start must take at most a
#: quarter of each
NORTHWEST_PIVOTS = (
    (2, 2), (2, 2), (1, 0), (3, 3), (4, 4), (6, 5), (23, 10), (19, 9),
    (16, 13), (45, 9), (34, 9), (57, 53), (60, 11), (58, 13), (48, 40),
    (30, 15), (31, 11), (55, 50))
#: the same counts from the diagonal start
DIAGONAL_PIVOTS = (
    (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
    (1, 1), (0, 0), (0, 0), (10, 9), (0, 0), (0, 0), (3, 3), (3, 3),
    (0, 0), (0, 0))


def test_near_identical_corpus_entries_take_few_pivots():
    near = list(_solver_corpus())[200:218]
    counts = tuple(_solve_transport(a, b, cost)[3:] for a, b, cost in near)
    assert counts == DIAGONAL_PIVOTS
    for (pivots, degenerate), (old_pivots, old_degenerate) in zip(
            counts, NORTHWEST_PIVOTS):
        assert 4 * pivots <= old_pivots and 4 * degenerate <= old_degenerate


# -----------------------------------------------------------------------------
# the Hamming graph solver
# -----------------------------------------------------------------------------
def _check_graph_solution(supply, q, n, parent, flow, up, y) -> float:
    """Check a graph solve without reference to any golden: the tree spans
    the words, its arcs are arcs of the graph, tight, and carry no negative
    flow, every arc is dual feasible, and the flow meets the supplies to
    1e-12.  Returns the total flow, the distance in mismatch counts."""
    _, tails, heads = transport_module._hamming_graph(q, n)
    arcs = set(zip(tails.tolist(), heads.tolist()))
    size = len(supply)
    assert parent[0] == -1 and all(0 <= parent[k] < size for k in range(1, size))
    for k in range(1, size):
        hops = 0
        node = k
        while node:
            node, hops = parent[node], hops + 1
            assert hops < size  # no cycle: every word reaches the root
    assert int((y[tails] - y[heads]).max()) <= 1
    net = list(supply)
    total = 0.0
    for k in range(1, size):
        t, h = (k, parent[k]) if up[k] else (parent[k], k)
        assert (t, h) in arcs and y[t] - y[h] == 1
        assert flow[k] >= 0.0
        net[t] -= flow[k]
        net[h] += flow[k]
        total += flow[k]
    assert max(abs(m) for m in net) <= 1e-12
    return total


def _forced_graph_distance(mu, nu):
    """``transport_distance`` with the Hamming graph solver whatever the
    selection rule says."""
    with mock.patch.object(transport_module, "_graph_is_smaller",
                           lambda *args: True):
        return transport_distance(mu, nu)


def test_graph_solver_matches_oracle_on_corpus_pairs():
    for q, n, atoms_a, atoms_b in _oracle_pairs():
        space = ProductSpace(q, n)
        cost, plan = _forced_graph_distance(DiscreteMeasure(space, atoms_a),
                                            DiscreteMeasure(space, atoms_b))
        assert abs(cost - lp_transport_cost(atoms_a, atoms_b, n)) <= 1e-10
        plan.check_marginals(tol=1e-12)


#: (pivots, degenerate pivots) of the graph solver on the corpus entries
#: 200-217, all on the full cube {0,1}^n in cube order
GRAPH_PIVOTS = (
    (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
    (8, 7), (0, 0), (4, 4), (24, 24), (0, 0), (0, 0), (27, 25), (0, 0),
    (0, 0), (0, 0))


def test_near_identical_corpus_entries_take_few_graph_pivots():
    near = list(_solver_corpus())[200:218]
    counts = []
    for a, b, cost in near:
        n = len(a).bit_length() - 1
        supply = (a - b).tolist()
        parent, _, flow, up, y, pivots, degenerate = \
            transport_module._solve_graph(supply, 2, n)
        total = _check_graph_solution(supply, 2, n, parent, flow, up, y)
        assert abs(total - lp_coupling_cost(a, b, cost)) <= 1e-10
        assert pivots <= len(a)  # at most one pivot per word
        counts.append((pivots, degenerate))
    assert tuple(counts) == GRAPH_PIVOTS


def _graph_coupling_corpus():
    """Seeded ``_exact_coupling`` inputs ``(src, a, tgt, b, q)`` on which the
    Hamming graph is the smaller graph: laws on {0,1}^5 against the products
    of their marginals, either way round (a small-tc carve's solve; on a
    product law the two differ by round-off), and dense pairs on {0,1,2}^3
    and {0,..,3}^3, random or one-ulp neighbours."""
    rng = np.random.default_rng(2306)
    space = ProductSpace(2, 5)
    cube = list(itertools.product((0, 1), repeat=5))
    for k in range(12):
        if k % 3 == 0:
            mu = product_measure(space, [rng.dirichlet(np.ones(2)).tolist()
                                         for _ in range(5)])
        else:
            mu = DiscreteMeasure(space, dict(zip(cube, rng.dirichlet(np.ones(32)).tolist())))
        prod = product_measure(space, [[marginal(mu, [i]).mass((s,)) for s in (0, 1)]
                                       for i in range(5)])
        yield prod.digits, prod.masses, mu.digits, mu.masses, 2
        if k % 2:
            yield mu.digits, mu.masses, prod.digits, prod.masses, 2
    for q, low in ((3, 14), (4, 25)):
        cube = np.array(list(itertools.product(range(q), repeat=3)))
        for k in range(6):
            sizes = rng.integers(low, len(cube) + 1, size=2)
            src, tgt = (np.sort(rng.choice(len(cube), size=s, replace=False)) for s in sizes)
            a, b = rng.dirichlet(np.ones(len(src))), rng.dirichlet(np.ones(len(tgt)))
            if k % 2:
                tgt, b = src, a.copy()
                hit = rng.choice(len(b), size=len(b) // 3, replace=False)
                b[hit] = np.nextafter(b[hit], np.where(rng.random(len(hit)) < 0.5,
                                                        -np.inf, np.inf))
            yield cube[src], a, cube[tgt], b, q


#: sha256 of ``_exact_coupling`` on the graph coupling corpus (index pairs,
#: masses, mismatch counts, cost, u, v), recorded from the solver that built
#: one coupling per call; the second with Bland's rule taking over at the
#: first degenerate pivot
GRAPH_COUPLING_DIGEST = "be08e01c3303ab45bee6d5c4759544ba0681fb686c6fbf73ab298cbbb38a5982"
GRAPH_COUPLING_BLAND_DIGEST = "5886ebcc0d8174833cc2f552a8b68e102281bf902a619cd6379deea48b8878f8"


def _graph_coupling_digest():
    h = hashlib.sha256()
    for src, a, tgt, b, q in _graph_coupling_corpus():
        assert transport_module._graph_is_smaller(q, src.shape[1], len(a), len(b))
        rows, cols, mass, counts, cost, u, v = transport_module._exact_coupling(
            src, a, tgt, b, q)
        h.update(repr((rows.tolist(), cols.tolist(), [m.hex() for m in mass.tolist()],
                       counts.tolist(), float(cost).hex(), u.tolist(), v.tolist())).encode())
    return h.hexdigest()


def test_graph_coupling_corpus_pinned():
    assert _graph_coupling_digest() == GRAPH_COUPLING_DIGEST


def test_graph_coupling_corpus_pins_bland_fallback(monkeypatch):
    monkeypatch.setattr(transport_module, "BLAND_STREAK_PER_NODE", 0)
    assert _graph_coupling_digest() == GRAPH_COUPLING_BLAND_DIGEST


def _same_coupling(got, want):
    for x, y in zip(got[:4] + got[5:], want[:4] + want[5:]):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert float(got[4]).hex() == float(want[4]).hex()


def test_coupling_batch_matches_one_row_calls(monkeypatch):
    # rows of masses on two shared tables of words, zero at a missing atom,
    # through every route: the Hamming graph, the transportation simplex,
    # identical pairs on either side of the selection rule
    rng = np.random.default_rng(23)
    cube = np.array(list(itertools.product((0, 1), repeat=5)))
    src, tgt = cube[3:], cube
    a, b = np.zeros((8, len(src))), np.zeros((8, len(tgt)))
    for r, (k_src, k_tgt) in enumerate(((29, 32), (20, 25), (29, 32), (5, 6),
                                        (1, 3), (20, 20), (4, 4), (29, 30))):
        a[r, rng.choice(len(src), size=k_src, replace=False)] = rng.dirichlet(np.ones(k_src))
        b[r, rng.choice(len(tgt), size=k_tgt, replace=False)] = rng.dirichlet(np.ones(k_tgt))
    for r in (2, 7):    # near products: their supplies are round-off
        b[r] = 0.0
        b[r, 3:][a[r] > 0.0] = np.nextafter(a[r][a[r] > 0.0], 1.0)
    for r in (5, 6):    # identical, on the graph (20 x 20 > 160) and off it
        b[r] = 0.0
        b[r, 3:] = a[r]
    solves = []
    real = transport_module._solve_graph
    monkeypatch.setattr(transport_module, "_solve_graph",
                        lambda *args: solves.append(args) or real(*args))
    batch = transport_module._exact_couplings(src, a, tgt, b, 2)
    assert len(batch) == len(a) and len(solves) == 4    # rows 0, 1, 2 and 7
    for got, ar, br in zip(batch, a, b):
        _same_coupling(got, transport_module._exact_coupling(
            src[ar > 0.0], ar[ar > 0.0], tgt[br > 0.0], br[br > 0.0], 2))
    assert batch[5][4] == batch[6][4] == 0.0
    assert not transport_module._graph_is_smaller(2, 5, 5, 6)


@st.composite
def graph_instances(draw):
    """Two measures on {0,..,q-1}^n, q in {2, 3}: random pairs, one-ulp
    neighbours, a point mass against a measure, and disjoint supports."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(q), repeat=n))

    def atoms(support):
        w = np.array(draw(st.lists(st.integers(1, 6), min_size=len(support),
                                   max_size=len(support))), float)
        return dict(zip(sorted(support), (w / w.sum()).tolist()))

    support = draw(st.lists(st.sampled_from(cube), min_size=1,
                            max_size=len(cube), unique=True))
    atoms_a = atoms(support)
    kind = draw(st.sampled_from(("random", "near", "point", "disjoint")))
    if kind == "near":
        steps = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=len(atoms_a),
                              max_size=len(atoms_a)))
        atoms_b = {w: m if step == 0 else float(np.nextafter(m, step * math.inf))
                   for (w, m), step in zip(atoms_a.items(), steps)}
    elif kind == "point":
        atoms_b = {draw(st.sampled_from(cube)): 1.0}
    elif kind == "disjoint" and len(support) < len(cube):
        rest = [w for w in cube if w not in atoms_a]
        atoms_b = atoms(draw(st.lists(st.sampled_from(rest), min_size=1,
                                      max_size=len(rest), unique=True)))
    else:
        atoms_b = atoms(draw(st.lists(st.sampled_from(cube), min_size=1,
                                      max_size=len(cube), unique=True)))
    if draw(st.booleans()):
        atoms_a, atoms_b = atoms_b, atoms_a
    return q, n, atoms_a, atoms_b


@given(graph_instances())
@settings(max_examples=150, deadline=None)
def test_graph_solver_matches_transportation_simplex(instance):
    q, n, atoms_a, atoms_b = instance
    space = ProductSpace(q, n)
    cost, plan = _forced_graph_distance(DiscreteMeasure(space, atoms_a),
                                        DiscreteMeasure(space, atoms_b))
    a, b, mismatches = _instance(atoms_a, atoms_b)
    flow, _, _, _, _ = _solve_transport(a, b, mismatches)
    simplex = 0.0
    for (i, j), m in sorted(flow.items()):
        simplex += m * mismatches[i, j]
    assert abs(cost - simplex / n) <= 1e-12
    assert abs(cost - lp_transport_cost(atoms_a, atoms_b, n)) <= 1e-10
    plan.check_marginals(tol=1e-12)
    _, gap = dual_gap(plan)
    assert abs(gap) <= 1e-12


@pytest.mark.parametrize("q, n, k_src, k_tgt, graph", [
    (2, 3, 4, 6, False),   # 24 support pairs, 24 graph arcs
    (2, 3, 5, 5, True),    # 25 pairs
    (3, 2, 6, 6, False),   # 36 pairs, 36 graph arcs
    (3, 2, 5, 8, True),    # 40 pairs
])
def test_selection_rule_picks_the_smaller_graph(monkeypatch, q, n, k_src, k_tgt,
                                                graph):
    calls = []
    for name in ("_solve_graph", "_solve_transport"):
        real = getattr(transport_module, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(transport_module, name, spy)
    cube = list(itertools.product(range(q), repeat=n))
    rng = np.random.default_rng(k_src * k_tgt)
    space = ProductSpace(q, n)
    mu = DiscreteMeasure(space, dict(zip(cube[:k_src],
                                         rng.dirichlet(np.ones(k_src)).tolist())))
    nu = DiscreteMeasure(space, dict(zip(cube[-k_tgt:],
                                         rng.dirichlet(np.ones(k_tgt)).tolist())))
    cost, _ = transport_distance(mu, nu)
    assert calls == ["_solve_graph" if graph else "_solve_transport"]
    assert abs(cost - lp_transport_cost(dict(mu.atoms), dict(nu.atoms), n)) <= 1e-10


@pytest.mark.parametrize("reg", [1e-4, 1e-5, 1e-300])
def test_sinkhorn_bias_bound_holds_at_tiny_reg(reg):
    # at these regularizations the iteration stops at its cap or underflows
    # to the product coupling; the reported bound must still hold
    rng = np.random.default_rng(11)
    cube = list(itertools.product((0, 1), repeat=3))
    space = ProductSpace(2, 3)
    for _ in range(20):
        mu = DiscreteMeasure(space, dict(zip(cube, rng.dirichlet(np.ones(8)).tolist())))
        nu = DiscreteMeasure(space, dict(zip(cube, rng.dirichlet(np.ones(8)).tolist())))
        exact, _ = transport_distance(mu, nu)
        approx, plan = transport_distance(mu, nu, method="sinkhorn", reg=reg)
        plan.check_marginals(tol=1e-8)
        assert not plan.exact and plan.bias_bound >= 0.0
        assert exact - 1e-12 <= approx <= exact + plan.bias_bound + 1e-12


@st.composite
def transport_instances(draw):
    """Two small measures on {0,1,2}^n with integer weights, so that tied
    masses make degenerate pivots common.  In the near-identical arm the
    second is the first with each mass moved down one ulp, up one ulp, or
    left alone (an exact tie a_w == b_w), as a measure and its own product of
    marginals are."""
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(3), repeat=n))
    words = st.lists(st.sampled_from(cube), min_size=1, max_size=8, unique=True)
    weights = st.integers(1, 6)

    def atoms(support):
        w = np.array(draw(st.lists(weights, min_size=len(support),
                                   max_size=len(support))), float)
        return dict(zip(sorted(support), (w / w.sum()).tolist()))

    atoms_a = atoms(draw(words))
    if draw(st.booleans()):
        steps = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=len(atoms_a),
                              max_size=len(atoms_a)))
        atoms_b = {w: m if step == 0 else float(np.nextafter(m, step * math.inf))
                   for (w, m), step in zip(atoms_a.items(), steps)}
    else:
        atoms_b = atoms(draw(words))
    return n, atoms_a, atoms_b


@given(transport_instances())
@settings(max_examples=150, deadline=None)
def test_solver_invariants(instance):
    n, atoms_a, atoms_b = instance
    a, b, cost = _instance(atoms_a, atoms_b)
    flow, u, v, _, _ = _solve_transport(a, b, cost)
    total = _check_solution(a, b, cost, flow, u, v) / n
    assert abs(total - lp_transport_cost(atoms_a, atoms_b, n)) <= 1e-10


def test_distance_to_self_zero(rng):
    mu = random_measure(rng, 2, 3, 8)
    cost, plan = transport_distance(mu, mu)
    assert cost == 0.0
    plan.check_marginals()


def test_distance_between_point_masses():
    sp = ProductSpace(2, 4)
    a = DiscreteMeasure.point_mass(sp, (0, 0, 1, 1))
    b = DiscreteMeasure.point_mass(sp, (0, 1, 1, 0))
    cost, _ = transport_distance(a, b)
    assert math.isclose(cost, 0.5)


def test_halfway_split_example():
    sp = ProductSpace(2, 2)
    mu = DiscreteMeasure.point_mass(sp, (0, 0))
    nu = DiscreteMeasure.uniform_on(sp, [(0, 1), (1, 0)])
    cost, plan = transport_distance(mu, nu)
    assert math.isclose(cost, 0.5)
    cert, gap = dual_gap(plan)
    assert abs(gap) <= 1e-8
    assert cert.lipschitz_slack() <= 1e-10


def test_matches_lp_oracle_random(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        alphabet = int(rng.integers(2, 4))
        mu = random_measure(rng, alphabet, n, 15)
        nu = random_measure(rng, alphabet, n, 15)
        cost, plan = transport_distance(mu, nu)
        oracle = lp_transport_cost(dict(mu.atoms), dict(nu.atoms), n)
        assert abs(cost - oracle) < 1e-10
        plan.check_marginals()
        cert, gap = dual_gap(plan)
        assert abs(gap) <= 1e-8
        assert cert.lipschitz_slack() <= 1e-10


def test_metric_axioms(rng):
    for _ in range(25):
        mus = [random_measure(rng, 2, 4, 10) for _ in range(3)]
        d01, _ = transport_distance(mus[0], mus[1])
        d10, _ = transport_distance(mus[1], mus[0])
        d12, _ = transport_distance(mus[1], mus[2])
        d02, _ = transport_distance(mus[0], mus[2])
        assert abs(d01 - d10) <= 1e-10
        assert d02 <= d01 + d12 + 1e-8
        assert d01 >= 0.0


def test_cap_exceeded_directs_to_approx(rng):
    mu = random_measure(rng, 2, 4, 12)
    nu = random_measure(rng, 2, 4, 12)
    with pytest.raises(SupportCapExceeded, match="sinkhorn"):
        transport_distance(mu, nu, cap=4)
    cost_apx, plan = transport_distance(mu, nu, method="sinkhorn", reg=1e-3)
    cost, _ = transport_distance(mu, nu)
    assert not plan.exact
    plan.check_marginals(tol=1e-8)
    assert cost_apx >= cost - 1e-9
    assert cost_apx <= cost + plan.bias_bound + 1e-6


@pytest.mark.parametrize("method", ["auto", "Sinkhorn", "lp"])
def test_unknown_method_rejected(method):
    mu = two_cluster(3)
    with pytest.raises(MeasureError, match="unknown transport method"):
        transport_distance(mu, biased_product(3, 0.4), method=method)


def test_dual_gap_needs_exact_plan_with_potentials():
    mu, nu = two_cluster(3), biased_product(3, 0.4)
    _, approx = transport_distance(mu, nu, method="sinkhorn")
    _, exact = transport_distance(mu, nu)
    bare = TransportPlan(mu, nu, exact.plan, exact.cost)
    for plan in (approx, bare):
        with pytest.raises(MeasureError, match="exact plan with solver potentials"):
            dual_gap(plan)


# -----------------------------------------------------------------------------
# classical bounds
# -----------------------------------------------------------------------------
def test_tv_bound(rng):
    # dbar <= half the variation norm (diameter 1)
    for _ in range(20):
        mu = random_measure(rng, 2, 3, 8)
        nu = random_measure(rng, 2, 3, 8)
        cost, _ = transport_distance(mu, nu)
        assert cost <= 0.5 * variation_norm(mu, nu) + 1e-10


def test_tv_partition_bound(rng):
    for _ in range(15):
        mu = random_measure(rng, 2, 4, 12)
        nu = random_measure(rng, 2, 4, 12)
        words = sorted(set(mu.support) | set(nu.support))
        k = int(rng.integers(1, 4))
        blocks = [[] for _ in range(k)]
        for w in words:
            blocks[int(rng.integers(0, k))].append(w)
        blocks = [b for b in blocks if b]
        cost, _ = transport_distance(nu, mu)
        assert cost <= tv_partition_bound(mu, nu, blocks) + 1e-10


def test_marton_and_pinsker(rng):
    for _ in range(80):
        n = int(rng.integers(1, 4))
        dists = [rng.dirichlet(np.ones(2)) for _ in range(n)]
        mu = product_measure(ProductSpace(2, n), [list(d) for d in dists])
        nu = random_measure(rng, 2, n, 8)
        div = kl_divergence(nu, mu)
        if math.isinf(div):
            continue
        cost, _ = transport_distance(nu, mu)
        assert cost <= math.sqrt(div / (2 * n)) + 1e-8
        assert variation_norm(mu, nu) <= math.sqrt(2 * div) + 1e-8


# -----------------------------------------------------------------------------
# product coupling bound
# -----------------------------------------------------------------------------
def test_product_coupling_bound_on_product():
    mu = biased_product(2, 0.3)
    nu = biased_product(2, 0.6)
    lam_atoms = {}
    for x, mx in mu.atoms.items():
        for y, my in nu.atoms.items():
            lam_atoms[x + y] = mx * my
    lam = DiscreteMeasure(ProductSpace(2, 4), lam_atoms)
    bound = product_coupling_bound(lam, mu, nu, 0.5)
    assert abs(bound) < 1e-10


def test_product_coupling_bound_constant_kernel():
    # correct first-block marginal, constant second-block kernel nu'
    mu = biased_product(2, 0.25)
    nu = biased_product(2, 0.5)
    nu_prime = biased_product(2, 0.9)
    lam_atoms = {}
    for x, mx in mu.atoms.items():
        for y, my in nu_prime.atoms.items():
            lam_atoms[x + y] = mx * my
    lam = DiscreteMeasure(ProductSpace(2, 4), lam_atoms)
    bound = product_coupling_bound(lam, mu, nu, 0.5)
    expected, _ = transport_distance(nu_prime, nu)
    assert abs(bound - 0.5 * expected) < 1e-10


def test_product_coupling_bound_dominates_exact(rng):
    for _ in range(10):
        lam = random_measure(rng, 2, 4, 12)
        mu = random_measure(rng, 2, 2, 4)
        nu = random_measure(rng, 2, 2, 4)
        bound = product_coupling_bound(lam, mu, nu, 0.5)
        prod_atoms = {}
        for x, mx in mu.atoms.items():
            for y, my in nu.atoms.items():
                prod_atoms[x + y] = mx * my
        prod = DiscreteMeasure(ProductSpace(2, 4), prod_atoms)
        exact, _ = transport_distance(lam, prod)
        assert bound >= exact - 1e-8


def test_product_coupling_bound_invalid_split(rng):
    lam = random_measure(rng, 2, 4, 8)
    mu = random_measure(rng, 2, 2, 4)
    nu = random_measure(rng, 2, 2, 4)
    with pytest.raises(MeasureError, match="invalid split"):
        product_coupling_bound(lam, mu, nu, 0.3)
