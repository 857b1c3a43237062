"""Refutation channels, tilting, stability transforms, and extremality gaps."""
import hashlib
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamconc import (
    DiscreteMeasure,
    MixtureRepresentation,
    MeasureError,
    ProductSpace,
    condition,
    kl_divergence,
    marginal,
    mix,
    transport_distance,
)
from hamconc.concentration import (
    DensityBound,
    Lift,
    LParams,
    RefutationBudget,
    SupCoupling,
    SupportMetric,
    TParams,
    _cube_is_cheaper,
    _dual_channel,
    _l_search_candidates,
    _row_dots,
    bobkov_gotze_objective,
    concentrate_subset,
    cumulant,
    extremality_gap,
    find_L_violation,
    gibbs_tilt,
    lipschitz_project,
    lipschitz_slack,
    propagate_t_params,
    refute_T,
    tilted_divergence,
)
from hamconc import concentration as concentration_module
from hamconc import transport as transport_module
from hamconc.transport import DIAMETER_BLOCK_ELEMENTS, mismatch_matrix
from hamconc.measures import MeasureError, product_measure

from conftest import biased_product, make_measure, random_measure, two_cluster
from oracles import hexed_candidates, lipschitz_project_1d, ranked_candidates, tilt_ascent


# -----------------------------------------------------------------------------
# Gibbs tilting and cumulants
# -----------------------------------------------------------------------------
def test_tilt_identity_at_zero(rng):
    mu = random_measure(rng, 2, 3, 8)
    out = gibbs_tilt(mu, lambda w: float(sum(w)), 0.0)
    assert all(abs(out.mass(w) - mu.mass(w)) < 1e-14 for w in mu.support)


def test_tilt_small_example():
    mu = make_measure(2, 1, {(0,): 0.5, (1,): 0.5})
    out = gibbs_tilt(mu, lambda w: float(w[0]), math.log(3))
    assert math.isclose(out.mass((0,)), 0.25, abs_tol=1e-14)
    assert math.isclose(out.mass((1,)), 0.75, abs_tol=1e-14)


def test_tilt_divergence_range_bound(rng):
    # tilted divergence is at most the squared range of the exponent
    for _ in range(20):
        mu = random_measure(rng, 2, 4, 12)
        f = {w: float(rng.random()) for w in mu.support}
        t = float(rng.uniform(0.1, 3.0))
        div = kl_divergence(gibbs_tilt(mu, f, t), mu)
        assert div <= t * t + 1e-9
        assert abs(div - tilted_divergence(mu, f, t)) < 1e-10


def test_cumulant_values(rng):
    mu = make_measure(2, 1, {(0,): 0.5, (1,): 0.5})
    assert math.isclose(cumulant(mu, lambda w: float(w[0])),
                        math.log((1 + math.e) / 2), abs_tol=1e-14)
    assert math.isclose(cumulant(mu, lambda w: 3.25), 3.25, abs_tol=1e-12)
    delta = DiscreteMeasure.point_mass(ProductSpace(2, 2), (1, 0))
    assert math.isclose(cumulant(delta, lambda w: float(sum(w))), 1.0,
                        abs_tol=1e-14)
    assert abs(cumulant(random_measure(rng, 2, 3, 6), lambda w: 0.0)) < 1e-12


# -----------------------------------------------------------------------------
# Lipschitz projection
# -----------------------------------------------------------------------------
def test_projection_idempotent_on_lipschitz(rng):
    words = list(itertools.product(range(2), repeat=4))
    metric = SupportMetric(words, 2)
    anchor = words[3]
    f = np.array([sum(a != b for a, b in zip(w, anchor)) / 4 for w in words])
    for cube in (False, True):
        out = lipschitz_project(f, metric, cube)
        assert np.abs(out - f).max() < 1e-12


def test_projection_produces_lipschitz(rng):
    words = list(itertools.product(range(2), repeat=4))
    metric = SupportMetric(words, 2)
    for _ in range(10):
        f = rng.normal(size=len(words)) * 3
        for cube in (False, True):
            out = lipschitz_project(f, metric, cube)
            assert lipschitz_slack(out, metric.dist) <= 1e-10


#: the alphabets of the projection tests, each with its largest dimension
_PROJECTION_CUBES = {2: 7, 3: 4, 4: 4, 8: 3}


@st.composite
def projection_batches(draw):
    """A support of range(q)^n, the whole cube or part of it in any order, a
    block cap small enough to split the batch on either route, and rows at
    several distances from the cone: a 1-Lipschitz row, shifted out of
    [0, 1] or not, moved by noise at several scales, from none (a row the
    projection must leave in place) to far beyond the support's diameter,
    with some entries set to +0.0 or -0.0."""
    q = draw(st.sampled_from(sorted(_PROJECTION_CUBES)))
    n = draw(st.integers(1, _PROJECTION_CUBES[q]))
    cube = list(itertools.product(range(q), repeat=n))
    if draw(st.booleans()):
        words = cube
    else:
        words = draw(st.lists(st.sampled_from(cube), min_size=1,
                              max_size=min(len(cube), 64), unique=True))
    metric = SupportMetric(words, q)
    k = len(words)
    scales = draw(st.lists(st.sampled_from([0.0, 3e-11, 0.01, 1.0, 5.0]),
                           min_size=1, max_size=12))
    shift = draw(st.sampled_from([0.0, -3.5, 7.25]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = np.array([metric.dist[0] + shift + s * rng.normal(size=k) for s in scales])
    zeros = rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3]))
    rows[zeros] = np.where(rng.random(rows.shape) < 0.5, 0.0, -0.0)[zeros]
    biggest = max(k * k, 2 * n * (q - 1) * q ** n)
    cap = draw(st.integers(1, 3 * biggest))
    return rows, metric, cap


@given(projection_batches())
@settings(max_examples=120, deadline=None)
def test_projection_of_rows_matches_each_row_alone(batch):
    # both routes give every row, bit for bit, the loop oracle's projection
    # and the one the row gets alone, whatever the blocks
    rows, metric, cap = batch
    for cube in (False, True):
        with mock.patch.object(concentration_module, "PROJECT_BLOCK_ELEMENTS", cap):
            out = lipschitz_project(rows, metric, cube)
        assert out.shape == rows.shape
        for row, got in zip(rows, out):
            for want in (lipschitz_project(row, metric),
                         lipschitz_project_1d(row, metric.dist)):
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            # the midpoint of the two tight extensions is 1-Lipschitz after one
            # pass, so a second pass, what an iterated projection would run next,
            # moves nothing beyond round-off (the bound scales with input rows
            # above 1, whose last bit is worth more than 1e-15: the round-off
            # follows the input, and the output may be far smaller)
            assert lipschitz_slack(got, metric.dist) <= 1e-12
            assert (np.abs(lipschitz_project(got, metric, cube) - got).max()
                    <= 1e-15 * max(1.0, np.abs(row).max()))


def test_projection_route_rule():
    # the cube route when its dilation costs fewer element operations than
    # the pairwise route's k^2 per row, with the fixed cost of each step
    # counted: a small batch on a small cube stays pairwise
    assert not _cube_is_cheaper(2, 6, 64, 1)
    assert not _cube_is_cheaper(2, 6, 64, 4)
    assert _cube_is_cheaper(2, 6, 64, 20)
    assert _cube_is_cheaper(2, 7, 128, 4)
    assert not _cube_is_cheaper(2, 7, 128, 1)
    # one row of a large dense support, and any sparse support in high dimension
    assert _cube_is_cheaper(2, 11, 2048, 1)
    assert _cube_is_cheaper(8, 4, 4096, 1)
    assert not _cube_is_cheaper(2, 10, 40, 200)
    assert not _cube_is_cheaper(2, 7, 64, 40)
    # a call takes the rule's route unless told, and the pairwise route
    # neither computes codes nor reads the cube
    words = list(itertools.product(range(2), repeat=6))
    metric = SupportMetric(words, 2)
    lipschitz_project(np.zeros((4, 64)), metric)
    assert "dist" in vars(metric) and "_cube" not in vars(metric)
    metric = SupportMetric(words, 2)
    lipschitz_project(np.zeros((20, 64)), metric)
    assert "dist" not in vars(metric) and vars(metric)["_cube"][1] is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_projection_rejects_non_finite_values(bad):
    words = list(itertools.product(range(3), repeat=2))
    metric = SupportMetric(words[1:], 3)
    f = np.zeros((3, len(words) - 1))
    f[1, 4] = bad
    for cube in (False, True):
        with pytest.raises(MeasureError):
            lipschitz_project(f, metric, cube)
        with pytest.raises(MeasureError):
            lipschitz_project(f[1], metric, cube)


def test_row_reductions_match_one_dimensional_ones():
    # the batched tilt search relies on these to reproduce 1-D ``w @ f`` and
    # ``z.sum()`` bit for bit; a numpy or BLAS change that breaks it fails here
    rng = np.random.default_rng(1705)
    for k in range(1, 129):
        a = rng.random((5, k))
        b = rng.normal(size=(5, k)) * 10.0
        dots, sums = _row_dots(a, b), a.sum(axis=1)
        for i in range(5):
            assert dots[i].hex() == float(a[i] @ b[i]).hex(), k
            assert sums[i].hex() == a[i].sum().hex(), k


# -----------------------------------------------------------------------------
# refute_T
# -----------------------------------------------------------------------------
def test_point_mass_never_refuted():
    delta = DiscreteMeasure.point_mass(ProductSpace(2, 4), (0, 1, 0, 1))
    res = refute_T(delta, TParams(1000.0, 0.01))
    assert not res.refuted
    # diam = 0 <= r: the diameter bound proves it, with no search
    assert res.to_dict() == {"status": "holds", "bound": "diameter",
                             "budget_used": {"subsets_checked": 0,
                                             "restarts_run": 0,
                                             "gradient_steps": 0}}


def _distances(mu):
    support = list(mu.support)
    return mismatch_matrix(support, support) / mu.space.dimension


def _metric(mu):
    return SupportMetric(mu.support, mu.space.alphabet_size)


def _diameter(mu):
    return float(_distances(mu).max())


def test_hoeffding_bound_decides_before_search():
    mu = biased_product(6, 0.3)  # full cube, diam = 1
    res = refute_T(mu, TParams(2.4, 0.3))  # 2.4 / 8 = 0.3 <= r
    assert (res.status, res.bound, res.refuted) == ("holds", "hoeffding", False)
    assert set(res.budget_used.values()) == {0}
    res = refute_T(mu, TParams(2.5, 0.3), RefutationBudget(
        max_subsets=4, restarts=1, max_grad_steps=2))
    assert res.bound is None and "bound" not in res.to_dict()
    assert res.budget_used["restarts_run"] == 1


def test_a_priori_bounds_read_the_diameter_from_row_blocks(monkeypatch):
    # the 4096-atom product on {0,1}^12: Hoeffding decides, and the diameter
    # comes from row blocks under the element cap, not from 4096 x 4096
    mu = biased_product(12, 0.3)
    sizes = []

    def counting(src, tgt):
        sizes.append(len(src) * len(tgt))
        return mismatch_matrix(src, tgt)

    # the scan lives in transport, the search's whole matrix in concentration
    for module in (transport_module, concentration_module):
        monkeypatch.setattr(module, "mismatch_matrix", counting)
    res = refute_T(mu, TParams(2.4, 0.3))
    assert (res.status, res.bound) == ("holds", "hoeffding")
    # the first block holds the antipodal pair, so the scan stops there
    assert sizes == [DIAMETER_BLOCK_ELEMENTS // 4096 * 4096]
    # a search builds the whole matrix once; a small support is one block
    sizes.clear()
    res = refute_T(biased_product(6, 0.3), TParams(2.5, 0.3), RefutationBudget(
        max_subsets=0, restarts=1, max_grad_steps=2))
    assert res.bound is None and sizes == [64 * 64]


@pytest.mark.parametrize("kappa, r", [(math.nan, 0.1), (math.inf, 0.1),
                                      (1.0, math.nan), (1.0, math.inf),
                                      (-math.inf, 0.1)])
def test_tparams_rejects_non_finite(kappa, r):
    with pytest.raises(MeasureError, match="finite"):
        TParams(kappa, r)


def test_radius_one_never_refuted(rng):
    mu = random_measure(rng, 2, 4, 10)
    assert not refute_T(mu, TParams(5.0, 1.0)).refuted


def test_two_cluster_refuted_exactly():
    mu = two_cluster(6)
    res = refute_T(mu, TParams(50.0, 0.1))
    assert res.refuted
    # the singleton conditioning refutes: 1/2 > log(2)/50 + 0.1
    expected_margin = 0.5 - math.log(2) / 50.0 - 0.1
    assert res.conditioning_set is not None or res.witness is not None
    if res.conditioning_set is not None:
        assert abs(res.witness.violation_margin - expected_margin) < 1e-9
    # the dual objective at the stored witness is also positive
    assert bobkov_gotze_objective(mu, dict(res.witness.f),
                                  TParams(50.0, 0.1)) > 0.0


def test_refuted_witness_is_reverifiable(rng):
    for seed in range(5):
        mu = two_cluster(5, mass=0.4)
        res = refute_T(mu, TParams(40.0, 0.05),
                       RefutationBudget(seed=seed))
        assert res.refuted
        if res.conditioning_set is not None:
            cond = condition(mu, res.conditioning_set)
            cost, _ = transport_distance(cond, mu)
            div = kl_divergence(cond, mu)
            assert cost - div / 40.0 - 0.05 > 0


def test_pinsker_floor_params_never_refuted_exhaustive(rng):
    # diameter-1 spaces always satisfy the (8r, r) inequality
    for _ in range(6):
        mu = random_measure(rng, 2, 3, 7)  # support <= 7: exhaustive primal
        r = float(rng.uniform(0.05, 0.6))
        res = refute_T(mu, TParams(8 * r, r))
        assert not res.refuted


# -----------------------------------------------------------------------------
# tilted-divergence violation search
# -----------------------------------------------------------------------------
def test_product_measure_no_violation():
    mu = biased_product(6, 0.3)
    assert find_L_violation(mu, 0.3) is None


def test_trivial_r_none():
    assert find_L_violation(two_cluster(4), 1.5) is None


@pytest.mark.parametrize("field", ["max_subsets", "restarts", "max_grad_steps"])
def test_negative_budget_rejected(field):
    with pytest.raises(MeasureError, match=f"{field}=-1"):
        RefutationBudget(**{field: -1})
    assert getattr(RefutationBudget(**{field: 0}), field) == 0


def test_violation_found_with_strong_kappa():
    # two separated clusters violate the tilted-divergence inequality once the
    # tilt interval is wide enough to matter
    mu = two_cluster(6)
    witness = find_L_violation(mu, 0.3, kappa=10.0)
    assert witness is not None
    # re-verify the margin exactly: D(tilt) > (r/2)/kappa * t^2
    div = tilted_divergence(mu, dict(witness.f), -witness.t)
    assert div > (0.15 / 10.0) * witness.t ** 2
    assert math.isclose(div - (0.15 / 10.0) * witness.t ** 2,
                        witness.violation_margin, rel_tol=1e-9)
    # witness values lie in [0,1] and are 1-Lipschitz
    vals = np.array([witness.f[w] for w in mu.support])
    assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12
    dist = mismatch_matrix(list(mu.support), list(mu.support)) / 6
    assert lipschitz_slack(vals, dist) <= 1e-10


def test_paper_interval_empty_at_small_n():
    # with the default kappa = r n / 200 the interval inverts below n = 100
    # and the threshold is unattainable, so no witness is reported
    assert find_L_violation(two_cluster(6), 0.3) is None


def _tilt_corpus():
    """Seeded (measure, T-params) pairs of 8 to 81 atoms: random measures at
    moderate (kappa, r), mostly not refuted, and two-cluster measures at
    (40, 0.05), which the dual channel refutes."""
    rng = np.random.default_rng(np.random.SeedSequence(1705, spawn_key=(7,)))
    shapes = [(2, 4, 8), (2, 5, 10), (2, 6, 12), (3, 3, 9), (2, 5, 16),
              (2, 6, 24), (3, 4, 40), (3, 4, 81), (2, 8, 64), (3, 5, 32),
              (2, 7, 48), (2, 8, 20)]
    for q, n, k in shapes + shapes:
        words = set()
        while len(words) < k:
            words.add(tuple(int(x) for x in rng.integers(0, q, size=n)))
        atoms = dict(zip(sorted(words), rng.uniform(0.1, 2.0, size=k).tolist()))
        params = TParams(float(rng.uniform(1.5, 8.0)), float(rng.uniform(0.1, 0.35)))
        yield DiscreteMeasure.from_unnormalized(ProductSpace(q, n), atoms), params
    for n in range(5, 11):
        atoms = {}
        for centre in ((0,) * n, (1,) * n):
            atoms[centre] = 1.0
            for i in rng.choice(n, size=3, replace=False):
                w = list(centre)
                w[int(i)] ^= 1
                atoms[tuple(w)] = 0.2
        yield (DiscreteMeasure.from_unnormalized(ProductSpace(2, n), atoms),
               TParams(40.0, 0.05))


#: sha256 over the corpus of every ``refute_T`` result and every ranked
#: (score, t, divergence) of the tilted-divergence search, first recorded
#: before the scalar log-sum-exp copies were merged into one helper (taking
#: the log with ``np.log`` instead of ``math.log`` changes it), and
#: re-recorded when the Hoeffding bound started to decide entries 2, 11 and
#: 13, which now read "holds" with zero budget counts, and again when the
#: Lipschitz projection became one pass (the last bits of some ranked
#: scores moved; the refute_T results did not)
TILT_CORPUS_DIGEST = "2094db703d04af4a270d1b68fec428be063dfb3368649305d35db01a86bbf4b3"

#: sha256 over the ``refute_T`` results of the 27 corpus entries that neither
#: a-priori bound decides (11 of them refuted), recorded before the bounds and
#: the primal diameter skip existed: neither may change a searched result
UNDECIDED_DIGEST = "3387578787a1819018210bc677169339837fc7566ebebf2d8ff0d195726516d2"

#: the ``refute_T`` result of corpus entry 0 (8 atoms, exhaustive primal
#: channel, not refuted), recorded before the primal diameter skip existed
OPEN_ENTRY_DIGEST = "61bcf0010841447372e0a131d35eb489510c3d1681288159a3a83384a2da0e4c"


def _corpus_budget(idx):
    return RefutationBudget(max_subsets=256, restarts=8, max_grad_steps=60,
                            seed=idx)


def _result_digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(json.dumps(res.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_tilt_corpus_pins_refutation_and_search():
    h = hashlib.sha256()
    refuted = 0
    for idx, (mu, params) in enumerate(_tilt_corpus()):
        res = refute_T(mu, params, _corpus_budget(idx))
        refuted += res.refuted
        h.update(json.dumps(res.to_dict(), sort_keys=True).encode())
        ranked = ranked_candidates(_l_search_candidates(
            _mass_rows(mu), _metric(mu), params.r, params.kappa,
            RefutationBudget(restarts=4, max_grad_steps=30, seed=idx)))
        h.update(repr([(float(score).hex(), float(t).hex(), float(div).hex())
                       for score, _, t, div in ranked]).encode())
    assert refuted == 11
    assert h.hexdigest() == TILT_CORPUS_DIGEST


def test_tilt_corpus_undecided_results_unchanged():
    undecided, bounds = [], {}
    for idx, (mu, params) in enumerate(_tilt_corpus()):
        res = refute_T(mu, params, _corpus_budget(idx))
        if res.bound is None:
            undecided.append(res)
        else:
            bounds[idx] = res.bound
    assert bounds == {2: "hoeffding", 11: "hoeffding", 13: "hoeffding"}
    assert sum(res.refuted for res in undecided) == 11
    assert _result_digest(undecided) == UNDECIDED_DIGEST


def test_primal_diameter_skip_keeps_result(monkeypatch):
    mu, params = next(iter(_tilt_corpus()))
    assert params.kappa * _diameter(mu) ** 2 / 8 > params.r
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return transport_distance(*args, **kwargs)

    monkeypatch.setattr(concentration_module, "transport_distance", counted)
    res = refute_T(mu, params, _corpus_budget(0))
    assert _result_digest([res]) == OPEN_ENTRY_DIGEST
    # every one of the 2^8 - 2 sets is counted, but only those the bound
    # leaves open are solved (all 254 were before the skip)
    assert res.budget_used["subsets_checked"] == 254
    assert 0 < len(solves) < 254


def _mass_rows(mu):
    """The ``(1, k)`` mass array of one measure, as the tilt search takes it."""
    return np.array([tuple(mu.atoms.values())])


def _search_against_oracle(mu, r, kappa, budget, t_hi=None, t_points=24):
    """Assert that the batched search ranks the candidates of the per-pair
    oracle, bit for bit; returns the oracle's stop steps."""
    dist, masses = _distances(mu), _mass_rows(mu)
    got = ranked_candidates(_l_search_candidates(
        masses, _metric(mu), r, kappa, budget, t_points=t_points,
        t_hi=None if t_hi is None else [t_hi]))
    want, stops = tilt_ascent(masses[0], dist, r, kappa, budget, t_hi=t_hi,
                              t_points=t_points)
    assert hexed_candidates(got) == hexed_candidates(want)
    return stops


def test_batched_search_matches_oracle_on_tilt_corpus():
    staggered = 0
    for idx, (mu, params) in enumerate(_tilt_corpus()):
        stops = _search_against_oracle(mu, params.r, params.kappa, RefutationBudget(
            restarts=4, max_grad_steps=30, seed=idx))
        staggered += len(set(stops)) > 1
    # rows leave the batch at different steps on most entries
    assert staggered >= 20


_SMALL_SUPPORTS = [
    make_measure(2, 3, {(0, 1, 0): 1.0}),
    make_measure(2, 3, {(0, 0, 0): 0.5, (1, 1, 1): 0.5}),
    make_measure(2, 4, {(0, 0, 0, 0): 0.9, (1, 1, 0, 1): 0.1}),
    make_measure(3, 2, {(0, 0): 0.3, (0, 2): 0.7}),
]


@pytest.mark.parametrize("steps", [0, 1, 15])
@pytest.mark.parametrize("kappa", [0.01, 10.0])
@pytest.mark.parametrize("mu", _SMALL_SUPPORTS)
def test_batched_search_matches_oracle_on_small_supports(mu, kappa, steps):
    stops = _search_against_oracle(mu, 0.3, kappa, RefutationBudget(
        restarts=2, max_grad_steps=steps), t_hi=8.0, t_points=10)
    if steps == 15:
        # every row stops at step 1 at once, which empties the batch
        assert set(stops) == {1}
    else:
        assert set(stops) == {None}


def test_spaced_rows_have_the_bits_of_linspace():
    # the search's and the separators' t-grids: np.linspace(lo, his, points,
    # axis=1) bit for bit, on random, equal (zero span) and one-ulp endpoints,
    # and on rows mixing zero and nonzero spans (numpy's subnormal path)
    rng = np.random.default_rng(5)
    for points in range(2, 31):
        lo = float(rng.normal(scale=3.0))
        up, down = np.nextafter(lo, math.inf), np.nextafter(lo, -math.inf)
        for start, his in [(lo, rng.normal(scale=3.0, size=5).tolist()),
                           (lo, [lo, lo, lo]),
                           (lo, [up, down]),
                           (lo, [lo, lo + 2.0, up]),
                           (0.0, [5e-324, -5e-324, 1.0])]:
            got = concentration_module._spaced_rows(start, his, points)
            want = np.linspace(start, np.array(his), points, axis=1)
            assert got.shape == want.shape == (len(his), points)
            assert got.tobytes() == want.tobytes(), (points, start, his)


@st.composite
def hoeffding_instances(draw):
    """A measure of at most 8 atoms and (kappa, r) with r < diam and
    kappa diam^2 / 8 <= r."""
    q = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    cube = list(itertools.product(range(q), repeat=n))
    words = draw(st.lists(st.sampled_from(cube), min_size=2, max_size=8,
                          unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(words),
                            max_size=len(words)))
    mu = DiscreteMeasure.from_unnormalized(ProductSpace(q, n),
                                           dict(zip(words, weights)))
    diam = _diameter(mu)
    r = draw(st.floats(0.01, 0.99)) * diam
    kappa = draw(st.floats(0.01, 1.0)) * 8 * r / diam ** 2
    return mu, TParams(kappa, r)


@given(hoeffding_instances())
@settings(max_examples=60, deadline=None)
def test_hoeffding_bound_is_sound(instance):
    mu, params = instance
    support = list(mu.support)
    masses = np.array([mu.atoms[w] for w in support])
    used = {"subsets_checked": 0, "restarts_run": 0, "gradient_steps": 0}
    assert _dual_channel(mu, params, RefutationBudget(restarts=8), support,
                         masses, _metric(mu), used) is None
    # exhaustively, no conditioning set violates the inequality
    for size in range(1, len(support)):
        for cell in itertools.combinations(support, size):
            cost, _ = transport_distance(condition(mu, cell), mu)
            div = -math.log(sum(mu.atoms[w] for w in cell))
            assert cost - div / params.kappa - params.r <= 1e-9


# -----------------------------------------------------------------------------
# concentrate_subset
# -----------------------------------------------------------------------------
def test_concentrate_identity_case():
    mu = biased_product(4, 0.5)
    cell, params = concentrate_subset(transport_distance(mu, mu)[1],
                                      TParams(9.6, 0.3), 0.0)
    assert set(cell) == set(mu.support)
    assert math.isclose(params.r, 2 * math.log(4) / 9.6 + 4 * 0.3)
    assert params.kappa == 9.6


def test_concentrate_mass_floor(rng):
    for _ in range(10):
        mu = biased_product(4, 0.3)
        step = float(rng.uniform(0.0, 0.1))
        # contaminate: keep within dbar <= step^2 of mu
        other = random_measure(rng, 2, 4, 6)
        lam = float(min(1.0, step * step))
        nu = mix(MixtureRepresentation((1 - lam, lam), (mu, other)))
        cost, plan = transport_distance(mu, nu)
        delta = math.sqrt(max(cost, 0.0))
        if delta >= 0.125:
            continue
        cell, params = concentrate_subset(plan, TParams(8 * 0.3 * 4, 0.3), delta)
        mass = sum(nu.mass(w) for w in cell)
        assert mass >= 1 - 4 * delta - 1e-9


def test_concentrate_excludes_far_contaminant():
    # (1-d^2) mu + d^2 mu' with far mu': the kept set drops the contaminant
    n = 6
    mu = DiscreteMeasure.point_mass(ProductSpace(2, n), (0,) * n)
    far = DiscreteMeasure.point_mass(ProductSpace(2, n), (1,) * n)
    d2 = 0.01
    nu = mix(MixtureRepresentation((1 - d2, d2), (mu, far)))
    cell, _ = concentrate_subset(transport_distance(mu, nu)[1], TParams(50.0, 0.05), 0.1)
    assert (1,) * n not in cell
    assert (0,) * n in cell


def test_concentrate_rejects_bad_delta():
    mu = two_cluster(3)
    with pytest.raises(MeasureError):
        concentrate_subset(transport_distance(mu, mu)[1], TParams(1.0, 0.1), 0.2)


# -----------------------------------------------------------------------------
# parameter propagation (exact arithmetic)
# -----------------------------------------------------------------------------
def test_propagate_density_bound_trivial():
    p = propagate_t_params(TParams(10.0, 0.05), DensityBound(1.0))
    assert p.kappa == 10.0 and p.r == 0.1


def test_propagate_exact_rationals():
    kappa = Fraction(7, 2)
    r = Fraction(1, 5)
    p = propagate_t_params(TParams(kappa, r), SupCoupling(Fraction(1, 8)))
    assert p.kappa == kappa and p.r == Fraction(1, 5) + Fraction(1, 4)
    p = propagate_t_params(TParams(kappa, r), Lift(Fraction(1, 3)))
    assert p.kappa == kappa / (1 - Fraction(1, 3))
    assert p.r == (1 - Fraction(1, 3)) * r + Fraction(1, 3)
    p = propagate_t_params(TParams(kappa, r), DensityBound(1))
    assert p.r == 2 * r


def test_propagate_float_formulas(rng):
    for _ in range(20):
        kappa = float(rng.uniform(0.5, 30))
        r = float(rng.uniform(0.01, 0.5))
        m = float(rng.uniform(1.0, 9.0))
        d = float(rng.uniform(0.0, 0.4))
        a = float(rng.uniform(0.0, 0.9))
        out = propagate_t_params(TParams(kappa, r), DensityBound(m))
        assert Fraction(out.r) == Fraction(2 * math.log(m) / kappa + 2 * r)
        out = propagate_t_params(TParams(kappa, r), SupCoupling(d))
        assert Fraction(out.r) == Fraction(r + 2 * d)
        out = propagate_t_params(TParams(kappa, r), Lift(a))
        assert Fraction(out.kappa) == Fraction(kappa / (1 - a))
        assert Fraction(out.r) == Fraction((1 - a) * r + a)


def test_propagate_invalid_parameters():
    with pytest.raises(MeasureError):
        propagate_t_params(TParams(1.0, 0.1), DensityBound(0.5))
    with pytest.raises(MeasureError):
        propagate_t_params(TParams(1.0, 0.1), SupCoupling(-0.1))
    with pytest.raises(MeasureError):
        propagate_t_params(TParams(1.0, 0.1), Lift(1.0))


def test_tparams_partial_order():
    assert TParams(10, 0.1).implies(TParams(5, 0.2))
    assert not TParams(5, 0.2).implies(TParams(10, 0.1))
    with pytest.raises(MeasureError):
        TParams(-1, 0.1)
    with pytest.raises(MeasureError):
        LParams(3, 2, 0.1)


# -----------------------------------------------------------------------------
# extremality
# -----------------------------------------------------------------------------
def test_extremality_trivial_representation(rng):
    mu = random_measure(rng, 2, 3, 8)
    rep = MixtureRepresentation((1.0,), (mu,))
    report = extremality_gap(rep, 10.0)
    assert report.lhs == 0.0 and report.rhs_kl == 0.0
    assert report.r_required == 0.0


def test_extremality_far_product_mixture():
    # two far product factors: displacement dominates the divergence term
    a = biased_product(4, 0.05)
    b = biased_product(4, 0.95)
    rep = MixtureRepresentation((0.5, 0.5), (a, b))
    report = extremality_gap(rep, 1e6)
    assert report.r_required > 0.25
    assert abs(report.r_required - report.lhs) < 1e-4


def _random_representation(rng, mu, k=3):
    """A random mixture representation of mu via a random fuzzy partition."""
    from hamconc import FuzzyPartition, fuzzy_split
    raw = rng.random((k, len(mu.support))) + 0.05
    raw /= raw.sum(axis=0)
    return fuzzy_split(mu, FuzzyPartition(mu.space, mu.support, raw))


def test_extremality_perturbation_stability(rng):
    # transporting a representation along an optimal coupling costs at most
    # twice the distance between the measures
    for _ in range(12):
        mu_prime = random_measure(rng, 2, 3, 8)
        mu = random_measure(rng, 2, 3, 8)
        kappa = float(rng.uniform(1.0, 40.0))
        rep_prime = _random_representation(rng, mu_prime)
        delta, plan = transport_distance(mu_prime, mu)
        # disintegrate the coupling over the first coordinate
        lam = {}
        for (x, y), m in plan.plan.items():
            lam.setdefault(x, {})[y] = lam.get(x, {}).get(y, 0.0) + m
        transported = []
        for comp in rep_prime.components:
            raw = {}
            for x, m in comp.atoms.items():
                row = lam[x]
                total = sum(row.values())
                for y, v in row.items():
                    raw[y] = raw.get(y, 0.0) + m * v / total
            transported.append(DiscreteMeasure.from_unnormalized(mu.space, raw))
        rep = MixtureRepresentation(rep_prime.weights, tuple(transported))
        r_prime = extremality_gap(rep_prime, kappa).r_required
        r_req = extremality_gap(rep, kappa).r_required
        assert r_prime <= r_req + 2 * delta + 1e-8


def test_extremality_product_representations(rng):
    # product components: the product representation needs no more than the
    # weighted block requirements
    for _ in range(8):
        mu = random_measure(rng, 2, 2, 4)
        nu = random_measure(rng, 2, 2, 4)
        kappa = float(rng.uniform(2.0, 30.0))
        rep_k = _random_representation(rng, mu, k=2)
        rep_l = _random_representation(rng, nu, k=2)
        comps = []
        weights = []
        for pk, ck in zip(rep_k.weights, rep_k.components):
            for pl, cl in zip(rep_l.weights, rep_l.components):
                weights.append(pk * pl)
                atoms = {}
                for x, mx in ck.atoms.items():
                    for y, my in cl.atoms.items():
                        atoms[x + y] = mx * my
                comps.append(DiscreteMeasure(ProductSpace(2, 4), atoms))
        rep = MixtureRepresentation(tuple(weights), tuple(comps))
        alpha = 0.5  # both blocks have 2 of the 4 coordinates
        r_k = extremality_gap(rep_k, alpha * kappa).r_required
        r_l = extremality_gap(rep_l, (1 - alpha) * kappa).r_required
        r_prod = extremality_gap(rep, kappa).r_required
        assert r_prod <= alpha * r_k + (1 - alpha) * r_l + 1e-8


def test_extremality_inheritance(rng):
    # nested partition refinement: the fine requirement is bounded by
    # 2a/kappa plus three times the worst coarse-side requirement
    for _ in range(10):
        mu = random_measure(rng, 2, 3, 8)
        words = list(mu.support)
        if len(words) < 4:
            continue
        kappa = float(rng.uniform(2.0, 30.0))
        quarter = max(len(words) // 4, 1)
        fine_cells = [words[i * quarter:(i + 1) * quarter] for i in range(3)]
        fine_cells.append(words[3 * quarter:])
        fine_cells = [c for c in fine_cells if c]
        coarse_cells = [fine_cells[0] + fine_cells[1],
                        sum(fine_cells[2:], [])]
        coarse_cells = [c for c in coarse_cells if c]

        def cell_rep(cells):
            weights = []
            comps = []
            for cell in cells:
                m = sum(mu.mass(w) for w in cell)
                if m > 0:
                    weights.append(m)
                    comps.append(condition(mu, cell))
            return MixtureRepresentation(tuple(weights), tuple(comps))

        rep_fine = cell_rep(fine_cells)
        rep_coarse = cell_rep(coarse_cells)
        # a = averaged divergence of fine conditionals from coarse parents
        a = 0.0
        for cell in fine_cells:
            m = sum(mu.mass(w) for w in cell)
            if m == 0:
                continue
            parent = next(c for c in coarse_cells if set(cell) <= set(c))
            a += m * kl_divergence(condition(mu, cell), condition(mu, parent))
        r_fine = extremality_gap(rep_fine, kappa).r_required
        r_coarse = extremality_gap(rep_coarse, kappa).r_required
        # middle term: each coarse conditional represented by its fine children
        r_mid = 0.0
        for coarse in coarse_cells:
            cm = sum(mu.mass(w) for w in coarse)
            children = [c for c in fine_cells if set(c) <= set(coarse)]
            rep_children = MixtureRepresentation(
                tuple(sum(mu.mass(w) for w in c) / cm for c in children),
                tuple(condition(mu, c) for c in children))
            r_mid += cm * extremality_gap(rep_children, kappa).r_required
        bound = 2 * a / kappa + 3 * max(r_coarse, r_mid, 0.0)
        assert r_fine <= bound + 1e-8


def test_extremality_lifting(rng):
    # projecting a representation to a coordinate subset: the full-space
    # requirement at kappa n/|S| is controlled by the projected requirement
    for _ in range(10):
        mu = random_measure(rng, 2, 4, 12)
        rep = _random_representation(rng, mu)
        kappa = float(rng.uniform(2.0, 20.0))
        s = (0, 2)  # keep half the coordinates
        a = 1 - len(s) / 4
        rep_s = MixtureRepresentation(
            rep.weights, tuple(marginal(c, s) for c in rep.components))
        r_s = extremality_gap(rep_s, kappa).r_required
        r_full = extremality_gap(rep, kappa * 4 / len(s)).r_required
        assert r_full <= (1 - a) * r_s + a + 1e-8


def test_extremality_bad_set_conversion(rng):
    # Markov: when the mass of components with r_y > sqrt(r) is at most
    # sqrt(r), the average budget is consistent with r
    for _ in range(10):
        r = float(rng.uniform(0.01, 0.3))
        kappa = 20.0
        weights = rng.dirichlet(np.ones(4))
        comps = [random_measure(rng, 2, 3, 6) for _ in range(4)]
        r_y = []
        for c in comps:
            rep = _random_representation(rng, c, k=2)
            r_y.append(max(extremality_gap(rep, kappa).r_required, 0.0))
        budget = sum(w * ry for w, ry in zip(weights, r_y))
        if budget <= r:
            bad_mass = sum(w for w, ry in zip(weights, r_y)
                           if ry > math.sqrt(r))
            assert bad_mass <= math.sqrt(r) + 1e-12
