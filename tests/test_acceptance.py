"""Acceptance criteria.

Each test pins one numbered criterion at its stated tolerance and runtime
budget and prints a single PASS line.  The fixture suite for the pipeline
criteria mixes two-cluster, coded, subgroup, and product-mixture measures at
n <= 8; product measures are kept separate as the never-fire controls.

The existential constants of the decomposition theorems, the literal sampling
size, and asymptotic statements are reported, never asserted.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

from hamconc import (
    DiscreteMeasure,
    MixtureRepresentation,
    ProductSpace,
    condition,
    dual_gap,
    dual_total_correlation,
    kl_divergence,
    marginal,
    mix,
    shannon_entropy,
    total_correlation,
    transport_distance,
    tv_distance,
)
from hamconc.measures import product_measure, variation_norm
from hamconc.concentration import (
    DensityBound,
    Lift,
    SupCoupling,
    TParams,
    extremality_gap,
    propagate_t_params,
)
from hamconc.decompose import (
    PipelineConfig,
    decrement_step,
    mixture_decomposition,
    partition_decomposition,
)
from hamconc.information import binary_entropy
from hamconc.processes import (
    IIDSpec,
    JointSpec,
    MarkovSpec,
    block_independence_gap,
    block_kernel,
    conditional_partition,
    exact_block_measure,
    hookup_block_kernel,
)

from conftest import (
    criterion_suite,
    diagonal_code,
    product_control_suite,
    product_mix,
    random_measure,
    subgroup_measure,
)
from oracles import decrement_checks, lp_transport_cost


def report(number, elapsed, budget, detail=""):
    line = f"CRITERION {number:2d} PASS  ({elapsed:6.1f}s / {budget:.0f}s)  {detail}"
    print(line)
    assert elapsed <= budget, f"criterion {number} exceeded its runtime budget"


# -----------------------------------------------------------------------------
# fixture suite for the pipeline criteria
# -----------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_suite():
    return criterion_suite()


@pytest.fixture(scope="module")
def product_controls():
    return product_control_suite()


# -----------------------------------------------------------------------------
# 1. information identities
# -----------------------------------------------------------------------------
def test_criterion_01_information_identities():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(500):
        alphabet = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        mu = random_measure(rng, alphabet, n, 24)
        tc_diff = total_correlation(mu)
        prod = product_measure(
            mu.space,
            [[marginal(mu, [i]).mass((a,)) for a in range(alphabet)]
             for i in range(n)])
        tc_kl = kl_divergence(mu, prod)
        assert abs(tc_diff - tc_kl) < 1e-9
        dtc = dual_total_correlation(mu)
        assert tc_diff >= -1e-10 and dtc >= -1e-10
        assert dtc <= (n - 1) * math.log(alphabet) + 1e-10
    report(1, time.monotonic() - start, 10, "500 random sparse measures")


# -----------------------------------------------------------------------------
# 2. paper-exact values
# -----------------------------------------------------------------------------
def test_criterion_02_exact_values():
    start = time.monotonic()
    for q in (2, 3, 5):
        for n in (2, 3, 4):
            mu = subgroup_measure(q, n)
            assert abs(total_correlation(mu) - math.log(q)) <= 1e-12
            assert abs(dual_total_correlation(mu)
                       - (n - 1) * math.log(q)) <= 1e-12
    for n in (2, 4, 6, 8):
        mu = diagonal_code(n)
        target = (n / 2) * math.log(2)
        assert abs(total_correlation(mu) - target) <= 1e-12
        assert abs(dual_total_correlation(mu) - target) <= 1e-12
    report(2, time.monotonic() - start, 1, "subgroups and diagonal codes")


# -----------------------------------------------------------------------------
# 3. transport correctness
# -----------------------------------------------------------------------------
def test_criterion_03_transport_against_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        alphabet = int(rng.integers(2, 4))
        mu = random_measure(rng, alphabet, n, 30)
        nu = random_measure(rng, alphabet, n, 30)
        cost, plan = transport_distance(mu, nu)
        oracle = lp_transport_cost(dict(mu.atoms), dict(nu.atoms), n)
        assert abs(cost - oracle) < 1e-10
        _, gap = dual_gap(plan)
        assert abs(gap) <= 1e-8
    for _ in range(100):
        trip = [random_measure(rng, 2, 3, 8) for _ in range(3)]
        d01, _ = transport_distance(trip[0], trip[1])
        d10, _ = transport_distance(trip[1], trip[0])
        d12, _ = transport_distance(trip[1], trip[2])
        d02, _ = transport_distance(trip[0], trip[2])
        assert abs(d01 - d10) <= 1e-8
        assert d02 <= d01 + d12 + 1e-8
    report(3, time.monotonic() - start, 60, "200 oracle pairs, 100 triples")


# -----------------------------------------------------------------------------
# 4. Marton and Pinsker
# -----------------------------------------------------------------------------
def test_criterion_04_marton_pinsker():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        dists = [(rng.dirichlet(np.ones(2)) + 0.01) for _ in range(n)]
        dists = [list(d / d.sum()) for d in dists]
        mu = product_measure(ProductSpace(2, n), dists)
        nu = random_measure(rng, 2, n, 8)
        div = kl_divergence(nu, mu)
        cost, _ = transport_distance(nu, mu)
        if cost > math.sqrt(div / (2 * n)) + 1e-8:
            violations += 1
        if variation_norm(mu, nu) > math.sqrt(2 * div) + 1e-8:
            violations += 1
    assert violations == 0
    report(4, time.monotonic() - start, 30, "1000 pairs, zero violations")


# -----------------------------------------------------------------------------
# 5. decrement soundness
# -----------------------------------------------------------------------------
def test_criterion_05_decrement_soundness(fixture_suite, product_controls):
    start = time.monotonic()
    r = 0.3
    fired = 0
    for name, mu in fixture_suite:
        split = decrement_step(mu, r)
        if split is None:
            continue
        fired += 1
        ok, info, drop = decrement_checks(mu, split.partition, r)
        n = mu.space.dimension
        assert drop >= 0.5 * info - 1e-8, name
        assert info >= r * r * math.exp(-n) / n - 1e-12, name
    for name, mu in product_controls:
        assert decrement_step(mu, r) is None, name
    report(5, time.monotonic() - start, 120,
           f"{fired}/50 fixtures fired, all products none")


# -----------------------------------------------------------------------------
# 6. mixture pipeline contract
# -----------------------------------------------------------------------------
def test_criterion_06_mixture_contract(fixture_suite):
    start = time.monotonic()
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=606)
    truncations = 0
    for name, mu in fixture_suite:
        res = mixture_decomposition(mu, cfg)
        assert tv_distance(res.reconstruct(), mu) < 1e-9, name
        if res.truncated:
            truncations += 1
        else:
            assert res.bad_mass < cfg.epsilon, name
        for i in res.good_indices():
            cert = res.certificates[i]
            assert cert is not None and not cert.refuted, name
    assert truncations == 0
    report(6, time.monotonic() - start, 600,
           "reconstruction, bad mass, certificates on 50 fixtures")


# -----------------------------------------------------------------------------
# 7. partition pipeline contract
# -----------------------------------------------------------------------------
def test_criterion_07_partition_contract(fixture_suite):
    start = time.monotonic()
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=707)
    for name, mu in fixture_suite:
        res = partition_decomposition(mu, cfg)
        words = [w for cell in res.sets for w in cell]
        assert len(words) == len(set(words)), name
        assert set(words) == set(mu.support), name
        assert res.weights[0] < cfg.epsilon, name
        bound = cfg.c * math.exp(min(cfg.c * total_correlation(mu), 700.0))
        assert len(res.sets) <= bound, name
        again = partition_decomposition(mu, cfg)
        assert json.dumps(res.to_dict(), sort_keys=True) == \
            json.dumps(again.to_dict(), sort_keys=True), name
    report(7, time.monotonic() - start, 600,
           "cover/disjoint/mass/count/determinism on 50 fixtures")


# -----------------------------------------------------------------------------
# 8. stability arithmetic
# -----------------------------------------------------------------------------
def test_criterion_08_stability_arithmetic():
    from fractions import Fraction
    start = time.monotonic()
    rng = np.random.default_rng(808)
    for _ in range(20):
        kappa = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 7)))
        r = Fraction(int(rng.integers(1, 9)), int(rng.integers(10, 40)))
        out = propagate_t_params(TParams(kappa, r), DensityBound(1))
        assert out.kappa == kappa and out.r == 2 * r
        delta = Fraction(int(rng.integers(0, 9)), 40)
        out = propagate_t_params(TParams(kappa, r), SupCoupling(delta))
        assert out.kappa == kappa and out.r == r + 2 * delta
        a = Fraction(int(rng.integers(0, 9)), 10)
        out = propagate_t_params(TParams(kappa, r), Lift(a))
        assert out.kappa == kappa / (1 - a)
        assert out.r == (1 - a) * r + a
    for _ in range(20):
        kappa = float(rng.uniform(0.5, 40.0))
        r = float(rng.uniform(0.01, 0.8))
        m = float(rng.uniform(1.0, 12.0))
        out = propagate_t_params(TParams(kappa, r), DensityBound(m))
        from fractions import Fraction as F
        assert F(out.r) == F(2 * math.log(m) / kappa + 2 * r)
    report(8, time.monotonic() - start, 1, "exact rational comparisons")


# -----------------------------------------------------------------------------
# 9. extremality calculus
# -----------------------------------------------------------------------------
def _random_rep(rng, mu, k=2):
    from hamconc import FuzzyPartition, fuzzy_split
    raw = rng.random((k, len(mu.support))) + 0.05
    raw /= raw.sum(axis=0)
    return fuzzy_split(mu, FuzzyPartition(mu.space, mu.support, raw))


def test_criterion_09_extremality_calculus():
    start = time.monotonic()
    rng = np.random.default_rng(909)

    # stability under transport perturbation
    for _ in range(100):
        mu_p = random_measure(rng, 2, 2, 4)
        mu = random_measure(rng, 2, 2, 4)
        kappa = float(rng.uniform(1.0, 30.0))
        rep_p = _random_rep(rng, mu_p)
        delta, plan = transport_distance(mu_p, mu)
        lam = {}
        for (x, y), m in plan.plan.items():
            lam.setdefault(x, {})[y] = lam.get(x, {}).get(y, 0.0) + m
        comps = []
        for comp in rep_p.components:
            raw = {}
            for x, m in comp.atoms.items():
                row = lam[x]
                tot = sum(row.values())
                for y, v in row.items():
                    raw[y] = raw.get(y, 0.0) + m * v / tot
            comps.append(DiscreteMeasure.from_unnormalized(mu.space, raw))
        rep = MixtureRepresentation(rep_p.weights, tuple(comps))
        assert extremality_gap(rep_p, kappa).r_required <= \
            extremality_gap(rep, kappa).r_required + 2 * delta + 1e-8

    # products of extremal representations
    for _ in range(100):
        mu = random_measure(rng, 2, 1, 2)
        nu = random_measure(rng, 2, 1, 2)
        kappa = float(rng.uniform(1.0, 30.0))
        rep_k = _random_rep(rng, mu)
        rep_l = _random_rep(rng, nu)
        weights, comps = [], []
        for pk, ck in zip(rep_k.weights, rep_k.components):
            for pl, cl in zip(rep_l.weights, rep_l.components):
                weights.append(pk * pl)
                atoms = {x + y: mx * my for x, mx in ck.atoms.items()
                         for y, my in cl.atoms.items()}
                comps.append(DiscreteMeasure(ProductSpace(2, 2), atoms))
        rep = MixtureRepresentation(tuple(weights), tuple(comps))
        r_k = extremality_gap(rep_k, 0.5 * kappa).r_required
        r_l = extremality_gap(rep_l, 0.5 * kappa).r_required
        assert extremality_gap(rep, kappa).r_required <= \
            0.5 * r_k + 0.5 * r_l + 1e-8

    # inheritance along refinement
    checked = 0
    while checked < 100:
        mu = random_measure(rng, 2, 2, 4)
        words = list(mu.support)
        if len(words) < 4:
            continue
        checked += 1
        kappa = float(rng.uniform(2.0, 30.0))
        fine = [[words[0]], [words[1]], [words[2]], words[3:]]
        coarse = [words[:2], words[2:]]

        def cell_rep(cells):
            ws, cs = [], []
            for cell in cells:
                m = sum(mu.mass(w) for w in cell)
                if m > 0:
                    ws.append(m)
                    cs.append(condition(mu, cell))
            return MixtureRepresentation(tuple(ws), tuple(cs))

        a = 0.0
        for cell in fine:
            m = sum(mu.mass(w) for w in cell)
            parent = next(c for c in coarse if set(cell) <= set(c))
            a += m * kl_divergence(condition(mu, cell), condition(mu, parent))
        r_fine = extremality_gap(cell_rep(fine), kappa).r_required
        r_coarse = extremality_gap(cell_rep(coarse), kappa).r_required
        r_mid = 0.0
        for cell in coarse:
            cm = sum(mu.mass(w) for w in cell)
            children = [c for c in fine if set(c) <= set(cell)]
            rep_children = MixtureRepresentation(
                tuple(sum(mu.mass(w) for w in c) / cm for c in children),
                tuple(condition(mu, c) for c in children))
            r_mid += cm * extremality_gap(rep_children, kappa).r_required
        assert r_fine <= 2 * a / kappa + 3 * max(r_coarse, r_mid, 0.0) + 1e-8

    # lifting from a coordinate subset
    for _ in range(100):
        mu = random_measure(rng, 2, 4, 10)
        rep = _random_rep(rng, mu)
        kappa = float(rng.uniform(2.0, 20.0))
        s = (0, 2)
        a = 0.5
        rep_s = MixtureRepresentation(
            rep.weights, tuple(marginal(c, s) for c in rep.components))
        r_s = extremality_gap(rep_s, kappa).r_required
        r_full = extremality_gap(rep, kappa * 2).r_required
        assert r_full <= (1 - a) * r_s + a + 1e-8

    report(9, time.monotonic() - start, 60, "4 x 100 constructed instances")


# -----------------------------------------------------------------------------
# 10. process layer
# -----------------------------------------------------------------------------
def test_criterion_10_process_layer():
    start = time.monotonic()
    p, q, n = 0.1, 0.9, 10
    mu = product_mix(n, p, q)
    c_pq = (binary_entropy((p + q) / 2)
            - 0.5 * (binary_entropy(p) + binary_entropy(q)))
    assert total_correlation(mu) >= c_pq * n - math.log(2) - 1e-9
    assert dual_total_correlation(mu) <= math.log(2) + 0.1

    joint = JointSpec(MarkovSpec.from_matrix(
        [[0.4, 0.2, 0.2, 0.2], [0.2, 0.4, 0.2, 0.2],
         [0.2, 0.2, 0.4, 0.2], [0.2, 0.2, 0.2, 0.4]]), 2, 2)
    bk = block_kernel(joint, 3)
    rebuilt = hookup_block_kernel(bk, joint)
    assert variation_norm(rebuilt, exact_block_measure(joint, 3)) <= 1e-12

    iid_joint = JointSpec(IIDSpec((0.25, 0.25, 0.25, 0.25)), 2, 2)
    assert block_independence_gap(iid_joint, 2, 2) == 0.0
    report(10, time.monotonic() - start, 60,
           f"TC >= {c_pq:.4f} n - log 2 at n=10")


# -----------------------------------------------------------------------------
# 11. conditional partition end to end
# -----------------------------------------------------------------------------
#: sha256 of the criterion-11 partitions (JSON, sorted keys), recorded from
#: the min-cost flow on the Hamming graph (4^4 words, 3,072 arcs), which the
#: solver selection takes for these full-support 256 x 256 solves
CRITERION_11_DIGEST = (
    "730be04f0afdadc2b24fa6e36857752d8ec057c8e4fc308aa51a7c0320be2ded")
#: the same with every ``dbar_to_product`` removed, recorded from the solver
#: that started at the north-west corner (and while the config still carried
#: a refutation budget, which changed no byte): a change of start moves only
#: the round-off in the distances to the product of marginals
CRITERION_11_NO_DBAR_DIGEST = (
    "75542575693c51c32da5da7f0f9f85209d962709aff5a0214cb3ee752db3640b")


def _without_dbar(obj):
    if isinstance(obj, dict):
        return {k: _without_dbar(v) for k, v in obj.items()
                if k != "dbar_to_product"}
    if isinstance(obj, list):
        return [_without_dbar(v) for v in obj]
    return obj


def test_criterion_11_conditional_partition():
    start = time.monotonic()
    rows = []
    for state in range(4):
        b, _ = divmod(state, 2)
        row = np.zeros(4)
        for b2 in range(2):
            for a2 in range(2):
                pb = 0.7 if b2 == b else 0.3
                pa = 0.6 if a2 == b2 else 0.4
                row[b2 * 2 + a2] = pb * pa
        rows.append(tuple(row / row.sum()))
    joint = JointSpec(MarkovSpec.from_matrix(rows), 2, 2)
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=1111, delta_override=0.2)
    n, ell = 8, 2
    report_obj = conditional_partition(joint, n, cfg, block_size=ell)
    assert report_obj.good_mass > 0.0
    partitions = {",".join(map(str, b)): report_obj.partitions[b].to_dict()
                  for b in report_obj.good_strings}
    for pinned, digest in ((partitions, CRITERION_11_DIGEST),
                           (_without_dbar(partitions), CRITERION_11_NO_DBAR_DIGEST)):
        text = json.dumps(pinned, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    for b in report_obj.good_strings:
        res = report_obj.partitions[b]
        words = [w for cell in res.sets for w in cell]
        assert len(words) == len(set(words)), b
        assert res.weights[0] < cfg.epsilon, b
        bound = cfg.c * math.exp(
            min(cfg.c * report_obj.tc_by_string[b], 700.0))
        assert len(res.sets) <= bound, b
    # byte-identical re-run of the whole report
    again = conditional_partition(joint, n, cfg, block_size=ell)
    for b in report_obj.good_strings:
        assert json.dumps(report_obj.partitions[b].to_dict(), sort_keys=True) \
            == json.dumps(again.partitions[b].to_dict(), sort_keys=True)
    report(11, time.monotonic() - start, 600,
           f"good mass {report_obj.good_mass:.4f} over "
           f"{len(report_obj.good_strings)} strings")
