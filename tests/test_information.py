"""Entropy, divergence, the correlation functionals, and trimming."""
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamconc import (
    DiscreteMeasure,
    FuzzyPartition,
    MixtureRepresentation,
    ProductSpace,
    condition,
    dtc_decrement,
    dual_total_correlation,
    fuzzy_mutual_information,
    fuzzy_split,
    hookup,
    info_report,
    kl_divergence,
    marginal,
    mix,
    shannon_entropy,
    total_correlation,
    trim_coordinates,
)
from hamconc.concentration import cumulant, gibbs_tilt
from hamconc.information import (
    LOO_GROUP_CACHE_SIZE,
    ROW_BLOCK_ELEMENTS,
    _dtc_rows,
    _kl_rows,
    _loo_index,
    _tc_rows,
    binary_entropy,
    conditional_coordinate_entropy,
    entropy_of_vector,
    mixture_mutual_information,
    per_coordinate_entropies,
)
from hamconc.measures import PRUNE_TOL, product_measure

from conftest import (
    biased_product,
    criterion_suite,
    diagonal_code,
    make_measure,
    product_control_suite,
    product_mix,
    random_measure,
    skewed_small_measures,
    subgroup_measure,
    two_cluster,
)
from oracles import (
    coordinate_marginals,
    dtc_direct,
    entropy_direct,
    left_sum,
    mutual_information_from_joint,
    project_joint,
    total_correlation_scalar,
)


# -----------------------------------------------------------------------------
# entropy and divergence
# -----------------------------------------------------------------------------
def test_per_coordinate_entropies_match_marginal_entropies():
    # one pass over the atoms gives the entropies of the one-coordinate
    # marginal measures bit for bit
    for _, mu in criterion_suite():
        assert per_coordinate_entropies(mu) == tuple(
            shannon_entropy(marginal(mu, [i]))
            for i in range(mu.space.dimension))


def test_entropy_point_mass_zero():
    assert shannon_entropy(DiscreteMeasure.point_mass(ProductSpace(3, 2), (1, 2))) == 0.0


def test_entropy_uniform_log_k():
    mu = DiscreteMeasure.uniform_on(ProductSpace(2, 3), [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    assert math.isclose(shannon_entropy(mu), math.log(3), abs_tol=1e-14)


def test_entropy_quarter_three_quarter():
    mu = make_measure(2, 1, {(0,): 0.25, (1,): 0.75})
    assert math.isclose(shannon_entropy(mu), 0.5623351446188083, abs_tol=1e-15)
    assert math.isclose(shannon_entropy(mu), entropy_direct([0.25, 0.75]), abs_tol=1e-15)


def test_kl_self_zero_and_point_vs_uniform():
    mu = two_cluster(3)
    assert kl_divergence(mu, mu) == 0.0
    uni = DiscreteMeasure.uniform_on(ProductSpace(2, 2),
                                     [(0, 0), (0, 1), (1, 0), (1, 1)])
    delta = DiscreteMeasure.point_mass(ProductSpace(2, 2), (1, 0))
    assert math.isclose(kl_divergence(delta, uni), math.log(4), abs_tol=1e-14)


def test_kl_conditioning_identity(rng):
    # D(mu|U || mu) = log(1/mu(U))
    for _ in range(20):
        mu = random_measure(rng, 2, 3, 8)
        size = int(rng.integers(1, len(mu))) if len(mu) > 1 else 1
        cell = list(mu.support)[:size]
        cond = condition(mu, cell)
        mass = sum(mu.mass(w) for w in cell)
        assert math.isclose(kl_divergence(cond, mu), -math.log(mass), abs_tol=1e-12)


def test_kl_infinite_off_support():
    sp = ProductSpace(2, 1)
    a = DiscreteMeasure.point_mass(sp, (0,))
    b = DiscreteMeasure.point_mass(sp, (1,))
    assert kl_divergence(a, b) == math.inf


# -----------------------------------------------------------------------------
# TC / DTC
# -----------------------------------------------------------------------------
def test_tc_dtc_product_zero():
    mu = biased_product(5, 0.3)
    assert abs(total_correlation(mu)) < 1e-12
    assert abs(dual_total_correlation(mu)) < 1e-12


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (5, 3), (5, 4)])
def test_subgroup_exact_values(q, n):
    mu = subgroup_measure(q, n)
    assert abs(total_correlation(mu) - math.log(q)) <= 1e-12
    assert abs(dual_total_correlation(mu) - (n - 1) * math.log(q)) <= 1e-12


def test_diagonal_block_code_values():
    mu = make_measure(2, 2, {(0, 0): 0.5, (1, 1): 0.5})
    assert math.isclose(total_correlation(mu), math.log(2), abs_tol=1e-14)
    assert math.isclose(dual_total_correlation(mu), math.log(2), abs_tol=1e-14)
    big = diagonal_code(8)
    assert math.isclose(total_correlation(big), 4 * math.log(2), abs_tol=1e-12)
    assert math.isclose(dual_total_correlation(big), 4 * math.log(2), abs_tol=1e-12)


def test_tc_two_forms_agree(rng):
    # sum of marginal entropies minus joint equals KL to the marginal product
    for _ in range(50):
        mu = random_measure(rng, 3, 3, 15)
        prod = product_measure(
            mu.space,
            [[marginal(mu, [i]).mass((a,)) for a in range(3)] for i in range(3)])
        assert abs(total_correlation(mu) - kl_divergence(mu, prod)) < 1e-9


def test_tc_rows_match_scalar_reference(rng):
    # each row of a batch on the union of the supports, zero where its measure
    # has no atom, has the bits of the scalar TC and marginals of its measure,
    # at n = 1, at q = 3, and on point masses, whose TC is +0.0
    for q, n in ((2, 1), (3, 1), (2, 5), (3, 3), (4, 2)):
        cube = list(itertools.product(range(q), repeat=n))
        group = [random_measure(rng, q, n, 12) for _ in range(20)]
        group += [DiscreteMeasure.point_mass(ProductSpace(q, n), w)
                  for w in (cube[0], cube[-1])]
        support = tuple(sorted(set().union(*(mu.atoms for mu in group))))
        rows = np.array([[mu.mass(w) for w in support] for mu in group])
        assert (rows == 0.0).any()
        tcs, marginals = _tc_rows(support, rows, q)
        for tc, marginal_rows, mu in zip(tcs.tolist(), marginals.tolist(), group):
            assert tc.hex() == total_correlation_scalar(mu).hex()
            assert tc.hex() == total_correlation(mu).hex()
            assert marginal_rows == coordinate_marginals(mu)
        assert [v.hex() for v in tcs[-2:].tolist()] == ["0x0.0p+0"] * 2


def test_dtc_matches_leave_one_out_oracle(rng):
    for _ in range(30):
        mu = random_measure(rng, 2, 4, 12)
        assert abs(dual_total_correlation(mu)
                   - dtc_direct(dict(mu.atoms), 4)) < 1e-10


def dtc_corpus():
    """Seeded measures with |A| in {2, 3, 5} and n <= 8: sparse supports,
    where most leave-one-out groups hold one atom, full supports of up to 256
    atoms, the criterion-5 fixtures and product controls, skewed small
    measures, and two-atom groups with a conditional probability in
    (0.99, 1)."""
    rng = np.random.default_rng(4404)
    out = []
    for alphabet, n_max in ((2, 8), (3, 6), (5, 4)):
        for n in range(1, n_max + 1):
            out.append(random_measure(rng, alphabet, n, 24))
            words = list(itertools.product(range(alphabet), repeat=n))
            if len(words) <= 256:
                masses = rng.dirichlet(np.ones(len(words)))
                out.append(DiscreteMeasure(ProductSpace(alphabet, n),
                                           dict(zip(words, map(float, masses)))))
    out.extend(mu for _, mu in criterion_suite() + product_control_suite())
    out.extend(skewed_small_measures())
    for p in rng.uniform(0.99, 1.0, 2000).tolist():
        out.append(make_measure(2, 2, {(0, 0): p, (0, 1): 1.0 - p}))
    return out


#: sha256 of the float.hex of DTC, of every H(coord i | rest) and of the
#: retained coordinates of trim_coordinates over ``dtc_corpus``; recorded when
#: DTC moved to ``np.log`` on row batches (numpy 2.4.6, SIMD found: X86_V3,
#: X86_V4, AVX512_ICL, AVX512_SPR), and changed by summing the groups or the
#: masses in a group in another order
DTC_CORPUS_DIGEST = "9ae8deacb69eb788d6023c3781cda69f7c3b1837a468f8e9311b0f43a4448b22"


def test_dtc_corpus_pins_correlation_bits():
    h = hashlib.sha256()
    for mu in dtc_corpus():
        n = mu.space.dimension
        h.update(repr((dual_total_correlation(mu).hex(),
                       [conditional_coordinate_entropy(mu, i).hex()
                        for i in range(n)],
                       trim_coordinates(mu, 0.3), trim_coordinates(mu, 0.6))
                      ).encode())
    assert h.hexdigest() == DTC_CORPUS_DIGEST


def test_dtc_cached_groups_hold_no_masses(rng):
    # measures sharing a support share cached groups; each must still match
    # the oracle with its own masses
    words = [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)]
    for _ in range(2):
        masses = rng.random(len(words)) + 0.05
        atoms = dict(zip(words, (masses / masses.sum()).tolist()))
        mu = make_measure(3, 3, atoms)
        assert abs(dual_total_correlation(mu) - dtc_direct(atoms, 3)) <= 1e-12


@st.composite
def sparse_measures(draw):
    """A measure on a random support of {0..a-1}^n with integer weights."""
    alphabet, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    cube = list(itertools.product(range(alphabet), repeat=n))
    words = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=24,
                          unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(words),
                                     max_size=len(words))), float)
    return alphabet, n, dict(zip(words, (weights / weights.sum()).tolist()))


@given(sparse_measures())
@settings(max_examples=150, deadline=None)
def test_dtc_matches_oracle_on_random_supports(instance):
    alphabet, n, atoms = instance
    mu = make_measure(alphabet, n, atoms)
    assert abs(dual_total_correlation(mu) - dtc_direct(atoms, n)) <= 1e-12


@st.composite
def mass_rows(draw):
    """A support of k words of {0..q-1}^n, for k in 1..128 and q in {2, 3},
    and 1-40 rows of masses on it with zeros in them: each row a measure, or
    a row of zeros."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 7 if q == 2 else 5))
    cube = list(itertools.product(range(q), repeat=n))
    k = draw(st.integers(1, min(128, len(cube))))
    start = draw(st.integers(0, len(cube) - k))
    support = tuple(cube[start:start + k])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(k), size=draw(st.integers(1, 40)))
    rows[rng.random(rows.shape) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    return support, rows


@given(mass_rows())
@settings(max_examples=120, deadline=None)
def test_batched_rows_match_one_row_calls(instance):
    # a row's DTC and KL do not depend on the rows batched with it, nor on its
    # zero masses: the row taken on its own nonzero atoms gives the same bits
    support, rows = instance
    reference = rows[0] if (rows[0] > 0).all() else np.full(len(support), 1.0)
    dtcs, kls = _dtc_rows(support, rows).tolist(), _kl_rows(rows, reference).tolist()
    assert len(dtcs) == len(kls) == len(rows)
    for dtc, kl, row in zip(dtcs, kls, rows):
        assert dtc.hex() == float(_dtc_rows(support, row[None])[0]).hex()
        assert kl.hex() == float(_kl_rows(row[None], reference)[0]).hex()
        nonzero = row > 0.0
        if nonzero.any():
            sub = tuple(w for w, keep in zip(support, nonzero) if keep)
            assert dtc.hex() == float(_dtc_rows(sub, row[nonzero])[0]).hex()
            assert kl.hex() == float(_kl_rows(row[nonzero], reference[nonzero])[0]).hex()


@given(mass_rows())
@settings(max_examples=60, deadline=None)
def test_tc_rows_match_scalar_reference_on_random_rows(instance):
    support, rows = instance
    rows = np.array([row / left_sum(row.tolist()) for row in rows if row.any()])
    for tc, row in zip(_tc_rows(support, rows, 3)[0].tolist(), rows):
        mu = make_measure(3, len(support[0]), {
            w: m for w, m in zip(support, row.tolist()) if m > 0})
        assert tc.hex() == total_correlation_scalar(mu).hex()


def test_blocked_rows_match_one_row_calls(monkeypatch):
    # rows split into blocks under the element cap keep their bits
    mu = product_mix(7, 0.1, 0.9)
    rows = np.random.default_rng(5).dirichlet(np.ones(len(mu)), size=9)
    whole = (_dtc_rows(mu.support, rows), _kl_rows(rows, rows[0]),
             *_tc_rows(mu.support, rows, 2))
    monkeypatch.setattr("hamconc.information.ROW_BLOCK_ELEMENTS", 1)
    blocked = (_dtc_rows(mu.support, rows), _kl_rows(rows, rows[0]),
               *_tc_rows(mu.support, rows, 2))
    assert ROW_BLOCK_ELEMENTS > 1
    for a, b in zip(whole, blocked):
        assert [v.hex() for v in a.ravel().tolist()] == [v.hex() for v in b.ravel().tolist()]


def test_batched_dtc_matches_oracle_on_corpus():
    # one batch per support: each row agrees with the independent DTC
    by_support = {}
    for mu in dtc_corpus():
        by_support.setdefault(mu.support, []).append(mu)
    for support, group in by_support.items():
        values = _dtc_rows(support, [tuple(mu.atoms.values()) for mu in group])
        n = group[0].space.dimension
        for value, mu in zip(values.tolist(), group):
            assert abs(value - dtc_direct(dict(mu.atoms), n)) <= 1e-12


def test_loo_group_cache_stays_bounded():
    for n in range(2, LOO_GROUP_CACHE_SIZE + 7):
        dual_total_correlation(two_cluster(n))
    assert _loo_index.cache_info().currsize == LOO_GROUP_CACHE_SIZE


def test_info_report_consistency(rng):
    mu = random_measure(rng, 4, 3, 20)
    rep = info_report(mu)
    assert abs(rep.tc - (sum(rep.per_coordinate_entropies) - rep.entropy)) < 1e-10
    assert rep.tc >= -1e-10 and rep.dtc >= -1e-10
    assert rep.dtc <= (mu.space.dimension - 1) * math.log(4) + 1e-10


# -----------------------------------------------------------------------------
# fuzzy mutual information and the decrement identity
# -----------------------------------------------------------------------------
def test_fuzzy_mi_constant_partition_zero():
    mu = two_cluster(3)
    fp = FuzzyPartition(mu.space, mu.support, [[0.4] * len(mu), [0.6] * len(mu)])
    assert abs(fuzzy_mutual_information(mu, fp)) < 1e-12


def test_fuzzy_mi_singleton_partition_gives_entropy(rng):
    mu = random_measure(rng, 2, 3, 6)
    fp = FuzzyPartition.indicator(mu.space, mu.support,
                                  [[w] for w in mu.support])
    assert abs(fuzzy_mutual_information(mu, fp) - shannon_entropy(mu)) < 1e-10


def test_fuzzy_mi_two_cell_indicator_binary_entropy(rng):
    mu = random_measure(rng, 2, 3, 7)
    cell = list(mu.support)[:2]
    rest = [w for w in mu.support if w not in cell]
    if not rest:
        return
    fp = FuzzyPartition.indicator(mu.space, mu.support, [cell, rest])
    mass = sum(mu.mass(w) for w in cell)
    assert abs(fuzzy_mutual_information(mu, fp) - binary_entropy(mass)) < 1e-10


def test_fuzzy_mi_matches_hookup_joint(rng):
    # I from the reweighting formula equals I of the (index, word) joint law
    for _ in range(20):
        mu = random_measure(rng, 2, 3, 8)
        dens = rng.random(len(mu))
        fp = FuzzyPartition(mu.space, mu.support, [dens, 1 - dens])
        rep = fuzzy_split(mu, fp)
        joint = hookup(rep.weights, rep.components)
        oracle = mutual_information_from_joint(
            dict(joint.atoms), [0], list(range(1, 4)))
        assert abs(fuzzy_mutual_information(mu, fp) - oracle) < 1e-9


def test_dtc_decrement_constant_densities_zero():
    mu = two_cluster(3)
    fp = FuzzyPartition(mu.space, mu.support, np.full((2, len(mu)), 0.5))
    lhs, rhs = dtc_decrement(mu, fp)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_dtc_decrement_identity_random(rng):
    # both sides computed by independent entropy summations agree
    for _ in range(20):
        mu = random_measure(rng, 2, 3, 8)
        dens = 0.05 + 0.9 * rng.random(len(mu))
        fp = FuzzyPartition(mu.space, mu.support, [dens, 1 - dens])
        lhs, rhs = dtc_decrement(mu, fp)
        assert abs(lhs - rhs) < 1e-8


def test_dtc_decrement_positive_on_separating_split():
    mu = product_mix(6, 0.05, 0.95)
    # indicator of the near-separating set: majority of ones
    cell = [w for w in mu.support if sum(w) > 3]
    rest = [w for w in mu.support if sum(w) <= 3]
    fp = FuzzyPartition.indicator(mu.space, mu.support, [cell, rest])
    lhs, rhs = dtc_decrement(mu, fp)
    assert lhs > 0
    assert abs(lhs - rhs) < 1e-8


# -----------------------------------------------------------------------------
# mixture inequalities
# -----------------------------------------------------------------------------
def test_mixture_entropy_bound(rng):
    for _ in range(20):
        comps = tuple(random_measure(rng, 2, 3, 8) for _ in range(3))
        w = rng.random(3) + 0.05
        w /= w.sum()
        rep = MixtureRepresentation(tuple(w), comps)
        lhs = shannon_entropy(mix(rep))
        rhs = sum(p * shannon_entropy(c) for p, c in zip(rep.weights, comps))
        assert lhs <= rhs + entropy_of_vector(rep.weights) + 1e-9


def test_tc_approximate_concavity(rng):
    for _ in range(20):
        comps = tuple(random_measure(rng, 2, 4, 10) for _ in range(3))
        w = rng.random(3) + 0.05
        w /= w.sum()
        rep = MixtureRepresentation(tuple(w), comps)
        avg_tc = sum(p * total_correlation(c) for p, c in zip(rep.weights, comps))
        assert avg_tc <= total_correlation(mix(rep)) + entropy_of_vector(rep.weights) + 1e-9


def test_conditioning_tc_bound(rng):
    for _ in range(20):
        mu = random_measure(rng, 2, 4, 14)
        size = int(rng.integers(1, len(mu))) if len(mu) > 1 else 1
        cell = [list(mu.support)[i]
                for i in rng.choice(len(mu), size=size, replace=False)]
        mass = sum(mu.mass(w) for w in cell)
        cond = condition(mu, cell)
        assert total_correlation(cond) <= \
            (total_correlation(mu) + math.log(2)) / mass + 1e-9


def test_fuzzy_chain_rule(rng):
    # refining a two-cell fuzzy partition: I adds up along the chain
    for _ in range(10):
        mu = random_measure(rng, 2, 3, 8)
        a = 0.2 + 0.6 * rng.random(len(mu))
        s = rng.random(len(mu))
        fine = FuzzyPartition(mu.space, mu.support, [a * s, a * (1 - s), 1 - a])
        coarse = FuzzyPartition(mu.space, mu.support, [a, 1 - a])
        i_fine = fuzzy_mutual_information(mu, fine)
        i_coarse = fuzzy_mutual_information(mu, coarse)
        # monotone under refinement
        assert i_fine >= i_coarse - 1e-10
        # chain rule: the conditional term is the split of mu|a by the ratios
        mu_a = mix(MixtureRepresentation((1.0,), (fuzzy_split(
            mu, coarse).components[0],)))
        ratios = FuzzyPartition(mu.space, mu.support, [s, 1 - s])
        p_a = fuzzy_split(mu, coarse).weights[0]
        inner = fuzzy_mutual_information(mu_a, ratios)
        assert abs(i_fine - (i_coarse + p_a * inner)) < 1e-8


def test_gibbs_variational_principle(rng):
    # D(nu || mu) - <f, nu> is minimized at the tilt, with value -C(f)
    for _ in range(10):
        mu = random_measure(rng, 4, 2, 16)
        f = {w: float(rng.normal()) for w in mu.support}
        star = gibbs_tilt(mu, f, 1.0)
        c = cumulant(mu, f)
        val_star = kl_divergence(star, mu) - sum(
            f[w] * star.mass(w) for w in star.support)
        assert abs(val_star + c) < 1e-10
        # random candidates never beat the minimizer
        words = list(mu.support)
        for _ in range(40):
            probs = rng.dirichlet(np.ones(len(words)))
            nu = DiscreteMeasure.from_unnormalized(
                mu.space, {w: float(p) for w, p in zip(words, probs)})
            val = kl_divergence(nu, mu) - sum(
                f[w] * nu.mass(w) for w in nu.support)
            assert val >= val_star - 1e-10


def test_conditional_kl_identity(rng):
    # H(word | coarse) - H(word | fine) equals the averaged divergence of the
    # fine conditionals from their coarse parents
    for _ in range(10):
        mu = random_measure(rng, 2, 3, 8)
        words = list(mu.support)
        half = len(words) // 2 or 1
        coarse_cells = [words[:half], words[half:]] if words[half:] else [words]
        fine_cells = []
        for cell in coarse_cells:
            mid = len(cell) // 2
            if mid:
                fine_cells.extend([cell[:mid], cell[mid:]])
            else:
                fine_cells.append(cell)
        lhs = (sum(sum(mu.mass(w) for w in cell) * shannon_entropy(condition(mu, cell))
                   for cell in coarse_cells)
               - sum(sum(mu.mass(w) for w in cell) * shannon_entropy(condition(mu, cell))
                     for cell in fine_cells))
        rhs = 0.0
        for cell in fine_cells:
            parent = next(c for c in coarse_cells if set(cell) <= set(c))
            mass = sum(mu.mass(w) for w in cell)
            rhs += mass * kl_divergence(condition(mu, cell), condition(mu, parent))
        assert abs(lhs - rhs) < 1e-9


# -----------------------------------------------------------------------------
# trimming
# -----------------------------------------------------------------------------
def test_trim_keeps_product_whole():
    mu = biased_product(5, 0.3)
    assert trim_coordinates(mu, 0.4) == (0, 1, 2, 3, 4)


def test_trim_subgroup_single_removal():
    mu = subgroup_measure(2, 4)
    s = trim_coordinates(mu, 0.5)
    assert len(s) == 3
    assert abs(dual_total_correlation(marginal(mu, s))) < 1e-12


def test_trim_postconditions_random(rng):
    for _ in range(15):
        mu = random_measure(rng, 2, 5, 16)
        r = float(rng.uniform(0.2, 0.8))
        s = trim_coordinates(mu, r)
        assert len(s) >= (1 - r) * 5 - 1e-9
        assert dual_total_correlation(marginal(mu, s)) <= \
            total_correlation(mu) / r + 1e-8
