"""Decomposition pipelines: splitting, recursion, sampling, mixtures, partitions."""
import hashlib
import itertools
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamconc import (
    DiscreteMeasure,
    FuzzyPartition,
    MixtureRepresentation,
    MeasureError,
    ProductSpace,
    fuzzy_split,
    kl_divergence,
    mix,
    total_correlation,
    transport_distance,
    tv_distance,
)
from hamconc import concentration, decompose, transport
from hamconc.concentration import TILT_ANCHOR_STARTS, TParams
from hamconc.measures import product_measure, variation_norm
from hamconc.decompose import (
    DEC_DENOMINATOR,
    FINAL_DENOMINATOR,
    BudgetExhausted,
    CarveError,
    PipelineConfig,
    _certificate_params,
    carve_concentrated_set,
    decrement_recursion,
    decrement_step,
    mixture_decomposition,
    partition_decomposition,
    sample_coarsen,
    _sample_coarsen_detail,
)
from hamconc.information import dual_total_correlation

import oracles
from conftest import (
    biased_product,
    criterion_suite,
    diagonal_code,
    product_control_suite,
    product_mix,
    random_measure,
    skewed_small_measures,
    subgroup_measure,
    two_cluster,
)


CFG = PipelineConfig(epsilon=0.3, r=0.3, seed=11)


def test_pipeline_config_fields():
    assert [f.name for f in fields(PipelineConfig)] == [
        "epsilon", "r", "seed", "max_iters", "c", "c_B", "delta_override"]


# -----------------------------------------------------------------------------
# decrement_step
# -----------------------------------------------------------------------------
def test_step_none_on_products():
    for p in (0.5, 0.2, 0.75):
        assert decrement_step(biased_product(5, p), 0.3) is None


def test_step_fires_on_two_cluster_with_verified_conclusions():
    mu = two_cluster(6)
    split = decrement_step(mu, 0.3)
    assert split is not None
    fp = split.partition
    ok, info, drop = oracles.decrement_checks(mu, fp, 0.3)
    assert ok
    assert drop >= 0.5 * info - 1e-8
    assert info >= 0.3 ** 2 * math.exp(-6) / 6 - 1e-12
    # the split has the exponential-tilt shape: first density in (0, 1/2]
    rep = fuzzy_split(mu, fp)
    assert 0.0 < rep.weights[0] <= 0.5 + 1e-12


def test_step_fires_on_product_mixture():
    mu = product_mix(6, 0.1, 0.9)
    split = decrement_step(mu, 0.3)
    assert split is not None
    ok, _, drop = oracles.decrement_checks(mu, split.partition, 0.3)
    assert ok and drop > 0


def test_split_carries_gate_numbers():
    # the numbers a Split carries are those a fresh check of it computes
    for mu in (two_cluster(6), product_mix(6, 0.1, 0.9), diagonal_code(4)):
        split = decrement_step(mu, 0.3)
        _, info, drop = oracles.decrement_checks(mu, split.partition, 0.3)
        assert split.information.hex() == info.hex()
        assert split.decrement.hex() == drop.hex()


def test_step_information_floor_evaluates():
    # the asymptotic floor at n=4, r=0.2 is 0.01 e^{-4}
    floor = 0.2 ** 2 * math.exp(-4) / 4
    assert math.isclose(floor, 0.01 * math.exp(-4) / 4 * 4, rel_tol=1e-12)
    assert math.isclose(floor, 1.8315638888734178e-04 / 4 * 4 * 0.25
                        if False else floor, rel_tol=1e-12)
    assert abs(floor - 0.25 * 0.04 * math.exp(-4) / 1.0) < 1e-12


#: sha256 of the densities (words and float.hex values) that decrement_step
#: returns at r = 0.3, and of the information and decrement of that split, on
#: the criterion-5 fixtures, the product controls and skewed small measures;
#: recorded when the gate moved to ``np.log`` on one slate batch with the
#: GATE_TIE_SLACK rule (numpy 2.4.6, SIMD found: X86_V3, X86_V4, AVX512_ICL,
#: AVX512_SPR), so it pins the gate's floats and the split it picks
DECREMENT_STEP_DIGEST = "2e7cd25524202ba457946906690866f31f8eb9c752e3b9739d44b6c0eae8d613"


def test_decrement_step_pins_split_densities():
    h = hashlib.sha256()
    suite = criterion_suite() + product_control_suite()
    suite += [(f"skewed-{k}", mu) for k, mu in enumerate(skewed_small_measures())]
    for name, mu in suite:
        split = decrement_step(mu, 0.3)
        pinned = None
        if split is not None:
            fp = split.partition
            _, info, drop = oracles.decrement_checks(mu, fp, 0.3)
            pinned = ([[(w, v.hex()) for w, v in zip(fp.support, row.tolist())]
                       for row in fp.densities],
                      info.hex(), drop.hex())
        h.update(repr((name, pinned)).encode())
    assert h.hexdigest() == DECREMENT_STEP_DIGEST


def _record_gate(monkeypatch):
    """Record every (args, result) of the slate scorer while a test runs."""
    calls = []
    score = decompose._score_slate

    def recording(*args):
        calls.append((args, score(*args)))
        return calls[-1][1]

    monkeypatch.setattr(decompose, "_score_slate", recording)
    return calls


def _candidates(gate_result):
    """The slate scorer's arrays as one (ok, information, decrement) per
    candidate, NaN as None, floats in ``float.hex``."""
    return [(bool(ok), *(None if math.isnan(v) else float(v).hex()
                         for v in (info, drop)))
            for ok, info, drop in zip(*gate_result)]


def _hexed(gate_result):
    ok, info, drop = gate_result
    return ok, *(None if v is None else v.hex() for v in (info, drop))


def test_gate_matches_measure_building_oracle(monkeypatch):
    # every slate candidate, passing or not, scores to the bit what building
    # the split's measures gives
    calls = _record_gate(monkeypatch)
    seen = {"pass": 0, "fail": 0, "below floor": 0}
    suite = [mu for _, mu in criterion_suite()] + skewed_small_measures()
    for mu in suite:
        calls.clear()
        decrement_step(mu, 0.3)
        for (support, masses, densities, r, i_floor, dtc), got in calls:
            assert tuple(map(tuple, support.tolist())) == mu.support
            for row, floor, d, dens, cand in zip(masses, i_floor, dtc, densities,
                                                 _candidates(got)):
                assert tuple(row.tolist()) == tuple(mu.atoms.values())
                assert float(d).hex() == dual_total_correlation(mu).hex()
                fp = FuzzyPartition(mu.space, mu.support, dens)
                assert cand == _hexed(oracles.decrement_gate(mu, fp, r, float(floor)))
                seen["pass" if cand[0] else
                     "below floor" if cand[2] is None else "fail"] += 1
    assert min(seen.values()) > 0, seen


def test_step_matches_unpruned_oracle(monkeypatch):
    # decrement_step returns, to the bit, the split that scoring each
    # candidate on its own picks: the first passing one within
    # GATE_TIE_SLACK of the largest passing drop; every scored drop is at
    # most the split's information (drop = I - sum_i I(X_i; J | rest))
    calls = _record_gate(monkeypatch)
    ties = scored = 0
    suite = [mu for _, mu in criterion_suite()] + skewed_small_measures()
    for mu in suite:
        calls.clear()
        split = decrement_step(mu, 0.3)
        if not calls:
            assert split is None
            continue
        (args, _), = calls
        slate = [[d.tolist() for d in dens] for dens in args[2]]
        i_floor, = set(args[4].tolist())
        want, win = oracles.unpruned_step(mu, 0.3, i_floor, slate)
        if win is None:
            assert split is None
        else:
            assert split.partition.support == mu.support
            assert [[v.hex() for v in row.tolist()]
                    for row in split.partition.densities] == \
                [[v.hex() for v in d] for d in slate[win]]
            assert split.information.hex() == want[win][1].hex()
            assert split.decrement.hex() == want[win][2].hex()
            best = max(drop for ok, _, drop in want if ok)
            ties += best != want[win][2]
        for ok, info, drop in want:
            if drop is not None:
                scored += 1
                assert drop <= info + 1e-12
    assert scored > 0 and ties > 0, (scored, ties)


def test_step_search_matches_per_pair_oracle(monkeypatch):
    # the batched tilt search of every criterion-5 step, and of the recursion
    # on a product mixture (which batches the components of a round), ranks
    # for each measure, bit for bit, the candidates of one gradient ascent
    # per (seed, t) pair
    calls = []
    search = decompose._l_search_candidates

    def recording(masses, metric, r, kappa, budget, **kwargs):
        calls.append((masses, metric, r, kappa, budget, kwargs,
                      search(masses, metric, r, kappa, budget, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(decompose, "_l_search_candidates", recording)
    for _, mu in criterion_suite():
        decrement_step(mu, 0.3)
    assert len(calls) >= 40
    decrement_recursion(product_mix(5, 0.15, 0.85), CFG)
    assert max(len(call[0]) for call in calls) >= 2
    for masses, metric, r, kappa, budget, kwargs, got in calls:
        assert len(got) == len(masses) == len(kwargs["t_hi"])
        for row, t_hi, ranked in zip(masses, kwargs["t_hi"], got):
            want, _ = oracles.tilt_ascent(row, metric.dist, r, kappa, budget, t_hi=t_hi,
                                          t_points=kwargs["t_points"])
            assert (oracles.hexed_candidates(ranked, None)
                    == oracles.hexed_candidates(want, None))


def test_decrement_gate_dtc_evaluations(monkeypatch):
    # DTC(mu) once per step, as the one row of the step's first DTC batch
    # (not through dual_total_correlation), and the two component DTCs of a
    # candidate split only when its information is above the floor; below
    # it, checking a split computes no DTC in the library's gate
    mu_calls, component_rows = [], []
    dtc, dtc_rows = decompose.dual_total_correlation, decompose._dtc_rows

    def counting_dtc(m):
        mu_calls.append(m)
        return dtc(m)

    def counting_rows(support, masses):
        component_rows.append(len(masses))
        return dtc_rows(support, masses)

    monkeypatch.setattr(decompose, "dual_total_correlation", counting_dtc)
    monkeypatch.setattr(decompose, "_dtc_rows", counting_rows)
    calls = _record_gate(monkeypatch)
    seen = {"below floor": 0, "scored": 0}
    fired = []
    for mu in (product_mix(6, 0.1, 0.9), product_mix(4, 0.2, 0.7)):
        calls.clear()
        mu_calls.clear()
        component_rows.clear()
        r, n = 0.3, mu.space.dimension
        fired.append(decrement_step(mu, r) is not None)
        assert mu_calls == []
        floor = max(r * r * math.exp(-n) / n, r * r / (4 * n),
                    0.1 * dual_total_correlation(mu))
        (_, got), = calls
        above = 0
        for _, info, drop in _candidates(got):
            kind = ("below floor" if info is None or float.fromhex(info)
                    < floor - decompose.GATE_FLOOR_SLACK else "scored")
            assert (drop is None) == (kind == "below floor")
            above += kind == "scored"
            seen[kind] += 1
        assert component_rows == [1] + ([2 * above] if above else [])
    assert fired == [True, False]
    assert min(seen.values()) > 0, seen

    mu, r = product_mix(6, 0.1, 0.9), 0.3
    fp = decrement_step(mu, r).partition
    mu_calls.clear()
    component_rows.clear()
    ok, _, drop = oracles.decrement_checks(mu, fp, r, i_floor=10.0)
    assert not ok and drop is None
    assert mu_calls == [] and component_rows == []


def test_partition_missing_support_fails_the_gate():
    mu = DiscreteMeasure.uniform_on(ProductSpace(2, 2),
                                    [(0, 0), (0, 1), (1, 0), (1, 1)])
    half = FuzzyPartition(mu.space, [(0, 0), (1, 1)], np.eye(2))
    with pytest.raises(MeasureError, match="covers mass 0.5"):
        oracles.decrement_checks(mu, half, 0.3)


# -----------------------------------------------------------------------------
# decrement_recursion
# -----------------------------------------------------------------------------
def test_recursion_trivial_on_product():
    mu = biased_product(5, 0.3)
    fp, audit, _ = decrement_recursion(mu, CFG)
    assert audit["final_cells"] == 1
    assert not audit["bad_present"]
    assert abs(audit["final_information"]) < 1e-10


def test_recursion_splits_product_mixture():
    mu = product_mix(6, 0.1, 0.9)
    fp, audit, _ = decrement_recursion(mu, CFG)
    assert audit["final_cells"] >= 2
    assert not audit["truncated"]
    # information bound from the executed decrement chain
    assert audit["final_information"] <= 2 * audit["dtc"] + 1e-6
    # ledger conservation: executed decrements bound the realized DTC drop
    rep = fuzzy_split(mu, fp)
    avg_dtc = sum(p * dual_total_correlation(c)
                  for p, c in zip(rep.weights, rep.components))
    assert audit["total_decrement"] <= audit["dtc"] - avg_dtc + 1e-6
    # per-round firing record is monotone enough to terminate
    assert audit["rounds"][-1]["firing_mass"] < CFG.epsilon


def test_recursion_reconstructs(rng):
    mu = product_mix(5, 0.15, 0.85)
    fp, _, _ = decrement_recursion(mu, CFG)
    assert tv_distance(mix(fuzzy_split(mu, fp)), mu) < 1e-9


#: sha256 of decrement_recursion's audit (JSON, sorted keys) and final
#: densities (float.hex) on the criterion fixtures at CFG, and, with the round
#: cap at 2 so the capped refutation path runs, on those of at most 16 atoms;
#: recorded with DECREMENT_STEP_DIGEST (same numpy and SIMD flags), so it
#: pins that the audit reads the same split numbers and the cells stay in order
RECURSION_DIGEST = "756f01ef157d41aa2e71ddbe9b90889e88254fc89de2fc0e155026e043db6672"


def test_decrement_recursion_pins_audit_and_densities():
    capped = replace(CFG, max_iters=2)
    h = hashlib.sha256()
    for cfg, small_only in ((CFG, False), (capped, True)):
        for name, mu in criterion_suite():
            if small_only and len(mu) > 16:
                continue
            fp, audit, _ = decrement_recursion(mu, cfg)
            h.update(repr((name, cfg.max_iters)).encode())
            h.update(json.dumps(audit, sort_keys=True).encode())
            h.update(repr([[(w, v.hex()) for w, v in zip(fp.support, row.tolist())]
                           for row in fp.densities]).encode())
    assert h.hexdigest() == RECURSION_DIGEST


def test_recursion_checks_each_split_once(monkeypatch):
    # each round scores every untried component exactly once, in one batch
    # per support, and the recursion reads an executed split's numbers from
    # that batch instead of running the gate on it again.  A product measure
    # builds no mismatch matrix; on the whole cube, where the projections take
    # the cube route, only the anchors' rows are built (two per measure of a
    # batch), and on a sparse support every batch slices one mismatch matrix
    # of supp(mu)
    events, in_step, outside, matrices = [], [], [], []
    score, steps, total = decompose._score_slate, decompose._decrement_steps, decompose._sum

    def recording_steps(space, support, masses, *args):
        batch = {"support": support, "count": len(masses), "slates": [],
                 "rows": {tuple(row) for row in masses.tolist()}}
        events.append(batch)
        in_step.append(batch)
        try:
            return steps(space, support, masses, *args)
        finally:
            in_step.pop()

    def recording_score(support, masses, *args):
        if in_step:
            in_step[-1]["slates"].append({tuple(row) for row in masses.tolist()})
        else:
            outside.append(support)
        return score(support, masses, *args)

    def recording_sum(xs):
        # the recursion adds up its firing mass once at the end of each round
        events.append(None)
        return total(xs)

    def counting_matrix(*args):
        matrices.append(args)
        return mismatch(*args)

    mismatch = transport.mismatch_matrix
    for module in (decompose, concentration, transport):
        monkeypatch.setattr(module, "mismatch_matrix", counting_matrix)
    decrement_recursion(biased_product(5, 0.3), CFG)
    assert matrices == []
    sparse = _pruned_split_measure()
    decrement_recursion(sparse, replace(CFG, r=0.1))
    words = [list(w) for w in sparse.support]
    assert [(np.asarray(src).tolist(), np.asarray(tgt).tolist())
            for src, tgt in matrices] == [(words, words)]
    matrices.clear()
    monkeypatch.setattr(decompose, "_decrement_steps", recording_steps)
    monkeypatch.setattr(decompose, "_score_slate", recording_score)
    monkeypatch.setattr(decompose, "_sum", recording_sum)
    mu = product_mix(6, 0.1, 0.9)
    _, audit, _ = decrement_recursion(mu, CFG)
    assert matrices and all(len(src) < len(tgt) for src, tgt in matrices)
    assert sum(len(src) for src, _ in matrices) <= 4 * sum(b["count"] for b in events if b)
    splits = [len(rnd["splits"]) for rnd in audit["rounds"]]
    assert sum(splits) > 0 and outside == []
    rounds, current = [], []
    for event in events:
        if event is None:
            rounds.append(current)
            current = []
        else:
            current.append(event)
    rounds = rounds[:len(splits)]
    # round 0 tries mu itself, and every later round the two halves of the
    # previous round's split
    assert [sum(b["count"] for b in rnd) for rnd in rounds] == \
        [1] + [2 * s for s in splits[:-1]]
    for rnd in rounds:
        assert len({np.asarray(b["support"]).tobytes() for b in rnd}) == len(rnd)
        for b in rnd:
            # one slate per batch, holding only the batch's own measures
            assert len(b["slates"]) <= 1 and all(sl <= b["rows"] for sl in b["slates"])
    assert max(b["count"] for rnd in rounds for b in rnd) >= 2


#: sha256 of decrement_recursion's audit (JSON, sorted keys) and final
#: densities (float.hex) on ``_pruned_split_measure()`` at r = 0.1, recorded
#: with RECURSION_DIGEST; five of its executed splits are over part of the
#: support, so it pins how a split's densities are put back on supp(mu)
PRUNED_RECURSION_DIGEST = "96aef74acd32123b20796f9bbdb7b07f379127debdf350d8051aac0cf9a08fc0"


def _pruned_split_measure():
    """Three heavy atoms and four of mass 7e-10 on {0,1}^6: strong tilts prune
    light atoms, and components over part of the support split again."""
    atoms = {(0, 0, 1, 0, 0, 0): 0.32, (0, 1, 1, 1, 0, 0): 0.54, (1, 0, 1, 0, 1, 0): 0.14}
    for w in [(0, 0, 1, 0, 1, 1), (0, 1, 0, 0, 0, 0), (0, 1, 1, 1, 1, 0), (1, 0, 1, 0, 1, 1)]:
        atoms[w] = 7e-10
    return DiscreteMeasure.from_unnormalized(ProductSpace(2, 6), atoms)


def test_recursion_slices_the_distance_matrix_of_each_batch(monkeypatch):
    # batches over part of supp(mu) get their own support's mismatch matrix,
    # sliced from the one of supp(mu); the splits executed on them are put
    # back on the atoms they cover
    batches = []
    steps = decompose._decrement_steps

    def recording_steps(space, support, masses, r, mismatches):
        want = transport.mismatch_matrix(support, support)
        batches.append((len(support), np.array_equal(mismatches(), want)))
        return steps(space, support, masses, r, mismatches)

    monkeypatch.setattr(decompose, "_decrement_steps", recording_steps)
    mu = _pruned_split_measure()
    fp, audit, _ = decrement_recursion(mu, replace(CFG, r=0.1))
    assert all(same for _, same in batches)
    assert min(size for size, _ in batches) < len(mu) == 7
    h = hashlib.sha256((json.dumps(audit, sort_keys=True) + repr(
        [[(w, v.hex()) for w, v in zip(fp.support, row.tolist())]
         for row in fp.densities])).encode())
    assert h.hexdigest() == PRUNED_RECURSION_DIGEST


@st.composite
def reweighted_batches(draw):
    """Two to four reweightings of one another on 2-8 atoms of a small cube
    (so on one support), and r."""
    q, n = draw(st.integers(2, 3)), draw(st.integers(2, 5))
    cube = list(itertools.product(range(q), repeat=n))
    words = draw(st.lists(st.sampled_from(cube), min_size=2, max_size=8, unique=True))
    row = st.lists(st.floats(0.05, 1.0), min_size=len(words), max_size=len(words))
    mus = [DiscreteMeasure.from_unnormalized(ProductSpace(q, n), dict(zip(words, masses)))
           for masses in draw(st.lists(row, min_size=2, max_size=4))]
    return mus, draw(st.sampled_from((0.05, 0.3)))


def _hexed_split(split):
    return None if split is None else (
        [[(w, v.hex()) for w, v in zip(split.partition.support, row.tolist())]
         for row in split.partition.densities],
        split.information.hex(), split.decrement.hex())


@given(reweighted_batches())
@settings(max_examples=60, deadline=None)
def test_split_does_not_depend_on_its_batch(instance):
    # a measure's split, scored in one batch with other reweightings on its
    # support, is bit for bit the one decrement_step gives it alone
    mus, r = instance
    support = mus[0].support
    batched = decompose._decrement_steps(
        mus[0].space, support, np.array([tuple(mu.atoms.values()) for mu in mus]), r,
        lambda: transport.mismatch_matrix(support, support))
    assert len(batched) == len(mus)
    for mu, split in zip(mus, batched):
        assert _hexed_split(split) == _hexed_split(decrement_step(mu, r))


def test_split_budget_spawns_no_seed():
    # both restarts of SPLIT_BUDGET start at anchor atoms, so the tilt search
    # of every decrement step never reads its seed
    assert decompose.SPLIT_BUDGET.restarts <= TILT_ANCHOR_STARTS
    mu = product_mix(5, 0.2, 0.8)
    metric = concentration.SupportMetric(mu.support, 2)
    ranked = [oracles.hexed_candidates(decompose._l_search_candidates(
        np.array([tuple(mu.atoms.values())]), metric, 0.3, 0.3 * 5 / DEC_DENOMINATOR,
        replace(decompose.SPLIT_BUDGET, seed=seed), t_points=10)[0], mu.support)
        for seed in (0, 12345)]
    assert ranked[0] == ranked[1]


def test_mixture_computes_the_trimmed_dtc_once(monkeypatch):
    seen = []
    dtc = decompose.dual_total_correlation

    def counting(mu):
        seen.append(mu)
        return dtc(mu)

    monkeypatch.setattr(decompose, "dual_total_correlation", counting)
    mu = product_mix(5, 0.1, 0.9)
    res = mixture_decomposition(mu, CFG)
    assert res.audit["retained_coordinates"] == list(range(5))
    assert len([m for m in seen if m is mu]) == 1
    assert res.audit["decrement_recursion"]["dtc"] == res.audit["dtc_trimmed"]


def test_mixture_checks_no_word_again(monkeypatch):
    # every word the pipeline puts in a measure is one of its checked input's,
    # or a projection of one: mix, lift and marginal sort them unchecked, on
    # a full run and on one that trims a coordinate
    calls = []
    contains = ProductSpace.contains

    def counting(space, word):
        calls.append(word)
        return contains(space, word)

    mus = [product_mix(6, 0.1, 0.9), subgroup_measure(3, 4)]
    monkeypatch.setattr(ProductSpace, "contains", counting)
    results = [mixture_decomposition(mu, CFG) for mu in mus]
    assert calls == []
    assert [len(res.audit["retained_coordinates"]) for res in results] == [6, 3]
    assert len(results[0].weights) > 1


@given(n=st.integers(1, 12),
       r=st.floats(1e-9, 1.0, exclude_max=True),
       data=st.data(), density_bound=st.floats(1.0, 1e300))
@settings(max_examples=300, deadline=None)
def test_pipeline_t_params_decided_a_priori(n, r, data, density_bound):
    # refute_T proves T(kappa, r) without a search when r >= diam or
    # kappa diam^2 / 8 <= r, and diam <= 1, so r >= 1 or kappa / 8 <= r
    # leaves nothing to refute.  The recursion cap tests T(r n / 200, r); a
    # mixture component is certified at the propagated parameters of its m
    # retained coordinates, at the internal radius r / 6.
    m = data.draw(st.integers(1, n))
    r_dec = r * DEC_DENOMINATOR / FINAL_DENOMINATOR
    cap = TParams(r * n / DEC_DENOMINATOR, r)
    cert = _certificate_params(r_dec, m, 1.0 - m / n, density_bound)
    for p in (cap, cert):
        assert p.r >= 1.0 or p.kappa / 8 <= p.r, p


def test_capped_recursion_and_mixture_certify_without_search(monkeypatch):
    results = []
    refute = decompose.refute_T

    def recording(*args, **kwargs):
        results.append(refute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(decompose, "refute_T", recording)
    _, audit, _ = decrement_recursion(product_mix(6, 0.1, 0.9),
                                   replace(CFG, max_iters=2))
    assert audit["cap_hit"] and not audit["truncated"]
    assert results == []
    res = mixture_decomposition(product_mix(6, 0.1, 0.9), CFG)
    # one call per good component, each decided before any search
    assert len(results) == len(res.good_indices()) > 0
    assert [c for c in res.certificates if c is not None] == results
    zero = {"subsets_checked": 0, "restarts_run": 0, "gradient_steps": 0}
    for cert in results:
        assert cert.status == "holds" and cert.budget_used == zero


# -----------------------------------------------------------------------------
# sample_coarsen
# -----------------------------------------------------------------------------
def test_sampling_trivial_single_component(rng):
    mu = random_measure(rng, 2, 3, 8)
    rep = MixtureRepresentation((1.0,), (mu,))
    out, drawn, diag = _sample_coarsen_detail(mu, rep, [0], 0.3, seed=0)
    assert drawn == (0,)
    assert variation_norm(mix(out), mu) < 1e-12


def test_sampling_far_point_masses():
    sp = ProductSpace(2, 4)
    comps = tuple(DiscreteMeasure.point_mass(sp, w)
                  for w in [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1)])
    mu = mix(MixtureRepresentation((1 / 3, 1 / 3, 1 / 3), comps))
    rep = MixtureRepresentation((1 / 3, 1 / 3, 1 / 3), comps)
    out = sample_coarsen(mu, rep, [0, 1, 2], 0.3, seed=4)
    assert variation_norm(mix(out), mu) < 3 * 0.3
    assert set(c.support[0] for c in out.components) <= {w for c in comps
                                                         for w in c.support}


def test_sampling_variation_has_the_bits_of_mix(rng):
    # a round's variation, taken from the components laid out on supp(mu)
    # and their other atoms, is the one ``mix`` and ``variation_norm`` give,
    # bit for bit; every third mu drops an atom, so components lie off it
    for k in range(24):
        comps = tuple(random_measure(rng, 2, 4, 6) for _ in range(1 + k % 4))
        rep = MixtureRepresentation(tuple(rng.dirichlet(np.ones(len(comps))).tolist()), comps)
        mu = mix(rep)
        if k % 3 == 0 and len(mu) > 1:
            mu = DiscreteMeasure.from_unnormalized(mu.space, dict(list(mu.atoms.items())[1:]))
        out, _, diag = _sample_coarsen_detail(mu, rep, range(len(comps)), 0.45, seed=k)
        assert diag["variation"].hex() == variation_norm(mix(out), mu).hex()


def test_sampling_cap_formula_is_astronomical():
    # the closed-form sample bound at epsilon=0.4, I=0 is ceil(100 e^40):
    # adaptive doubling is the only workable mechanism
    m_star = math.ceil(16 / 0.4 ** 2 * math.exp(16 * (0 + 1) / 0.4))
    assert math.isclose(m_star, 100 * math.exp(40), rel_tol=1e-12)
    assert m_star > 1e19


def test_sampling_requires_good_mass():
    sp = ProductSpace(2, 2)
    comps = (DiscreteMeasure.point_mass(sp, (0, 0)),
             DiscreteMeasure.point_mass(sp, (1, 1)))
    mu = mix(MixtureRepresentation((0.5, 0.5), comps))
    rep = MixtureRepresentation((0.5, 0.5), comps)
    with pytest.raises(MeasureError, match="good-set mass"):
        sample_coarsen(mu, rep, [0], 0.3, seed=0)


def test_sampling_exhaustion_reports_best():
    # three equal thirds cannot be matched by 64 draws to within 3 epsilon for
    # epsilon below the count-rounding error, so the capped search must fail
    sp = ProductSpace(2, 3)
    comps = tuple(DiscreteMeasure.point_mass(sp, w)
                  for w in [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    mu = mix(MixtureRepresentation((1 / 3, 1 / 3, 1 / 3), comps))
    rep = MixtureRepresentation((1 / 3, 1 / 3, 1 / 3), comps)
    with pytest.raises(BudgetExhausted, match="best variation"):
        _sample_coarsen_detail(mu, rep, [0, 1, 2], 0.005, seed=0,
                               start=64, cap=64)


# -----------------------------------------------------------------------------
# mixture decomposition
# -----------------------------------------------------------------------------
def test_mixture_on_product_is_single_cell():
    mu = biased_product(6, 0.3)
    res = mixture_decomposition(mu, CFG)
    assert len(res.weights) <= 2
    assert res.bad_mass < CFG.epsilon
    assert not res.truncated
    assert tv_distance(res.reconstruct(), mu) < 1e-9


def test_mixture_on_product_mix_contract():
    mu = product_mix(8, 0.1, 0.9)
    res = mixture_decomposition(mu, CFG)
    assert tv_distance(res.reconstruct(), mu) < 1e-9
    assert res.bad_mass < CFG.epsilon
    assert not res.truncated
    for i in res.good_indices():
        assert res.certificates[i] is not None
        assert not res.certificates[i].refuted
        assert res.certificate_params[i] is not None
    # non-bad components sit near one of the product factors, up to a
    # light-weight boundary remainder covering the cluster overlap
    factors = [biased_product(8, 0.1), biased_product(8, 0.9)]
    weighted = 0.0
    for i in res.good_indices():
        comp = res.components[i]
        dists = [transport_distance(comp, f)[0] for f in factors]
        weighted += res.weights[i] * min(dists)
        if res.weights[i] >= 0.15:
            assert min(dists) < 0.15
    assert weighted <= 0.15


def test_mixture_determinism():
    mu = product_mix(6, 0.2, 0.8)
    r1 = mixture_decomposition(mu, CFG)
    r2 = mixture_decomposition(mu, CFG)
    assert json.dumps(r1.to_dict(), sort_keys=True) == \
        json.dumps(r2.to_dict(), sort_keys=True)


def test_mixture_envelope_refusal():
    big = biased_product(5, 0.4)
    bad_cfg = PipelineConfig(epsilon=0.3, r=0.3)
    mu = DiscreteMeasure(ProductSpace(9, 1), {(i,): 1 / 9 for i in range(9)})
    with pytest.raises(MeasureError, match="envelope"):
        mixture_decomposition(mu, bad_cfg)


# -----------------------------------------------------------------------------
# carving
# -----------------------------------------------------------------------------
def _count_carve_solves(monkeypatch):
    """Count the exact transport solves a carve makes itself; solves inside the
    certificate search are not counted."""
    count = [0]
    nested = [0]

    def counted(solve):
        def wrapped(*args):
            if not nested[0]:
                count[0] += 1
            return solve(*args)
        return wrapped

    def uncounted(fn):
        def wrapped(*args, **kwargs):
            nested[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                nested[0] -= 1
        return wrapped

    for solver in ("_solve_transport", "_solve_graph"):  # either exact solver
        monkeypatch.setattr(transport, solver, counted(getattr(transport, solver)))
    monkeypatch.setattr(decompose, "refute_T", uncounted(decompose.refute_T))
    return count


def test_small_tc_carve_solves_once(monkeypatch):
    # a product law and the product of its marginals differ by round-off
    mu = product_measure(ProductSpace(2, 5), [[0.45, 0.55], [0.3, 0.7], [0.6, 0.4],
                                              [0.52, 0.48], [0.35, 0.65]])
    count = _count_carve_solves(monkeypatch)
    carve = carve_concentrated_set(mu, CFG)
    assert carve.case == "small-tc"
    assert carve.info["dbar_to_product"] > 0.0
    assert count == [1]


def test_carve_atom_case():
    sp = ProductSpace(2, 4)
    mu = DiscreteMeasure(sp, {(0, 0, 0, 0): 0.9, (1, 1, 1, 1): 0.1})
    carve = carve_concentrated_set(mu, CFG)
    assert carve.case == "atom"
    assert carve.cell == ((0, 0, 0, 0),)


def test_carve_product_case_two():
    mu = biased_product(6, 0.3)
    carve = carve_concentrated_set(mu, CFG)
    assert carve.case == "small-tc"
    assert sum(mu.mass(w) for w in carve.cell) >= 0.5


#: the heavy-atom threshold e^{-161 c_B TC / delta^2} that a carve records
#: when neither route applies and it falls back to the heaviest atom
HEAVY_ATOM_FAILURE = "heavy atom mass >= e^{-161 c_B TC / delta^2}"


def test_carve_falls_back_to_heaviest_atom_on_code_measure():
    # TC = 4 log 2 is above r^4 n and every atom (1/16) is below the
    # threshold e^{-TC/2} = 1/4, so neither route applies
    mu = diagonal_code(8)
    cfg = PipelineConfig(epsilon=0.3, r=0.2, seed=5, delta_override=0.25,
                         c_B=0.5 * 0.0625 / 161.0)
    carve = carve_concentrated_set(mu, cfg)
    assert carve.case == "atom"
    top = max(mu.atoms.values())
    assert carve.cell == (min(w for w, m in mu.atoms.items() if m == top),)
    assert not carve.certificate.refuted
    assert carve.info["atom_threshold"] > top
    assert carve.info["paper_inequality_failures"] == [HEAVY_ATOM_FAILURE]


# -----------------------------------------------------------------------------
# partition decomposition
# -----------------------------------------------------------------------------
def _check_partition_contract(mu, res, cfg):
    all_words = [w for s in res.sets for w in s]
    assert len(all_words) == len(set(all_words))
    assert set(all_words) == set(mu.support)
    assert res.weights[0] < cfg.epsilon or res.truncated
    assert res.bad_index == 0
    for i in range(1, len(res.sets)):
        assert res.weights[i] > 0
        assert res.certificates[i] is not None
        assert not res.certificates[i].refuted
    m_bound = cfg.c * math.exp(min(cfg.c * total_correlation(mu), 700))
    assert len(res.sets) <= m_bound


@pytest.mark.parametrize("r,delta,exponent", [
    (0.3, 0.1, 1.0), (0.3, 0.1, 4.0), (0.2, 0.25, 0.5), (0.2, 0.25, 1.0),
    (0.2, 0.4, 0.5)])
def test_partition_at_small_atom_exponents_never_raises(r, delta, exponent):
    # at heavy-atom exponents 161 c_B / delta^2 this small, carves on 9-34 of
    # these fixtures take neither route and fall back to the heaviest atom
    cfg = PipelineConfig(epsilon=0.3, r=r, delta_override=delta,
                         c_B=exponent * delta * delta / 161.0)
    fallbacks = 0
    for name, mu in criterion_suite():
        res = partition_decomposition(mu, cfg)
        _check_partition_contract(mu, res, cfg)
        for carve in res.audit["carves"]:
            assert carve["case"] in ("atom", "small-tc"), name
            fallbacks += HEAVY_ATOM_FAILURE in carve["paper_inequality_failures"]
    assert fallbacks > 0


def test_partition_point_mass():
    mu = DiscreteMeasure.point_mass(ProductSpace(2, 3), (0, 1, 0))
    res = partition_decomposition(mu, CFG)
    assert len(res.sets) == 2
    assert res.weights[0] == 0.0
    assert res.sets[1] == ((0, 1, 0),)


def test_partition_product():
    mu = biased_product(6, 0.25)
    res = partition_decomposition(mu, CFG)
    _check_partition_contract(mu, res, CFG)
    assert len(res.sets) <= 3


def test_partition_product_mixture():
    mu = product_mix(8, 0.1, 0.9)
    res = partition_decomposition(mu, CFG)
    _check_partition_contract(mu, res, CFG)


def test_partition_subgroup():
    mu = subgroup_measure(2, 5)
    res = partition_decomposition(mu, CFG)
    _check_partition_contract(mu, res, CFG)


def test_partition_determinism_bytes():
    mu = product_mix(6, 0.15, 0.85)
    cfg = PipelineConfig(epsilon=0.25, r=0.3, seed=23)
    blob1 = json.dumps(partition_decomposition(mu, cfg).to_dict(), sort_keys=True)
    blob2 = json.dumps(partition_decomposition(mu, cfg).to_dict(), sort_keys=True)
    assert blob1 == blob2
    other = json.dumps(
        partition_decomposition(
            mu, PipelineConfig(epsilon=0.25, r=0.3, seed=24)).to_dict(),
        sort_keys=True)
    # no carve route draws random numbers, so the seed does not move a partition
    assert other == blob1
