"""Process generators, block kernels, and the conditional block statistics."""
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hamconc import (
    DiscreteMeasure,
    MixtureRepresentation,
    MeasureError,
    ProductSpace,
    dual_total_correlation,
    marginal,
    mix,
    shannon_entropy,
    total_correlation,
    tv_distance,
)
from hamconc import decompose, information, measures, processes
from hamconc.measures import SupportCapExceeded, product_measure, variation_norm
from hamconc.decompose import PipelineConfig, partition_decomposition
from hamconc.processes import (
    BlockCodeSpec,
    BlockKernel,
    HiddenSpec,
    IIDSpec,
    JointSpec,
    MarkovSpec,
    block_independence_gap,
    block_kernel,
    conditional_partition,
    empirical_block_measure,
    exact_block_measure,
    hookup_block_kernel,
    load_spec,
    relative_dbar_estimate,
    simulate_path,
    spec_from_dict,
    spec_to_dict,
    tc_profile,
)

import oracles
from conftest import biased_product


def hidden_mixture_spec(p, q):
    """Regime-frozen hidden chain emitting a half/half mix of two biased
    product laws."""
    transition = ((1 - p, p, 0.0, 0.0), (1 - p, p, 0.0, 0.0),
                  (0.0, 0.0, 1 - q, q), (0.0, 0.0, 1 - q, q))
    stationary = ((1 - p) / 2, p / 2, (1 - q) / 2, q / 2)
    return HiddenSpec(MarkovSpec(transition, stationary), (0, 1, 0, 1))


def copy_joint():
    return JointSpec(IIDSpec((0.5, 0.0, 0.0, 0.5)), 2, 2)


def independent_joint():
    return JointSpec(IIDSpec((0.25, 0.25, 0.25, 0.25)), 2, 2)


def coupled_markov_joint():
    """A mixing chain over pairs (b, a) with genuine b-a coupling."""
    rows = []
    for state in range(4):
        b, a = divmod(state, 2)
        row = np.zeros(4)
        for b2 in range(2):
            for a2 in range(2):
                pb = 0.75 if b2 == b else 0.25
                pa = 0.65 if a2 == b2 else 0.35  # a tracks the new b
                row[b2 * 2 + a2] = pb * pa
        rows.append(tuple(row / row.sum()))
    return JointSpec(MarkovSpec.from_matrix(rows), 2, 2)


# -----------------------------------------------------------------------------
# exact block laws
# -----------------------------------------------------------------------------
def test_iid_block_is_product():
    law = exact_block_measure(IIDSpec((0.3, 0.7)), 4)
    ref = biased_product(4, 0.7)
    assert variation_norm(law, ref) < 1e-14


def test_markov_two_step_paths():
    mk = MarkovSpec.from_matrix([[0.9, 0.1], [0.4, 0.6]])
    law = exact_block_measure(mk, 2)
    for i in range(2):
        for j in range(2):
            assert math.isclose(law.mass((i, j)),
                                mk.stationary[i] * mk.transition[i][j],
                                abs_tol=1e-12)


def test_markov_three_step_path_enumeration():
    mk = MarkovSpec.from_matrix([[0.5, 0.5], [0.2, 0.8]])
    law = exact_block_measure(mk, 3)
    for w in law.support:
        expected = mk.stationary[w[0]]
        for a, b in zip(w, w[1:]):
            expected *= mk.transition[a][b]
        assert math.isclose(law.mass(w), expected, abs_tol=1e-12)


def test_hidden_mixture_matches_product_mix():
    spec = hidden_mixture_spec(0.1, 0.9)
    law = exact_block_measure(spec, 6)
    ref = mix(MixtureRepresentation(
        (0.5, 0.5), (biased_product(6, 0.1), biased_product(6, 0.9))))
    assert variation_norm(law, ref) < 1e-12


def test_block_code_diagonal():
    spec = BlockCodeSpec(IIDSpec((0.5, 0.5)), 1, 2, {(0,): (0, 0), (1,): (1, 1)}, 2)
    law = exact_block_measure(spec, 8)
    assert math.isclose(total_correlation(law), 4 * math.log(2), abs_tol=1e-12)
    assert math.isclose(dual_total_correlation(law), 4 * math.log(2), abs_tol=1e-12)
    # odd window truncates the last pair
    law5 = exact_block_measure(spec, 5)
    assert len(law5) == 8


def test_markov_stationarity_validated():
    with pytest.raises(MeasureError, match="stationary"):
        MarkovSpec(((0.9, 0.1), (0.4, 0.6)), (0.5, 0.5))


def _sparse_chain(k, seed):
    """An irreducible k-state chain with about half of its transitions zero."""
    rng = np.random.default_rng(seed)
    t = rng.random((k, k)) * (rng.random((k, k)) > 0.5)
    t[np.arange(k), (np.arange(k) + 1) % k] += 0.2   # a cycle through all states
    return MarkovSpec.from_matrix(t / t.sum(axis=1, keepdims=True))


def _same_atoms(got, want):
    assert got.space == want.space
    assert oracles.hexed_atoms(got) == oracles.hexed_atoms(want)


@pytest.mark.parametrize("k", range(2, 10))
def test_window_laws_match_dict_dp_oracle(k):
    # k >= 8 states reach numpy's pairwise sum of each word's state masses;
    # a decreasing emit map opens a parent's rows out of lexicographic order
    # and merges the states that share a letter
    chain = _sparse_chain(k, 1705 + k)
    specs = [chain, HiddenSpec(chain, tuple((k - 1 - s) // 2 for s in range(k))),
             HiddenSpec(chain, tuple(int(e) for e in
                                     np.random.default_rng(k).permutation(k) % 3))]
    for spec in specs:
        for n in range(1, 7 if k <= 4 else 5):
            _same_atoms(exact_block_measure(spec, n),
                        oracles.exact_block_measure_dict(spec, n))


def test_iid_and_block_code_laws_match_dict_oracle():
    iid = IIDSpec((0.5, 0.0, 0.3, 0.2))
    code = BlockCodeSpec(_sparse_chain(3, 7), 2, 3,
                         {(a, b): ((a + b) % 2, a, b % 2) for a in range(3)
                          for b in range(3)}, 3)
    for spec in (iid, code):
        for n in range(1, 7):
            _same_atoms(exact_block_measure(spec, n),
                        oracles.exact_block_measure_dict(spec, n))


@pytest.mark.parametrize("joint", [
    JointSpec(_sparse_chain(4, 11), 2, 2),
    JointSpec(_sparse_chain(6, 12), 2, 3),
    JointSpec(_sparse_chain(9, 13), 3, 3),
    JointSpec(HiddenSpec(_sparse_chain(5, 14), (3, 1, 2, 0, 1)), 2, 2),
    JointSpec(IIDSpec((0.4, 0.0, 0.1, 0.25, 0.0, 0.25)), 3, 2),
    JointSpec(BlockCodeSpec(IIDSpec((0.3, 0.7)), 1, 2,
                            {(0,): (0, 3), (1,): (2, 1)}, 4), 2, 2),
], ids=["markov-2x2", "markov-2x3", "markov-3x3", "hidden", "iid", "block-code"])
def test_block_kernel_matches_dict_oracle(joint):
    for n in range(1, 5):
        bk = block_kernel(joint, n)
        base, kernel = oracles.block_kernel_dict(joint, n)
        _same_atoms(bk.base, base)
        assert list(bk.kernel) == list(kernel)
        for b, cond in kernel.items():
            _same_atoms(bk.kernel[b], cond)


# -----------------------------------------------------------------------------
# simulation
# -----------------------------------------------------------------------------
def test_paths_deterministic_per_seed():
    spec = hidden_mixture_spec(0.2, 0.8)
    assert simulate_path(spec, 50, seed=9) == simulate_path(spec, 50, seed=9)
    assert simulate_path(spec, 50, seed=9) != simulate_path(spec, 50, seed=10)


def test_empirical_point_window():
    spec = IIDSpec((0.5, 0.5))
    law = empirical_block_measure(spec, 4, 4, seed=1)
    assert len(law) == 1


def test_empirical_converges_to_exact():
    mk = MarkovSpec.from_matrix([[0.8, 0.2], [0.3, 0.7]])
    exact = exact_block_measure(mk, 3)
    emp = empirical_block_measure(mk, 3, 100_000, seed=2)
    assert tv_distance(emp, exact) < 0.02


def test_empirical_halves_as_length_quadruples():
    mk = MarkovSpec.from_matrix([[0.8, 0.2], [0.3, 0.7]])
    exact = exact_block_measure(mk, 3)
    short = np.mean([tv_distance(
        empirical_block_measure(mk, 3, 4_000, seed=s), exact)
        for s in range(8)])
    longer = np.mean([tv_distance(
        empirical_block_measure(mk, 3, 16_000, seed=100 + s), exact)
        for s in range(8)])
    assert longer < short * 0.75  # halving within noise


# -----------------------------------------------------------------------------
# block kernels
# -----------------------------------------------------------------------------
def test_kernel_constant_for_independent_joint():
    bk = block_kernel(independent_joint(), 2)
    conds = [bk.conditional(b) for b in bk.base.support]
    for cond in conds[1:]:
        assert variation_norm(cond, conds[0]) < 1e-12


def test_kernel_point_mass_for_copy_process():
    bk = block_kernel(copy_joint(), 3)
    for b in bk.base.support:
        assert bk.conditional(b).mass(b) == 1.0


def test_kernel_matches_brute_force_conditional():
    joint = coupled_markov_joint()
    bk = block_kernel(joint, 2)
    law = exact_block_measure(joint, 2)
    for b in bk.base.support:
        togo = {}
        for w, m in law.atoms.items():
            bw = tuple(s // 2 for s in w)
            if bw == b:
                togo[tuple(s % 2 for s in w)] = m
        total = sum(togo.values())
        for a, m in togo.items():
            assert math.isclose(bk.conditional(b).mass(a), m / total,
                                abs_tol=1e-12)


def test_kernel_hookup_reconstructs_exactly():
    joint = coupled_markov_joint()
    bk = block_kernel(joint, 3)
    rebuilt = hookup_block_kernel(bk, joint)
    assert variation_norm(rebuilt, exact_block_measure(joint, 3)) <= 1e-12


def test_kernel_uniform_on_unseen_strings():
    bk = block_kernel(copy_joint(), 2)
    # the copy process never emits b=(0,1) with a different a; but unseen
    # strings get the uniform law by convention
    unseen = bk.conditional((0, 1))
    if (0, 1) not in bk.kernel:
        assert all(math.isclose(unseen.mass(w), 0.25) for w in unseen.support)


# -----------------------------------------------------------------------------
# profiles and distances
# -----------------------------------------------------------------------------
def test_tc_profile_iid_zero():
    prof = tc_profile(IIDSpec((0.2, 0.8)), 5)
    assert all(abs(x) < 1e-10 for x in prof)


def test_tc_profile_mixture_grows_linearly():
    p, q = 0.1, 0.9
    spec = hidden_mixture_spec(p, q)
    prof = tc_profile(spec, 8)
    c = (math.log(2)
         - 0.5 * (-(p * math.log(p) + (1 - p) * math.log(1 - p))
                  + -(q * math.log(q) + (1 - q) * math.log(1 - q))))
    for n, tc in enumerate(prof, start=1):
        assert tc >= c * n - math.log(2) - 1e-9
    # window entropy is subadditive along the profile
    ents = [shannon_entropy(exact_block_measure(spec, n)) for n in range(1, 9)]
    for i in range(len(ents)):
        for j in range(i + 1):
            if i - j - 1 >= 0:
                assert ents[i] <= ents[j] + ents[i - j - 1] + 1e-9


def test_tc_profile_block_regrouping():
    # diagonal pair code: over the pair alphabet the law is iid, so the
    # regrouped profile vanishes while the raw profile grows
    spec = BlockCodeSpec(IIDSpec((0.5, 0.5)), 1, 2,
                         {(0,): (0, 0), (1,): (1, 1)}, 2)
    grouped = tc_profile(spec, 3, block_size=2)
    assert all(abs(x) < 1e-10 for x in grouped)
    raw = tc_profile(spec, 3)
    assert raw[1] > 0.5


def test_tc_profile_joint_average():
    joint = coupled_markov_joint()
    prof = tc_profile(joint, 3)
    assert all(x >= -1e-10 for x in prof)
    bk = block_kernel(joint, 2)
    expected = sum(bk.base.mass(b) * total_correlation(bk.conditional(b))
                   for b in bk.base.support)
    assert math.isclose(prof[1], expected, abs_tol=1e-10)


def test_relative_dbar_cases():
    assert relative_dbar_estimate(copy_joint(), copy_joint(), 2) == 0.0
    val = relative_dbar_estimate(copy_joint(), independent_joint(), 1)
    assert math.isclose(val, 0.5, abs_tol=1e-12)
    a = relative_dbar_estimate(copy_joint(), independent_joint(), 2)
    b = relative_dbar_estimate(independent_joint(), copy_joint(), 2)
    assert abs(a - b) < 1e-10


def test_relative_dbar_rejects_marginal_mismatch():
    skew = JointSpec(IIDSpec((0.7, 0.0, 0.0, 0.3)), 2, 2)
    with pytest.raises(MeasureError, match="base marginal"):
        relative_dbar_estimate(copy_joint(), skew, 1)


def test_block_independence_gap_cases():
    assert block_independence_gap(independent_joint(), 2, 2) == 0.0
    assert block_independence_gap(copy_joint(), 2, 2) == 0.0
    gap = block_independence_gap(coupled_markov_joint(), 2, 2)
    # brute-force the integrand for one string to cross-check positivity
    assert gap >= 0.0
    bk4 = block_kernel(coupled_markov_joint(), 4)
    bk2 = block_kernel(coupled_markov_joint(), 2)
    from hamconc import transport_distance
    b = bk4.base.support[0]
    left = bk4.conditional(b)
    pieces = [bk2.conditional(b[:2]), bk2.conditional(b[2:])]
    prod = {}
    for w1, m1 in pieces[0].atoms.items():
        for w2, m2 in pieces[1].atoms.items():
            prod[w1 + w2] = m1 * m2
    ref = DiscreteMeasure(ProductSpace(2, 4), prod)
    cost, _ = transport_distance(left, ref)
    assert cost <= gap / bk4.base.mass(b) + 1e-9


def _hookup_oracle(bk, spec):
    """The joint law rebuilt through a word-keyed dict and the checked
    constructor."""
    out = {}
    for b, mass in bk.base.atoms.items():
        for a, p in bk.conditional(b).atoms.items():
            out[tuple(bb * spec.a_size + aa for bb, aa in zip(b, a))] = mass * p
    return DiscreteMeasure(ProductSpace(spec.alphabet_size, bk.n), out)


def _gap_oracle(spec, n, k):
    """``block_independence_gap`` with each product of pieces built through
    a word-keyed dict, pruned per layer, and ``from_unnormalized``."""
    from hamconc import transport_distance
    bk_long, bk_short = block_kernel(spec, k * n), block_kernel(spec, n)
    total = 0.0
    for b, mass in bk_long.base.atoms.items():
        prod = {(): 1.0}
        for j in range(k):
            piece = bk_short.conditional(b[j * n:(j + 1) * n])
            prod = {prefix + w: pm * m for prefix, pm in prod.items()
                    for w, m in piece.atoms.items() if pm * m > measures.PRUNE_TOL}
        ref = DiscreteMeasure.from_unnormalized(ProductSpace(spec.a_size, k * n), prod)
        total += mass * transport_distance(bk_long.conditional(b), ref)[0]
    return total


def test_block_statistics_check_no_word_again(monkeypatch):
    # the kernels hold words of their spaces already: rebuilding the joint
    # law and the products of pieces checks none of them again, and every
    # bit is the one the dict-built measures give
    calls = []
    contains = ProductSpace.contains
    monkeypatch.setattr(ProductSpace, "contains",
                        lambda self, word: calls.append(word) or contains(self, word))
    assert block_independence_gap(independent_joint(), 3, 2) == 0.0
    joint = independent_joint()
    hookup_block_kernel(block_kernel(joint, 4), joint)
    assert calls == []
    monkeypatch.undo()
    for spec in (coupled_markov_joint(), copy_joint(),
                 JointSpec(_sparse_chain(6, 12), 2, 3),
                 JointSpec(HiddenSpec(_sparse_chain(5, 14), (3, 1, 2, 0, 1)), 2, 2)):
        for n, k in ((1, 3), (2, 2), (3, 2)):
            assert block_independence_gap(spec, n, k) == _gap_oracle(spec, n, k)
            bk = block_kernel(spec, n * k)
            assert hookup_block_kernel(bk, spec) == _hookup_oracle(bk, spec)


# -----------------------------------------------------------------------------
# conditional partitions
# -----------------------------------------------------------------------------
def test_conditional_partition_independent_joint():
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=1, delta_override=0.05)
    report = conditional_partition(independent_joint(), 4, cfg)
    assert report.good_mass > 0.99
    for b, res in report.partitions.items():
        assert res.weights[0] < cfg.epsilon
        assert len(res.sets) <= 3


def test_conditional_partition_copy_process():
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=1, delta_override=0.05)
    report = conditional_partition(copy_joint(), 3, cfg)
    assert report.good_mass > 0.99
    for b, res in report.partitions.items():
        cells = [c for c in res.sets if c]
        assert len(cells) == 1 and len(cells[0]) == 1


def test_conditional_partition_labels_cover():
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=1, delta_override=0.1)
    report = conditional_partition(coupled_markov_joint(), 4, cfg,
                                   block_size=2)
    bk = block_kernel(coupled_markov_joint(), 4)
    for b in report.good_strings:
        cond = bk.conditional(b)
        grouped_support = set()
        from hamconc import regroup
        grouped = regroup(cond, 2)
        assert set(report.labels[b]) == set(grouped.support)
        codes = set(report.labels[b].values())
        assert all(len(c) == 4 for c in codes)


def sticky_joint():
    """The bench chain: the a-letter depends only on the current b-letter, so
    every conditional is a product law."""
    return JointSpec(MarkovSpec(((0.42, 0.28, 0.12, 0.18),) * 2
                                + ((0.18, 0.12, 0.28, 0.42),) * 2,
                                (0.3, 0.2, 0.2, 0.3)), 2, 2)


def weak_memory_joint():
    """A chain whose next a-letter matches the next b-letter with probability
    0.6, plus 0.05 when the last a-letter equals it: at n = 4 and r = 0.6
    every string needs 9 or 10 cells."""
    rows = []
    for state in range(4):
        b, a = divmod(state, 2)
        row = []
        for b2 in range(2):
            p_match = 0.6 + 0.05 if a == b2 else 0.6
            row += [(0.75 if b2 == b else 0.25) * (p_match if a2 == b2 else 1 - p_match)
                    for a2 in range(2)]
        rows.append(row)
    return JointSpec(MarkovSpec.from_matrix(rows), 2, 2)


def sparse_joint():
    """An i.i.d. joint on 4 x 4 letters whose a-letter is b or b + 1 (mod 4):
    every string's conditional has its own support of 16 words in 4^4."""
    return JointSpec(IIDSpec(tuple(0.15 if a == b else 0.1 if a == (b + 1) % 4 else 0.0
                                   for b in range(4) for a in range(4))), 4, 4)


@pytest.mark.parametrize("joint, cells", [(sticky_joint, {2}),
                                          (weak_memory_joint, {9, 10}),
                                          (sparse_joint, {2})])
def test_conditional_partition_matches_each_string_alone(monkeypatch, joint, cells):
    # the strings sharing a support are partitioned as the rows of one array,
    # in shared carving rounds, with no per-string TC, partition or carve
    # call; each result is the one its conditional gets alone
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module in (information, decompose, processes):
        for name in ("total_correlation", "partition_decomposition",
                     "carve_concentrated_set"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    cfg = PipelineConfig(epsilon=0.3, r=0.6)
    report = conditional_partition(joint(), 4, cfg)
    assert calls == []
    # one string per row block: the products of marginals, too
    monkeypatch.setattr(decompose, "ROW_BLOCK_ELEMENTS", 1)
    blocked = conditional_partition(joint(), 4, cfg)
    monkeypatch.undo()
    bk = block_kernel(joint(), 4)
    assert report.good_strings == bk.base.support
    sizes = set()
    for b in report.good_strings:
        cond = bk.conditional(b)
        assert report.tc_by_string[b].hex() == total_correlation(cond).hex()
        alone = json.dumps(partition_decomposition(cond, cfg).to_dict(), sort_keys=True)
        for rep in (report, blocked):
            assert json.dumps(rep.partitions[b].to_dict(), sort_keys=True) == alone, b
        sizes.add(len(report.partitions[b].sets))
    assert sizes == cells


def test_conditional_partition_labels_widen_past_2n_cells(monkeypatch):
    # a partition of 2^n + 1 cells: n-bit codes would give the first and the
    # last cell the same label
    n = 2

    def many_cells(space, support, masses, cfg, tcs):
        out = []
        for row in masses:
            words = [tuple(w) for w, m in zip(np.asarray(support).tolist(), row) if m > 0.0]
            sets = ((words[0],),) + ((),) * (2 ** n - 1) + (tuple(words[1:]),)
            out.append(SimpleNamespace(sets=sets))
        return out

    monkeypatch.setattr(processes, "_partition_rows", many_cells)
    cfg = PipelineConfig(epsilon=0.3, r=0.3, seed=1, delta_override=0.05)
    report = conditional_partition(independent_joint(), n, cfg)
    assert report.good_strings
    for b in report.good_strings:
        lab = report.labels[b]
        sets = report.partitions[b].sets
        assert len(sets) == 2 ** n + 1
        for idx, cell in enumerate(sets):
            for word in cell:
                assert lab[word] == format(idx, "03b")
        assert lab[sets[0][0]] != lab[sets[-1][0]]


# -----------------------------------------------------------------------------
# spec files
# -----------------------------------------------------------------------------
def test_spec_roundtrip(tmp_path):
    for spec in [IIDSpec((0.25, 0.75)),
                 MarkovSpec.from_matrix([[0.9, 0.1], [0.5, 0.5]]),
                 hidden_mixture_spec(0.3, 0.6),
                 BlockCodeSpec(IIDSpec((0.5, 0.5)), 1, 2,
                               {(0,): (0, 0), (1,): (1, 1)}, 2),
                 coupled_markov_joint()]:
        blob = spec_to_dict(spec)
        again = spec_from_dict(blob)
        assert spec_to_dict(again) == blob
        import json
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))
        assert spec_to_dict(load_spec(str(path))) == blob


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs, a support-cap error caught."""
    tracemalloc.start()
    try:
        fn()
    except SupportCapExceeded:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("spec", [
    IIDSpec((0.125,) * 8),
    MarkovSpec.from_matrix([[0.125] * 8] * 8),
], ids=["iid", "markov"])
def test_over_cap_layer_is_counted_before_it_is_built(monkeypatch, spec):
    # with the cap at 4,000 words, the 4,096-word fourth layer raises before
    # it is built: the failed window costs less memory than twice the
    # 512-word window that fits, and building that layer would cost 4x more
    monkeypatch.setattr(measures, "DEFAULT_SUPPORT_CAP", 4000)
    fits = _peak_bytes(lambda: exact_block_measure(spec, 3))
    with pytest.raises(SupportCapExceeded, match="4096 words"):
        exact_block_measure(spec, 4)
    assert _peak_bytes(lambda: exact_block_measure(spec, 4)) < 2 * fits
