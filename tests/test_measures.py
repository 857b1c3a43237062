"""Measure algebra: marginals, reweighting, mixtures, fuzzy splits, hookups."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamconc import (
    DiscreteMeasure,
    FuzzyPartition,
    MeasureError,
    MixtureRepresentation,
    ProductSpace,
    condition,
    fuzzy_split,
    hookup,
    marginal,
    mix,
    regroup,
    reweight,
    tv_distance,
    variation_norm,
)
from hamconc.information import _tc_rows
from hamconc.measures import (
    _product_rows,
    dump_measure,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    product_measure,
)

import oracles
from conftest import (
    biased_product,
    criterion_suite,
    make_measure,
    random_measure,
    two_cluster,
)


# -----------------------------------------------------------------------------
# marginal
# -----------------------------------------------------------------------------
def test_coordinate_marginals_match_marginal(rng):
    # the marginals of ``_tc_rows``, bit for bit, including the zero mass of a
    # symbol no atom uses
    suite = [mu for _, mu in criterion_suite()]
    suite += [random_measure(rng, 3, 4, 5) for _ in range(20)]
    for mu in suite:
        _, (rows,) = _tc_rows(mu.support, [tuple(mu.atoms.values())],
                              mu.space.alphabet_size)
        rows = rows.tolist()
        assert len(rows) == mu.space.dimension
        for i, row in enumerate(rows):
            m = marginal(mu, [i])
            assert [v.hex() for v in row] == [
                m.mass((s,)).hex() for s in range(mu.space.alphabet_size)]


def test_product_measure_matches_dict_oracle(rng):
    # per-coordinate laws with zero letters and products under PRUNE_TOL,
    # which prune whole branches; three such products as the rows of one
    # batch, where each row keeps the words and bits it has alone
    for alphabet in range(1, 5):
        for n in range(1, 7):
            space, batch = ProductSpace(alphabet, n), []
            for _ in range(3):
                dists = []
                for _ in range(n):
                    d = rng.random(alphabet) * (rng.random(alphabet) > 0.25)
                    d[rng.integers(alphabet)] += 0.5
                    d[rng.integers(alphabet)] = 1e-9 if alphabet > 1 else 1.0
                    dists.append((d / d.sum()).tolist())
                batch.append(dists)
                for coords in (dists, dists[:1]):
                    got = product_measure(space, coords)
                    want = oracles.product_measure_dict(space, coords)
                    assert oracles.hexed_atoms(got) == oracles.hexed_atoms(want)
            digits, rows = _product_rows(np.array(batch))
            for dists, row in zip(batch, rows.tolist()):
                assert [(w, m.hex()) for w, m in zip(map(tuple, digits.tolist()), row)
                        if m > 0.0] == oracles.hexed_atoms(
                            oracles.product_measure_dict(space, dists))


def test_marginal_of_product_is_factor():
    mu = biased_product(4, 0.3)
    m = marginal(mu, [0])
    assert math.isclose(m.mass((0,)), 0.7)
    assert math.isclose(m.mass((1,)), 0.3)


def test_marginal_of_diagonal_is_uniform():
    mu = make_measure(2, 2, {(0, 0): 0.5, (1, 1): 0.5})
    m = marginal(mu, [0])
    assert math.isclose(m.mass((0,)), 0.5) and math.isclose(m.mass((1,)), 0.5)


def test_marginal_identity_projection():
    mu = two_cluster(3)
    assert marginal(mu, range(3)) == mu


def test_marginal_empty_rejected():
    with pytest.raises(MeasureError, match="empty projection"):
        marginal(two_cluster(3), [])


# -----------------------------------------------------------------------------
# reweight
# -----------------------------------------------------------------------------
def test_reweight_indicator_gives_point_mass():
    mu = make_measure(2, 1, {(0,): 0.5, (1,): 0.5})
    out = reweight(mu, lambda w: 1.0 if w == (1,) else 0.0)
    assert out.mass((1,)) == 1.0


def test_reweight_constant_is_identity():
    mu = two_cluster(3, mass=0.25)
    out = reweight(mu, lambda w: 7.5)
    assert variation_norm(out, mu) < 1e-15


def test_reweight_direct_formula():
    # (1/4, 3/4) reweighted by (2, 1): (2/4, 3/4)/1.25 = (0.4, 0.6)
    mu = make_measure(2, 1, {(0,): 0.25, (1,): 0.75})
    out = reweight(mu, {(0,): 2.0, (1,): 1.0})
    assert math.isclose(out.mass((0,)), 0.4)
    assert math.isclose(out.mass((1,)), 0.6)


def test_reweight_null_raises():
    mu = two_cluster(2)
    with pytest.raises(MeasureError, match="null reweighting"):
        reweight(mu, lambda w: 0.0)


# -----------------------------------------------------------------------------
# mix / fuzzy_split / hookup
# -----------------------------------------------------------------------------
def test_mix_single_component():
    mu = two_cluster(2)
    assert mix(MixtureRepresentation((1.0,), (mu,))) == mu


def test_mix_two_point_masses():
    sp = ProductSpace(2, 2)
    rep = MixtureRepresentation(
        (0.5, 0.5),
        (DiscreteMeasure.point_mass(sp, (0, 0)),
         DiscreteMeasure.point_mass(sp, (1, 1))))
    out = mix(rep)
    assert math.isclose(out.mass((0, 0)), 0.5)
    assert math.isclose(out.mass((1, 1)), 0.5)


@pytest.mark.parametrize("weight", [math.nan, -0.5])
def test_mixture_rejects_weight_that_is_not_a_nonnegative_number(weight):
    # a NaN weight once passed both checks, and mix then dropped that
    # component, returning the other one as if it had weight 1
    sp = ProductSpace(2, 1)
    points = (DiscreteMeasure.point_mass(sp, (0,)),
              DiscreteMeasure.point_mass(sp, (1,)))
    with pytest.raises(MeasureError, match="not a nonnegative number"):
        MixtureRepresentation((weight, 1.0), points)


def test_mix_of_biased_products_has_average_marginals():
    p, q = 0.2, 0.6
    rep = MixtureRepresentation(
        (0.5, 0.5), (biased_product(4, p), biased_product(4, q)))
    out = mix(rep)
    for i in range(4):
        m = marginal(out, [i])
        assert math.isclose(m.mass((1,)), (p + q) / 2, abs_tol=1e-12)


def test_fuzzy_split_trivial_partition():
    mu = two_cluster(3)
    fp = FuzzyPartition(mu.space, mu.support, [np.ones(len(mu))])
    rep = fuzzy_split(mu, fp)
    assert rep.weights == (1.0,)
    assert rep.components[0] == mu


def test_fuzzy_split_indicator_partition():
    mu = make_measure(2, 2, {(0, 0): 0.25, (0, 1): 0.25, (1, 1): 0.5})
    fp = FuzzyPartition.indicator(
        mu.space, mu.support, [[(0, 0), (0, 1)], [(1, 1)]])
    rep = fuzzy_split(mu, fp)
    assert math.isclose(rep.weights[0], 0.5)
    assert rep.components[1].mass((1, 1)) == 1.0


def test_fuzzy_split_exponential_weights_bounds():
    # densities e^{-t f}/2 and its complement: first weight in (0, 1/2]
    mu = two_cluster(4)
    t = 0.7
    f = np.array([sum(w) / 4 for w in mu.support])
    rho1 = 0.5 * np.exp(-t * f)
    fp = FuzzyPartition(mu.space, mu.support, [rho1, 1 - rho1])
    rep = fuzzy_split(mu, fp)
    assert 0.0 < rep.weights[0] <= 0.5 + 1e-12


def test_fuzzy_split_reconstructs(rng):
    for _ in range(25):
        mu = random_measure(rng, 3, 3, 12)
        cut = rng.random()
        dens = np.minimum(1.0, cut * rng.random(len(mu)))
        fp = FuzzyPartition(mu.space, mu.support, [dens, 1 - dens])
        rep = fuzzy_split(mu, fp)
        assert tv_distance(mix(rep), mu) < 1e-9


def test_refinement_weights_aggregate(rng):
    # splitting each cell of a fuzzy partition again leaves block sums intact
    for _ in range(10):
        mu = random_measure(rng, 2, 4, 12)
        a = rng.random(len(mu))
        coarse = FuzzyPartition(mu.space, mu.support, [a, 1 - a])
        fine = FuzzyPartition(mu.space, mu.support, [a * 0.3, a * 0.7, 1 - a])
        pc = fuzzy_split(mu, coarse).weights
        pf = fuzzy_split(mu, fine).weights
        assert abs((pf[0] + pf[1]) - pc[0]) < 1e-10
        assert abs(pf[2] - pc[1]) < 1e-10


def _split_outcome(split, mu, partition):
    """The split's weights and component atoms in ``float.hex``, or the
    message of the error it raises."""
    try:
        rep = split(mu, partition)
    except MeasureError as exc:
        return str(exc)
    return ([p.hex() for p in rep.weights],
            [[(w, m.hex()) for w, m in c.atoms.items()] for c in rep.components])


def _random_densities(rng, cells, k):
    """A random ``(cells, k)`` fuzzy partition with some densities 0 or
    below ``PRUNE_TOL``."""
    dens = rng.random((cells, k))
    dens[rng.random((cells, k)) < 0.2] = 0.0
    dens[rng.random((cells, k)) < 0.1] = 1e-17
    dens[0, dens.sum(axis=0) == 0.0] = 1.0
    return dens / dens.sum(axis=0)


def test_fuzzy_split_matches_dict_reference(rng):
    # the array split gives, to the bit, what reading each density word by
    # word from a dict gives, on random, indicator and other-support partitions
    kinds = {"random": 0, "indicator": 0, "other support": 0}
    for trial in range(90):
        kind = list(kinds)[trial % 3]
        mu = random_measure(rng, 3, 3, 12)
        cells, k = int(rng.integers(1, 4)), len(mu)
        if kind == "random":
            fp = FuzzyPartition(mu.space, mu.support, _random_densities(rng, cells, k))
        elif kind == "indicator":
            label = rng.integers(0, cells, k)
            fp = FuzzyPartition.indicator(mu.space, mu.support, [
                [w for w, c in zip(mu.support, label) if c == cell]
                for cell in range(cells)])
        else:
            # light words missing from the partition have density 0, and
            # words outside the support of mu are ignored
            light = rng.random(k) < 0.3
            masses = np.where(light, 1e-13, rng.random(k) + 0.05)
            mu = DiscreteMeasure.from_unnormalized(mu.space, dict(zip(mu.support, masses)))
            extra = [w for w in itertools.product(range(3), repeat=3)
                     if w not in mu.atoms and rng.random() < 0.2]
            support = [w for w, x in zip(mu.support, light) if not x] + extra
            support = [support[i] for i in rng.permutation(len(support))]
            fp = FuzzyPartition(mu.space, support,
                                _random_densities(rng, cells, len(support)))
        got = _split_outcome(fuzzy_split, mu, fp)
        want = _split_outcome(oracles.fuzzy_split_dict, mu, oracles.density_dicts(fp))
        assert got == want
        kinds[kind] += not isinstance(got, str)
    assert min(kinds.values()) > 20, kinds


def test_hookup_single_component():
    mu = two_cluster(2)
    joint = hookup((1.0,), (mu,))
    assert math.isclose(joint.mass((0, 0, 0)), 0.5)
    assert math.isclose(joint.mass((0, 1, 1)), 0.5)


def test_hookup_two_point_masses():
    sp = ProductSpace(2, 1)
    joint = hookup((0.5, 0.5), (DiscreteMeasure.point_mass(sp, (0,)),
                                DiscreteMeasure.point_mass(sp, (1,))))
    assert math.isclose(joint.mass((0, 0)), 0.5)
    assert math.isclose(joint.mass((1, 1)), 0.5)


def test_hookup_matches_fuzzy_split_density(rng):
    # hookup mass of (j, x) equals rho_j(x) mu(x)
    mu = random_measure(rng, 2, 3, 8)
    dens = rng.random(len(mu))
    fp = FuzzyPartition(mu.space, mu.support, [dens, 1 - dens])
    rep = fuzzy_split(mu, fp)
    joint = hookup(rep.weights, rep.components)
    for w, d in zip(mu.support, dens):
        assert abs(joint.mass((0,) + w) - d * mu.mass(w)) < 1e-12
        assert abs(joint.mass((1,) + w) - (1 - d) * mu.mass(w)) < 1e-12


def test_hookup_marginals_exact(rng):
    mu = random_measure(rng, 3, 2, 6)
    dens = rng.random(len(mu))
    fp = FuzzyPartition(mu.space, mu.support, [dens, 1 - dens])
    rep = fuzzy_split(mu, fp)
    joint = hookup(rep.weights, rep.components)
    n = mu.space.dimension
    index_marg = marginal(joint, [0])
    for j, weight in enumerate(rep.weights):
        assert abs(index_marg.mass((j,)) - weight) <= 1e-12
    word_marg = marginal(joint, range(1, n + 1))
    assert variation_norm(word_marg, mix(rep)) <= 1e-12


# -----------------------------------------------------------------------------
# regroup, validation, files
# -----------------------------------------------------------------------------
def test_regroup_diagonal():
    mu = make_measure(2, 4, {(0, 0, 1, 1): 0.5, (1, 1, 0, 0): 0.5})
    g = regroup(mu, 2)
    assert g.space == ProductSpace(4, 2)
    assert math.isclose(g.mass((0, 3)), 0.5)
    assert math.isclose(g.mass((3, 0)), 0.5)


def test_symbols_past_int64_are_refused():
    # symbols are stored as int64: a block alphabet past 2**63 raises, where
    # its codes would wrap around; one of 2**62 symbols still regroups
    mu = make_measure(2 ** 32, 2, {(0, 1): 0.5, (2 ** 32 - 1, 0): 0.5})
    with pytest.raises(MeasureError, match=r"2\*\*63"):
        regroup(mu, 2)
    big = regroup(make_measure(2 ** 31, 2, {(1, 2 ** 31 - 1): 1.0}), 2)
    assert big.support == ((2 ** 32 - 1,),)


@given(st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_point_mass_valid(alphabet, n):
    sp = ProductSpace(alphabet, n)
    mu = DiscreteMeasure.point_mass(sp, (alphabet - 1,) * n)
    assert len(mu) == 1
    assert sum(mu.atoms.values()) == 1.0


def test_invalid_measures_rejected():
    sp = ProductSpace(2, 2)
    with pytest.raises(MeasureError):
        DiscreteMeasure(sp, {(0, 0): 0.6, (1, 1): 0.6})
    with pytest.raises(MeasureError):
        DiscreteMeasure(sp, {(0, 5): 1.0})
    with pytest.raises(MeasureError):
        DiscreteMeasure(sp, {(0, 0): -0.1, (1, 1): 1.1})


def test_measure_file_roundtrip(tmp_path):
    mu = make_measure(3, 2, {(0, 1): 0.25, (2, 2): 0.75})
    path = tmp_path / "m.json"
    dump_measure(mu, str(path))
    again = load_measure(str(path))
    assert again == mu
    # a second dump is byte-identical
    path2 = tmp_path / "m2.json"
    dump_measure(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_loader_checks_each_word_once(monkeypatch):
    # the loader checks every word with ``ProductSpace.contains`` and builds
    # through the unchecked array constructor: one call per atom of the file
    mu = make_measure(2, 3, {w: 1 / 8 for w in itertools.product(range(2), repeat=3)})
    data = json.loads(json.dumps(measure_to_dict(mu)))
    calls = []
    contains = ProductSpace.contains

    def counting(space, word):
        calls.append(word)
        return contains(space, word)

    monkeypatch.setattr(ProductSpace, "contains", counting)
    assert measure_from_dict(data) == mu
    assert len(calls) == len(mu) == 8


def test_loader_errors_carry_field_paths(tmp_path):
    bad = {"alphabet_size": 2, "dimension": 2,
           "atoms": [{"word": [0, 9], "mass": 1.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(MeasureError, match=r"atoms\[0\]\.word"):
        load_measure(str(path))
    with pytest.raises(MeasureError, match="missing field"):
        measure_from_dict({"alphabet_size": 2})
    dup = {"alphabet_size": 2, "dimension": 1,
           "atoms": [{"word": [0], "mass": 0.5}, {"word": [0], "mass": 0.5}]}
    with pytest.raises(MeasureError, match="duplicate"):
        measure_from_dict(dup)


def test_public_constructors_reject_bad_input():
    # arithmetic results skip the word checks, so the entry points must still
    # apply them: bad words, bad masses and bad partitions are refused
    sp = ProductSpace(2, 2)
    bad_atoms = [
        ({(0, 2): 1.0}, "not in A"),                      # symbol out of range
        ({(0, 0, 1): 1.0}, "not in A"),                   # wrong length
        ({(0, 0): -0.5, (1, 1): 1.5}, "negative mass"),
        ({(0, 0): 1.0, (1, 1): math.nan}, "NaN mass"),   # once a point mass
        ({(0, 0): 0.6, (1, 1): 0.6}, "sum to"),
        ({(0, 0): 0.0}, "empty support"),
    ]
    for atoms, message in bad_atoms:
        with pytest.raises(MeasureError, match=message):
            DiscreteMeasure(sp, atoms)

    def as_dict(word, mass):
        return {"alphabet_size": 2, "dimension": 2,
                "atoms": [{"word": word, "mass": mass}]}

    for word, mass, message in [([0, 2], 1.0, r"atoms\[0\]\.word"),
                                ([0], 1.0, r"atoms\[0\]\.word"),
                                ([0, 1], -1.0, r"atoms\[0\]\.mass"),
                                ([0, 1], math.nan, r"atoms\[0\]\.mass"),
                                ([0, 1], "1", r"atoms\[0\]\.mass"),
                                ([0, 1], True, r"atoms\[0\]\.mass"),
                                ([True, 0], 1.0, r"atoms\[0\]\.word"),
                                ([0, 1], 0.5, "sum to")]:
        with pytest.raises(MeasureError, match=message):
            measure_from_dict(as_dict(word, mass))

    with pytest.raises(MeasureError, match="coordinate distributions"):
        product_measure(sp, [[0.5, 0.5]] * 3)
    with pytest.raises(MeasureError, match="not in A"):
        product_measure(sp, [[0.5, 0.25, 0.25]])
    with pytest.raises(MeasureError, match="null reweighting"):
        product_measure(sp, [[0.0, 0.0]])

    support = [(0, 0), (1, 1)]
    with pytest.raises(MeasureError, match="at least one density"):
        FuzzyPartition(sp, support, ())
    with pytest.raises(MeasureError, match=r"outside \[0,1\] at \(1, 1\)"):
        FuzzyPartition(sp, support, [[0.5, 1.5], [0.5, -0.5]])
    with pytest.raises(MeasureError, match="outside"):
        FuzzyPartition(sp, support, [[0.5, math.nan], [0.5, math.nan]])
    with pytest.raises(MeasureError, match=r"sum to 0.9 at \(1, 1\)"):
        FuzzyPartition(sp, support, [[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(MeasureError, match="sum to"):
        FuzzyPartition.indicator(sp, support, [support, [(1, 1)]])
    with pytest.raises(MeasureError, match=r"a row of 2 values; got shape \(1, 3\)"):
        FuzzyPartition(sp, support, [[1.0, 0.0, 0.0]])
    with pytest.raises(MeasureError, match=r"a row of 2 values; got shape \(2,\)"):
        FuzzyPartition(sp, support, [1.0, 1.0])
    with pytest.raises(MeasureError, match="support repeats a word"):
        FuzzyPartition(sp, [(0, 0), (0, 0)], [[1.0, 0.0], [0.0, 1.0]])

    mu = two_cluster(2)
    with pytest.raises(MeasureError, match="negative density"):
        reweight(mu, {(0, 0): 1.0, (1, 1): -0.5})
    with pytest.raises(MeasureError, match="negative density"):
        reweight(mu, lambda w: -1.0)


def test_reweight_equals_the_validating_constructor(rng):
    # the path that skips the word checks gives the measure the public
    # constructor gives, masses to the bit and words in the same order
    for _ in range(25):
        mu = random_measure(rng, 3, 3, 12)
        # some atoms reweighted to 0, so the pruning runs too
        rho = {w: float(rng.random()) if rng.random() > 0.2 else 0.0
               for w in mu.support}
        rho[mu.support[0]] = 0.5
        out = reweight(mu, rho)
        want = DiscreteMeasure.from_unnormalized(
            mu.space, {w: rho[w] * m for w, m in mu.atoms.items()})
        assert list(out.atoms) == list(want.atoms)
        assert [m.hex() for m in out.atoms.values()] == \
            [m.hex() for m in want.atoms.values()]


def test_partition_missing_part_of_the_support_fails_loudly():
    # the uniform law on {0,1}^2 with cells covering only half its mass
    sp = ProductSpace(2, 2)
    mu = DiscreteMeasure.uniform_on(sp, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(MeasureError, match=r"\(0, 1\) lies in no cell"):
        FuzzyPartition.indicator(sp, mu.support, [[(0, 0)], [(1, 1)]])
    half = FuzzyPartition(sp, [(0, 0), (1, 1)], np.eye(2))
    with pytest.raises(MeasureError, match="covers mass 0.5"):
        fuzzy_split(mu, half)
    # a word outside the support in some cell is harmless
    whole = FuzzyPartition.indicator(
        sp, mu.support, [[(0, 0), (0, 1)], [(1, 0), (1, 1), (0, 0, 0)]])
    assert fuzzy_split(mu, whole).weights == (0.5, 0.5)
