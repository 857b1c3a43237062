import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hamconc import (
    DiscreteMeasure,
    MixtureRepresentation,
    ProductSpace,
    mix,
)
from hamconc.measures import product_measure


def make_measure(alphabet, n, atoms):
    return DiscreteMeasure(ProductSpace(alphabet, n), atoms)


def biased_product(n, p):
    """p-biased product law on the n-cube."""
    return product_measure(ProductSpace(2, n), [[1.0 - p, p]])


def product_mix(n, p, q, weight=0.5):
    """Even mixture of two biased product laws."""
    a = biased_product(n, p)
    b = biased_product(n, q)
    return mix(MixtureRepresentation((weight, 1.0 - weight), (a, b)))


def two_cluster(n, mass=0.5):
    """Two antipodal atoms on the n-cube."""
    sp = ProductSpace(2, n)
    return DiscreteMeasure(sp, {(0,) * n: mass, (1,) * n: 1.0 - mass})


def subgroup_measure(q, n):
    """Uniform law on the zero-sum subgroup of (Z/qZ)^n."""
    words = [w for w in itertools.product(range(q), repeat=n)
             if sum(w) % q == 0]
    return DiscreteMeasure.uniform_on(ProductSpace(q, n), words)


def diagonal_code(n):
    """Pushforward of the uniform diagonal pair law to the n-cube (n even)."""
    assert n % 2 == 0
    words = []
    for half in itertools.product(range(2), repeat=n // 2):
        w = []
        for s in half:
            w.extend([s, s])
        words.append(tuple(w))
    return DiscreteMeasure.uniform_on(ProductSpace(2, n), words)


def random_measure(rng, alphabet, n, max_support):
    from oracles import random_sparse_measure
    atoms = random_sparse_measure(rng, alphabet, n, max_support)
    return DiscreteMeasure(ProductSpace(alphabet, n), atoms)


def _pair_code_measure(n):
    """Uniform law on words whose letter pairs repeat with one flipped pair."""
    words = []
    for half in itertools.product(range(2), repeat=n // 2):
        w = []
        for i, s in enumerate(half):
            w.extend([s, s ^ (i % 2)])
        words.append(tuple(w))
    return DiscreteMeasure.uniform_on(ProductSpace(2, n), words)


def _partial_cluster(n, k, mass=0.5):
    sp = ProductSpace(2, n)
    far = tuple([1] * k + [0] * (n - k))
    return DiscreteMeasure(sp, {(0,) * n: mass, far: 1.0 - mass})


def _three_cluster(n):
    sp = ProductSpace(2, n)
    mid = tuple([1] * (n // 2) + [0] * (n - n // 2))
    return DiscreteMeasure(sp, {(0,) * n: 0.4, mid: 0.3, (1,) * n: 0.3})


def criterion_suite():
    """The 50 named fixtures of the pipeline criteria (5-7)."""
    suite = []
    for n in range(2, 9):
        suite.append((f"two-cluster-{n}", two_cluster(n)))
        suite.append((f"two-cluster-skew-{n}", two_cluster(n, mass=0.3)))
    for n, k in [(4, 2), (5, 3), (6, 3), (6, 5), (8, 4), (8, 6)]:
        suite.append((f"partial-cluster-{n}-{k}", _partial_cluster(n, k)))
    for n in (4, 6, 8):
        suite.append((f"diagonal-code-{n}", diagonal_code(n)))
        suite.append((f"pair-code-{n}", _pair_code_measure(n)))
    for q, n in [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4),
                 (3, 5), (5, 3)]:
        suite.append((f"subgroup-{q}-{n}", subgroup_measure(q, n)))
    for n, p, q in [(4, 0.1, 0.9), (4, 0.2, 0.7), (4, 0.3, 0.6),
                    (5, 0.1, 0.9), (5, 0.25, 0.75), (5, 0.2, 0.9),
                    (6, 0.1, 0.9), (6, 0.15, 0.7), (6, 0.05, 0.95),
                    (8, 0.1, 0.9), (8, 0.2, 0.8)]:
        suite.append((f"product-mix-{n}-{p}-{q}", product_mix(n, p, q)))
    for n in (4, 5, 6):
        suite.append((f"three-cluster-{n}", _three_cluster(n)))
    suite.append(("partial-cluster-7-4", _partial_cluster(7, 4)))
    assert len(suite) == 50
    return suite


def product_control_suite():
    """Product laws, which no decrement split may fire on."""
    return [(f"product-{n}-{p}", biased_product(n, p))
            for n, p in [(3, 0.5), (4, 0.3), (5, 0.5), (6, 0.2), (8, 0.4),
                         (8, 0.5)]]


def skewed_small_measures(count=150, seed=9):
    """Dirichlet(0.3) masses on the full cubes {0,1}^2, {0,1}^3, {0,1,2}^2 and
    {0,1}^4: most leave-one-out groups have one dominant atom, so conditional
    probabilities near 1, where the last bit of a logarithm most often
    depends on how it is computed, are common."""
    rng = np.random.default_rng(seed)
    out = []
    for alphabet, n in ((2, 2), (2, 3), (3, 2), (2, 4)):
        words = list(itertools.product(range(alphabet), repeat=n))
        for masses in rng.dirichlet(0.3 * np.ones(len(words)), count):
            out.append(DiscreteMeasure.from_unnormalized(
                ProductSpace(alphabet, n), dict(zip(words, masses.tolist()))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
