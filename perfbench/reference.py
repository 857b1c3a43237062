"""Fixed reference work, timed next to every measurement of the benchmark.

Its time tracks how fast the machine runs at that moment, so dividing a
measurement by a reference time taken just before it removes the speed swings
of a shared VM (see ``run.py``).
"""
import itertools
import math
import time

import numpy as np

#: time of ``work`` on a 2-vCPU Intel Xeon VM with the sibling vCPU idle
SECONDS = 0.0035


def _group_entropies(rounds: int) -> float:
    """Group tuple-keyed masses by leave-one-out projections and sum their
    entropies, like the library's information functionals."""
    words = list(itertools.product(range(2), repeat=7))
    total = 0.0
    for _ in range(rounds):
        for i in range(7):
            groups: dict = {}
            for w in words:
                key = w[:i] + w[i + 1:]
                groups[key] = groups.get(key, 0.0) + 1.0 / 128
            total += sum(q * math.log(q) for q in groups.values())
    return total


def work() -> float:
    """Time of reference work shaped like the library's inner loops:
    dict grouping, entropy sums and small numpy products."""
    start = time.perf_counter()
    _group_entropies(6)
    a = np.linspace(0.0, 1.0, 1024).reshape(32, 32)
    for _ in range(80):
        a = np.abs(a @ a.T) / a.sum()
        a.min(axis=0)
    return time.perf_counter() - start
